//! FS-only adapter: classifier trained on the invariant features of the
//! source domain.

use super::{build_classifier, decode_meta, decode_separation, encode_meta, AdapterConfig};
use crate::fs::FeatureSeparation;
use crate::persist::{
    find_section, read_classifier_snapshot, read_container, write_classifier_snapshot,
    write_container, write_normalizer, write_separation, Decoder, Encoder, TAG_CLSF, TAG_FSEP,
    TAG_META, TAG_NORM,
};
use crate::pipeline::observe;
use crate::serve::{sanitize_batch, GuardConfig, ServeError};
use crate::{CoreError, Result};
use fsda_data::Dataset;
use fsda_linalg::Matrix;
use fsda_models::restore_classifier;
use fsda_models::{Classifier, InferPrecision};

/// The trained components of an [`FsAdapter`], present only after `fit`.
struct FittedFs {
    separation: FeatureSeparation,
    classifier: Box<dyn Classifier>,
    num_classes: usize,
}

/// FS-only adapter: classifier trained on the invariant features of the
/// source domain.
pub struct FsAdapter {
    config: AdapterConfig,
    seed: u64,
    fitted: Option<FittedFs>,
}

impl std::fmt::Debug for FsAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.fitted {
            Some(fitted) => f
                .debug_struct("FsAdapter")
                .field("variant_features", &fitted.separation.variant().len())
                .field("classifier", &fitted.classifier.name())
                .finish(),
            None => f.debug_struct("FsAdapter").field("fitted", &false).finish(),
        }
    }
}

impl FsAdapter {
    /// Creates an unfitted adapter; train it with
    /// [`DriftMitigator::fit`](crate::pipeline::DriftMitigator::fit).
    pub fn new(config: AdapterConfig, seed: u64) -> Self {
        FsAdapter {
            config,
            seed,
            fitted: None,
        }
    }

    /// Runs feature separation and trains the classifier on the invariant
    /// source features.
    ///
    /// # Errors
    ///
    /// Propagates separation and training failures; fails when separation
    /// leaves no invariant features.
    pub fn fit(
        source: &Dataset,
        target_shots: &Dataset,
        config: &AdapterConfig,
        seed: u64,
    ) -> Result<Self> {
        let mut adapter = FsAdapter::new(config.clone(), seed);
        adapter.fit_in_place(source, target_shots)?;
        Ok(adapter)
    }

    /// Trains this adapter's components from its stored config and seed.
    pub(crate) fn fit_in_place(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()> {
        let stage = observe::start_stage();
        let separation = FeatureSeparation::fit(source, target_shots, &self.config.fs)?;
        observe::finish_stage(stage, "separation");
        self.fit_components(source, separation)
    }

    /// Fits the classifier behind a **precomputed** separation — the warm
    /// re-fit path (see
    /// [`FsGanAdapter::fit_with_separation`](super::FsGanAdapter::fit_with_separation)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the separation's feature
    /// space disagrees with `source` or leaves no invariant features, and
    /// propagates training failures.
    pub fn fit_with_separation(
        source: &Dataset,
        separation: FeatureSeparation,
        config: &AdapterConfig,
        seed: u64,
    ) -> Result<Self> {
        if separation.num_features() != source.num_features() {
            return Err(CoreError::InvalidInput(format!(
                "separation covers {} features, source has {}",
                separation.num_features(),
                source.num_features()
            )));
        }
        let mut adapter = FsAdapter::new(config.clone(), seed);
        adapter.fit_components(source, separation)?;
        Ok(adapter)
    }

    /// The source-side training shared by both fit paths.
    fn fit_components(&mut self, source: &Dataset, separation: FeatureSeparation) -> Result<()> {
        if separation.invariant().is_empty() {
            return Err(CoreError::InvalidInput(
                "feature separation declared every feature variant".into(),
            ));
        }
        let (inv, _) = separation.split_normalized(source.features());
        let stage = observe::start_stage();
        let mut classifier =
            build_classifier(self.config.classifier, self.seed, &self.config.budget);
        classifier.fit(&inv, source.labels(), source.num_classes())?;
        observe::finish_stage(stage, "classifier");
        self.fitted = Some(FittedFs {
            separation,
            classifier,
            num_classes: source.num_classes(),
        });
        Ok(())
    }

    fn fitted(&self) -> &FittedFs {
        match &self.fitted {
            Some(fitted) => fitted,
            None => panic!("FsAdapter: use before fit"),
        }
    }

    /// Whether the adapter has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// The configuration this adapter was built with.
    pub fn config(&self) -> &AdapterConfig {
        &self.config
    }

    /// The underlying feature separation.
    ///
    /// # Panics
    ///
    /// Panics when the adapter has not been fitted.
    pub fn separation(&self) -> &FeatureSeparation {
        &self.fitted().separation
    }

    /// Number of classes.
    ///
    /// # Panics
    ///
    /// Panics when the adapter has not been fitted.
    pub fn num_classes(&self) -> usize {
        self.fitted().num_classes
    }

    /// Serializes the fitted pipeline into a versioned artifact (see
    /// [`crate::persist`] for the format).
    ///
    /// # Errors
    ///
    /// Fails when the classifier family does not support snapshots, or when
    /// the adapter has not been fitted.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let fitted = match &self.fitted {
            Some(fitted) => fitted,
            None => {
                return Err(CoreError::InvalidInput(
                    "FsAdapter: to_bytes before fit".into(),
                ))
            }
        };
        let mut fsep = Encoder::new();
        write_separation(&mut fsep, &fitted.separation);
        let mut norm = Encoder::new();
        write_normalizer(&mut norm, fitted.separation.normalizer());
        let mut clsf = Encoder::new();
        write_classifier_snapshot(&mut clsf, &fitted.classifier.snapshot()?);
        Ok(write_container(&[
            (
                TAG_META,
                encode_meta(super::ARTIFACT_FS, self.seed, fitted.num_classes),
            ),
            (TAG_FSEP, fsep.into_bytes()),
            (TAG_NORM, norm.into_bytes()),
            (TAG_CLSF, clsf.into_bytes()),
        ]))
    }

    /// Deserializes an artifact written by [`FsAdapter::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] on structural problems (bad magic,
    /// wrong version, failed checksum, truncation, wrong artifact kind) and
    /// the component errors on semantically invalid state.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let sections = read_container(bytes)?;
        let (kind, seed, num_classes) = decode_meta(&sections)?;
        if kind != super::ARTIFACT_FS {
            return Err(CoreError::Persist(format!(
                "artifact kind {kind} is not an FS artifact"
            )));
        }
        let separation = decode_separation(&sections)?;
        let mut dec = Decoder::new(find_section(&sections, TAG_CLSF)?);
        let snapshot = read_classifier_snapshot(&mut dec)?;
        dec.expect_end()?;
        let classifier = restore_classifier(&snapshot)?;
        Ok(FsAdapter {
            config: AdapterConfig::default(),
            seed,
            fitted: Some(FittedFs {
                separation,
                classifier,
                num_classes,
            }),
        })
    }

    /// Writes the artifact produced by [`FsAdapter::to_bytes`] to disk.
    ///
    /// # Errors
    ///
    /// As [`FsAdapter::to_bytes`], plus I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.to_bytes()?;
        std::fs::write(path.as_ref(), bytes)
            .map_err(|e| CoreError::Persist(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Reads and deserializes an artifact written by [`FsAdapter::save`].
    ///
    /// # Errors
    ///
    /// As [`FsAdapter::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| CoreError::Persist(format!("read {}: {e}", path.as_ref().display())))?;
        FsAdapter::from_bytes(&bytes)
    }
}

impl crate::pipeline::DriftMitigator for FsAdapter {
    fn method(&self) -> crate::Method {
        crate::Method::Fs
    }

    fn is_fitted(&self) -> bool {
        FsAdapter::is_fitted(self)
    }

    fn num_classes(&self) -> usize {
        FsAdapter::num_classes(self)
    }

    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()> {
        let _span = observe::call_span(observe::Call::Fit, crate::Method::Fs);
        self.fit_in_place(source, target_shots)
    }

    fn predict_batch_with(
        &self,
        features: &Matrix,
        _threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        let _span = observe::call_span(observe::Call::Predict, crate::Method::Fs);
        observe::note_precision(precision);
        let fitted = self.fitted();
        let (inv, _) = fitted.separation.split_normalized(features);
        fitted.classifier.predict_with(&inv, precision)
    }

    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        _threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let _span = observe::call_span(observe::Call::TryPredictBatch, crate::Method::Fs);
        observe::note_precision(precision);
        let fitted = self.fitted();
        let repaired = sanitize_batch(features, fitted.separation.normalizer(), guard)?;
        let (inv, _) = fitted
            .separation
            .split_normalized(repaired.as_ref().unwrap_or(features));
        Ok(fitted.classifier.predict_with(&inv, precision))
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        FsAdapter::to_bytes(self)
    }

    fn variant_features(&self) -> Option<Vec<usize>> {
        self.is_fitted()
            .then(|| self.separation().variant().to_vec())
    }
}
