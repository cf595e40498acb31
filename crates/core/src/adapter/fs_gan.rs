//! The full FS+GAN adapter (Fig. 1 of the paper): classifier trained on
//! **all** features of the source domain, served behind a [`Reconstructor`]
//! that maps each test sample's variant features back into the source
//! distribution at inference — no classifier retraining ever.

use super::{
    build_classifier, build_reconstructor, decode_meta, decode_separation, encode_meta, row_seed,
    AdapterConfig, DegradedMode, ReconKind,
};
use crate::fs::FeatureSeparation;
use crate::persist::{
    find_section, read_classifier_snapshot, read_container, read_recon_snapshot,
    write_classifier_snapshot, write_container, write_normalizer, write_recon_snapshot,
    write_separation, Decoder, Encoder, TAG_CLSF, TAG_FSEP, TAG_META, TAG_NORM, TAG_RECN,
};
use crate::pipeline::observe;
use crate::serve::{sanitize_batch, FitError, GuardConfig, ServeError};
use crate::{CoreError, Result};
use fsda_data::Dataset;
use fsda_gan::{restore_reconstructor, Reconstructor, TrainOutcome};
use fsda_linalg::par::{par_map, resolve_threads};
use fsda_linalg::Matrix;
use fsda_models::classifier::argmax_rows;
use fsda_models::restore_classifier;
use fsda_models::{Classifier, InferPrecision};

/// The trained components of an [`FsGanAdapter`], present only after `fit`.
struct FittedFsGan {
    separation: FeatureSeparation,
    reconstructor: Option<Box<dyn Reconstructor>>,
    classifier: Box<dyn Classifier>,
    num_classes: usize,
}

/// The full FS+GAN adapter (Fig. 1 of the paper).
pub struct FsGanAdapter {
    config: AdapterConfig,
    seed: u64,
    fitted: Option<FittedFsGan>,
}

/// Monte-Carlo draws averaged by every prediction entry point (the
/// general expectation the paper states before Eq. 10). The paper's M = 1
/// shortcut is justified only "for small noise vectors"; the default
/// generator draws a 30-dimensional noise block, and a single draw leaks
/// that sampling variance straight into the served labels (several points
/// of macro-F1 on the scenario grids). Eight draws sit where agreement
/// with the many-draw label stabilises (the `mc_ablation` bench uses
/// M = 9 as its reference); beyond that the curve is flat and the cost
/// is linear in draws. The reconstruction entry points
/// ([`FsGanAdapter::reconstruct_batch_with`] and its guarded twin) still
/// expose single draws — callers that want samples get samples, but a
/// *label* is a posterior summary and is averaged.
pub const MC_DRAWS: u64 = 8;

impl std::fmt::Debug for FsGanAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.fitted {
            Some(fitted) => f
                .debug_struct("FsGanAdapter")
                .field("variant_features", &fitted.separation.variant().len())
                .field(
                    "reconstructor",
                    &fitted
                        .reconstructor
                        .as_ref()
                        .map(|r| r.name())
                        .unwrap_or("none"),
                )
                .field("classifier", &fitted.classifier.name())
                .finish(),
            None => f
                .debug_struct("FsGanAdapter")
                .field("fitted", &false)
                .finish(),
        }
    }
}

impl FsGanAdapter {
    /// Creates an unfitted adapter; train it with
    /// [`DriftMitigator::fit`](crate::pipeline::DriftMitigator::fit).
    pub fn new(config: AdapterConfig, seed: u64) -> Self {
        FsGanAdapter {
            config,
            seed,
            fitted: None,
        }
    }

    /// Fits the full pipeline: FS, then the reconstructor on source data
    /// only, then the classifier on all normalized source features.
    ///
    /// When FS finds no variant features the reconstructor is skipped and
    /// prediction degenerates to plain source-trained classification (the
    /// correct behaviour when no drift is detectable).
    ///
    /// # Errors
    ///
    /// Propagates separation, reconstruction, and training failures.
    pub fn fit(
        source: &Dataset,
        target_shots: &Dataset,
        config: &AdapterConfig,
        seed: u64,
    ) -> Result<Self> {
        let mut adapter = FsGanAdapter::new(config.clone(), seed);
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

    /// Fits the reconstructor + classifier behind a **precomputed**
    /// separation — the warm re-fit path: a drift controller that already
    /// re-separated through a [`crate::fs::SeparationCache`] skips the
    /// F-node search entirely and only pays for the source-side training.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidInput`] when the separation's
    /// feature space disagrees with `source`, and propagates reconstruction
    /// / training failures.
    pub fn fit_with_separation(
        source: &Dataset,
        separation: FeatureSeparation,
        config: &AdapterConfig,
        seed: u64,
    ) -> Result<Self> {
        if separation.num_features() != source.num_features() {
            return Err(crate::CoreError::InvalidInput(format!(
                "separation covers {} features, source has {}",
                separation.num_features(),
                source.num_features()
            )));
        }
        let mut adapter = FsGanAdapter::new(config.clone(), seed);
        adapter.fit_components(source, separation)?;
        Ok(adapter)
    }

    /// The source-side training shared by [`fit_in_place`]
    /// (`FsGanAdapter::fit_in_place`) and
    /// [`FsGanAdapter::fit_with_separation`].
    fn fit_components(&mut self, source: &Dataset, separation: FeatureSeparation) -> Result<()> {
        let (inv, var) = separation.split_normalized(source.features());
        // Degenerate partitions (all-variant or all-invariant) skip the
        // reconstructor and serve as normalized pass-through; see
        // [`FsGanAdapter::degraded`].
        let reconstructor = if separation.variant().is_empty() || separation.invariant().is_empty()
        {
            None
        } else {
            let stage = observe::start_stage();
            let mut recon = build_reconstructor(
                self.config.recon,
                source.num_features(),
                self.seed ^ 0x6A17,
                &self.config.budget,
                self.config.watchdog,
            );
            recon.fit(&inv, &var, &source.one_hot_labels())?;
            observe::finish_stage(stage, "reconstruction");
            Some(recon)
        };
        // The network-management model: trained once, on source only, with
        // ALL features — never retrained afterwards.
        let normalized = separation.normalizer().transform(source.features());
        let stage = observe::start_stage();
        let mut classifier =
            build_classifier(self.config.classifier, self.seed, &self.config.budget);
        classifier.fit(&normalized, source.labels(), source.num_classes())?;
        observe::finish_stage(stage, "classifier");
        self.fitted = Some(FittedFsGan {
            separation,
            reconstructor,
            classifier,
            num_classes: source.num_classes(),
        });
        Ok(())
    }

    /// Guarded variant of [`FsGanAdapter::fit`]: validates both training
    /// sets against `guard.policy` before fitting (rejecting or repairing
    /// NaN/Inf cells) and fails when the reconstructor's watchdog reports
    /// divergence, so a successfully returned adapter is always
    /// serviceable.
    ///
    /// # Errors
    ///
    /// [`FitError::CorruptSource`] / [`FitError::CorruptShots`] localize
    /// the first non-finite training cell under [`crate::InputPolicy::Reject`];
    /// [`FitError::ReconstructionDiverged`] reports watchdog exhaustion;
    /// everything the infallible path raises arrives as [`FitError::Core`].
    pub fn try_fit(
        source: &Dataset,
        target_shots: &Dataset,
        config: &AdapterConfig,
        seed: u64,
        guard: &GuardConfig,
    ) -> std::result::Result<Self, FitError> {
        let mut adapter = FsGanAdapter::new(config.clone(), seed);
        adapter.try_fit_in_place(source, target_shots, guard)?;
        Ok(adapter)
    }

    /// Guarded in-place training from the stored config and seed.
    pub(crate) fn try_fit_in_place(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> std::result::Result<(), FitError> {
        let (src, shots) =
            crate::pipeline::fit_common::sanitize_fit_pair(source, target_shots, guard.policy)?;
        self.fit_in_place(
            src.as_ref().unwrap_or(source),
            shots.as_ref().unwrap_or(target_shots),
        )?;
        if let Some(TrainOutcome::Diverged { epoch }) = self.train_outcome() {
            return Err(FitError::ReconstructionDiverged { epoch });
        }
        Ok(())
    }

    fn fitted(&self) -> &FittedFsGan {
        match &self.fitted {
            Some(fitted) => fitted,
            None => panic!("FsGanAdapter: use before fit"),
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

    /// Name of the fitted reconstructor, `None` in degraded pass-through
    /// mode.
    pub fn reconstructor_name(&self) -> Option<&str> {
        self.fitted()
            .reconstructor
            .as_deref()
            .map(Reconstructor::name)
    }

    /// Whether this adapter serves in a degraded pass-through mode (no
    /// reconstructor), and why. `None` for a healthy pipeline.
    pub fn degraded(&self) -> Option<DegradedMode> {
        let fitted = self.fitted();
        if fitted.reconstructor.is_some() {
            None
        } else if fitted.separation.variant().is_empty() {
            Some(DegradedMode::NoVariantFeatures)
        } else {
            Some(DegradedMode::NoInvariantFeatures)
        }
    }

    /// How the reconstructor's guarded training ended. `None` when there is
    /// no reconstructor (degraded modes) or the adapter was restored from
    /// an artifact (training history is not persisted).
    pub fn train_outcome(&self) -> Option<TrainOutcome> {
        self.fitted()
            .reconstructor
            .as_ref()
            .and_then(|r| r.train_outcome())
    }

    /// Monte-Carlo prediction with an explicit number of generator draws
    /// `m`, averaging class probabilities (the general Eq. before Eq. 10).
    /// Draws use the per-row seeding of every other prediction entry point,
    /// so `m` = [`MC_DRAWS`] reproduces
    /// [`DriftMitigator::predict_batch`](crate::pipeline::DriftMitigator::predict_batch)
    /// exactly, at any `threads`. Unlike the trait entry points this
    /// emits no telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, when the adapter has not been fitted, or when
    /// `features` has a different column count than the fitted data.
    pub fn predict_mc(&self, features: &Matrix, threads: Option<usize>, m: u64) -> Vec<usize> {
        assert!(m > 0, "predict_mc: m must be >= 1");
        self.mc_labels(features, threads, InferPrecision::F64Exact, m, false)
            .unwrap_or_else(|e| unreachable!("unchecked Monte-Carlo accumulation reported {e}"))
    }

    /// The Monte-Carlo accumulator behind every label: reconstructs
    /// `draws` independent draws (per-row seeded, so the result is
    /// chunking- and thread-count-invariant), averages the classifier's
    /// probabilities, and takes one argmax. When `check_finite` is set it
    /// fails with the guarded path's [`ServeError::NonFiniteOutput`] on
    /// the first non-finite reconstructed cell of any draw; that check is
    /// its only error source. Degraded (pass-through) adapters collapse to
    /// a single draw: without a reconstructor every draw is identical.
    fn mc_labels(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
        draws: u64,
        check_finite: bool,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let fitted = self.fitted();
        let draws = if fitted.reconstructor.is_some() {
            draws.max(1)
        } else {
            1
        };
        let draw_probs = |draw: u64| -> std::result::Result<Matrix, ServeError> {
            let out = self.reconstruct_batch_draw(features, threads, precision, draw);
            if check_finite {
                check_finite_output(&out)?;
            }
            Ok(fitted.classifier.predict_proba_with(&out, precision))
        };
        let mut acc = draw_probs(0)?;
        for draw in 1..draws {
            // One classifier, one row count: every draw has the same
            // (rows × classes) shape.
            acc = acc
                .try_add(&draw_probs(draw)?)
                .unwrap_or_else(|e| panic!("predict_proba shape invariant: {e}"));
        }
        Ok(argmax_rows(&acc.scale(1.0 / draws as f64)))
    }

    /// Number of classes.
    ///
    /// # Panics
    ///
    /// Panics when the adapter has not been fitted.
    pub fn num_classes(&self) -> usize {
        self.fitted().num_classes
    }

    /// The batched reconstruction hot path: one generator draw for raw
    /// target features — invariant features pass through normalized,
    /// variant features are reconstructed (Eq. 10–11) — with one
    /// independent noise seed per row and the normalization + generator
    /// forward passes amortized over row chunks on the shared worker pool
    /// (`threads: None` uses every core). [`InferPrecision::F32Fast`] runs
    /// the reconstructor's compiled single-precision plan, trading a small
    /// bounded divergence for throughput; the separation/normalization
    /// arithmetic around the generator always stays in `f64`.
    ///
    /// At [`InferPrecision::F64Exact`] the output is **bit-identical for
    /// every thread count**, including the per-sample reference loop
    /// [`FsGanAdapter::reconstruct_scalar`]: row `r`'s noise depends only
    /// on the adapter seed and `r`, never on how rows are chunked or
    /// scheduled.
    ///
    /// This is the unguarded fast path: input is assumed validated.
    /// NaN/Inf cells propagate garbage-in/garbage-out into the output; use
    /// [`FsGanAdapter::try_reconstruct_batch_with`] on untrusted telemetry.
    ///
    /// # Panics
    ///
    /// Panics when `features` has a different column count than the fitted
    /// data.
    pub fn reconstruct_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Matrix {
        self.reconstruct_batch_draw(features, threads, precision, 0)
    }

    /// One Monte-Carlo reconstruction draw: like
    /// [`FsGanAdapter::reconstruct_batch_with`] but with the noise stream
    /// offset by `draw`, so draw 0 is bit-identical to the public batch
    /// path and further draws give independent generator samples with the
    /// same per-row (chunking-invariant) seeding discipline.
    fn reconstruct_batch_draw(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
        draw: u64,
    ) -> Matrix {
        let fitted = self.fitted();
        if features.rows() == 0 {
            return fitted.separation.normalizer().transform(features);
        }
        let threads = resolve_threads(threads);
        let rows = features.rows();
        let chunk = rows.div_ceil(threads).max(1);
        let chunks: Vec<(usize, usize)> = (0..rows)
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(rows)))
            .collect();
        let base = self.seed ^ 0x11FE ^ (draw << 32);
        let separation = &fitted.separation;
        let recon = fitted.reconstructor.as_deref();
        let parts = par_map(threads, &chunks, |_, &(start, end)| {
            let idx: Vec<usize> = (start..end).collect();
            let block = features.select_rows(&idx);
            let (inv, var) = separation.split_normalized(&block);
            match recon {
                Some(r) => {
                    let seeds: Vec<u64> =
                        (start..end).map(|row| row_seed(base, row as u64)).collect();
                    let var_hat = r.reconstruct_rows_with(&inv, &seeds, precision);
                    separation.reassemble(&inv, &var_hat)
                }
                None => separation.reassemble(&inv, &var),
            }
        });
        // Copy each chunk into a preallocated output instead of folding
        // with vstack, which cloned the first chunk and reallocated the
        // accumulator once per remaining chunk.
        let mut out = Matrix::zeros(rows, features.cols());
        for (part, &(start, end)) in parts.iter().zip(&chunks) {
            assert_eq!(part.rows(), end - start, "chunk row invariant");
            for (i, r) in (start..end).enumerate() {
                out.row_mut(r).copy_from_slice(part.row(i));
            }
        }
        out
    }

    /// Per-sample reference loop for [`FsGanAdapter::reconstruct_batch_with`]
    /// at [`InferPrecision::F64Exact`]: transforms one row at a time
    /// through the scalar reconstruction entry point. Slow by
    /// construction; exists so tests and benches can pin the batched path
    /// to it bit-for-bit.
    pub fn reconstruct_scalar(&self, features: &Matrix) -> Matrix {
        let fitted = self.fitted();
        let base = self.seed ^ 0x11FE;
        let mut out = Matrix::zeros(features.rows(), features.cols());
        for r in 0..features.rows() {
            let row = features.select_rows(&[r]);
            let (inv, var) = fitted.separation.split_normalized(&row);
            let transformed = match &fitted.reconstructor {
                Some(recon) => {
                    let var_hat = recon.reconstruct(&inv, row_seed(base, r as u64));
                    fitted.separation.reassemble(&inv, &var_hat)
                }
                None => fitted.separation.reassemble(&inv, &var),
            };
            out.row_mut(r).copy_from_slice(transformed.row(0));
        }
        out
    }

    /// Guarded variant of [`FsGanAdapter::reconstruct_batch_with`]:
    /// validates the batch against the source-fitted normalizer and
    /// `guard` before reconstruction (rejecting or repairing corrupt
    /// cells), then verifies the output is fully finite. A clean batch
    /// takes the identical reconstruction path and returns bit-identical
    /// output.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on a column-count mismatch;
    /// [`ServeError::NonFinite`] / [`ServeError::OutOfRange`] localizing
    /// the first corrupt input cell under [`crate::InputPolicy::Reject`];
    /// [`ServeError::NonFiniteOutput`] when the pipeline itself emits a
    /// non-finite value (corrupt artifact or diverged reconstructor).
    pub fn try_reconstruct_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Matrix, ServeError> {
        let repaired = sanitize_batch(features, self.fitted().separation.normalizer(), guard)?;
        let out =
            self.reconstruct_batch_with(repaired.as_ref().unwrap_or(features), threads, precision);
        check_finite_output(&out)?;
        Ok(out)
    }

    /// Serializes the fitted pipeline — FS partition with config
    /// provenance, normalizer statistics, reconstructor weights (including
    /// batch-norm running statistics), classifier state — into a versioned
    /// artifact (see [`crate::persist`] for the format).
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
                    "FsGanAdapter: to_bytes before fit".into(),
                ))
            }
        };
        let mut fsep = Encoder::new();
        write_separation(&mut fsep, &fitted.separation);
        let mut norm = Encoder::new();
        write_normalizer(&mut norm, fitted.separation.normalizer());
        let mut recn = Encoder::new();
        match &fitted.reconstructor {
            Some(recon) => {
                recn.put_bool(true);
                write_recon_snapshot(&mut recn, &recon.snapshot()?);
            }
            None => recn.put_bool(false),
        }
        let mut clsf = Encoder::new();
        write_classifier_snapshot(&mut clsf, &fitted.classifier.snapshot()?);
        Ok(write_container(&[
            (
                TAG_META,
                encode_meta(super::ARTIFACT_FSGAN, self.seed, fitted.num_classes),
            ),
            (TAG_FSEP, fsep.into_bytes()),
            (TAG_NORM, norm.into_bytes()),
            (TAG_RECN, recn.into_bytes()),
            (TAG_CLSF, clsf.into_bytes()),
        ]))
    }

    /// Deserializes an artifact written by [`FsGanAdapter::to_bytes`]. The
    /// reloaded adapter reconstructs and predicts bit-identically to the
    /// one that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] on structural problems (bad magic,
    /// wrong version, failed checksum, truncation, wrong artifact kind) and
    /// the component errors on semantically invalid state.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let sections = read_container(bytes)?;
        let (kind, seed, num_classes) = decode_meta(&sections)?;
        if kind != super::ARTIFACT_FSGAN {
            return Err(CoreError::Persist(format!(
                "artifact kind {kind} is not an FS+GAN artifact"
            )));
        }
        let separation = decode_separation(&sections)?;
        let mut dec = Decoder::new(find_section(&sections, TAG_RECN)?);
        let reconstructor = if dec.take_bool()? {
            let snapshot = read_recon_snapshot(&mut dec)?;
            dec.expect_end()?;
            Some(restore_reconstructor(&snapshot)?)
        } else {
            dec.expect_end()?;
            None
        };
        let mut dec = Decoder::new(find_section(&sections, TAG_CLSF)?);
        let snapshot = read_classifier_snapshot(&mut dec)?;
        dec.expect_end()?;
        let classifier = restore_classifier(&snapshot)?;
        // Recover the reconstruction strategy from the restored model so a
        // reloaded artifact reports the same `Method` it was trained as.
        // Degraded (pass-through) artifacts carry no reconstructor and keep
        // the default GAN label.
        let recon = match reconstructor.as_deref().map(Reconstructor::name) {
            Some("gan-nocond") => ReconKind::GanNoCond,
            Some("vae") => ReconKind::Vae,
            Some("ae") => ReconKind::VanillaAe,
            _ => ReconKind::Gan,
        };
        Ok(FsGanAdapter {
            config: AdapterConfig {
                recon,
                ..AdapterConfig::default()
            },
            seed,
            fitted: Some(FittedFsGan {
                separation,
                reconstructor,
                classifier,
                num_classes,
            }),
        })
    }

    /// Writes the artifact produced by [`FsGanAdapter::to_bytes`] to disk.
    ///
    /// # Errors
    ///
    /// As [`FsGanAdapter::to_bytes`], plus I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.to_bytes()?;
        std::fs::write(path.as_ref(), bytes)
            .map_err(|e| CoreError::Persist(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Reads and deserializes an artifact written by
    /// [`FsGanAdapter::save`].
    ///
    /// # Errors
    ///
    /// As [`FsGanAdapter::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| CoreError::Persist(format!("read {}: {e}", path.as_ref().display())))?;
        FsGanAdapter::from_bytes(&bytes)
    }
}

/// The guarded paths' output check: the first non-finite cell, if any.
fn check_finite_output(out: &Matrix) -> std::result::Result<(), ServeError> {
    for r in 0..out.rows() {
        if let Some(c) = out.row(r).iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteOutput { row: r, col: c });
        }
    }
    Ok(())
}

impl crate::pipeline::DriftMitigator for FsGanAdapter {
    fn method(&self) -> crate::Method {
        match self.config.recon {
            super::ReconKind::Gan => crate::Method::FsGan,
            super::ReconKind::GanNoCond => crate::Method::FsNoCond,
            super::ReconKind::Vae => crate::Method::FsVae,
            super::ReconKind::VanillaAe => crate::Method::FsVanillaAe,
        }
    }

    fn is_fitted(&self) -> bool {
        FsGanAdapter::is_fitted(self)
    }

    fn num_classes(&self) -> usize {
        FsGanAdapter::num_classes(self)
    }

    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()> {
        let _span = observe::call_span(observe::Call::Fit, self.method());
        self.fit_in_place(source, target_shots)
    }

    fn try_fit(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> std::result::Result<(), FitError> {
        let _span = observe::call_span(observe::Call::Fit, self.method());
        self.try_fit_in_place(source, target_shots, guard)
    }

    fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        let _span = observe::call_span(observe::Call::Predict, self.method());
        observe::note_precision(precision);
        self.mc_labels(features, threads, precision, MC_DRAWS, false)
            .unwrap_or_else(|e| unreachable!("unchecked Monte-Carlo accumulation reported {e}"))
    }

    /// The batch is validated (and possibly repaired) once, then every
    /// Monte-Carlo draw is checked for finiteness before its probabilities
    /// enter the average, so labels are never derived from non-finite
    /// reconstructions.
    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let _span = observe::call_span(observe::Call::TryPredictBatch, self.method());
        observe::note_precision(precision);
        if fsda_telemetry::enabled() && self.is_fitted() && self.degraded().is_some() {
            fsda_telemetry::counter("serve.degraded_requests", 1);
        }
        let repaired = sanitize_batch(features, self.fitted().separation.normalizer(), guard)?;
        let clean = repaired.as_ref().unwrap_or(features);
        self.mc_labels(clean, threads, precision, MC_DRAWS, true)
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        FsGanAdapter::to_bytes(self)
    }

    fn variant_features(&self) -> Option<Vec<usize>> {
        self.is_fitted()
            .then(|| self.separation().variant().to_vec())
    }

    fn health(&self) -> String {
        let recon = self.reconstructor_name().unwrap_or("none (pass-through)");
        let outcome = match self.train_outcome() {
            Some(o) => o.to_string(),
            None => "n/a".into(),
        };
        let degraded = match self.degraded() {
            Some(mode) => format!("degraded: {mode}"),
            None => "healthy".to_string(),
        };
        format!("pipeline health: reconstructor={recon} training={outcome} status={degraded}")
    }
}
