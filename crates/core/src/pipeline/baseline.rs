//! [`BaselineMitigator`]: the eleven Table I baselines behind the
//! [`DriftMitigator`] interface.
//!
//! Each baseline's fitted state is one of seven shapes — a plain
//! classifier over (optionally column-reduced) normalized features, the
//! DANN extractor + label head, the SCL encoder + head, the MatchNet
//! support set, the ProtoNet prototypes, the FADA extractor + label head,
//! or the FMAA encoder + head — and each shape persists as a
//! `META + NORM + AUXD` container whose META kind byte tells
//! [`super::restore`] how to rebuild it.

use crate::adapter::{
    decode_meta, encode_meta, AdapterConfig, Budget, ARTIFACT_CLASSIFIER, ARTIFACT_DANN,
    ARTIFACT_FADA, ARTIFACT_FMAA, ARTIFACT_MATCHNET, ARTIFACT_PROTONET, ARTIFACT_SCL,
};
use crate::baselines::cmt::CmtConfig;
use crate::baselines::dann::{DannConfig, DannParts};
use crate::baselines::fada::{FadaConfig, FadaParts};
use crate::baselines::fewshot::{FewShotConfig, MatchNetParts, ProtoNetParts};
use crate::baselines::fmaa::{FmaaConfig, FmaaParts};
use crate::baselines::icd::IcdConfig;
use crate::baselines::scl::{SclConfig, SclParts};
use crate::baselines::{
    cmt, coral, dann, fada, fewshot, fmaa, icd, naive, scl, ClassifierParts, FitContext,
};
use crate::method::Method;
use crate::persist::{
    find_section, read_classifier_snapshot, read_container, read_normalizer, read_state_dict,
    write_classifier_snapshot, write_container, write_normalizer, write_state_dict, Decoder,
    Encoder, TAG_AUX, TAG_META, TAG_NORM,
};
use crate::pipeline::{observe, DriftMitigator};
use crate::serve::{sanitize_batch, GuardConfig, ServeError};
use crate::{CoreError, Result};
use fsda_data::{Dataset, Normalizer};
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::embedding::{EmbeddingConfig, EmbeddingNet};
use fsda_models::{restore_classifier, ClassifierKind, InferPrecision};
use fsda_nn::layer::{Activation, Dense};
use fsda_nn::Sequential;

/// The fitted state of a baseline, one variant per architecture family.
enum Fitted {
    /// SrcOnly / TarOnly / S&T / Fine-tune / CORAL / CMT / ICD.
    Classifier(ClassifierParts),
    /// DANN's extractor + label head.
    Dann(DannParts),
    /// SCL's encoder + linear head.
    Scl(SclParts),
    /// MatchNet's embedding net + support set.
    MatchNet(MatchNetParts),
    /// ProtoNet's embedding net + prototypes.
    ProtoNet(ProtoNetParts),
    /// FADA's extractor + label head (plan-compiled).
    Fada(FadaParts),
    /// FMAA's encoder + head (plan-compiled).
    Fmaa(FmaaParts),
}

impl Fitted {
    fn num_features(&self) -> usize {
        match self {
            Fitted::Classifier(p) => p.num_features,
            Fitted::Dann(p) => p.num_features,
            Fitted::Scl(p) => p.num_features,
            Fitted::MatchNet(p) => p.num_features,
            Fitted::ProtoNet(p) => p.num_features,
            Fitted::Fada(p) => p.num_features,
            Fitted::Fmaa(p) => p.num_features,
        }
    }

    fn num_classes(&self) -> usize {
        match self {
            Fitted::Classifier(p) => p.num_classes,
            Fitted::Dann(p) => p.num_classes,
            Fitted::Scl(p) => p.num_classes,
            Fitted::MatchNet(p) => p.num_classes,
            Fitted::ProtoNet(p) => p.num_classes,
            Fitted::Fada(p) => p.num_classes,
            Fitted::Fmaa(p) => p.num_classes,
        }
    }

    /// The normalizer the shape standardizes its input with (for ICD, over
    /// the kept columns only).
    fn normalizer(&self) -> &Normalizer {
        match self {
            Fitted::Classifier(p) => &p.normalizer,
            Fitted::Dann(p) => &p.normalizer,
            Fitted::Scl(p) => &p.normalizer,
            Fitted::MatchNet(p) => &p.normalizer,
            Fitted::ProtoNet(p) => &p.normalizer,
            Fitted::Fada(p) => &p.normalizer,
            Fitted::Fmaa(p) => &p.normalizer,
        }
    }

    /// Predicts a raw full-width batch. The plan-compiled shapes (FADA,
    /// FMAA) run at `precision`; every other shape has only its exact
    /// path.
    fn predict_with(&self, features: &Matrix, precision: InferPrecision) -> Vec<usize> {
        match self {
            Fitted::Classifier(p) => p.predict(features),
            Fitted::Dann(p) => p.predict(features),
            Fitted::Scl(p) => p.predict(features),
            Fitted::MatchNet(p) => p.predict(features),
            Fitted::ProtoNet(p) => p.predict(features),
            Fitted::Fada(p) => p.predict_with(features, precision),
            Fitted::Fmaa(p) => p.predict_with(features, precision),
        }
    }
}

/// Any Table I baseline as a [`DriftMitigator`]: built unfitted by
/// [`Method::build`], trained with the exact numerics of the corresponding
/// `baselines::*` function, and persisted as a versioned artifact that
/// [`super::restore`] can serve.
pub struct BaselineMitigator {
    method: Method,
    classifier: ClassifierKind,
    budget: Budget,
    watchdog: fsda_nn::WatchdogConfig,
    seed: u64,
    fitted: Option<Fitted>,
}

impl std::fmt::Debug for BaselineMitigator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineMitigator")
            .field("method", &self.method)
            .field("classifier", &self.classifier)
            .field("fitted", &self.fitted.is_some())
            .finish()
    }
}

/// AUX method tag of a classifier-family artifact (kind 2).
fn classifier_method_tag(method: Method) -> Result<u8> {
    Ok(match method {
        Method::SrcOnly => 0,
        Method::TarOnly => 1,
        Method::SourceAndTarget => 2,
        Method::FineTune => 3,
        Method::Coral => 4,
        Method::Cmt => 5,
        Method::Icd => 6,
        m => {
            return Err(CoreError::Persist(format!(
                "{m} is not a classifier-family baseline"
            )))
        }
    })
}

/// Inverse of [`classifier_method_tag`].
fn classifier_method_from_tag(tag: u8) -> Result<Method> {
    Ok(match tag {
        0 => Method::SrcOnly,
        1 => Method::TarOnly,
        2 => Method::SourceAndTarget,
        3 => Method::FineTune,
        4 => Method::Coral,
        5 => Method::Cmt,
        6 => Method::Icd,
        t => {
            return Err(CoreError::Persist(format!(
                "unknown baseline method tag {t}"
            )))
        }
    })
}

/// The few-shot configuration the `matchnet()` / `protonet()` wrappers
/// derive from a budget.
fn few_shot_config(budget: &Budget) -> FewShotConfig {
    FewShotConfig {
        embedding: EmbeddingConfig {
            epochs: budget.emb_epochs,
            ..EmbeddingConfig::default()
        },
        ..FewShotConfig::default()
    }
}

/// Loads a state dict into a freshly built network, mapping shape
/// mismatches to [`CoreError::Persist`].
fn load_into(net: &mut Sequential, state: &fsda_nn::state::StateDict) -> Result<()> {
    fsda_nn::state::load_state(net, state).map_err(CoreError::Persist)
}

impl BaselineMitigator {
    /// Creates an unfitted baseline mitigator. `config` supplies the
    /// classifier family and budget; FS-family methods are rejected at
    /// [`BaselineMitigator::fit`] time (use the adapters).
    pub(crate) fn new(method: Method, config: &AdapterConfig, seed: u64) -> Self {
        BaselineMitigator {
            method,
            classifier: config.classifier,
            budget: config.budget.clone(),
            watchdog: config.watchdog,
            seed,
            fitted: None,
        }
    }

    fn fitted(&self) -> &Fitted {
        match &self.fitted {
            Some(fitted) => fitted,
            None => panic!("BaselineMitigator: use before fit"),
        }
    }

    /// Restores a fitted baseline from artifact bytes (kinds 2–8). The
    /// training-time knobs (classifier family, budget) are not part of the
    /// artifact; restored mitigators serve predictions only.
    ///
    /// # Errors
    ///
    /// Structural failures and unknown kinds surface as
    /// [`CoreError::Persist`].
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let sections = read_container(bytes)?;
        let (kind, seed, num_classes) = decode_meta(&sections)?;
        let mut norm_dec = Decoder::new(find_section(&sections, TAG_NORM)?);
        let normalizer = read_normalizer(&mut norm_dec)?;
        norm_dec.expect_end()?;
        let mut aux = Decoder::new(find_section(&sections, TAG_AUX)?);
        let (method, fitted) = match kind {
            ARTIFACT_CLASSIFIER => {
                let method = classifier_method_from_tag(aux.take_u8()?)?;
                let num_features = aux.take_usize()?;
                let columns = if aux.take_bool()? {
                    Some(aux.take_usizes()?)
                } else {
                    None
                };
                let snapshot = read_classifier_snapshot(&mut aux)?;
                let classifier = restore_classifier(&snapshot)?;
                (
                    method,
                    Fitted::Classifier(ClassifierParts {
                        normalizer,
                        columns,
                        classifier,
                        num_classes,
                        num_features,
                    }),
                )
            }
            ARTIFACT_DANN => {
                let num_features = aux.take_usize()?;
                let hidden = aux.take_usize()?;
                let feature_dim = aux.take_usize()?;
                let extractor_state = read_state_dict(&mut aux)?;
                let head_state = read_state_dict(&mut aux)?;
                // Dummy rng: load_state overwrites every parameter.
                let mut rng = SeededRng::new(0);
                let mut extractor = Sequential::new();
                extractor.push(Dense::new(num_features, hidden, &mut rng));
                extractor.push(Activation::relu());
                extractor.push(Dense::new(hidden, feature_dim, &mut rng));
                extractor.push(Activation::relu());
                let mut label_head = Sequential::new();
                label_head.push(Dense::new(feature_dim, num_classes, &mut rng));
                load_into(&mut extractor, &extractor_state)?;
                load_into(&mut label_head, &head_state)?;
                (
                    Method::Dann,
                    Fitted::Dann(DannParts {
                        normalizer,
                        extractor,
                        label_head,
                        hidden,
                        feature_dim,
                        num_classes,
                        num_features,
                    }),
                )
            }
            ARTIFACT_SCL => {
                let num_features = aux.take_usize()?;
                let hidden = aux.take_usize()?;
                let embed_dim = aux.take_usize()?;
                let encoder_state = read_state_dict(&mut aux)?;
                let head_state = read_state_dict(&mut aux)?;
                let mut rng = SeededRng::new(0);
                let mut encoder = Sequential::new();
                encoder.push(Dense::new(num_features, hidden, &mut rng));
                encoder.push(Activation::relu());
                encoder.push(Dense::new(hidden, embed_dim, &mut rng));
                let mut head = Sequential::new();
                head.push(Dense::new(embed_dim, num_classes, &mut rng));
                load_into(&mut encoder, &encoder_state)?;
                load_into(&mut head, &head_state)?;
                (
                    Method::Scl,
                    Fitted::Scl(SclParts {
                        normalizer,
                        encoder,
                        head,
                        hidden,
                        embed_dim,
                        num_classes,
                        num_features,
                    }),
                )
            }
            ARTIFACT_MATCHNET => {
                let num_features = aux.take_usize()?;
                let hidden = aux.take_usizes()?;
                let embed_dim = aux.take_usize()?;
                let state = read_state_dict(&mut aux)?;
                let config = EmbeddingConfig {
                    hidden,
                    embed_dim,
                    ..EmbeddingConfig::default()
                };
                let net = EmbeddingNet::from_encoder_state(config, seed, num_features, &state)?;
                let support = aux.take_matrix()?;
                let support_labels = aux.take_usizes()?;
                let temperature = aux.take_f64()?;
                (
                    Method::MatchNet,
                    Fitted::MatchNet(MatchNetParts {
                        normalizer,
                        net,
                        support,
                        support_labels,
                        temperature,
                        num_classes,
                        num_features,
                    }),
                )
            }
            ARTIFACT_PROTONET => {
                let num_features = aux.take_usize()?;
                let hidden = aux.take_usizes()?;
                let embed_dim = aux.take_usize()?;
                let state = read_state_dict(&mut aux)?;
                let config = EmbeddingConfig {
                    hidden,
                    embed_dim,
                    ..EmbeddingConfig::default()
                };
                let net = EmbeddingNet::from_encoder_state(config, seed, num_features, &state)?;
                let prototypes = aux.take_matrix()?;
                (
                    Method::ProtoNet,
                    Fitted::ProtoNet(ProtoNetParts {
                        normalizer,
                        net,
                        prototypes,
                        num_classes,
                        num_features,
                    }),
                )
            }
            ARTIFACT_FADA => {
                let num_features = aux.take_usize()?;
                let hidden = aux.take_usize()?;
                let feature_dim = aux.take_usize()?;
                let extractor_state = read_state_dict(&mut aux)?;
                let head_state = read_state_dict(&mut aux)?;
                let mut rng = SeededRng::new(0);
                let mut extractor = Sequential::new();
                extractor.push(Dense::new(num_features, hidden, &mut rng));
                extractor.push(Activation::relu());
                extractor.push(Dense::new(hidden, feature_dim, &mut rng));
                extractor.push(Activation::relu());
                let mut label_head = Sequential::new();
                label_head.push(Dense::new(feature_dim, num_classes, &mut rng));
                load_into(&mut extractor, &extractor_state)?;
                load_into(&mut label_head, &head_state)?;
                let mut parts = FadaParts {
                    normalizer,
                    extractor,
                    label_head,
                    hidden,
                    feature_dim,
                    num_classes,
                    num_features,
                    plan: None,
                };
                // Plans are never persisted; the deterministic recompile
                // keeps restored predictions bit-identical.
                parts.compile_plan();
                (Method::Fada, Fitted::Fada(parts))
            }
            ARTIFACT_FMAA => {
                let num_features = aux.take_usize()?;
                let hidden = aux.take_usize()?;
                let embed_dim = aux.take_usize()?;
                let encoder_state = read_state_dict(&mut aux)?;
                let head_state = read_state_dict(&mut aux)?;
                let mut rng = SeededRng::new(0);
                let mut encoder = Sequential::new();
                encoder.push(Dense::new(num_features, hidden, &mut rng));
                encoder.push(Activation::relu());
                encoder.push(Dense::new(hidden, embed_dim, &mut rng));
                let mut head = Sequential::new();
                head.push(Dense::new(embed_dim, num_classes, &mut rng));
                load_into(&mut encoder, &encoder_state)?;
                load_into(&mut head, &head_state)?;
                let mut parts = FmaaParts {
                    normalizer,
                    encoder,
                    head,
                    hidden,
                    embed_dim,
                    num_classes,
                    num_features,
                    plan: None,
                };
                parts.compile_plan();
                (Method::Fmaa, Fitted::Fmaa(parts))
            }
            other => {
                return Err(CoreError::Persist(format!(
                    "artifact kind {other} is not a baseline artifact"
                )))
            }
        };
        aux.expect_end()?;
        Ok(BaselineMitigator {
            method,
            classifier: ClassifierKind::Tnet,
            budget: Budget::default(),
            watchdog: fsda_nn::WatchdogConfig::default(),
            seed,
            fitted: Some(fitted),
        })
    }
}

impl DriftMitigator for BaselineMitigator {
    fn method(&self) -> Method {
        self.method
    }

    fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    fn num_classes(&self) -> usize {
        self.fitted().num_classes()
    }

    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()> {
        let _span = observe::call_span(observe::Call::Fit, self.method);
        let ctx = FitContext {
            source,
            target_shots,
            classifier: self.classifier,
            budget: &self.budget,
            seed: self.seed,
        };
        let fitted = match self.method {
            Method::SrcOnly => Fitted::Classifier(naive::fit_src_only(&ctx)?),
            Method::TarOnly => Fitted::Classifier(naive::fit_tar_only(&ctx)?),
            Method::SourceAndTarget => Fitted::Classifier(naive::fit_source_and_target(&ctx)?),
            Method::FineTune => Fitted::Classifier(naive::fit_fine_tune(&ctx)?),
            Method::Coral => Fitted::Classifier(coral::fit_coral(&ctx)?),
            Method::Cmt => {
                Fitted::Classifier(cmt::fit_cmt_with_config(&ctx, &CmtConfig::default())?)
            }
            Method::Icd => {
                Fitted::Classifier(icd::fit_icd_with_config(&ctx, &IcdConfig::default())?)
            }
            Method::Dann => {
                let config = DannConfig {
                    epochs: self.budget.nn_epochs,
                    ..DannConfig::default()
                };
                Fitted::Dann(dann::fit_with_config(&ctx, &config)?)
            }
            Method::Scl => {
                let config = SclConfig {
                    epochs: self.budget.emb_epochs,
                    head_epochs: self.budget.nn_epochs,
                    ..SclConfig::default()
                };
                Fitted::Scl(scl::fit_with_config(&ctx, &config)?)
            }
            Method::MatchNet => Fitted::MatchNet(fewshot::fit_matchnet_with_config(
                &ctx,
                &few_shot_config(&self.budget),
            )?),
            Method::ProtoNet => Fitted::ProtoNet(fewshot::fit_protonet_with_config(
                &ctx,
                &few_shot_config(&self.budget),
            )?),
            Method::Fada => {
                let config = FadaConfig {
                    watchdog: self.watchdog,
                    ..FadaConfig::from_epochs(self.budget.nn_epochs)
                };
                Fitted::Fada(fada::fit_with_config(&ctx, &config)?)
            }
            Method::Fmaa => {
                let config = FmaaConfig {
                    epochs: self.budget.nn_epochs,
                    watchdog: self.watchdog,
                    ..FmaaConfig::default()
                };
                Fitted::Fmaa(fmaa::fit_with_config(&ctx, &config)?)
            }
            m @ (Method::FsGan
            | Method::FsNoCond
            | Method::FsVae
            | Method::FsVanillaAe
            | Method::Fs) => {
                return Err(CoreError::InvalidInput(format!(
                    "BaselineMitigator cannot run {m}; use the FS adapters"
                )))
            }
        };
        self.fitted = Some(fitted);
        Ok(())
    }

    fn predict_batch_with(
        &self,
        features: &Matrix,
        _threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        let _span = observe::call_span(observe::Call::Predict, self.method);
        observe::note_precision(precision);
        self.fitted().predict_with(features, precision)
    }

    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        _threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        let _span = observe::call_span(observe::Call::TryPredictBatch, self.method);
        observe::note_precision(precision);
        let fitted = self.fitted();
        if features.cols() != fitted.num_features() {
            return Err(crate::serve::rejected(ServeError::DimensionMismatch {
                expected: fitted.num_features(),
                got: features.cols(),
            }));
        }
        // ICD trains on a column subset: reduce first so the guard checks
        // against the normalizer the classifier actually uses, and report
        // a corrupt cell at the caller's column, not the subset's.
        if let Fitted::Classifier(
            p @ ClassifierParts {
                columns: Some(cols),
                ..
            },
        ) = fitted
        {
            let reduced = features.select_cols(cols);
            let repaired =
                sanitize_batch(&reduced, &p.normalizer, guard).map_err(|e| e.at_columns(cols))?;
            return Ok(p.predict_reduced(repaired.as_ref().unwrap_or(&reduced)));
        }
        let repaired = sanitize_batch(features, fitted.normalizer(), guard)?;
        Ok(fitted.predict_with(repaired.as_ref().unwrap_or(features), precision))
    }

    fn to_bytes(&self) -> Result<Vec<u8>> {
        let fitted = match &self.fitted {
            Some(fitted) => fitted,
            None => {
                return Err(CoreError::InvalidInput(
                    "BaselineMitigator: to_bytes before fit".to_string(),
                ))
            }
        };
        let mut norm = Encoder::new();
        let mut aux = Encoder::new();
        let kind = match fitted {
            Fitted::Classifier(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_u8(classifier_method_tag(self.method)?);
                aux.put_usize(p.num_features);
                aux.put_bool(p.columns.is_some());
                if let Some(cols) = &p.columns {
                    aux.put_usizes(cols);
                }
                write_classifier_snapshot(&mut aux, &p.classifier.snapshot()?);
                ARTIFACT_CLASSIFIER
            }
            Fitted::Dann(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_usize(p.num_features);
                aux.put_usize(p.hidden);
                aux.put_usize(p.feature_dim);
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.extractor));
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.label_head));
                ARTIFACT_DANN
            }
            Fitted::Scl(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_usize(p.num_features);
                aux.put_usize(p.hidden);
                aux.put_usize(p.embed_dim);
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.encoder));
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.head));
                ARTIFACT_SCL
            }
            Fitted::MatchNet(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_usize(p.num_features);
                aux.put_usizes(&p.net.config().hidden);
                aux.put_usize(p.net.embed_dim());
                write_state_dict(&mut aux, &p.net.export_encoder()?);
                aux.put_matrix(&p.support);
                aux.put_usizes(&p.support_labels);
                aux.put_f64(p.temperature);
                ARTIFACT_MATCHNET
            }
            Fitted::ProtoNet(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_usize(p.num_features);
                aux.put_usizes(&p.net.config().hidden);
                aux.put_usize(p.net.embed_dim());
                write_state_dict(&mut aux, &p.net.export_encoder()?);
                aux.put_matrix(&p.prototypes);
                ARTIFACT_PROTONET
            }
            Fitted::Fada(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_usize(p.num_features);
                aux.put_usize(p.hidden);
                aux.put_usize(p.feature_dim);
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.extractor));
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.label_head));
                ARTIFACT_FADA
            }
            Fitted::Fmaa(p) => {
                write_normalizer(&mut norm, &p.normalizer);
                aux.put_usize(p.num_features);
                aux.put_usize(p.hidden);
                aux.put_usize(p.embed_dim);
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.encoder));
                write_state_dict(&mut aux, &fsda_nn::state::export_state(&p.head));
                ARTIFACT_FMAA
            }
        };
        Ok(write_container(&[
            (TAG_META, encode_meta(kind, self.seed, fitted.num_classes())),
            (TAG_NORM, norm.into_bytes()),
            (TAG_AUX, aux.into_bytes()),
        ]))
    }
}
