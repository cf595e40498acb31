//! The FS and FS+GAN adapters: Sections V-A and V-C of the paper, glued
//! into deployable objects.
//!
//! This module holds the shared configuration surface ([`Budget`],
//! [`AdapterConfig`]) and the component factories ([`build_classifier`],
//! [`build_reconstructor`]); the adapters themselves live in the focused
//! submodules behind [`FsAdapter`] (classifier on invariant features only)
//! and [`FsGanAdapter`] (classifier on all features behind a reconstruction
//! front-end). Both
//! adapters implement [`crate::pipeline::DriftMitigator`], so they can be
//! built, served, and persisted through the method registry without naming
//! their concrete types.

mod fs;
mod fs_gan;
#[cfg(test)]
mod tests;

pub use fs::FsAdapter;
pub use fs_gan::{FsGanAdapter, MC_DRAWS};

use crate::fs::{FeatureSeparation, FsConfig};
use crate::persist::{
    find_section, read_container, read_normalizer, read_separation, Decoder, Encoder, TAG_FSEP,
    TAG_META, TAG_NORM,
};
use crate::{CoreError, Result};
use fsda_gan::autoencoder::{AeConfig, VanillaAe};
use fsda_gan::cond_gan::{CondGan, CondGanConfig};
use fsda_gan::vae::{Vae, VaeConfig};
use fsda_gan::{Reconstructor, WatchdogConfig};
use fsda_models::forest::{ForestConfig, RandomForest};
use fsda_models::gbdt::{GbdtConfig, GradientBoosting};
use fsda_models::mlp::{MlpClassifier, MlpConfig};
use fsda_models::tnet::{TnetClassifier, TnetConfig};
use fsda_models::{Classifier, ClassifierKind};

/// Compute budget shared by every trained component. The `full()` values
/// correspond to the paper's settings; `quick()` keeps unit tests and CI
/// fast while exercising identical code paths.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Epochs for classifier neural networks (MLP/TNet/DANN/SCL).
    pub nn_epochs: usize,
    /// Epochs for GAN / VAE / AE reconstructors (paper: 500 for the GAN).
    pub gan_epochs: usize,
    /// Epochs for embedding networks (MatchNet/ProtoNet/SCL encoders).
    pub emb_epochs: usize,
    /// Trees in the random forest.
    pub forest_trees: usize,
    /// Boosting rounds for XGB.
    pub gbdt_rounds: usize,
    /// Worker threads for tree ensembles.
    pub threads: usize,
}

impl Budget {
    /// Paper-scale budget.
    pub fn full() -> Self {
        Budget {
            nn_epochs: 60,
            gan_epochs: 300,
            emb_epochs: 60,
            forest_trees: 100,
            gbdt_rounds: 40,
            threads: 8,
        }
    }

    /// Reduced budget for tests and smoke runs. The GAN keeps a larger
    /// share of its schedule than the other nets because its paper-faithful
    /// learning rate (2e-4) needs steps to converge.
    pub fn quick() -> Self {
        Budget {
            nn_epochs: 20,
            gan_epochs: 150,
            emb_epochs: 20,
            forest_trees: 50,
            gbdt_rounds: 10,
            threads: 4,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::full()
    }
}

/// Builds a classifier of the given kind under a budget.
pub fn build_classifier(kind: ClassifierKind, seed: u64, budget: &Budget) -> Box<dyn Classifier> {
    match kind {
        ClassifierKind::Tnet => Box::new(TnetClassifier::new(
            TnetConfig {
                epochs: budget.nn_epochs,
                ..TnetConfig::default()
            },
            seed,
        )),
        ClassifierKind::Mlp => Box::new(MlpClassifier::new(
            MlpConfig {
                epochs: budget.nn_epochs,
                ..MlpConfig::default()
            },
            seed,
        )),
        ClassifierKind::RandomForest => Box::new(RandomForest::new(
            ForestConfig {
                num_trees: budget.forest_trees,
                threads: budget.threads,
                ..ForestConfig::default()
            },
            seed,
        )),
        ClassifierKind::Xgb => Box::new(GradientBoosting::new(
            GbdtConfig {
                rounds: budget.gbdt_rounds,
                ..GbdtConfig::default()
            },
            seed,
        )),
    }
}

/// Reconstruction families for the variant features (Table II ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconKind {
    /// Conditional GAN with label-conditioned discriminator (FS+GAN).
    Gan,
    /// GAN without label conditioning (FS+NoCond).
    GanNoCond,
    /// Conditional VAE (FS+VAE).
    Vae,
    /// Vanilla autoencoder (FS+VanillaAE).
    VanillaAe,
}

impl ReconKind {
    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            ReconKind::Gan => "FS+GAN",
            ReconKind::GanNoCond => "FS+NoCond",
            ReconKind::Vae => "FS+VAE",
            ReconKind::VanillaAe => "FS+VanillaAE",
        }
    }
}

/// Builds a reconstructor of the given kind, sized per the paper's rules:
/// datasets with more than 250 features use noise dim 30 / hidden 256 (the
/// 5GC settings), smaller ones 15 / 128 (the 5GIPC settings).
pub fn build_reconstructor(
    kind: ReconKind,
    num_features: usize,
    seed: u64,
    budget: &Budget,
    watchdog: WatchdogConfig,
) -> Box<dyn Reconstructor> {
    let base = if num_features > 250 {
        CondGanConfig::for_5gc()
    } else {
        CondGanConfig::for_5gipc()
    };
    let hidden = base.hidden;
    match kind {
        ReconKind::Gan => Box::new(CondGan::new(
            CondGanConfig {
                epochs: budget.gan_epochs,
                watchdog,
                ..base
            },
            seed,
        )),
        ReconKind::GanNoCond => Box::new(CondGan::new(
            CondGanConfig {
                epochs: budget.gan_epochs,
                watchdog,
                ..base
            }
            .without_label_conditioning(),
            seed,
        )),
        ReconKind::Vae => Box::new(Vae::new(
            VaeConfig {
                hidden,
                epochs: budget.gan_epochs,
                watchdog,
                ..VaeConfig::default()
            },
            seed,
        )),
        ReconKind::VanillaAe => Box::new(VanillaAe::new(
            AeConfig {
                hidden,
                epochs: budget.gan_epochs,
                watchdog,
                ..AeConfig::default()
            },
            seed,
        )),
    }
}

/// Configuration shared by [`FsAdapter`] and [`FsGanAdapter`].
#[derive(Debug, Clone)]
pub struct AdapterConfig {
    /// Feature-separation settings.
    pub fs: FsConfig,
    /// Reconstruction family (FS+GAN ignores this only in [`FsAdapter`]).
    pub recon: ReconKind,
    /// Classifier family.
    pub classifier: ClassifierKind,
    /// Compute budget.
    pub budget: Budget,
    /// Divergence-watchdog policy applied to reconstructor training. The
    /// default detects NaN/Inf losses and rolls back to the last finite
    /// snapshot while leaving healthy runs bit-identical to unguarded
    /// training.
    pub watchdog: WatchdogConfig,
}

impl Default for AdapterConfig {
    fn default() -> Self {
        AdapterConfig {
            fs: FsConfig::default(),
            recon: ReconKind::Gan,
            classifier: ClassifierKind::Tnet,
            budget: Budget::full(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl AdapterConfig {
    /// Reduced-budget configuration for tests.
    pub fn quick() -> Self {
        AdapterConfig {
            budget: Budget::quick(),
            ..AdapterConfig::default()
        }
    }

    /// Builder-style classifier override.
    pub fn with_classifier(mut self, kind: ClassifierKind) -> Self {
        self.classifier = kind;
        self
    }

    /// Builder-style reconstructor override.
    pub fn with_recon(mut self, kind: ReconKind) -> Self {
        self.recon = kind;
        self
    }
}

/// Why an [`FsGanAdapter`] is serving without a reconstructor: the FS step
/// produced a degenerate partition, so serving falls back to plain
/// normalized pass-through. Both modes are usable (the classifier still
/// runs); the flag exists so operators can tell a deliberate fallback from
/// a healthy pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// FS found no variant features: nothing drifted detectably, and
    /// pass-through is the *correct* behaviour, not a fallback.
    NoVariantFeatures,
    /// FS declared every feature variant: the reconstructor would have
    /// nothing to condition on, so variant features pass through
    /// unreconstructed and accuracy degrades toward SrcOnly.
    NoInvariantFeatures,
}

impl std::fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedMode::NoVariantFeatures => write!(f, "no variant features (no drift found)"),
            DegradedMode::NoInvariantFeatures => {
                write!(f, "no invariant features (nothing to condition on)")
            }
        }
    }
}

/// Artifact-kind byte identifying an [`FsAdapter`] artifact.
pub(crate) const ARTIFACT_FS: u8 = 0;
/// Artifact-kind byte identifying an [`FsGanAdapter`] artifact.
pub(crate) const ARTIFACT_FSGAN: u8 = 1;
/// Artifact-kind byte for the classifier-family baselines (SrcOnly,
/// TarOnly, S&T, Fine-tune, CORAL, CMT, ICD).
pub(crate) const ARTIFACT_CLASSIFIER: u8 = 2;
/// Artifact-kind byte for DANN.
pub(crate) const ARTIFACT_DANN: u8 = 3;
/// Artifact-kind byte for SCL.
pub(crate) const ARTIFACT_SCL: u8 = 4;
/// Artifact-kind byte for MatchNet.
pub(crate) const ARTIFACT_MATCHNET: u8 = 5;
/// Artifact-kind byte for ProtoNet.
pub(crate) const ARTIFACT_PROTONET: u8 = 6;
/// Artifact-kind byte for FADA.
pub(crate) const ARTIFACT_FADA: u8 = 7;
/// Artifact-kind byte for FMAA.
pub(crate) const ARTIFACT_FMAA: u8 = 8;

/// Derives one independent noise seed per serving row (splitmix64 mix).
/// Row `r` always gets the same seed no matter how rows are chunked across
/// worker threads, which is what makes [`FsGanAdapter::reconstruct_batch_with`]
/// bit-identical to the per-sample loop at every thread count.
pub(crate) fn row_seed(base: u64, row: u64) -> u64 {
    let mut z = base ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decodes the FSEP + NORM sections back into a [`FeatureSeparation`].
pub(crate) fn decode_separation(sections: &[([u8; 4], &[u8])]) -> Result<FeatureSeparation> {
    let mut dec = Decoder::new(find_section(sections, TAG_FSEP)?);
    let parts = read_separation(&mut dec)?;
    dec.expect_end()?;
    let mut dec = Decoder::new(find_section(sections, TAG_NORM)?);
    let normalizer = read_normalizer(&mut dec)?;
    dec.expect_end()?;
    if normalizer.num_features() != parts.num_features {
        return Err(CoreError::Persist(format!(
            "FS section declares {} features but the normalizer holds {}",
            parts.num_features,
            normalizer.num_features()
        )));
    }
    FeatureSeparation::from_parts(
        parts.variant,
        parts.invariant,
        normalizer,
        parts.tests_run,
        parts.config,
    )
}

/// Decodes the META section: `(artifact kind, seed, num_classes)`.
pub(crate) fn decode_meta(sections: &[([u8; 4], &[u8])]) -> Result<(u8, u64, usize)> {
    let mut dec = Decoder::new(find_section(sections, TAG_META)?);
    let kind = dec.take_u8()?;
    let seed = dec.take_u64()?;
    let num_classes = dec.take_usize()?;
    dec.expect_end()?;
    Ok((kind, seed, num_classes))
}

/// Encodes the META section shared by every artifact kind.
pub(crate) fn encode_meta(kind: u8, seed: u64, num_classes: usize) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(kind);
    enc.put_u64(seed);
    enc.put_usize(num_classes);
    enc.into_bytes()
}

/// Reads an artifact's META section straight from its container bytes:
/// `(artifact kind, seed, num_classes)`. This is how the registry decides
/// which mitigator an artifact belongs to without decoding the payload.
///
/// # Errors
///
/// Structural container failures and a malformed META section surface as
/// [`CoreError::Persist`].
pub fn peek_meta(bytes: &[u8]) -> Result<(u8, u64, usize)> {
    let sections = read_container(bytes)?;
    decode_meta(&sections)
}
