//! The paper's few-shot domain-adaptation framework, its eleven competing
//! baselines, and the experiment harness that regenerates every table.
//!
//! # The two-step method
//!
//! 1. **[`fs`] — causal feature separation**: treat the source data as
//!    observational and the few target shots as interventional, add an
//!    F-node (domain indicator), and identify the features whose mechanisms
//!    the drift changed ([`fs::FeatureSeparation`]).
//! 2. **[`adapter`] — GAN reconstruction**: train a conditional GAN on
//!    source data only to model `P(X_var | X_inv)`; at inference replace a
//!    target sample's variant features with generated source-like values
//!    and feed the result to a classifier trained purely on source data
//!    ([`adapter::FsGanAdapter`]).
//!
//! The network-management classifier is **never retrained** — when the
//! domain drifts further, only FS and the GAN are re-run (§VI-F, Table III).
//!
//! # Baselines
//!
//! [`baselines`] implements the full comparison suite of Table I: SrcOnly,
//! TarOnly, S&T, Fine-Tune, CORAL, DANN, SCL, MatchNet, ProtoNet, CMT, and
//! ICD, all behind the [`method::Method`] dispatcher.
//!
//! # Experiments
//!
//! [`experiment`] runs (method × classifier × shots × repeats) grids and
//! [`report`] formats them as the paper's tables.
//!
//! # Example
//!
//! ```no_run
//! use fsda_core::adapter::{AdapterConfig, FsGanAdapter};
//! use fsda_core::DriftMitigator;
//! use fsda_data::synth5gc::Synth5gc;
//! use fsda_data::fewshot::few_shot_subset;
//! use fsda_linalg::SeededRng;
//! use fsda_models::metrics::macro_f1;
//!
//! let bundle = Synth5gc::small().generate(1)?;
//! let mut rng = SeededRng::new(2);
//! let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
//! let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &AdapterConfig::quick(), 3)?;
//! let pred = adapter.predict(bundle.target_test.features());
//! let f1 = macro_f1(bundle.target_test.labels(), &pred, 16);
//! println!("FS+GAN F1 = {:.1}", 100.0 * f1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod adapter;
pub mod baselines;
pub mod drift;
pub mod experiment;
pub mod fs;
pub mod method;
pub mod persist;
pub mod pipeline;
pub mod report;
pub mod retry;
pub mod serve;
pub mod sweep;

pub use fsda_telemetry as telemetry;

pub use adapter::{AdapterConfig, DegradedMode, FsAdapter, FsGanAdapter};
pub use drift::DriftError;
pub use fs::{FeatureSeparation, SearchPath, SeparationCache};
pub use fsda_models::InferPrecision;
pub use method::Method;
pub use pipeline::{BaselineMitigator, DriftMitigator};
pub use retry::RetryPolicy;
pub use serve::{FitError, GuardConfig, InputPolicy, ServeError};

/// Errors raised by the DA framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Invalid inputs (shape mismatches, empty data, bad configuration).
    InvalidInput(String),
    /// Causal discovery failed.
    Causal(String),
    /// A dataset operation failed.
    Data(String),
    /// A classifier failed to train.
    Model(String),
    /// A reconstructor failed to train.
    Reconstruction(String),
    /// An artifact failed to encode, decode, or hit the filesystem.
    Persist(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            CoreError::Causal(m) => write!(f, "causal discovery failure: {m}"),
            CoreError::Data(m) => write!(f, "data failure: {m}"),
            CoreError::Model(m) => write!(f, "model failure: {m}"),
            CoreError::Reconstruction(m) => write!(f, "reconstruction failure: {m}"),
            CoreError::Persist(m) => write!(f, "persistence failure: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<fsda_causal::CausalError> for CoreError {
    fn from(e: fsda_causal::CausalError) -> Self {
        CoreError::Causal(e.to_string())
    }
}

impl From<fsda_data::DataError> for CoreError {
    fn from(e: fsda_data::DataError) -> Self {
        CoreError::Data(e.to_string())
    }
}

impl From<fsda_models::ModelError> for CoreError {
    fn from(e: fsda_models::ModelError) -> Self {
        CoreError::Model(e.to_string())
    }
}

impl From<fsda_gan::GanError> for CoreError {
    fn from(e: fsda_gan::GanError) -> Self {
        CoreError::Reconstruction(e.to_string())
    }
}

impl From<persist::PersistError> for CoreError {
    fn from(e: persist::PersistError) -> Self {
        CoreError::Persist(e.to_string())
    }
}

impl From<fsda_linalg::LinalgError> for CoreError {
    fn from(e: fsda_linalg::LinalgError) -> Self {
        CoreError::InvalidInput(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        assert!(!CoreError::InvalidInput("x".into()).to_string().is_empty());
        let e: CoreError = fsda_causal::CausalError::InsufficientData("n".into()).into();
        assert!(matches!(e, CoreError::Causal(_)));
        let e: CoreError = fsda_models::ModelError::NotFitted.into();
        assert!(matches!(e, CoreError::Model(_)));
        let e: CoreError = fsda_gan::GanError::NotFitted.into();
        assert!(matches!(e, CoreError::Reconstruction(_)));
    }
}
