//! The uniform mitigation interface and the method registry.
//!
//! The paper's central claim is that drift mitigation is *model-agnostic*:
//! separation, reconstruction, and classification are independent stages
//! that compose with any downstream classifier. This module makes every
//! method — the paper's pipeline and every baseline — servable through one
//! interface:
//!
//! - [`DriftMitigator`] is the uniform end-to-end interface — `fit`,
//!   `try_fit`, the prediction entry points, `to_bytes`, `health` —
//!   implemented by [`crate::FsAdapter`], [`crate::FsGanAdapter`], and
//!   every baseline via [`BaselineMitigator`].
//! - [`registry`] turns a [`Method`] into a boxed mitigator
//!   ([`Method::build`]) and restores one from artifact bytes
//!   ([`restore`]), replacing per-call-site `match` dispatch.
//! - [`fit_common`] hoists the normalization preamble every baseline used
//!   to copy-paste.
//!
//! # Serving without naming types
//!
//! ```no_run
//! use fsda_core::adapter::AdapterConfig;
//! use fsda_core::pipeline::DriftMitigator;
//! use fsda_core::Method;
//! use fsda_data::fewshot::few_shot_subset;
//! use fsda_data::synth5gc::Synth5gc;
//! use fsda_linalg::SeededRng;
//!
//! let bundle = Synth5gc::small().generate(1)?;
//! let mut rng = SeededRng::new(2);
//! let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
//! let mut mitigator = Method::FsGan.build(&AdapterConfig::quick(), 3);
//! mitigator.fit(&bundle.source_train, &shots)?;
//! let bytes = mitigator.to_bytes()?;
//! let served = fsda_core::pipeline::restore(&bytes)?;
//! let pred = served.predict_batch(bundle.target_test.features(), None);
//! # let _ = pred;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baseline;
pub mod fit_common;
pub(crate) mod observe;
pub mod registry;

pub use baseline::BaselineMitigator;
pub use registry::restore;

use crate::method::Method;
use crate::serve::{FitError, GuardConfig, ServeError};
use crate::Result;
use fsda_data::Dataset;
use fsda_linalg::Matrix;
use fsda_models::InferPrecision;

/// The uniform end-to-end interface of every drift-mitigation method.
///
/// A mitigator is built unfitted (via [`Method::build`] or a concrete
/// constructor), trained once with [`DriftMitigator::fit`] /
/// [`DriftMitigator::try_fit`], and then serves predictions on raw
/// (unnormalized) target batches. The trait is object-safe, so experiments,
/// serving, and persistence all operate on `Box<dyn DriftMitigator>`
/// without naming concrete types; [`restore`] brings an artifact back as
/// one.
///
/// Every label is the same computation: the paper's inference path
/// (separate, reconstruct the variant block, classify with the frozen
/// source model; Eq. 10–12), which for the FS+GAN family averages class
/// probabilities over [`crate::adapter::MC_DRAWS`] per-row-seeded generator
/// draws, so labels are identical at every batch size and thread count.
/// An implementation writes that path twice:
/// [`DriftMitigator::predict_batch_with`] (unguarded, for trusted input)
/// and [`DriftMitigator::try_predict_batch_with`] (guarded, the only
/// required prediction method). The other three names are one-line
/// forwarders at [`InferPrecision::F64Exact`]. They stay because callers
/// and out-of-tree decorators name them: the serving layer calls the
/// guarded pair, experiments call `predict` and `predict_batch`.
///
/// The trait requires `Send + Sync`: a fitted mitigator is immutable at
/// serving time (all prediction entry points take `&self` and no
/// implementation uses interior mutability), so the multi-tenant server can
/// share one artifact across its shard threads and hot-swap it without
/// copying (see the `fsda-serve` crate).
pub trait DriftMitigator: std::fmt::Debug + Send + Sync {
    /// The [`Method`] this mitigator implements.
    fn method(&self) -> Method;

    /// Whether the mitigator has been fitted (or restored from an
    /// artifact).
    fn is_fitted(&self) -> bool;

    /// Number of classes.
    ///
    /// # Panics
    ///
    /// Panics when the mitigator has not been fitted.
    fn num_classes(&self) -> usize;

    /// Trains the mitigator from source data and the few target shots.
    ///
    /// # Errors
    ///
    /// Propagates separation, reconstruction, and training failures.
    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> Result<()>;

    /// Guarded variant of [`DriftMitigator::fit`]: validates both training
    /// sets against `guard.policy` before fitting.
    ///
    /// # Errors
    ///
    /// [`FitError::CorruptSource`] / [`FitError::CorruptShots`] localize
    /// the first non-finite training cell under
    /// [`crate::InputPolicy::Reject`]; everything the infallible path
    /// raises arrives as [`FitError::Core`].
    fn try_fit(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> std::result::Result<(), FitError> {
        let (src, shots) = fit_common::sanitize_fit_pair(source, target_shots, guard.policy)?;
        self.fit(
            src.as_ref().unwrap_or(source),
            shots.as_ref().unwrap_or(target_shots),
        )?;
        Ok(())
    }

    /// Predicts labels for raw target features:
    /// [`DriftMitigator::predict_batch`] on every core.
    ///
    /// # Panics
    ///
    /// Panics when the mitigator has not been fitted or on a column-count
    /// mismatch.
    fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.predict_batch_with(features, None, InferPrecision::F64Exact)
    }

    /// Unguarded prediction at [`InferPrecision::F64Exact`]. `threads`
    /// bounds the worker pool for mitigators that parallelize over row
    /// chunks (`None` uses every core); labels do not depend on it.
    ///
    /// # Panics
    ///
    /// As [`DriftMitigator::predict`].
    fn predict_batch(&self, features: &Matrix, threads: Option<usize>) -> Vec<usize> {
        self.predict_batch_with(features, threads, InferPrecision::F64Exact)
    }

    /// Guarded prediction at [`InferPrecision::F64Exact`].
    ///
    /// # Errors
    ///
    /// As [`DriftMitigator::try_predict_batch_with`].
    fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> std::result::Result<Vec<usize>, ServeError> {
        self.try_predict_batch_with(features, threads, guard, InferPrecision::F64Exact)
    }

    /// Unguarded prediction at an explicit numeric precision: NaN/Inf
    /// cells propagate into the networks unchecked.
    ///
    /// [`InferPrecision::F64Exact`] is bit-identical to the guarded path
    /// on a clean batch; [`InferPrecision::F32Fast`] lets mitigators with
    /// a compiled inference plan run the single-precision kernels,
    /// trading a small bounded divergence for throughput, while the rest
    /// serve the exact path. The in-tree mitigators count every call of
    /// either `_with` method in
    /// `pipeline.predict.precision.{f64_exact,f32_fast}`.
    ///
    /// The default runs [`DriftMitigator::try_predict_batch_with`] under
    /// [`GuardConfig::default`]; the in-tree mitigators override it with
    /// a path that skips the input scan.
    ///
    /// # Panics
    ///
    /// As [`DriftMitigator::predict`]; the default also panics on every
    /// error the guarded path reports.
    fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        self.try_predict_batch_with(features, threads, &GuardConfig::default(), precision)
            .unwrap_or_else(|e| panic!("{}: {e}", self.method()))
    }

    /// Guarded prediction at an explicit numeric precision; the serving
    /// precision policy enters here. Validates the batch (rejecting or
    /// repairing corrupt cells per `guard`) before prediction; a clean
    /// batch gets the labels of [`DriftMitigator::predict_batch_with`].
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on a column-count mismatch, the
    /// localized [`ServeError`] of the first corrupt cell under
    /// [`crate::InputPolicy::Reject`], and
    /// [`ServeError::NonFiniteOutput`] when a reconstruction emits a
    /// non-finite value.
    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> std::result::Result<Vec<usize>, ServeError>;

    /// Serializes the fitted mitigator into a versioned artifact (see
    /// [`crate::persist`] for the container format). [`restore`] reverses
    /// this for every registered method.
    ///
    /// # Errors
    ///
    /// Fails when the mitigator has not been fitted or a component does not
    /// support snapshots.
    fn to_bytes(&self) -> Result<Vec<u8>>;

    /// The domain-variant feature columns this mitigator identified during
    /// fitting, when it performs feature separation (`FS`, `FS+GAN` and its
    /// reconstruction variants). Baselines that never look at the causal
    /// structure return `None` — which scenario scoring treats as "nothing
    /// detected", distinct from an empty detection.
    fn variant_features(&self) -> Option<Vec<usize>> {
        None
    }

    /// One-line health summary for experiment logs and serving dashboards.
    fn health(&self) -> String {
        format!(
            "pipeline health: method={} status={}",
            self.method().label(),
            if self.is_fitted() {
                "fitted"
            } else {
                "unfitted"
            }
        )
    }
}
