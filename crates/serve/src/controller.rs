//! Closed-loop drift control: detect → re-fit → validate → hot-swap,
//! with failure containment at every stage.
//!
//! [`DriftController`] is the per-tenant supervisor that turns the
//! library's open-loop pieces — [`fsda_core::drift::DriftDetector`],
//! the re-fit registry, and the server's lock-free
//! [`crate::hotswap::SwapCell`] — into a self-healing loop:
//!
//! 1. **Detect.** Every serving window is scored against the
//!    source-fitted detector; corrupt windows (NaN/Inf cells, width
//!    mismatches) are rejected with a localized error instead of
//!    poisoning the statistics.
//! 2. **Re-fit.** On a re-adaptation recommendation, fresh few-shot
//!    samples are drawn from a bounded ring buffer of recent labeled
//!    target windows and handed to a [`Refitter`]. The default
//!    [`RegistryRefitter`] re-runs the F-node search through a
//!    per-tenant [`fsda_core::fs::SeparationCache`], so only the shots
//!    are folded in; the result is the cold separation exactly.
//! 3. **Validate.** The candidate must beat the incumbent (restored from
//!    its last-good artifact bytes) on a held-back slice of the buffer by
//!    at least [`ControllerConfig::min_improvement`] macro-F1. Validation
//!    runs on the controller's thread — the request path never blocks.
//! 4. **Swap.** Only a validated candidate reaches
//!    [`crate::server::TenantServer::swap`]; its bytes become the new
//!    last-good artifact and its variant set is reported as the
//!    incumbent's ([`DriftController::prev_variant`]).
//!
//! **Containment.** Every re-fit attempt runs on a worker thread under a
//! configurable deadline; a hung fit is detached and counted, never
//! joined. Attempts retry under the seeded-jitter
//! [`fsda_core::RetryPolicy`]. After
//! [`ControllerConfig::breaker_threshold`] consecutive failed cycles the
//! circuit breaker opens: the tenant keeps serving the last-good
//! artifact and re-fitting stops until the cooldown elapses, after which
//! a single half-open probe decides between closing and re-opening.
//!
//! Everything is observable through `control.*` telemetry (see
//! `docs/CONTROL.md` for the full metric table).

use crate::server::TenantServer;
use fsda_core::adapter::AdapterConfig;
use fsda_core::drift::{DriftConfig, DriftDetector, DriftError, DriftReport};
use fsda_core::fs::{SearchPath, SeparationCache};
use fsda_core::pipeline::registry::try_fit_with_separation;
use fsda_core::pipeline::restore;
use fsda_core::telemetry;
use fsda_core::{CoreError, DriftMitigator, FitError, GuardConfig, Method, RetryPolicy};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::Dataset;
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::metrics::macro_f1;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Errors raised by [`DriftController`] construction and window intake.
#[derive(Debug)]
pub enum ControllerError {
    /// The controller's tenant is not registered on the server.
    UnknownTenant(String),
    /// A configuration field is out of range.
    InvalidConfig(String),
    /// The incumbent artifact bytes failed to restore, or restored to an
    /// unfitted pipeline.
    Incumbent(CoreError),
    /// A pushed window's column count disagrees with the source schema.
    WindowMismatch {
        /// Columns the detector was fitted on.
        expected: usize,
        /// Columns the offending window carries.
        got: usize,
    },
    /// A pushed window's class count disagrees with the source dataset.
    ClassMismatch {
        /// Classes in the source dataset.
        expected: usize,
        /// Classes the offending window declares.
        got: usize,
    },
    /// A pushed window holds a non-finite feature cell.
    CorruptWindow {
        /// Row of the first corrupt cell.
        row: usize,
        /// Column of the first corrupt cell.
        col: usize,
    },
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            ControllerError::InvalidConfig(m) => write!(f, "invalid controller config: {m}"),
            ControllerError::Incumbent(e) => write!(f, "incumbent artifact rejected: {e}"),
            ControllerError::WindowMismatch { expected, got } => {
                write!(f, "window has {got} columns, source schema has {expected}")
            }
            ControllerError::ClassMismatch { expected, got } => {
                write!(f, "window declares {got} classes, source has {expected}")
            }
            ControllerError::CorruptWindow { row, col } => {
                write!(f, "window cell ({row}, {col}) is not finite")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// Circuit-breaker state of a [`DriftController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: drift triggers re-adaptation cycles.
    Closed,
    /// Too many consecutive failed cycles: serve last-good, no re-fits
    /// until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next re-adaptation runs as a single-attempt
    /// probe that either closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding reported as `control.breaker.<tenant>`:
    /// 0 closed, 0.5 half-open, 1 open.
    fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 0.5,
            BreakerState::Open => 1.0,
        }
    }
}

/// Control-loop knobs; see the [module docs](self) for the loop itself.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Detector thresholds (fitted on the source features at construction).
    pub drift: DriftConfig,
    /// Guard applied to validation-time predictions.
    pub guard: GuardConfig,
    /// Maximum labeled target windows kept in the ring buffer.
    pub buffer_capacity: usize,
    /// Few-shot samples per class drawn for each re-fit attempt.
    pub shots_per_class: usize,
    /// Trailing fraction of every buffered window held back for the
    /// validation gate (never shown to the re-fit).
    pub holdback_fraction: f64,
    /// Macro-F1 margin a candidate must clear over the incumbent.
    pub min_improvement: f64,
    /// Wall-clock budget per re-fit attempt; a slower fit is detached
    /// and counted as a timeout.
    pub attempt_deadline: Duration,
    /// Retry schedule across attempts within one re-adaptation cycle.
    pub retry: RetryPolicy,
    /// Consecutive failed cycles that trip the breaker open.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Threads for validation-time batch prediction.
    pub predict_threads: Option<usize>,
    /// Base seed; each attempt derives its own fit seed from it.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            drift: DriftConfig::default(),
            guard: GuardConfig::default(),
            buffer_capacity: 8,
            shots_per_class: 5,
            holdback_fraction: 0.25,
            min_improvement: 0.0,
            attempt_deadline: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(60),
            predict_threads: None,
            seed: 0,
        }
    }
}

impl ControllerConfig {
    fn validate(&self) -> Result<(), String> {
        if self.buffer_capacity == 0 {
            return Err("buffer_capacity must be at least 1".into());
        }
        if self.shots_per_class == 0 {
            return Err("shots_per_class must be at least 1".into());
        }
        if !(self.holdback_fraction > 0.0 && self.holdback_fraction < 1.0) {
            return Err(format!(
                "holdback_fraction must be in (0, 1), got {}",
                self.holdback_fraction
            ));
        }
        if self.breaker_threshold == 0 {
            return Err("breaker_threshold must be at least 1".into());
        }
        if self.attempt_deadline.is_zero() {
            return Err("attempt_deadline must be non-zero".into());
        }
        Ok(())
    }
}

/// One re-fit job handed to a [`Refitter`] worker thread.
#[derive(Debug)]
pub struct RefitRequest {
    /// The (fixed) source-domain training set.
    pub source: Arc<Dataset>,
    /// Few-shot target samples drawn for this attempt.
    pub shots: Dataset,
    /// Variant set of the incumbent. Custom refitters may use it; the
    /// registry's cached separation returns the same result without it.
    pub prev_variant: Option<Vec<usize>>,
    /// Fit seed for this attempt (unique per attempt).
    pub seed: u64,
    /// Zero-based attempt index within the cycle.
    pub attempt: usize,
}

/// A successful re-fit: the candidate artifact and which search path
/// produced its separation ([`SearchPath::Warm`] through a cache built
/// earlier, [`SearchPath::Cold`] for pipelines that do not factor through
/// one).
#[derive(Debug)]
pub struct Refit {
    /// The fitted candidate, not yet validated.
    pub artifact: Box<dyn DriftMitigator>,
    /// Cached F-node search (warm), or none (cold, non-FS pipelines).
    pub path: SearchPath,
}

/// The re-fit strategy a [`DriftController`] supervises. Implementations
/// must be cheap to share across threads — each attempt runs on a fresh
/// deadline-bounded worker.
pub trait Refitter: Send + Sync {
    /// Fits a candidate pipeline from the request, or reports a typed
    /// failure. Runs on a worker thread; may be abandoned on deadline.
    fn refit(&self, request: RefitRequest) -> Result<Refit, FitError>;
}

/// Default [`Refitter`]: dispatches through the
/// [`fsda_core::Method`] registry. FS-family methods re-separate through
/// a [`SeparationCache`] built at construction and report
/// [`SearchPath::Warm`]; every other method re-fits from the raw domains
/// via [`DriftMitigator::try_fit`] and reports [`SearchPath::Cold`].
pub struct RegistryRefitter {
    method: Method,
    config: AdapterConfig,
    guard: GuardConfig,
    cache: Option<SeparationCache>,
}

impl RegistryRefitter {
    /// Builds the refitter, precomputing the separation cache (source
    /// normalizer + CI sufficient statistics) for FS-family methods.
    ///
    /// # Errors
    ///
    /// Propagates cache construction failures (corrupt or undersized
    /// source data) for FS-family methods.
    pub fn new(
        method: Method,
        config: AdapterConfig,
        guard: GuardConfig,
        source: &Dataset,
    ) -> fsda_core::Result<Self> {
        let cache = match method {
            Method::FsGan | Method::FsNoCond | Method::FsVae | Method::FsVanillaAe | Method::Fs => {
                Some(SeparationCache::new(source, &config.fs)?)
            }
            Method::Cmt
            | Method::Icd
            | Method::SrcOnly
            | Method::TarOnly
            | Method::SourceAndTarget
            | Method::FineTune
            | Method::Coral
            | Method::Dann
            | Method::Scl
            | Method::MatchNet
            | Method::ProtoNet
            | Method::Fada
            | Method::Fmaa => None,
        };
        Ok(RegistryRefitter {
            method,
            config,
            guard,
            cache,
        })
    }

    /// The method this refitter rebuilds.
    pub fn method(&self) -> Method {
        self.method
    }
}

impl Refitter for RegistryRefitter {
    fn refit(&self, request: RefitRequest) -> Result<Refit, FitError> {
        if let Some(cache) = &self.cache {
            // Localize corrupt shot cells before they reach the CI merge,
            // with the typed error `try_fit` reports for every other method.
            let shots = request.shots.features();
            for r in 0..shots.rows() {
                for c in 0..shots.cols() {
                    if !shots.get(r, c).is_finite() {
                        return Err(FitError::CorruptShots { row: r, col: c });
                    }
                }
            }
            let (separation, path) = fsda_core::FeatureSeparation::fit_warm(
                cache,
                &request.shots,
                request.prev_variant.as_deref(),
            )?;
            if let Some(artifact) = try_fit_with_separation(
                self.method,
                &request.source,
                separation,
                &self.config,
                request.seed,
                &self.guard,
            )? {
                return Ok(Refit { artifact, path });
            }
        }
        let mut artifact = self.method.build(&self.config, request.seed);
        artifact.try_fit(&request.source, &request.shots, &self.guard)?;
        Ok(Refit {
            artifact,
            path: SearchPath::Cold,
        })
    }
}

/// Why a re-adaptation cycle ended without a swap.
#[derive(Debug, Clone)]
pub struct FailureSummary {
    /// Attempts run this cycle.
    pub attempts: usize,
    /// Attempts that hit the deadline.
    pub timeouts: usize,
    /// Human-readable cause of the final attempt's failure.
    pub last_error: String,
    /// Whether this cycle tripped the breaker open.
    pub breaker_tripped: bool,
}

/// A cycle whose best candidate lost the validation gate.
#[derive(Debug, Clone)]
pub struct RejectSummary {
    /// Best candidate macro-F1 on the held-back slice.
    pub candidate_f1: f64,
    /// Incumbent macro-F1 on the same slice.
    pub incumbent_f1: f64,
    /// Attempts run this cycle.
    pub attempts: usize,
    /// Whether this cycle tripped the breaker open.
    pub breaker_tripped: bool,
}

/// A validated candidate reached the server.
#[derive(Debug, Clone)]
pub struct SwapSummary {
    /// Version new requests observe after the swap.
    pub version: u64,
    /// Candidate macro-F1 on the held-back slice.
    pub candidate_f1: f64,
    /// Incumbent macro-F1 on the same slice.
    pub incumbent_f1: f64,
    /// Warm or cold separation search for the winning candidate.
    pub path: SearchPath,
    /// Attempts run this cycle (including the winning one).
    pub attempts: usize,
    /// Wall-clock from drift detection to completed swap.
    pub detect_to_swap: Duration,
}

/// Outcome of one [`DriftController::observe`] call.
#[derive(Debug)]
pub enum ControlOutcome {
    /// The window stayed inside the source envelope.
    NoDrift(DriftReport),
    /// The window itself was rejected before scoring.
    CorruptWindow(DriftError),
    /// Drift detected, but the breaker is open; serving last-good.
    BreakerOpen {
        /// Time until the next half-open probe is allowed.
        remaining: Duration,
    },
    /// A validated candidate was hot-swapped in.
    Swapped(SwapSummary),
    /// All candidates lost the validation gate; incumbent retained.
    Rejected(RejectSummary),
    /// No attempt produced a candidate; incumbent retained.
    Failed(FailureSummary),
}

/// What a deadline-bounded re-fit attempt produced.
enum AttemptResult {
    Fit(Result<Refit, FitError>),
    Timeout,
    Panicked,
}

/// The per-tenant closed-loop drift supervisor; see the
/// [module docs](self).
pub struct DriftController {
    tenant: String,
    server: Arc<TenantServer>,
    source: Arc<Dataset>,
    refitter: Arc<dyn Refitter>,
    detector: DriftDetector,
    config: ControllerConfig,
    buffer: VecDeque<Dataset>,
    last_good: Vec<u8>,
    prev_variant: Option<Vec<usize>>,
    breaker: BreakerState,
    consecutive_failures: u32,
    open_since: Option<Instant>,
    refits: u64,
    rng: SeededRng,
}

impl std::fmt::Debug for DriftController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftController")
            .field("tenant", &self.tenant)
            .field("breaker", &self.breaker)
            .field("buffered_windows", &self.buffer.len())
            .field("refits", &self.refits)
            .finish()
    }
}

impl DriftController {
    /// Builds a controller for `tenant`, fitting the drift detector on
    /// `source` and recording `incumbent` as the last-good artifact
    /// (its variant set, if any, seeds the first warm search).
    ///
    /// The incumbent bytes are passed in rather than read back from the
    /// server: reader slots on the serving path are single-thread-owned,
    /// and the booting process already holds the artifact it loaded.
    ///
    /// # Errors
    ///
    /// [`ControllerError::UnknownTenant`] when the server does not route
    /// `tenant`, [`ControllerError::InvalidConfig`] on out-of-range
    /// knobs, and [`ControllerError::Incumbent`] when the artifact bytes
    /// fail to restore or restore unfitted.
    pub fn new(
        tenant: impl Into<String>,
        server: Arc<TenantServer>,
        source: Arc<Dataset>,
        incumbent: Vec<u8>,
        refitter: Arc<dyn Refitter>,
        config: ControllerConfig,
    ) -> Result<Self, ControllerError> {
        let tenant = tenant.into();
        config.validate().map_err(ControllerError::InvalidConfig)?;
        if !server.tenants().contains(&tenant) {
            return Err(ControllerError::UnknownTenant(tenant));
        }
        let restored = restore(&incumbent).map_err(ControllerError::Incumbent)?;
        if !restored.is_fitted() {
            return Err(ControllerError::Incumbent(CoreError::InvalidInput(
                "incumbent artifact restored unfitted".into(),
            )));
        }
        let prev_variant = restored.variant_features();
        let detector = DriftDetector::fit(source.features(), config.drift.clone());
        let rng = SeededRng::new(config.seed ^ 0xc0_17_20_11);
        Ok(DriftController {
            tenant,
            server,
            source,
            refitter,
            detector,
            config,
            buffer: VecDeque::new(),
            last_good: incumbent,
            prev_variant,
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            open_since: None,
            refits: 0,
            rng,
        })
    }

    /// The tenant this controller supervises.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Current circuit-breaker state.
    pub fn breaker(&self) -> BreakerState {
        self.breaker
    }

    /// Labeled target windows currently buffered.
    pub fn buffered_windows(&self) -> usize {
        self.buffer.len()
    }

    /// Total re-fit attempts launched over this controller's lifetime.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Serialized bytes of the last artifact that passed validation
    /// (initially the incumbent handed to [`DriftController::new`]).
    pub fn last_good_artifact(&self) -> &[u8] {
        &self.last_good
    }

    /// Operator rollback: replaces the last-good artifact, publishes it
    /// to the server, and resets the breaker. The watchdog path for a
    /// swap that validated but misbehaves in production — the controller
    /// returns to a known-good incumbent and re-fitting restarts fresh.
    ///
    /// # Errors
    ///
    /// [`ControllerError::Incumbent`] when the bytes fail to restore or
    /// restore unfitted (the rollback does not reach the server), and
    /// [`ControllerError::UnknownTenant`] if the server stopped routing
    /// this tenant.
    pub fn rollback(&mut self, bytes: Vec<u8>) -> Result<(), ControllerError> {
        let restored = restore(&bytes).map_err(ControllerError::Incumbent)?;
        if !restored.is_fitted() {
            return Err(ControllerError::Incumbent(CoreError::InvalidInput(
                "rollback artifact restored unfitted".into(),
            )));
        }
        let prev_variant = restored.variant_features();
        self.server
            .swap(&self.tenant, restored)
            .map_err(|_| ControllerError::UnknownTenant(self.tenant.clone()))?;
        telemetry::counter(&format!("control.rollbacks.{}", self.tenant), 1);
        self.prev_variant = prev_variant;
        self.last_good = bytes;
        self.consecutive_failures = 0;
        self.open_since = None;
        self.set_breaker(BreakerState::Closed);
        Ok(())
    }

    /// Variant set of the last-good pipeline, when it factors through a
    /// feature separation. Handed to every re-fit as
    /// [`RefitRequest::prev_variant`]; the registry's separation no longer
    /// depends on it.
    pub fn prev_variant(&self) -> Option<&[usize]> {
        self.prev_variant.as_deref()
    }

    /// Adds a labeled target window to the few-shot ring buffer,
    /// evicting the oldest once [`ControllerConfig::buffer_capacity`] is
    /// reached. Corrupt windows are rejected with a localized error and
    /// never buffered.
    ///
    /// # Errors
    ///
    /// [`ControllerError::WindowMismatch`] /
    /// [`ControllerError::ClassMismatch`] on schema disagreements and
    /// [`ControllerError::CorruptWindow`] on the first non-finite cell.
    pub fn push_window(&mut self, window: Dataset) -> Result<(), ControllerError> {
        if window.num_features() != self.detector.num_features() {
            return Err(ControllerError::WindowMismatch {
                expected: self.detector.num_features(),
                got: window.num_features(),
            });
        }
        if window.num_classes() != self.source.num_classes() {
            return Err(ControllerError::ClassMismatch {
                expected: self.source.num_classes(),
                got: window.num_classes(),
            });
        }
        let features = window.features();
        for r in 0..features.rows() {
            for c in 0..features.cols() {
                if !features.get(r, c).is_finite() {
                    telemetry::counter(&format!("control.corrupt_windows.{}", self.tenant), 1);
                    return Err(ControllerError::CorruptWindow { row: r, col: c });
                }
            }
        }
        if self.buffer.len() == self.config.buffer_capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back(window);
        Ok(())
    }

    /// Scores one unlabeled serving window and, when the detector
    /// recommends re-adaptation, runs a full detect → re-fit → validate
    /// → swap cycle (subject to the breaker). Never blocks the serving
    /// path: validation and re-fitting happen on this thread and a
    /// worker, not on the shard pool.
    pub fn observe(&mut self, window: &Matrix) -> ControlOutcome {
        let report = match self.detector.try_score(window) {
            Ok(report) => report,
            Err(e) => {
                telemetry::counter(&format!("control.corrupt_windows.{}", self.tenant), 1);
                return ControlOutcome::CorruptWindow(e);
            }
        };
        if !report.readapt {
            return ControlOutcome::NoDrift(report);
        }
        if self.breaker == BreakerState::Open {
            let elapsed = self.open_since.map(|t| t.elapsed()).unwrap_or_default();
            if elapsed < self.config.breaker_cooldown {
                telemetry::counter(&format!("control.breaker_rejected.{}", self.tenant), 1);
                return ControlOutcome::BreakerOpen {
                    remaining: self.config.breaker_cooldown - elapsed,
                };
            }
            self.set_breaker(BreakerState::HalfOpen);
        }
        self.readapt(report)
    }

    /// One re-adaptation cycle: retries under the policy, validates each
    /// candidate against the restored incumbent, swaps the first winner.
    fn readapt(&mut self, report: DriftReport) -> ControlOutcome {
        let started = Instant::now();
        telemetry::counter(&format!("control.cycles.{}", self.tenant), 1);

        let (adapt_pool, val_set) = match self.split_buffer() {
            Ok(split) => split,
            Err(reason) => return self.cycle_failure(0, 0, reason),
        };
        let incumbent_f1 = self.incumbent_f1(&val_set);

        let max_attempts = if self.breaker == BreakerState::HalfOpen {
            1
        } else {
            self.config.retry.max_attempts.max(1)
        };
        let delays = self.config.retry.delays();
        let mut timeouts = 0usize;
        let mut best_reject: Option<f64> = None;
        let mut last_error = String::from("no attempts were run");

        for attempt in 0..max_attempts {
            if attempt > 0 {
                if let Some(delay) = delays.get(attempt - 1) {
                    thread::sleep(*delay);
                }
            }
            self.refits += 1;
            telemetry::counter(&format!("control.attempts.{}", self.tenant), 1);
            let shots =
                match few_shot_subset(&adapt_pool, self.config.shots_per_class, &mut self.rng) {
                    Ok(shots) => shots,
                    Err(e) => {
                        last_error = format!("few-shot draw failed: {e}");
                        telemetry::counter(&format!("control.failures.{}", self.tenant), 1);
                        continue;
                    }
                };
            let request = RefitRequest {
                source: Arc::clone(&self.source),
                shots,
                prev_variant: self.prev_variant.clone(),
                seed: self.config.seed.wrapping_add(self.refits),
                attempt,
            };
            let attempt_start = Instant::now();
            let result = run_with_deadline(
                Arc::clone(&self.refitter),
                request,
                self.config.attempt_deadline,
            );
            telemetry::duration(
                "control.attempt.seconds",
                attempt_start.elapsed().as_secs_f64(),
            );
            let refit = match result {
                AttemptResult::Fit(Ok(refit)) => refit,
                AttemptResult::Fit(Err(e)) => {
                    last_error = e.to_string();
                    telemetry::counter(&format!("control.failures.{}", self.tenant), 1);
                    continue;
                }
                AttemptResult::Timeout => {
                    timeouts += 1;
                    last_error = format!(
                        "re-fit exceeded the {:?} deadline (worker detached)",
                        self.config.attempt_deadline
                    );
                    telemetry::counter(&format!("control.timeouts.{}", self.tenant), 1);
                    continue;
                }
                AttemptResult::Panicked => {
                    last_error = "re-fit worker panicked".into();
                    telemetry::counter(&format!("control.failures.{}", self.tenant), 1);
                    continue;
                }
            };
            let path_metric = match refit.path {
                SearchPath::Warm => "control.warm",
                SearchPath::Cold => "control.cold",
            };
            telemetry::counter(&format!("{path_metric}.{}", self.tenant), 1);

            // Validation always scores at F64Exact (`try_predict_batch`),
            // independent of the serving precision policy: promotion
            // decisions must not hinge on f32 rounding.
            let candidate_pred = refit.artifact.try_predict_batch(
                val_set.features(),
                self.config.predict_threads,
                &self.config.guard,
            );
            let pred = match candidate_pred {
                Ok(pred) => pred,
                Err(e) => {
                    last_error = format!("candidate failed validation predictions: {e}");
                    telemetry::counter(&format!("control.failures.{}", self.tenant), 1);
                    continue;
                }
            };
            let candidate_f1 = macro_f1(val_set.labels(), &pred, val_set.num_classes());
            if candidate_f1 < incumbent_f1 + self.config.min_improvement {
                best_reject = Some(best_reject.map_or(candidate_f1, |b: f64| b.max(candidate_f1)));
                last_error = format!(
                    "validation gate: candidate F1 {candidate_f1:.4} did not beat \
                     incumbent {incumbent_f1:.4} by {}",
                    self.config.min_improvement
                );
                telemetry::counter(&format!("control.rejects.{}", self.tenant), 1);
                continue;
            }
            let bytes = match refit.artifact.to_bytes() {
                Ok(bytes) => bytes,
                Err(e) => {
                    last_error = format!("candidate failed to serialize: {e}");
                    telemetry::counter(&format!("control.failures.{}", self.tenant), 1);
                    continue;
                }
            };
            let next_variant = refit.artifact.variant_features();
            match self.server.swap(&self.tenant, refit.artifact) {
                Ok(outcome) => {
                    self.last_good = bytes;
                    self.prev_variant = next_variant;
                    self.consecutive_failures = 0;
                    self.open_since = None;
                    self.set_breaker(BreakerState::Closed);
                    let detect_to_swap = started.elapsed();
                    telemetry::counter(&format!("control.swaps.{}", self.tenant), 1);
                    telemetry::duration(
                        "control.detect_to_swap.seconds",
                        detect_to_swap.as_secs_f64(),
                    );
                    let _ = report;
                    return ControlOutcome::Swapped(SwapSummary {
                        version: outcome.new_version,
                        candidate_f1,
                        incumbent_f1,
                        path: refit.path,
                        attempts: attempt + 1,
                        detect_to_swap,
                    });
                }
                Err(e) => {
                    last_error = format!("hot-swap rejected: {e}");
                    telemetry::counter(&format!("control.failures.{}", self.tenant), 1);
                    continue;
                }
            }
        }

        if let Some(candidate_f1) = best_reject {
            let breaker_tripped = self.on_cycle_failure();
            telemetry::counter(&format!("control.cycles_rejected.{}", self.tenant), 1);
            ControlOutcome::Rejected(RejectSummary {
                candidate_f1,
                incumbent_f1,
                attempts: max_attempts,
                breaker_tripped,
            })
        } else {
            self.cycle_failure(max_attempts, timeouts, last_error)
        }
    }

    /// Concatenates the buffer into an adaptation pool (leading rows of
    /// every window) and a held-back validation set (trailing rows).
    fn split_buffer(&self) -> Result<(Dataset, Dataset), String> {
        if self.buffer.is_empty() {
            return Err("no buffered target windows to re-fit from".into());
        }
        let mut adapt: Option<Dataset> = None;
        let mut hold: Option<Dataset> = None;
        for window in &self.buffer {
            let n = window.len();
            if n < 2 {
                // Too small to split; the whole window adapts.
                adapt = Some(match adapt {
                    Some(a) => a.concat(window).map_err(|e| e.to_string())?,
                    None => window.clone(),
                });
                continue;
            }
            let holdback =
                ((n as f64 * self.config.holdback_fraction).round() as usize).clamp(1, n - 1);
            let split = n - holdback;
            let adapt_idx: Vec<usize> = (0..split).collect();
            let hold_idx: Vec<usize> = (split..n).collect();
            let a = window.subset(&adapt_idx);
            let h = window.subset(&hold_idx);
            adapt = Some(match adapt {
                Some(acc) => acc.concat(&a).map_err(|e| e.to_string())?,
                None => a,
            });
            hold = Some(match hold {
                Some(acc) => acc.concat(&h).map_err(|e| e.to_string())?,
                None => h,
            });
        }
        let adapt = adapt.ok_or_else(|| "adaptation pool is empty".to_string())?;
        let hold = hold.ok_or_else(|| {
            "validation hold-back is empty (every buffered window has < 2 rows)".to_string()
        })?;
        Ok((adapt, hold))
    }

    /// Incumbent macro-F1 on the validation slice; an incumbent that
    /// cannot be restored or cannot predict scores negative infinity, so
    /// any working candidate replaces it.
    fn incumbent_f1(&self, val_set: &Dataset) -> f64 {
        let incumbent = match restore(&self.last_good) {
            Ok(incumbent) => incumbent,
            Err(_) => return f64::NEG_INFINITY,
        };
        // Scored at F64Exact, like the candidate: the validation gate
        // compares both sides at the same (exact) precision.
        match incumbent.try_predict_batch(
            val_set.features(),
            self.config.predict_threads,
            &self.config.guard,
        ) {
            Ok(pred) => macro_f1(val_set.labels(), &pred, val_set.num_classes()),
            Err(_) => f64::NEG_INFINITY,
        }
    }

    fn cycle_failure(
        &mut self,
        attempts: usize,
        timeouts: usize,
        reason: String,
    ) -> ControlOutcome {
        let breaker_tripped = self.on_cycle_failure();
        ControlOutcome::Failed(FailureSummary {
            attempts,
            timeouts,
            last_error: reason,
            breaker_tripped,
        })
    }

    /// Registers a failed cycle: a half-open probe re-opens immediately;
    /// otherwise the failure streak trips the breaker at the threshold.
    /// Returns whether the breaker is open after this call.
    fn on_cycle_failure(&mut self) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let reopen = self.breaker == BreakerState::HalfOpen
            || self.consecutive_failures >= self.config.breaker_threshold;
        if reopen {
            if self.breaker != BreakerState::Open {
                telemetry::counter(&format!("control.breaker_trips.{}", self.tenant), 1);
            }
            self.open_since = Some(Instant::now());
            self.set_breaker(BreakerState::Open);
        }
        self.breaker == BreakerState::Open
    }

    fn set_breaker(&mut self, state: BreakerState) {
        self.breaker = state;
        telemetry::gauge(&format!("control.breaker.{}", self.tenant), state.gauge());
    }
}

/// Runs one re-fit attempt on a worker thread under `deadline`. A
/// timed-out worker is detached (its eventual result is dropped with the
/// receiver); a disconnected channel means the worker panicked.
fn run_with_deadline(
    refitter: Arc<dyn Refitter>,
    request: RefitRequest,
    deadline: Duration,
) -> AttemptResult {
    let (tx, rx) = mpsc::sync_channel::<Result<Refit, FitError>>(1);
    let worker = thread::Builder::new()
        .name("fsda-refit".into())
        .spawn(move || {
            let _ = tx.send(refitter.refit(request));
        });
    let worker = match worker {
        Ok(handle) => handle,
        Err(e) => {
            return AttemptResult::Fit(Err(FitError::Core(CoreError::InvalidInput(format!(
                "failed to spawn re-fit worker: {e}"
            )))))
        }
    };
    match rx.recv_timeout(deadline) {
        Ok(result) => {
            let _ = worker.join();
            AttemptResult::Fit(result)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => AttemptResult::Timeout,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = worker.join();
            AttemptResult::Panicked
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use fsda_data::synth5gc::Synth5gc;

    fn bundle() -> fsda_data::synth5gc::Synth5gcBundle {
        Synth5gc::small().generate(11).unwrap()
    }

    /// Detector thresholds loose enough that the synthetic target
    /// reliably triggers re-adaptation.
    fn eager_drift() -> DriftConfig {
        DriftConfig {
            z_threshold: 0.5,
            ks_threshold: 0.1,
            feature_fraction: 0.01,
            ..DriftConfig::default()
        }
    }

    fn quick_config() -> ControllerConfig {
        ControllerConfig {
            drift: eager_drift(),
            retry: RetryPolicy::immediate(2),
            attempt_deadline: Duration::from_secs(30),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(1),
            shots_per_class: 3,
            seed: 7,
            ..ControllerConfig::default()
        }
    }

    /// Server with one tenant running a deliberately stale incumbent —
    /// fitted on label-rotated source data, so any honest re-fit beats
    /// it at the validation gate — plus the incumbent's bytes.
    fn boot(b: &fsda_data::synth5gc::Synth5gcBundle) -> (Arc<TenantServer>, Vec<u8>) {
        let k = b.source_train.num_classes();
        let rotated = Dataset::new(
            b.source_train.features().clone(),
            b.source_train
                .labels()
                .iter()
                .map(|&y| (y + 1) % k)
                .collect(),
            k,
        )
        .unwrap();
        let mut incumbent = Method::SrcOnly.build(&AdapterConfig::quick(), 5);
        incumbent
            .try_fit(&rotated, &rotated, &GuardConfig::default())
            .unwrap();
        let bytes = incumbent.to_bytes().unwrap();
        let server = TenantServer::from_artifacts(
            vec![("slice-a".into(), incumbent)],
            ServeConfig::default(),
        )
        .unwrap();
        (Arc::new(server), bytes)
    }

    fn tar_only_refitter(b: &fsda_data::synth5gc::Synth5gcBundle) -> Arc<RegistryRefitter> {
        Arc::new(
            RegistryRefitter::new(
                Method::TarOnly,
                AdapterConfig::quick(),
                GuardConfig::default(),
                &b.source_train,
            )
            .unwrap(),
        )
    }

    struct FailingRefitter;
    impl Refitter for FailingRefitter {
        fn refit(&self, _request: RefitRequest) -> Result<Refit, FitError> {
            Err(FitError::Core(CoreError::Model("injected failure".into())))
        }
    }

    struct SlowRefitter(Duration);
    impl Refitter for SlowRefitter {
        fn refit(&self, _request: RefitRequest) -> Result<Refit, FitError> {
            thread::sleep(self.0);
            Err(FitError::Core(CoreError::Model("too late anyway".into())))
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        for broken in [
            ControllerConfig {
                buffer_capacity: 0,
                ..quick_config()
            },
            ControllerConfig {
                holdback_fraction: 1.0,
                ..quick_config()
            },
            ControllerConfig {
                breaker_threshold: 0,
                ..quick_config()
            },
        ] {
            let err = DriftController::new(
                "slice-a",
                Arc::clone(&server),
                Arc::clone(&source),
                bytes.clone(),
                tar_only_refitter(&b),
                broken,
            )
            .unwrap_err();
            assert!(matches!(err, ControllerError::InvalidConfig(_)));
        }
    }

    #[test]
    fn rejects_unknown_tenant_and_bad_incumbent() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let err = DriftController::new(
            "nope",
            Arc::clone(&server),
            Arc::clone(&source),
            bytes.clone(),
            tar_only_refitter(&b),
            quick_config(),
        )
        .unwrap_err();
        assert!(matches!(err, ControllerError::UnknownTenant(_)));
        let err = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            vec![1, 2, 3],
            tar_only_refitter(&b),
            quick_config(),
        )
        .unwrap_err();
        assert!(matches!(err, ControllerError::Incumbent(_)));
    }

    #[test]
    fn push_window_rejects_corrupt_and_mismatched() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            tar_only_refitter(&b),
            quick_config(),
        )
        .unwrap();

        let narrow = Dataset::new(
            Matrix::zeros(2, 3),
            vec![0, 1],
            b.source_train.num_classes(),
        )
        .unwrap();
        assert!(matches!(
            ctl.push_window(narrow),
            Err(ControllerError::WindowMismatch { .. })
        ));

        let mut features = b.target_pool.features().clone();
        features.set(1, 2, f64::NAN);
        let corrupt = Dataset::new(
            features,
            b.target_pool.labels().to_vec(),
            b.target_pool.num_classes(),
        )
        .unwrap();
        assert!(matches!(
            ctl.push_window(corrupt),
            Err(ControllerError::CorruptWindow { row: 1, col: 2 })
        ));
        assert_eq!(ctl.buffered_windows(), 0);

        ctl.push_window(b.target_pool.clone()).unwrap();
        assert_eq!(ctl.buffered_windows(), 1);
    }

    #[test]
    fn buffer_is_bounded() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let config = ControllerConfig {
            buffer_capacity: 2,
            ..quick_config()
        };
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            tar_only_refitter(&b),
            config,
        )
        .unwrap();
        for _ in 0..5 {
            ctl.push_window(b.target_pool.clone()).unwrap();
        }
        assert_eq!(ctl.buffered_windows(), 2);
    }

    #[test]
    fn no_drift_on_source_window() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            tar_only_refitter(&b),
            ControllerConfig {
                drift: DriftConfig::default(),
                ..quick_config()
            },
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();
        let outcome = ctl.observe(b.source_train.features());
        assert!(matches!(outcome, ControlOutcome::NoDrift(_)));
    }

    #[test]
    fn corrupt_serving_window_is_contained() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            tar_only_refitter(&b),
            quick_config(),
        )
        .unwrap();
        let mut window = b.target_test.features().clone();
        window.set(0, 4, f64::INFINITY);
        let outcome = ctl.observe(&window);
        assert!(matches!(
            outcome,
            ControlOutcome::CorruptWindow(DriftError::NonFinite { row: 0, col: 4 })
        ));
    }

    #[test]
    fn drift_triggers_validated_swap() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            tar_only_refitter(&b),
            quick_config(),
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();
        let outcome = ctl.observe(b.target_test.features());
        match outcome {
            ControlOutcome::Swapped(swap) => {
                assert!(swap.candidate_f1 >= swap.incumbent_f1);
                assert_eq!(swap.version, 2);
                let response = server
                    .predict("slice-a", b.target_test.features().clone())
                    .unwrap();
                assert_eq!(response.artifact_version, 2);
            }
            other => panic!("expected a swap, got {other:?}"),
        }
        // The winning artifact became the new last-good incumbent.
        assert_eq!(ctl.breaker(), BreakerState::Closed);
    }

    #[test]
    fn failures_trip_breaker_and_probe_recovers() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            Arc::clone(&source),
            bytes,
            Arc::new(FailingRefitter),
            quick_config(),
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();

        // breaker_threshold = 2 failed cycles trip the breaker.
        let first = ctl.observe(b.target_test.features());
        assert!(matches!(
            &first,
            ControlOutcome::Failed(f) if !f.breaker_tripped
        ));
        let second = ctl.observe(b.target_test.features());
        assert!(matches!(
            &second,
            ControlOutcome::Failed(f) if f.breaker_tripped
        ));
        assert_eq!(ctl.breaker(), BreakerState::Open);

        // Serving never stopped, and the version never moved.
        let response = server
            .predict("slice-a", b.target_test.features().clone())
            .unwrap();
        assert_eq!(response.artifact_version, 1);

        // After the cooldown the half-open probe (healthy refitter now)
        // closes the breaker via a validated swap.
        thread::sleep(Duration::from_millis(5));
        ctl.refitter = tar_only_refitter(&b);
        let probe = ctl.observe(b.target_test.features());
        assert!(matches!(probe, ControlOutcome::Swapped(_)));
        assert_eq!(ctl.breaker(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            Arc::clone(&source),
            bytes,
            Arc::new(FailingRefitter),
            quick_config(),
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();
        for _ in 0..2 {
            ctl.observe(b.target_test.features());
        }
        assert_eq!(ctl.breaker(), BreakerState::Open);
        thread::sleep(Duration::from_millis(5));
        let probe = ctl.observe(b.target_test.features());
        assert!(matches!(
            probe,
            ControlOutcome::Failed(f) if f.breaker_tripped && f.attempts == 1
        ));
        assert_eq!(ctl.breaker(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_serves_last_good_without_refitting() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let config = ControllerConfig {
            breaker_cooldown: Duration::from_secs(3600),
            ..quick_config()
        };
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            Arc::new(FailingRefitter),
            config,
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();
        for _ in 0..2 {
            ctl.observe(b.target_test.features());
        }
        let refits_before = ctl.refits();
        let outcome = ctl.observe(b.target_test.features());
        assert!(matches!(outcome, ControlOutcome::BreakerOpen { .. }));
        assert_eq!(ctl.refits(), refits_before);
    }

    #[test]
    fn deadline_detaches_hung_refit() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let config = ControllerConfig {
            attempt_deadline: Duration::from_millis(20),
            retry: RetryPolicy::immediate(1),
            breaker_threshold: 10,
            ..quick_config()
        };
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes,
            Arc::new(SlowRefitter(Duration::from_millis(500))),
            config,
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();
        let started = Instant::now();
        let outcome = ctl.observe(b.target_test.features());
        assert!(started.elapsed() < Duration::from_millis(450));
        assert!(matches!(
            outcome,
            ControlOutcome::Failed(f) if f.timeouts == 1
        ));
        let response = server
            .predict("slice-a", b.target_test.features().clone())
            .unwrap();
        assert_eq!(response.artifact_version, 1);
    }

    #[test]
    fn registry_refitter_reports_warm_for_fs_family_and_cold_otherwise() {
        let b = bundle();
        let refitter = RegistryRefitter::new(
            Method::Fs,
            AdapterConfig::quick(),
            GuardConfig::default(),
            &b.source_train,
        )
        .unwrap();
        let mut rng = SeededRng::new(3);
        let shots = few_shot_subset(&b.target_pool, 3, &mut rng).unwrap();
        let request = |prev_variant: Option<Vec<usize>>, seed: u64| RefitRequest {
            source: Arc::new(b.source_train.clone()),
            shots: shots.clone(),
            prev_variant,
            seed,
            attempt: 0,
        };

        // An FS re-fit searches through the cache with or without the
        // incumbent's variant set, and the set does not change the result.
        let first = refitter.refit(request(None, 1)).unwrap();
        assert_eq!(first.path, SearchPath::Warm);
        let seeded = refitter
            .refit(request(first.artifact.variant_features(), 2))
            .unwrap();
        assert_eq!(seeded.path, SearchPath::Warm);
        assert!(seeded.artifact.is_fitted());
        assert_eq!(
            seeded.artifact.variant_features(),
            first.artifact.variant_features()
        );

        // A method fitted without a separation reports the cold path.
        let src_only = RegistryRefitter::new(
            Method::SrcOnly,
            AdapterConfig::quick(),
            GuardConfig::default(),
            &b.source_train,
        )
        .unwrap();
        assert_eq!(
            src_only.refit(request(None, 3)).unwrap().path,
            SearchPath::Cold
        );
    }

    #[test]
    fn registry_refitter_localizes_corrupt_shots() {
        let b = bundle();
        let refitter = RegistryRefitter::new(
            Method::Fs,
            AdapterConfig::quick(),
            GuardConfig::default(),
            &b.source_train,
        )
        .unwrap();
        let mut rng = SeededRng::new(3);
        let shots = few_shot_subset(&b.target_pool, 3, &mut rng).unwrap();
        let mut features = shots.features().clone();
        features.set(2, 1, f64::NAN);
        let corrupt = Dataset::new(features, shots.labels().to_vec(), shots.num_classes()).unwrap();
        let err = refitter
            .refit(RefitRequest {
                source: Arc::new(b.source_train.clone()),
                shots: corrupt,
                prev_variant: None,
                seed: 1,
                attempt: 0,
            })
            .unwrap_err();
        assert!(matches!(err, FitError::CorruptShots { row: 2, col: 1 }));
    }

    #[test]
    fn rollback_publishes_and_resets_breaker() {
        let b = bundle();
        let (server, bytes) = boot(&b);
        let source = Arc::new(b.source_train.clone());
        let mut ctl = DriftController::new(
            "slice-a",
            Arc::clone(&server),
            source,
            bytes.clone(),
            Arc::new(FailingRefitter),
            quick_config(),
        )
        .unwrap();
        ctl.push_window(b.target_pool.clone()).unwrap();
        for _ in 0..2 {
            ctl.observe(b.target_test.features());
        }
        assert_eq!(ctl.breaker(), BreakerState::Open);

        // Garbage bytes never reach the server.
        assert!(matches!(
            ctl.rollback(vec![9, 9, 9]),
            Err(ControllerError::Incumbent(_))
        ));

        ctl.rollback(bytes.clone()).unwrap();
        assert_eq!(ctl.breaker(), BreakerState::Closed);
        assert_eq!(ctl.last_good_artifact(), &bytes[..]);
        let response = server
            .predict("slice-a", b.target_test.features().clone())
            .unwrap();
        assert_eq!(response.artifact_version, 2, "rollback published a version");
    }
}
