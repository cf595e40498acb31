//! Tracing from outside the program: timing decorators that stand in for
//! the public `DriftMitigator` and `Refitter` traits during a traced run,
//! and probes that time each layer's public functions on the workload's
//! own batches, shots and windows. Nothing inside the library is
//! instrumented.

use crate::stats::{median_of, stage_sum_frac};
use fsda_core::adapter::{
    build_classifier, build_reconstructor, AdapterConfig, ReconKind, MC_DRAWS,
};
use fsda_core::drift::{DriftConfig, DriftDetector};
use fsda_core::pipeline::registry::try_fit_with_separation;
use fsda_core::pipeline::{restore, DriftMitigator};
use fsda_core::{
    CoreError, FeatureSeparation, FitError, FsGanAdapter, GuardConfig, InferPrecision, Method,
    SearchPath, SeparationCache, ServeError,
};
use fsda_data::Dataset;
use fsda_gan::CondGanConfig;
use fsda_linalg::{Matrix, SeededRng};
use fsda_serve::controller::{Refit, RefitRequest, Refitter};
use fsda_serve::TenantServer;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn push(log: &Mutex<Vec<f64>>, value: f64) {
    log.lock()
        .expect("call log poisoned by a panicking caller")
        .push(value);
}

fn take(log: &Mutex<Vec<f64>>) -> Vec<f64> {
    log.lock()
        .expect("call log poisoned by a panicking caller")
        .clone()
}

/// Durations (ms) of the calls a [`Timed`] artifact received, in call
/// order. One log is shared by every artifact version of a tenant.
#[derive(Debug, Default)]
pub struct CallLog {
    served: Mutex<Vec<f64>>,
    validated: Mutex<Vec<f64>>,
    serialized: Mutex<Vec<f64>>,
}

impl CallLog {
    /// `try_predict_batch_with` calls: the server's request path.
    pub fn served(&self) -> Vec<f64> {
        take(&self.served)
    }

    /// `try_predict_batch` calls: the controller's validation gate.
    pub fn validated(&self) -> Vec<f64> {
        take(&self.validated)
    }

    /// `to_bytes` calls: the controller persisting a winning candidate.
    pub fn serialized(&self) -> Vec<f64> {
        take(&self.serialized)
    }
}

/// A timing decorator around a served artifact. Every call forwards to the
/// wrapped mitigator unchanged, so predictions are bit-identical.
#[derive(Debug)]
pub struct Timed {
    inner: Box<dyn DriftMitigator>,
    log: Arc<CallLog>,
}

impl Timed {
    pub fn new(inner: Box<dyn DriftMitigator>, log: Arc<CallLog>) -> Self {
        Timed { inner, log }
    }
}

impl DriftMitigator for Timed {
    fn method(&self) -> Method {
        self.inner.method()
    }

    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> fsda_core::Result<()> {
        self.inner.fit(source, target_shots)
    }

    fn try_fit(
        &mut self,
        source: &Dataset,
        target_shots: &Dataset,
        guard: &GuardConfig,
    ) -> Result<(), FitError> {
        self.inner.try_fit(source, target_shots, guard)
    }

    fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.inner.predict(features)
    }

    fn predict_batch(&self, features: &Matrix, threads: Option<usize>) -> Vec<usize> {
        self.inner.predict_batch(features, threads)
    }

    fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> Result<Vec<usize>, ServeError> {
        let t = Instant::now();
        let out = self.inner.try_predict_batch(features, threads, guard);
        push(&self.log.validated, ms_since(t));
        out
    }

    fn predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        precision: InferPrecision,
    ) -> Vec<usize> {
        self.inner.predict_batch_with(features, threads, precision)
    }

    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> Result<Vec<usize>, ServeError> {
        let t = Instant::now();
        let out = self
            .inner
            .try_predict_batch_with(features, threads, guard, precision);
        push(&self.log.served, ms_since(t));
        out
    }

    fn to_bytes(&self) -> fsda_core::Result<Vec<u8>> {
        let t = Instant::now();
        let out = self.inner.to_bytes();
        push(&self.log.serialized, ms_since(t));
        out
    }

    fn variant_features(&self) -> Option<Vec<usize>> {
        self.inner.variant_features()
    }

    fn health(&self) -> String {
        self.inner.health()
    }
}

/// What one traced re-fit did.
#[derive(Debug, Clone)]
pub struct RefitRecord {
    pub separate_ms: f64,
    pub ci_tests: usize,
    pub warm: bool,
    pub fit_s: f64,
    pub separation: FeatureSeparation,
}

/// The registry re-fit path for FS+GAN (warm separation through a
/// [`SeparationCache`], then `try_fit_with_separation`), rebuilt from public
/// calls so the separation and the fit can be timed apart. Candidates are
/// returned wrapped in [`Timed`] so the controller's validation and
/// persistence calls are timed too.
pub struct TimedRefitter {
    cache: SeparationCache,
    config: AdapterConfig,
    guard: GuardConfig,
    candidate_log: Arc<CallLog>,
    records: Mutex<Vec<RefitRecord>>,
}

impl TimedRefitter {
    pub fn new(
        source: &Dataset,
        config: AdapterConfig,
        candidate_log: Arc<CallLog>,
    ) -> fsda_core::Result<Self> {
        Ok(TimedRefitter {
            cache: SeparationCache::new(source, &config.fs)?,
            config,
            guard: GuardConfig::default(),
            candidate_log,
            records: Mutex::new(Vec::new()),
        })
    }

    pub fn records(&self) -> Vec<RefitRecord> {
        self.records
            .lock()
            .expect("refit log poisoned by a panicking re-fit")
            .clone()
    }
}

impl Refitter for TimedRefitter {
    fn refit(&self, request: RefitRequest) -> Result<Refit, FitError> {
        let shots = request.shots.features();
        for r in 0..shots.rows() {
            if let Some(c) = shots.row(r).iter().position(|v| !v.is_finite()) {
                return Err(FitError::CorruptShots { row: r, col: c });
            }
        }
        let t = Instant::now();
        let (separation, path) = FeatureSeparation::fit_warm(
            &self.cache,
            &request.shots,
            request.prev_variant.as_deref(),
        )?;
        let separate_ms = ms_since(t);
        let record_separation = separation.clone();
        let t = Instant::now();
        let artifact = try_fit_with_separation(
            Method::FsGan,
            &request.source,
            separation,
            &self.config,
            request.seed,
            &self.guard,
        )?
        .ok_or_else(|| {
            FitError::Core(CoreError::InvalidInput(
                "FS+GAN did not factor through a separation".into(),
            ))
        })?;
        let fit_s = t.elapsed().as_secs_f64();
        self.records
            .lock()
            .expect("refit log poisoned by a panicking re-fit")
            .push(RefitRecord {
                separate_ms,
                ci_tests: record_separation.tests_run(),
                warm: path == SearchPath::Warm,
                fit_s,
                separation: record_separation,
            });
        Ok(Refit {
            artifact: Box::new(Timed::new(artifact, Arc::clone(&self.candidate_log))),
            path,
        })
    }
}

/// Stage calls a [`Probe`] times on every request, in this index order.
const PROBE_OPS: usize = 4;

/// Per-request stage timings (ms) recorded by a [`Probe`].
#[derive(Debug, Default)]
pub struct ProbeLog(Mutex<Vec<[f64; PROBE_OPS]>>);

impl ProbeLog {
    pub fn samples(&self) -> Vec<[f64; PROBE_OPS]> {
        self.0
            .lock()
            .expect("probe log poisoned by a panicking shard")
            .clone()
    }
}

/// A stand-in artifact that times the request path's public stage calls
/// on the shard thread that serves the request, so the stages are timed
/// under the workload's own threading and contention. Each request runs,
/// in an order that rotates from request to request:
///
/// 0. `try_predict_batch_with` (guard + prediction; its labels are served),
/// 1. `predict_batch_with` (prediction alone),
/// 2. `split_normalized` + `reassemble`,
/// 3. one `reconstruct_batch_with` draw.
///
/// All four run at the server's thread count and precision.
#[derive(Debug)]
pub struct Probe {
    adapter: FsGanAdapter,
    calls: AtomicUsize,
    log: Arc<ProbeLog>,
}

impl Probe {
    pub fn new(bytes: &[u8], log: Arc<ProbeLog>) -> Self {
        Probe {
            adapter: FsGanAdapter::from_bytes(bytes).expect("served artifacts restore"),
            calls: AtomicUsize::new(0),
            log,
        }
    }
}

impl DriftMitigator for Probe {
    fn method(&self) -> Method {
        DriftMitigator::method(&self.adapter)
    }

    fn is_fitted(&self) -> bool {
        DriftMitigator::is_fitted(&self.adapter)
    }

    fn num_classes(&self) -> usize {
        DriftMitigator::num_classes(&self.adapter)
    }

    fn fit(&mut self, source: &Dataset, target_shots: &Dataset) -> fsda_core::Result<()> {
        DriftMitigator::fit(&mut self.adapter, source, target_shots)
    }

    fn predict(&self, features: &Matrix) -> Vec<usize> {
        DriftMitigator::predict(&self.adapter, features)
    }

    fn try_predict_batch(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
    ) -> Result<Vec<usize>, ServeError> {
        DriftMitigator::try_predict_batch(&self.adapter, features, threads, guard)
    }

    fn try_predict_batch_with(
        &self,
        features: &Matrix,
        threads: Option<usize>,
        guard: &GuardConfig,
        precision: InferPrecision,
    ) -> Result<Vec<usize>, ServeError> {
        let a = &self.adapter;
        let sep = a.separation();
        let round = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut times = [0.0; PROBE_OPS];
        let mut served = None;
        for k in 0..PROBE_OPS {
            let op = (k + round) % PROBE_OPS;
            let t = Instant::now();
            match op {
                0 => served = Some(a.try_predict_batch_with(features, threads, guard, precision)),
                1 => {
                    black_box(a.predict_batch_with(features, threads, precision));
                }
                2 => {
                    let (inv, var) = sep.split_normalized(features);
                    black_box(sep.reassemble(&inv, &var));
                }
                _ => {
                    black_box(a.reconstruct_batch_with(features, threads, precision));
                }
            }
            times[op] = ms_since(t);
        }
        self.log
            .0
            .lock()
            .expect("probe log poisoned by a panicking shard")
            .push(times);
        served.expect("the guarded call runs once per request")
    }

    fn to_bytes(&self) -> fsda_core::Result<Vec<u8>> {
        DriftMitigator::to_bytes(&self.adapter)
    }

    fn variant_features(&self) -> Option<Vec<usize>> {
        DriftMitigator::variant_features(&self.adapter)
    }
}

/// Request-path layer metrics for one workload.
#[derive(Debug, Clone)]
pub struct ServingLayers {
    pub queue_ms: f64,
    pub guard_ms: f64,
    pub split_ms: f64,
    pub draw_ms: f64,
    pub classify_ms: f64,
    pub mc_draws: f64,
    pub predict_per_recon: f64,
    pub stage_sum_frac: f64,
    pub gemm_gflops: f64,
    pub gemv_gflops: f64,
}

/// Request-path layers from [`Probe`] samples taken on the workload's own
/// traffic. `queue_ms` is measured by the caller (server latency minus
/// time inside the [`Timed`] decorator); `e2e_ms` is the traced run's
/// median latency, which the stages should add up to.
pub fn serving_layers(
    samples: &[[f64; PROBE_OPS]],
    adapter: &FsGanAdapter,
    queue_ms: f64,
    e2e_ms: f64,
) -> ServingLayers {
    let op = |i: usize| median_of(&samples.iter().map(|s| s[i]).collect::<Vec<_>>());
    // Differences are taken per request and then the median: the calls of
    // one request ran back to back, so host noise largely cancels in them.
    let diff =
        |a: usize, b: usize| median_of(&samples.iter().map(|s| s[a] - s[b]).collect::<Vec<_>>());
    let guard_ms = diff(0, 1);
    let split_ms = op(2);
    let draw_ms = diff(3, 2);
    let mc_draws = MC_DRAWS as f64;
    // The classifier's share of one Monte-Carlo draw: what a prediction
    // spends beyond its draws. `predict_mc(x, 1)` would fan the draw out
    // over every core, and at batch 1 that dispatch costs more than the
    // classifier itself.
    let classify_ms = median_of(
        &samples
            .iter()
            .map(|s| (s[1] - mc_draws * s[3]) / mc_draws)
            .collect::<Vec<_>>(),
    );
    let predict_per_recon = op(1) / op(3);
    let stage_sum = stage_sum_frac(
        &[
            queue_ms,
            guard_ms,
            mc_draws * (split_ms + draw_ms + classify_ms),
        ],
        e2e_ms,
    );
    let (gemm_gflops, gemv_gflops) = generator_gemm(adapter);
    println!(
        "probe: {} requests; medians ms: guarded {:.4} plain {:.4} split {:.4} draw {:.4}",
        samples.len(),
        op(0),
        op(1),
        op(2),
        op(3)
    );
    ServingLayers {
        queue_ms,
        guard_ms,
        split_ms,
        draw_ms,
        classify_ms,
        mc_draws,
        predict_per_recon,
        stage_sum_frac: stage_sum,
        gemm_gflops,
        gemv_gflops,
    }
}

/// `Matrix::matmul` throughput at the generator's first-layer shape:
/// (rows × (invariant + noise)) · ((invariant + noise) × hidden), at 1024
/// rows and at 1 row. The flop count is 2·m·k·n from the shape.
fn generator_gemm(adapter: &FsGanAdapter) -> (f64, f64) {
    let d = adapter.separation().num_features();
    let base = if d > 250 {
        CondGanConfig::for_5gc()
    } else {
        CondGanConfig::for_5gipc()
    };
    let k = adapter.separation().invariant().len() + base.noise_dim;
    let n = base.hidden;
    let w = SeededRng::new(0x6e6d).normal_matrix(k, n, 0.0, 1.0);
    let gflops = |m: usize, calls: usize| {
        let x = SeededRng::new(0x7861).normal_matrix(m, k, 0.0, 1.0);
        let flops = 2.0 * (m * k * n) as f64 * calls as f64;
        let mut samples = Vec::new();
        for _ in 0..25 {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(black_box(&x).matmul(black_box(&w)));
            }
            samples.push(flops / t.elapsed().as_secs_f64() / 1e9);
        }
        median_of(&samples)
    };
    (gflops(1024, 1), gflops(1, 200))
}

/// Times the two fits a re-fit trains, on the split source behind `sep`:
/// `build_reconstructor` + fit, then `build_classifier` + fit. Returns
/// `(reconstructor_s, classifier_s)`.
pub fn component_fit(
    source: &Dataset,
    config: &AdapterConfig,
    sep: &FeatureSeparation,
) -> (f64, f64) {
    let (inv, var) = sep.split_normalized(source.features());
    let onehot = source.one_hot_labels();
    let t = Instant::now();
    let mut recon = build_reconstructor(
        ReconKind::Gan,
        source.num_features(),
        0x6A17,
        &config.budget,
        config.watchdog,
    );
    recon.fit(&inv, &var, &onehot).expect("reconstructor fit");
    let gan_fit_s = t.elapsed().as_secs_f64();
    let normalized = sep.normalizer().transform(source.features());
    let t = Instant::now();
    let mut classifier = build_classifier(config.classifier, 0x6A17, &config.budget);
    classifier
        .fit(&normalized, source.labels(), source.num_classes())
        .expect("classifier fit");
    (gan_fit_s, t.elapsed().as_secs_f64())
}

/// Control-path layer metrics for one workload's traced cycles.
#[derive(Debug, Clone)]
pub struct ControlLayers {
    pub drift_score_ms: f64,
    pub separate_ms: f64,
    pub ci_tests: f64,
    pub warm_frac: f64,
    pub gan_fit_s: f64,
    pub gan_epoch_ms: f64,
    pub models_fit_s: f64,
    pub validate_ms: f64,
    pub persist_ms: f64,
    pub swap_us: f64,
    pub attempts_per_swap: f64,
    pub stage_sum_frac: f64,
}

/// Everything the control probe needs from a traced cycle phase.
pub struct ControlInputs<'a> {
    pub source: &'a Dataset,
    pub config: &'a AdapterConfig,
    pub drift: &'a DriftConfig,
    pub window: &'a Matrix,
    pub holdback: &'a Matrix,
    pub incumbent: &'a [u8],
    pub candidate: &'a [u8],
    pub records: &'a [RefitRecord],
    /// [`component_fit`] seconds `(reconstructor, classifier)`, one pair
    /// per traced cycle.
    pub fits: &'a [(f64, f64)],
    pub candidate_log: &'a CallLog,
    pub attempts: usize,
    pub swaps: usize,
    pub detect_to_swap_s: f64,
    pub server: &'a TenantServer,
    pub swap_tenant: &'a str,
}

/// Times the control path's public calls on the traced cycles' own
/// windows, shots and artifacts, and checks how much of the median
/// detect→swap time the stages account for. The swap timing publishes
/// fresh copies of the candidate on `swap_tenant`, so call it after the
/// tenant's responses were checked.
pub fn control_layers(input: &ControlInputs<'_>) -> ControlLayers {
    let guard = GuardConfig::default();
    let detector = DriftDetector::fit(input.source.features(), input.drift.clone());
    let score: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            black_box(
                detector
                    .try_score(input.window)
                    .expect("drift windows are clean"),
            );
            ms_since(t)
        })
        .collect();
    let drift_score_ms = median_of(&score);

    let records = input.records;
    let n = records.len().max(1) as f64;
    let separate_ms = median_of(&records.iter().map(|r| r.separate_ms).collect::<Vec<_>>());
    let ci_tests = median_of(
        &records
            .iter()
            .map(|r| r.ci_tests as f64)
            .collect::<Vec<_>>(),
    );
    let warm_frac = records.iter().filter(|r| r.warm).count() as f64 / n;

    let gan_fit_s = median_of(&input.fits.iter().map(|f| f.0).collect::<Vec<_>>());
    let models_fit_s = median_of(&input.fits.iter().map(|f| f.1).collect::<Vec<_>>());
    let config = input.config;

    // Validation: the candidate's gate predictions were timed in-cycle by
    // the decorator; the incumbent side is restored and timed here.
    let candidate_ms = median_of(&input.candidate_log.validated());
    let incumbent = restore(input.incumbent).expect("incumbent artifact restores");
    let incumbent_ms = median_of(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(
                    incumbent
                        .try_predict_batch(input.holdback, None, &guard)
                        .expect("hold-back rows are clean"),
                );
                ms_since(t)
            })
            .collect::<Vec<_>>(),
    );
    let validate_ms = candidate_ms + incumbent_ms;

    // Persistence: in-cycle `to_bytes` plus a timed `restore`.
    let restore_ms = median_of(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(restore(input.candidate).expect("candidate artifact restores"));
                ms_since(t)
            })
            .collect::<Vec<_>>(),
    );
    let persist_ms = median_of(&input.candidate_log.serialized()) + restore_ms;

    // Hot-swap publish of pre-restored copies of the current artifact.
    let staged: Vec<_> = (0..9)
        .map(|_| restore(input.candidate).expect("candidate artifact restores"))
        .collect();
    let mut swap = Vec::new();
    for artifact in staged {
        let t = Instant::now();
        input
            .server
            .swap(input.swap_tenant, artifact)
            .expect("swap tenant exists");
        swap.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let swap_us = median_of(&swap);

    let stage_sum = stage_sum_frac(
        &[
            drift_score_ms,
            separate_ms,
            gan_fit_s * 1e3,
            models_fit_s * 1e3,
            validate_ms,
            persist_ms,
            swap_us / 1e3,
        ],
        input.detect_to_swap_s * 1e3,
    );
    ControlLayers {
        drift_score_ms,
        separate_ms,
        ci_tests,
        warm_frac,
        gan_fit_s,
        gan_epoch_ms: gan_fit_s * 1e3 / config.budget.gan_epochs as f64,
        models_fit_s,
        validate_ms,
        persist_ms,
        swap_us,
        attempts_per_swap: input.attempts as f64 / input.swaps.max(1) as f64,
        stage_sum_frac: stage_sum,
    }
}
