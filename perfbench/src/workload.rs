//! Traffic and control drivers: the closed-loop batch-1 client, the bulk
//! client with one request in flight per shard, and the detect→swap cycle
//! runner.

use crate::fleet::{Book, Served, SHOTS_PER_CLASS};
use fsda_core::drift::DriftConfig;
use fsda_core::RetryPolicy;
use fsda_data::Dataset;
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::metrics::macro_f1;
use fsda_serve::controller::{ControlOutcome, ControllerConfig, DriftController, Refitter};
use fsda_serve::server::{TenantResponse, TenantServer};
use fsda_serve::RequestError;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request batches with their ground-truth labels.
pub struct Requests {
    pub batches: Vec<Matrix>,
    pub truth: Vec<Vec<usize>>,
    pub num_classes: usize,
}

impl Requests {
    /// One single-row batch per row of `test`.
    pub fn rows(test: &Dataset) -> Self {
        let x = test.features();
        Requests {
            batches: (0..x.rows()).map(|r| x.select_rows(&[r])).collect(),
            truth: test.labels().iter().map(|&y| vec![y]).collect(),
            num_classes: test.num_classes(),
        }
    }

    /// `count` batches of `rows` rows cycling through `test`, each starting
    /// where the previous one ended.
    pub fn blocks(test: &Dataset, rows: usize, count: usize) -> Self {
        let n = test.len();
        let mut batches = Vec::with_capacity(count);
        let mut truth = Vec::with_capacity(count);
        for b in 0..count {
            let idx: Vec<usize> = (0..rows).map(|i| (b * rows + i) % n).collect();
            batches.push(test.features().select_rows(&idx));
            truth.push(idx.iter().map(|&i| test.labels()[i]).collect());
        }
        Requests {
            batches,
            truth,
            num_classes: test.num_classes(),
        }
    }
}

/// The rows of `test` in an order drawn from `seed`: the traffic of a run.
pub fn shuffled(test: &Dataset, seed: u64) -> Dataset {
    let mut idx: Vec<usize> = (0..test.len()).collect();
    SeededRng::new(seed).shuffle(&mut idx);
    test.subset(&idx)
}

/// Responses a phase keeps for the correctness check: between this many and
/// twice this many, spread evenly over the phase, so the benchmark's own
/// memory does not grow with the request count.
const KEEP: usize = 64;

/// One completed request kept for the correctness check.
pub struct Response {
    index: usize,
    tenant: usize,
    batch: usize,
    version: u64,
    labels: Vec<usize>,
}

/// What a traffic phase measured.
#[derive(Default)]
pub struct Traffic {
    pub latencies_ms: Vec<f64>,
    /// Latencies per tenant, in the order that tenant's requests ran.
    pub per_tenant_ms: BTreeMap<String, Vec<f64>>,
    pub rows: usize,
    pub elapsed_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Every `1 << keep_shift`-th successful response.
    kept: Vec<Response>,
    keep_shift: u32,
    /// The labels first served for each request batch.
    first: BTreeMap<usize, Vec<usize>>,
}

impl Traffic {
    fn complete(
        &mut self,
        tenants: &[String],
        tenant: usize,
        batch: usize,
        rows: usize,
        ms: f64,
        result: Result<TenantResponse, RequestError>,
    ) {
        self.attempted += 1;
        let resp = match result {
            Ok(resp) => resp,
            Err(_) => {
                self.failed += 1;
                return;
            }
        };
        let index = self.latencies_ms.len();
        self.latencies_ms.push(ms);
        self.per_tenant_ms
            .entry(tenants[tenant].clone())
            .or_default()
            .push(ms);
        self.rows += rows;
        self.first
            .entry(batch)
            .or_insert_with(|| resp.predictions.clone());
        if index.is_multiple_of(1 << self.keep_shift) {
            self.kept.push(Response {
                index,
                tenant,
                batch,
                version: resp.artifact_version,
                labels: resp.predictions,
            });
            if self.kept.len() == 2 * KEEP {
                self.keep_shift += 1;
                let every = 1 << self.keep_shift;
                self.kept.retain(|r| r.index.is_multiple_of(every));
            }
        }
    }

    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.elapsed_s
    }

    /// Macro-F1 against ground truth of the labels first served for each
    /// distinct request batch (a batch's labels repeat while its artifact
    /// version does).
    pub fn macro_f1(&self, req: &Requests) -> f64 {
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for (&batch, labels) in &self.first {
            truth.extend_from_slice(&req.truth[batch]);
            pred.extend_from_slice(labels);
        }
        macro_f1(&truth, &pred, req.num_classes)
    }

    /// Up to `max` kept responses spread evenly over the phase, for the
    /// correctness check.
    pub fn sample(&self, tenants: &[String], req: &Requests, max: usize) -> Vec<Served> {
        let stride = self.kept.len().div_ceil(max.max(1)).max(1);
        self.kept
            .iter()
            .step_by(stride)
            .map(|r| Served {
                tenant: tenants[r.tenant].clone(),
                batch: req.batches[r.batch].clone(),
                version: r.version,
                labels: r.labels.clone(),
            })
            .collect()
    }
}

/// Sends every batch of `req` once, in order, to `tenant`.
pub fn serve_each(server: &TenantServer, tenant: &str, req: &Requests) -> Traffic {
    let tenants = [tenant.to_string()];
    let mut traffic = Traffic::default();
    let start = Instant::now();
    for (batch, input) in req.batches.iter().enumerate() {
        let t = Instant::now();
        let result = server.predict(tenant, input.clone());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        traffic.complete(&tenants, 0, batch, input.rows(), ms, result);
    }
    traffic.elapsed_s = start.elapsed().as_secs_f64();
    traffic
}

/// One closed-loop client: sends the next single request only after the
/// previous one completed, round-robin over `tenants`, batches cycling
/// through `req`, until `stop` says so.
pub fn closed_loop(
    server: &TenantServer,
    tenants: &[String],
    req: &Requests,
    stop: &dyn Fn() -> bool,
) -> Traffic {
    let mut traffic = Traffic::default();
    let start = Instant::now();
    let mut i = 0usize;
    while !stop() {
        let tenant = i % tenants.len();
        let batch = i % req.batches.len();
        let input = req.batches[batch].clone();
        let rows = input.rows();
        let t = Instant::now();
        let result = server.predict(&tenants[tenant], input);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        traffic.complete(tenants, tenant, batch, rows, ms, result);
        i += 1;
    }
    traffic.elapsed_s = start.elapsed().as_secs_f64();
    traffic
}

/// One client keeping one request in flight on each of `tenants` (pinned
/// to distinct shards): every round submits one batch per tenant, then
/// waits for each ticket in turn, until `duration` has passed.
pub fn bulk_loop(
    server: &TenantServer,
    tenants: &[String],
    req: &Requests,
    duration: Duration,
) -> Traffic {
    let mut traffic = Traffic::default();
    let start = Instant::now();
    let mut next = 0usize;
    while start.elapsed() < duration {
        let round: Vec<_> = (0..tenants.len())
            .map(|tenant| {
                let batch = next % req.batches.len();
                next += 1;
                let t = Instant::now();
                let ticket = server.submit(&tenants[tenant], req.batches[batch].clone());
                (tenant, batch, t, ticket)
            })
            .collect();
        for (tenant, batch, t, ticket) in round {
            let result = ticket.and_then(|ticket| ticket.wait());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let rows = req.batches[batch].rows();
            traffic.complete(tenants, tenant, batch, rows, ms, result);
        }
    }
    traffic.elapsed_s = start.elapsed().as_secs_f64();
    traffic
}

/// Detector thresholds low enough that every drifted target window
/// recommends re-adaptation.
pub fn drift_config() -> DriftConfig {
    DriftConfig {
        z_threshold: 0.5,
        ks_threshold: 0.1,
        feature_fraction: 0.01,
        ..DriftConfig::default()
    }
}

/// The labeled target pool reordered round-robin over classes, so the
/// controller's leading adaptation rows and trailing hold-back rows both
/// cover every class.
pub fn labeled_window(pool: &Dataset) -> Dataset {
    let mut by_class = vec![Vec::new(); pool.num_classes()];
    for (i, &y) in pool.labels().iter().enumerate() {
        by_class[y].push(i);
    }
    let longest = by_class.iter().map(Vec::len).max().unwrap_or(0);
    let idx: Vec<usize> = (0..longest)
        .flat_map(|k| by_class.iter().filter_map(move |rows| rows.get(k).copied()))
        .collect();
    pool.subset(&idx)
}

/// A controller on `tenant` whose validation margin lets every valid
/// candidate swap, with `window` (see [`labeled_window`]) buffered.
pub fn controller(
    server: &Arc<TenantServer>,
    tenant: &str,
    source: &Dataset,
    window: &Dataset,
    incumbent: Vec<u8>,
    refitter: Arc<dyn Refitter>,
    seed: u64,
) -> DriftController {
    let mut controller = DriftController::new(
        tenant,
        Arc::clone(server),
        Arc::new(source.clone()),
        incumbent,
        refitter,
        ControllerConfig {
            drift: drift_config(),
            retry: RetryPolicy::immediate(2),
            attempt_deadline: Duration::from_secs(120),
            shots_per_class: SHOTS_PER_CLASS,
            seed,
            min_improvement: -1.0,
            ..ControllerConfig::default()
        },
    )
    .expect("controller config is valid and the tenant exists");
    controller
        .push_window(window.clone())
        .expect("the generated target pool is clean");
    controller
}

/// The rows the controller holds back for validation from a buffered
/// `window` (the trailing quarter, as `ControllerConfig::default()` sets).
pub fn holdback(window: &Dataset) -> Matrix {
    let n = window.len();
    let hold = ((n as f64 * 0.25).round() as usize).clamp(1, n - 1);
    let idx: Vec<usize> = (n - hold..n).collect();
    window.features().select_rows(&idx)
}

/// Unlabeled drifted windows: `test` cut into `count` consecutive slices.
pub fn windows(test: &Dataset, count: usize) -> Vec<Matrix> {
    let n = test.len();
    let size = n / count;
    (0..count)
        .map(|w| {
            let idx: Vec<usize> = (w * size..(w + 1) * size).collect();
            test.features().select_rows(&idx)
        })
        .collect()
}

/// What a run of control cycles measured.
#[derive(Default)]
pub struct Cycles {
    pub detect_to_swap_s: Vec<f64>,
    pub cycles: usize,
    pub swaps: usize,
    pub attempts: usize,
    pub failures: Vec<String>,
}

impl Cycles {
    /// Appends the cycles of a later run on the same controller.
    pub fn merge(&mut self, later: Cycles) {
        self.detect_to_swap_s.extend(later.detect_to_swap_s);
        self.cycles += later.cycles;
        self.swaps += later.swaps;
        self.attempts += later.attempts;
        self.failures.extend(later.failures);
    }
}

/// Observes drifted windows until at least `min` cycles ran and `budget`
/// has passed. Each swap's artifact bytes are recorded in `book`.
pub fn run_cycles(
    controller: &mut DriftController,
    windows: &[Matrix],
    book: &mut Book,
    min: usize,
    budget: Duration,
) -> Cycles {
    let mut out = Cycles::default();
    let start = Instant::now();
    while out.cycles < min || start.elapsed() < budget {
        let window = &windows[out.cycles % windows.len()];
        out.cycles += 1;
        match controller.observe(window) {
            ControlOutcome::Swapped(swap) => {
                out.swaps += 1;
                out.attempts += swap.attempts;
                out.detect_to_swap_s.push(swap.detect_to_swap.as_secs_f64());
                book.record(
                    controller.tenant(),
                    swap.version,
                    controller.last_good_artifact().to_vec(),
                );
            }
            ControlOutcome::Rejected(r) => {
                out.attempts += r.attempts;
                out.failures.push(format!("rejected: {r:?}"));
            }
            ControlOutcome::Failed(f) => {
                out.attempts += f.attempts;
                out.failures.push(format!("failed: {}", f.last_error));
            }
            other => out.failures.push(format!("no cycle: {other:?}")),
        }
    }
    out
}
