//! Performance baseline for the two serving-critical engines: the parallel
//! CI-testing causal search (§VI-D running-time regime) and the batched
//! GAN-reconstruction hot path.
//!
//! Runs the PC causal search over a grid of (features × samples × threads)
//! on block-correlated synthetic data, then times the FS+GAN adapter's
//! `reconstruct_batch_with` against the per-sample reference loop over a
//! (batch × threads) grid, verifying every parallel run bit-identical to
//! its reference. Writes both grids to `BENCH_runtime.json` at the
//! repository root.
//!
//! `cargo run -p fsda-bench --release --bin perf_baseline`
//!
//! Speedup numbers are only meaningful when the host actually has the
//! cores a row asks for: thread counts above `host_parallelism` are
//! skipped up front and recorded in `skipped_thread_counts` — a
//! 2-thread run on a 1-core host measures scheduler overhead, not the
//! engine, so it never produces a row at all.
//!
//! A `telemetry_overhead` section times prediction three ways on the same
//! trained pipeline — `FsGanAdapter::predict_mc` at `MC_DRAWS`
//! (uninstrumented), `predict_batch` through the registry with telemetry
//! disabled (the no-op recorder path), and
//! registry call with an aggregating [`fsda_telemetry::InMemoryRecorder`]
//! installed — and records both overheads against their budget (no-op
//! ≤ 2%, aggregating ≤ 5%).
//!
//! The 442-feature rows mirror the paper's 5GC dataset width; the paper
//! reports FS running times in the order of seconds on that width, which is
//! the regime this baseline tracks.

use fsda_causal::ci::FisherZ;
use fsda_causal::pc::{pc, PcConfig, PcResult};
use fsda_core::adapter::{AdapterConfig, Budget, FsGanAdapter, MC_DRAWS};
use fsda_core::{DriftMitigator, GuardConfig, InferPrecision};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::Synth5gc;
use fsda_linalg::kernel::kernel_path;
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::ClassifierKind;
use fsda_nn::layer::{Activation, Dense};
use fsda_nn::norm::BatchNorm1d;
use fsda_nn::{InferPlan, Sequential};
use std::fmt::Write as _;
use std::time::Instant;

/// Block-correlated linear-Gaussian data: every eighth variable starts a new
/// independent block; within a block each variable loads on its predecessor.
/// Cross-block edges die in the marginal round, within-block structure
/// exercises the deeper conditioning rounds.
fn block_chain_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    let mut m = Matrix::zeros(n, d);
    for r in 0..n {
        for c in 0..d {
            let v = if c % 8 == 0 {
                rng.normal(0.0, 1.0)
            } else {
                0.8 * m.get(r, c - 1) + rng.normal(0.0, 0.6)
            };
            m.set(r, c, v);
        }
    }
    m
}

/// Splits the canonical thread grid into (runnable, skipped) halves:
/// thread counts above the host's parallelism are skipped up front —
/// timing them would measure scheduler overhead, not the engine — and
/// the skipped counts are recorded alongside the grid so the JSON says
/// *why* those rows are absent.
fn partition_thread_grid(cores: usize) -> (Vec<usize>, Vec<usize>) {
    let grid = [1usize, 2, 4, 8];
    let (run, skip): (Vec<usize>, Vec<usize>) = grid.iter().partition(|&&t| t <= cores);
    (run, skip)
}

/// Formats a `usize` list as a JSON array.
fn usize_list_json(v: &[usize]) -> String {
    let items: Vec<String> = v.iter().map(|t| t.to_string()).collect();
    format!("[{}]", items.join(", "))
}

struct PcCell {
    features: usize,
    samples: usize,
    threads: usize,
    host_parallelism: usize,
    elapsed_s: f64,
    tests_run: usize,
    tests_per_sec: f64,
    speedup_vs_1: f64,
    identical_to_sequential: bool,
    edges: usize,
}

struct ReconCell {
    rows: usize,
    features: usize,
    threads: usize,
    host_parallelism: usize,
    scalar_elapsed_s: f64,
    batch_elapsed_s: f64,
    rows_per_sec: f64,
    speedup_vs_scalar: f64,
    identical_to_scalar: bool,
}

struct GuardCell {
    rows: usize,
    features: usize,
    unguarded_elapsed_s: f64,
    guarded_elapsed_s: f64,
    overhead_pct: f64,
    identical: bool,
}

struct DispatchCell {
    rows: usize,
    features: usize,
    direct_elapsed_s: f64,
    dyn_elapsed_s: f64,
    overhead_pct: f64,
    identical: bool,
}

struct TelemetryCell {
    rows: usize,
    features: usize,
    direct_elapsed_s: f64,
    noop_elapsed_s: f64,
    aggregating_elapsed_s: f64,
    noop_overhead_pct: f64,
    aggregating_overhead_pct: f64,
    identical: bool,
}

fn run_pc(test: &FisherZ, threads: usize) -> (PcResult, f64) {
    let config = PcConfig {
        alpha: 0.01,
        max_cond_size: 2,
        parallel: threads > 1,
        num_threads: Some(threads),
    };
    let start = Instant::now();
    let result = pc(test, &config).expect("PC run");
    (result, start.elapsed().as_secs_f64())
}

fn bench_pc(cores: usize) -> Vec<PcCell> {
    let feature_grid = [64usize, 128, 442];
    let (thread_grid, skipped) = partition_thread_grid(cores);
    let samples_for = |d: usize| if d >= 442 { 256 } else { 512 };

    println!("PC causal search, block-chain data, alpha=0.01, max_cond_size=2");
    if !skipped.is_empty() {
        println!(
            "  skipping oversubscribed thread counts {skipped:?} \
             (host parallelism {cores})"
        );
    }
    println!(
        "{:>9} {:>8} {:>8} {:>10} {:>10} {:>14} {:>9} {:>10}",
        "features", "samples", "threads", "edges", "CI tests", "tests/sec", "time (s)", "speedup"
    );

    let mut cells: Vec<PcCell> = Vec::new();
    for &d in &feature_grid {
        let n = samples_for(d);
        let data = block_chain_data(n, d, 42);
        let test = FisherZ::new(&data).expect("correlation matrix");
        let mut baseline: Option<(PcResult, f64)> = None;
        for &t in &thread_grid {
            let (result, elapsed) = run_pc(&test, t);
            let (seq, seq_time) = match &baseline {
                Some(b) => (&b.0, b.1),
                None => {
                    baseline = Some((result.clone(), elapsed));
                    let b = baseline.as_ref().unwrap();
                    (&b.0, b.1)
                }
            };
            let identical = result.graph == seq.graph
                && result.sepsets == seq.sepsets
                && result.tests_run == seq.tests_run;
            assert!(
                identical,
                "thread count {t} changed the learned CPDAG at d={d}"
            );
            let cell = PcCell {
                features: d,
                samples: n,
                threads: t,
                host_parallelism: cores,
                elapsed_s: elapsed,
                tests_run: result.tests_run,
                tests_per_sec: result.tests_run as f64 / elapsed.max(1e-12),
                speedup_vs_1: seq_time / elapsed.max(1e-12),
                identical_to_sequential: identical,
                edges: result.graph.num_edges(),
            };
            println!(
                "{:>9} {:>8} {:>8} {:>10} {:>10} {:>14.0} {:>9.3} {:>9.2}x",
                cell.features,
                cell.samples,
                cell.threads,
                cell.edges,
                cell.tests_run,
                cell.tests_per_sec,
                cell.elapsed_s,
                cell.speedup_vs_1
            );
            cells.push(cell);
        }
    }
    cells
}

/// Tiles the 5GC target-test features up to `rows` serving rows.
fn serving_batch(features: &Matrix, rows: usize) -> Matrix {
    let idx: Vec<usize> = (0..rows).map(|r| r % features.rows()).collect();
    features.select_rows(&idx)
}

/// Times the guarded serving entry point (`try_reconstruct_batch_with`,
/// reject policy) against the unguarded `reconstruct_batch_with` on clean
/// batches: the
/// input scan is the only extra work, and on the clean fast path it must
/// stay under a few percent.
fn bench_guard_overhead(adapter: &FsGanAdapter, features: &Matrix) -> Vec<GuardCell> {
    let guard = GuardConfig::default();
    println!("\nguarded vs unguarded batch reconstruction (clean 5GC batches, reject policy)");
    println!(
        "{:>7} {:>9} {:>14} {:>14} {:>10}",
        "rows", "features", "unguarded (s)", "guarded (s)", "overhead"
    );
    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(features, rows);
        // Warm-up, then best-of-9: the scan is cheap enough that scheduler
        // noise on a single run would dominate the comparison.
        let _ = adapter.reconstruct_batch_with(&x, Some(1), InferPrecision::F64Exact);
        let mut unguarded = f64::INFINITY;
        let mut guarded = f64::INFINITY;
        let mut identical = true;
        for _ in 0..9 {
            let start = Instant::now();
            let plain = adapter.reconstruct_batch_with(&x, Some(1), InferPrecision::F64Exact);
            unguarded = unguarded.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let checked = adapter
                .try_reconstruct_batch_with(&x, Some(1), &guard, InferPrecision::F64Exact)
                .expect("clean batch must pass the guard");
            guarded = guarded.min(start.elapsed().as_secs_f64());
            identical &= plain == checked;
        }
        assert!(identical, "guarded path changed the reconstruction");
        let cell = GuardCell {
            rows,
            features: x.cols(),
            unguarded_elapsed_s: unguarded,
            guarded_elapsed_s: guarded,
            overhead_pct: 100.0 * (guarded - unguarded) / unguarded.max(1e-12),
            identical,
        };
        println!(
            "{:>7} {:>9} {:>14.6} {:>14.6} {:>9.2}%",
            cell.rows,
            cell.features,
            cell.unguarded_elapsed_s,
            cell.guarded_elapsed_s,
            cell.overhead_pct
        );
        cells.push(cell);
    }
    cells
}

/// Times `predict_batch` through the `Box<dyn DriftMitigator>` registry
/// interface against the direct, uninstrumented
/// `FsGanAdapter::predict_mc` at [`MC_DRAWS`] on the same adapter. Both
/// paths run the identical reconstruction + classification work; the
/// difference is one virtual call and the disabled telemetry span per
/// batch, so the overhead must vanish into timing noise (the registry
/// contract budgets 2%).
fn bench_dispatch_overhead(adapter: &FsGanAdapter, features: &Matrix) -> Vec<DispatchCell> {
    let virtual_adapter: &dyn DriftMitigator = adapter;
    println!("\nregistry (dyn DriftMitigator) predict_batch vs direct predict_mc");
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>10}",
        "rows", "features", "direct (s)", "dyn (s)", "overhead"
    );
    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(features, rows);
        // A single vtable lookup per batch is far below scheduler noise on
        // any one call, so each timing sample amortizes an inner loop of
        // calls (~8 ms of work per sample) and the reported figure is the
        // best of 25 samples per path.
        let inner = (512 / rows).max(1);
        let _ = adapter.predict_mc(&x, Some(1), MC_DRAWS);
        let mut direct = f64::INFINITY;
        let mut dynamic = f64::INFINITY;
        let mut identical = true;
        for _ in 0..25 {
            let start = Instant::now();
            let mut a = Vec::new();
            for _ in 0..inner {
                a = adapter.predict_mc(&x, Some(1), MC_DRAWS);
            }
            direct = direct.min(start.elapsed().as_secs_f64() / inner as f64);
            let start = Instant::now();
            let mut b = Vec::new();
            for _ in 0..inner {
                b = virtual_adapter.predict_batch(&x, Some(1));
            }
            dynamic = dynamic.min(start.elapsed().as_secs_f64() / inner as f64);
            identical &= a == b;
        }
        assert!(identical, "registry dispatch changed the predictions");
        let cell = DispatchCell {
            rows,
            features: x.cols(),
            direct_elapsed_s: direct,
            dyn_elapsed_s: dynamic,
            overhead_pct: 100.0 * (dynamic - direct) / direct.max(1e-12),
            identical,
        };
        println!(
            "{:>7} {:>9} {:>12.6} {:>12.6} {:>9.2}%",
            cell.rows, cell.features, cell.direct_elapsed_s, cell.dyn_elapsed_s, cell.overhead_pct
        );
        cells.push(cell);
    }
    cells
}

/// Times prediction three ways on the same trained pipeline: the direct
/// `FsGanAdapter::predict_mc` at [`MC_DRAWS`] (no instrumentation in its
/// path), `predict_batch` through the registry (`dyn DriftMitigator`)
/// with telemetry disabled — the no-op recorder path, one relaxed atomic
/// load per emission site — and the same registry call with an
/// aggregating `InMemoryRecorder` installed. The
/// two overheads are measured against the direct call; the telemetry
/// contract budgets ≤ 2% for the no-op path and ≤ 5% for aggregation.
fn bench_telemetry_overhead(adapter: &FsGanAdapter, features: &Matrix) -> Vec<TelemetryCell> {
    use std::sync::Arc;

    let virtual_adapter: &dyn DriftMitigator = adapter;
    // One recorder across the whole bench: aggregation cost is what we
    // are measuring, and a long-lived recorder is the deployment shape.
    let recorder = Arc::new(fsda_telemetry::InMemoryRecorder::new());
    fsda_telemetry::clear_recorder();

    println!("\ntelemetry overhead on predict_batch (direct vs no-op vs aggregating)");
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "rows", "features", "direct (s)", "no-op (s)", "aggreg (s)", "no-op", "aggreg"
    );
    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(features, rows);
        // Same amortization as the dispatch bench: each timing sample
        // runs an inner loop of calls and the reported figure is the
        // best of 25 samples per path, interleaved so drift (thermal,
        // scheduler) hits all three paths alike.
        let inner = (512 / rows).max(1);
        let _ = adapter.predict_mc(&x, Some(1), MC_DRAWS);
        let mut direct = f64::INFINITY;
        let mut noop = f64::INFINITY;
        let mut aggregating = f64::INFINITY;
        let mut identical = true;
        for _ in 0..25 {
            let start = Instant::now();
            let mut a = Vec::new();
            for _ in 0..inner {
                a = adapter.predict_mc(&x, Some(1), MC_DRAWS);
            }
            direct = direct.min(start.elapsed().as_secs_f64() / inner as f64);

            let start = Instant::now();
            let mut b = Vec::new();
            for _ in 0..inner {
                b = virtual_adapter.predict_batch(&x, Some(1));
            }
            noop = noop.min(start.elapsed().as_secs_f64() / inner as f64);

            fsda_telemetry::set_recorder(recorder.clone());
            let start = Instant::now();
            let mut c = Vec::new();
            for _ in 0..inner {
                c = virtual_adapter.predict_batch(&x, Some(1));
            }
            aggregating = aggregating.min(start.elapsed().as_secs_f64() / inner as f64);
            fsda_telemetry::clear_recorder();

            identical &= a == b && b == c;
        }
        assert!(identical, "telemetry changed the predictions");
        let cell = TelemetryCell {
            rows,
            features: x.cols(),
            direct_elapsed_s: direct,
            noop_elapsed_s: noop,
            aggregating_elapsed_s: aggregating,
            noop_overhead_pct: 100.0 * (noop - direct) / direct.max(1e-12),
            aggregating_overhead_pct: 100.0 * (aggregating - direct) / direct.max(1e-12),
            identical,
        };
        println!(
            "{:>7} {:>9} {:>12.6} {:>12.6} {:>12.6} {:>8.2}% {:>8.2}%",
            cell.rows,
            cell.features,
            cell.direct_elapsed_s,
            cell.noop_elapsed_s,
            cell.aggregating_elapsed_s,
            cell.noop_overhead_pct,
            cell.aggregating_overhead_pct
        );
        cells.push(cell);
    }
    // Sanity: the aggregating runs really did record through the spans.
    let snapshot = recorder.snapshot_now();
    assert!(
        snapshot.counter("pipeline.predict.fs_gan") > 0,
        "aggregating runs must have recorded predict spans"
    );
    cells
}

struct KernelCell {
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    naive_elapsed_s: f64,
    ikj_elapsed_s: f64,
    f64_elapsed_s: f64,
    f32_elapsed_s: f64,
    naive_rows_per_sec: f64,
    ikj_rows_per_sec: f64,
    f64_rows_per_sec: f64,
    f32_rows_per_sec: f64,
    f64_speedup_vs_naive: f64,
    f64_speedup_vs_ikj: f64,
    f32_speedup_vs_naive: f64,
    f64_identical_to_naive: bool,
    f32_max_abs_err: f64,
}

struct DivergenceCell {
    rows: usize,
    features: usize,
    max_abs_err: f64,
    max_rel_err: f64,
    prediction_flips: usize,
    flip_rate: f64,
}

/// Times the compiled [`InferPlan`] forward pass four ways on a
/// representative reconstruction-sized network (Dense–BN–ReLU ×2 with a
/// tanh head): the textbook naive executor (`matmul_textbook`'s `ijk`
/// dot-product loop with per-call weight materialization and separate
/// bias/activation passes — the classic GEMM baseline), the legacy `ikj`
/// executor (`matmul_naive`, the workspace's partially-optimized
/// pre-kernel `matmul`, reported for transparency), the blocked `f64`
/// kernel path (verified bit-identical to both references), and the
/// blocked `f32` path (divergence recorded, not gated here — see the
/// `f32_divergence` section for the end-to-end envelope).
fn bench_kernels() -> Vec<KernelCell> {
    let (in_dim, hidden, out_dim) = (64usize, 256usize, 32usize);
    let mut rng = SeededRng::new(7);
    let mut net = Sequential::new();
    net.push(Dense::new(in_dim, hidden, &mut rng));
    net.push(BatchNorm1d::new(hidden));
    net.push(Activation::relu());
    net.push(Dense::new(hidden, hidden, &mut rng));
    net.push(BatchNorm1d::new(hidden));
    net.push(Activation::relu());
    net.push(Dense::new(hidden, out_dim, &mut rng));
    net.push(Activation::tanh());
    // Warm the batch-norm running statistics so the Norm stages apply a
    // non-trivial affine map, like a trained generator.
    let warm = Matrix::from_fn(128, in_dim, |_, _| rng.normal(0.0, 1.0));
    for _ in 0..4 {
        let _ = net.forward(&warm, true);
    }
    let plan = InferPlan::compile(&net).expect("plan compiles");

    println!(
        "\ncompiled inference plan: textbook naive vs legacy ikj vs blocked f64 vs \
         blocked f32 (kernel path: {})",
        kernel_path().label()
    );
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "rows", "dims", "naive (s)", "ikj (s)", "f64 (s)", "f32 (s)", "f64 spd", "f32 spd"
    );

    let mut cells = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = Matrix::from_fn(rows, in_dim, |r, c| {
            ((r * 31 + c * 7) % 17) as f64 / 8.5 - 1.0
        });
        // Amortize small batches and take the best of 9 samples per path,
        // interleaved so scheduler drift hits all four alike.
        let inner = (1024 / rows).max(1);
        let _ = plan.infer(&x, InferPrecision::F64Exact);
        let (mut naive, mut ikj, mut f64_t, mut f32_t) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut identical = true;
        let mut max_abs_err = 0.0f64;
        for _ in 0..9 {
            let start = Instant::now();
            let mut a = Matrix::zeros(0, 0);
            for _ in 0..inner {
                a = plan.infer_textbook(&x);
            }
            naive = naive.min(start.elapsed().as_secs_f64() / inner as f64);

            let start = Instant::now();
            let mut r = Matrix::zeros(0, 0);
            for _ in 0..inner {
                r = plan.infer_reference(&x);
            }
            ikj = ikj.min(start.elapsed().as_secs_f64() / inner as f64);

            let start = Instant::now();
            let mut b = Matrix::zeros(0, 0);
            for _ in 0..inner {
                b = plan.infer(&x, InferPrecision::F64Exact);
            }
            f64_t = f64_t.min(start.elapsed().as_secs_f64() / inner as f64);

            let start = Instant::now();
            let mut c = Matrix::zeros(0, 0);
            for _ in 0..inner {
                c = plan.infer(&x, InferPrecision::F32Fast);
            }
            f32_t = f32_t.min(start.elapsed().as_secs_f64() / inner as f64);

            identical &= a == b && r == b;
            for r in 0..b.rows() {
                for (x64, x32) in b.row(r).iter().zip(c.row(r)) {
                    max_abs_err = max_abs_err.max((x64 - x32).abs());
                }
            }
        }
        assert!(
            identical,
            "blocked f64 plan diverged from the naive reference"
        );
        let cell = KernelCell {
            rows,
            in_dim,
            out_dim,
            naive_elapsed_s: naive,
            ikj_elapsed_s: ikj,
            f64_elapsed_s: f64_t,
            f32_elapsed_s: f32_t,
            naive_rows_per_sec: rows as f64 / naive.max(1e-12),
            ikj_rows_per_sec: rows as f64 / ikj.max(1e-12),
            f64_rows_per_sec: rows as f64 / f64_t.max(1e-12),
            f32_rows_per_sec: rows as f64 / f32_t.max(1e-12),
            f64_speedup_vs_naive: naive / f64_t.max(1e-12),
            f64_speedup_vs_ikj: ikj / f64_t.max(1e-12),
            f32_speedup_vs_naive: naive / f32_t.max(1e-12),
            f64_identical_to_naive: identical,
            f32_max_abs_err: max_abs_err,
        };
        println!(
            "{:>7} {:>10} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8.2}x {:>8.2}x",
            cell.rows,
            format!("{in_dim}-{hidden}-{out_dim}"),
            cell.naive_elapsed_s,
            cell.ikj_elapsed_s,
            cell.f64_elapsed_s,
            cell.f32_elapsed_s,
            cell.f64_speedup_vs_naive,
            cell.f32_speedup_vs_naive
        );
        cells.push(cell);
    }
    cells
}

/// Measures the end-to-end `F32Fast` divergence envelope on the trained
/// FS+GAN pipeline: reconstructed-feature error against the bit-exact
/// `F64Exact` path, and the hard-prediction flip rate (which must be zero
/// on the well-separated 5GC fixture).
fn bench_f32_divergence(adapter: &FsGanAdapter, features: &Matrix) -> Vec<DivergenceCell> {
    println!("\nf32 fast-path divergence vs the bit-exact f64 serving path");
    println!(
        "{:>7} {:>9} {:>13} {:>13} {:>7} {:>10}",
        "rows", "features", "max abs err", "max rel err", "flips", "flip rate"
    );
    let mut cells = Vec::new();
    for &rows in &[256usize, 1024] {
        let x = serving_batch(features, rows);
        let exact = adapter.reconstruct_batch_with(&x, Some(1), InferPrecision::F64Exact);
        let fast = adapter.reconstruct_batch_with(&x, Some(1), InferPrecision::F32Fast);
        let mut max_abs_err = 0.0f64;
        let mut max_rel_err = 0.0f64;
        for r in 0..exact.rows() {
            for (a, b) in exact.row(r).iter().zip(fast.row(r)) {
                let abs = (a - b).abs();
                max_abs_err = max_abs_err.max(abs);
                max_rel_err = max_rel_err.max(abs / a.abs().max(1e-9));
            }
        }
        let pred_exact = adapter.predict_batch_with(&x, Some(1), InferPrecision::F64Exact);
        let pred_fast = adapter.predict_batch_with(&x, Some(1), InferPrecision::F32Fast);
        let flips = pred_exact
            .iter()
            .zip(&pred_fast)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            flips, 0,
            "f32 fast path flipped {flips} predictions at rows={rows}"
        );
        let cell = DivergenceCell {
            rows,
            features: x.cols(),
            max_abs_err,
            max_rel_err,
            prediction_flips: flips,
            flip_rate: flips as f64 / rows as f64,
        };
        println!(
            "{:>7} {:>9} {:>13.3e} {:>13.3e} {:>7} {:>10.4}",
            cell.rows,
            cell.features,
            cell.max_abs_err,
            cell.max_rel_err,
            cell.prediction_flips,
            cell.flip_rate
        );
        cells.push(cell);
    }
    cells
}

type ReconBenches = (
    Vec<ReconCell>,
    Vec<GuardCell>,
    Vec<DispatchCell>,
    Vec<TelemetryCell>,
    Vec<DivergenceCell>,
);

fn bench_reconstruction(cores: usize) -> ReconBenches {
    let bundle = Synth5gc::small().generate(42).expect("5GC bundle");
    let mut rng = SeededRng::new(43);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).expect("shots");
    let cfg = AdapterConfig {
        classifier: ClassifierKind::RandomForest,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let adapter =
        FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 44).expect("FS+GAN adapter");

    let (thread_grid, skipped) = partition_thread_grid(cores);
    println!("\nbatched GAN reconstruction (FS+GAN serving path), 5GC-small pipeline");
    if !skipped.is_empty() {
        println!(
            "  skipping oversubscribed thread counts {skipped:?} \
             (host parallelism {cores})"
        );
    }
    println!(
        "{:>7} {:>9} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "rows", "features", "threads", "scalar (s)", "batch (s)", "rows/sec", "speedup"
    );

    let mut cells: Vec<ReconCell> = Vec::new();
    for &rows in &[64usize, 256, 1024] {
        let x = serving_batch(bundle.target_test.features(), rows);
        let start = Instant::now();
        let scalar = adapter.reconstruct_scalar(&x);
        let scalar_elapsed = start.elapsed().as_secs_f64();
        for &t in &thread_grid {
            let start = Instant::now();
            let batch = adapter.reconstruct_batch_with(&x, Some(t), InferPrecision::F64Exact);
            let batch_elapsed = start.elapsed().as_secs_f64();
            let identical = batch == scalar;
            assert!(
                identical,
                "reconstruct_batch_with diverged from the scalar loop at rows={rows}, threads={t}"
            );
            let cell = ReconCell {
                rows,
                features: x.cols(),
                threads: t,
                host_parallelism: cores,
                scalar_elapsed_s: scalar_elapsed,
                batch_elapsed_s: batch_elapsed,
                rows_per_sec: rows as f64 / batch_elapsed.max(1e-12),
                speedup_vs_scalar: scalar_elapsed / batch_elapsed.max(1e-12),
                identical_to_scalar: identical,
            };
            println!(
                "{:>7} {:>9} {:>8} {:>12.4} {:>12.4} {:>12.0} {:>11.2}x",
                cell.rows,
                cell.features,
                cell.threads,
                cell.scalar_elapsed_s,
                cell.batch_elapsed_s,
                cell.rows_per_sec,
                cell.speedup_vs_scalar
            );
            cells.push(cell);
        }
    }
    let guard_cells = bench_guard_overhead(&adapter, bundle.target_test.features());
    let dispatch_cells = bench_dispatch_overhead(&adapter, bundle.target_test.features());
    let telemetry_cells = bench_telemetry_overhead(&adapter, bundle.target_test.features());
    let divergence_cells = bench_f32_divergence(&adapter, bundle.target_test.features());
    (
        cells,
        guard_cells,
        dispatch_cells,
        telemetry_cells,
        divergence_cells,
    )
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perf_baseline: host parallelism {cores} core(s)\n");

    let (thread_grid, skipped_threads) = partition_thread_grid(cores);
    let pc_cells = bench_pc(cores);
    let kernel_cells = bench_kernels();
    let (recon_cells, guard_cells, dispatch_cells, telemetry_cells, divergence_cells) =
        bench_reconstruction(cores);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"thread_grid\": {},",
        usize_list_json(&thread_grid)
    );
    let _ = writeln!(
        json,
        "  \"skipped_thread_counts\": {},",
        usize_list_json(&skipped_threads)
    );
    let _ = writeln!(
        json,
        "  \"note\": \"thread counts above host_parallelism are skipped up \
         front (listed in skipped_thread_counts): timing them would \
         measure scheduler overhead, not the engine\","
    );

    let _ = writeln!(json, "  \"pc_causal_search\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"PC skeleton+orientation over block-chain data; \
         parallel rows are verified bit-identical to threads=1\","
    );
    let _ = writeln!(json, "    \"alpha\": 0.01,");
    let _ = writeln!(json, "    \"max_cond_size\": 2,");
    json.push_str("    \"cells\": [\n");
    for (k, c) in pc_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"features\": {}, \"samples\": {}, \"threads\": {}, \
             \"host_parallelism\": {}, \
             \"edges\": {}, \"ci_tests\": {}, \"tests_per_sec\": {:.1}, \
             \"elapsed_s\": {:.6}, \"speedup_vs_1\": {:.3}, \
             \"identical_to_sequential\": {}}}",
            c.features,
            c.samples,
            c.threads,
            c.host_parallelism,
            c.edges,
            c.tests_run,
            c.tests_per_sec,
            c.elapsed_s,
            c.speedup_vs_1,
            c.identical_to_sequential
        );
        json.push_str(if k + 1 < pc_cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");

    let _ = writeln!(json, "  \"reconstruction_kernels\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"compiled InferPlan forward pass on a \
         reconstruction-sized Dense-BN-ReLU net: textbook naive executor \
         (ijk dot-product triple loop, per-call weight materialization, \
         separate bias/activation passes — the classic GEMM baseline) vs \
         the legacy ikj loop (the partially-optimized pre-kernel matmul, \
         reported for transparency) vs the blocked f64 kernel path \
         (verified bit-identical to both) vs the blocked f32 path, best \
         of 9 amortized samples\","
    );
    let _ = writeln!(json, "    \"kernel_path\": \"{}\",", kernel_path().label());
    let _ = writeln!(json, "    \"f64_target_speedup\": 1.5,");
    let _ = writeln!(json, "    \"f32_target_speedup\": 2.5,");
    json.push_str("    \"cells\": [\n");
    for (k, c) in kernel_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"rows\": {}, \"in_dim\": {}, \"out_dim\": {}, \
             \"naive_elapsed_s\": {:.6}, \"ikj_elapsed_s\": {:.6}, \
             \"f64_elapsed_s\": {:.6}, \
             \"f32_elapsed_s\": {:.6}, \"naive_rows_per_sec\": {:.1}, \
             \"ikj_rows_per_sec\": {:.1}, \
             \"f64_rows_per_sec\": {:.1}, \"f32_rows_per_sec\": {:.1}, \
             \"f64_speedup_vs_naive\": {:.3}, \"f64_speedup_vs_ikj\": {:.3}, \
             \"f32_speedup_vs_naive\": {:.3}, \
             \"f64_identical_to_naive\": {}, \"f32_max_abs_err\": {:.3e}}}",
            c.rows,
            c.in_dim,
            c.out_dim,
            c.naive_elapsed_s,
            c.ikj_elapsed_s,
            c.f64_elapsed_s,
            c.f32_elapsed_s,
            c.naive_rows_per_sec,
            c.ikj_rows_per_sec,
            c.f64_rows_per_sec,
            c.f32_rows_per_sec,
            c.f64_speedup_vs_naive,
            c.f64_speedup_vs_ikj,
            c.f32_speedup_vs_naive,
            c.f64_identical_to_naive,
            c.f32_max_abs_err
        );
        json.push_str(if k + 1 < kernel_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");

    let _ = writeln!(json, "  \"f32_divergence\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"end-to-end F32Fast divergence on the trained \
         FS+GAN serving path: reconstructed-feature error against the \
         bit-exact F64Exact path, and the hard-prediction flip rate \
         (asserted zero on the 5GC fixture)\","
    );
    json.push_str("    \"cells\": [\n");
    for (k, c) in divergence_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"rows\": {}, \"features\": {}, \
             \"max_abs_err\": {:.3e}, \"max_rel_err\": {:.3e}, \
             \"prediction_flips\": {}, \"flip_rate\": {:.4}}}",
            c.rows, c.features, c.max_abs_err, c.max_rel_err, c.prediction_flips, c.flip_rate
        );
        json.push_str(if k + 1 < divergence_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");

    let _ = writeln!(json, "  \"batched_reconstruction\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"FS+GAN reconstruct_batch_with (F64Exact) vs the per-sample \
         scalar loop on a trained 5GC-small pipeline; every batched run is \
         verified bit-identical to the scalar reference\","
    );
    json.push_str("    \"cells\": [\n");
    for (k, c) in recon_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"rows\": {}, \"features\": {}, \"threads\": {}, \
             \"host_parallelism\": {}, \
             \"scalar_elapsed_s\": {:.6}, \"batch_elapsed_s\": {:.6}, \
             \"rows_per_sec\": {:.1}, \"speedup_vs_scalar\": {:.3}, \
             \"identical_to_scalar\": {}}}",
            c.rows,
            c.features,
            c.threads,
            c.host_parallelism,
            c.scalar_elapsed_s,
            c.batch_elapsed_s,
            c.rows_per_sec,
            c.speedup_vs_scalar,
            c.identical_to_scalar
        );
        json.push_str(if k + 1 < recon_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");

    let _ = writeln!(json, "  \"guarded_serving_overhead\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"try_reconstruct_batch_with (reject policy) vs \
         reconstruct_batch_with on clean single-threaded batches, best of 9; \
         the guarded path is verified bit-identical and its overhead is \
         the cost of the input scan\","
    );
    let _ = writeln!(json, "    \"target_overhead_pct\": 5.0,");
    json.push_str("    \"cells\": [\n");
    for (k, c) in guard_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"rows\": {}, \"features\": {}, \
             \"unguarded_elapsed_s\": {:.6}, \"guarded_elapsed_s\": {:.6}, \
             \"overhead_pct\": {:.2}, \"identical\": {}}}",
            c.rows,
            c.features,
            c.unguarded_elapsed_s,
            c.guarded_elapsed_s,
            c.overhead_pct,
            c.identical
        );
        json.push_str(if k + 1 < guard_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");

    let _ = writeln!(json, "  \"pipeline_dispatch_overhead\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"predict_batch through the Box<dyn \
         DriftMitigator> registry interface vs the direct uninstrumented \
         FsGanAdapter::predict_mc at MC_DRAWS on the same trained FS+GAN \
         pipeline, best of 25 amortized samples; one virtual call per \
         batch, verified bit-identical\","
    );
    let _ = writeln!(json, "    \"target_overhead_pct\": 2.0,");
    json.push_str("    \"cells\": [\n");
    for (k, c) in dispatch_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"rows\": {}, \"features\": {}, \
             \"direct_elapsed_s\": {:.6}, \"dyn_elapsed_s\": {:.6}, \
             \"overhead_pct\": {:.2}, \"identical\": {}}}",
            c.rows, c.features, c.direct_elapsed_s, c.dyn_elapsed_s, c.overhead_pct, c.identical
        );
        json.push_str(if k + 1 < dispatch_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");

    let _ = writeln!(json, "  \"telemetry_overhead\": {{");
    let _ = writeln!(
        json,
        "    \"description\": \"prediction timed three ways on the same \
         trained FS+GAN pipeline, best of 25 amortized samples: direct \
         FsGanAdapter::predict_mc at MC_DRAWS (uninstrumented), registry \
         predict_batch with telemetry \
         disabled (no-op path, one relaxed atomic load per emission \
         site), and registry call with an aggregating InMemoryRecorder \
         installed; all three verified bit-identical\","
    );
    let _ = writeln!(json, "    \"noop_target_overhead_pct\": 2.0,");
    let _ = writeln!(json, "    \"aggregating_target_overhead_pct\": 5.0,");
    json.push_str("    \"cells\": [\n");
    for (k, c) in telemetry_cells.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"rows\": {}, \"features\": {}, \
             \"direct_elapsed_s\": {:.6}, \"noop_elapsed_s\": {:.6}, \
             \"aggregating_elapsed_s\": {:.6}, \
             \"noop_overhead_pct\": {:.2}, \
             \"aggregating_overhead_pct\": {:.2}, \"identical\": {}}}",
            c.rows,
            c.features,
            c.direct_elapsed_s,
            c.noop_elapsed_s,
            c.aggregating_elapsed_s,
            c.noop_overhead_pct,
            c.aggregating_overhead_pct,
            c.identical
        );
        json.push_str(if k + 1 < telemetry_cells.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    std::fs::write(path, &json).expect("write BENCH_runtime.json");
    println!("\nwrote {path}");
}
