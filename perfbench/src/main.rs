//! FS+GAN benchmark over the real `fsda-serve` + `fsda-core` stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <interactive|bulk|drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates `Synth5gc::small()` from the fixed
//! `fleet::DATA_SEED`, fits FS+GAN, persists it, restores a fleet of
//! tenants and boots a `TenantServer` (three times; the median is
//! `setup_s`), then drives the workload with the target test rows in an
//! order drawn from `--seed` and checks sampled responses against fresh
//! restores of the artifact versions they name.
//!
//! - `interactive`: 4 tenants, one closed-loop client, batch = 1 row,
//!   round-robin tenants.
//! - `bulk`: the same fleet, batch = 1024 rows, one request in flight on
//!   each of two tenants pinned to distinct shards.
//! - `drift`: an adapted and a bystander tenant; a `DriftController` runs
//!   detect → warm re-separation → re-fit → validate → swap cycles while a
//!   reader thread sends batch-1 requests to both.
//!
//! The serving workloads end with [`MIN_CYCLES`] detect→swap cycles on an
//! idle server, so every workload reports every end-to-end metric.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run is split into an untraced and a traced half,
//! prints the tracing overhead, and the last line carries the per-layer
//! metrics measured by timing public calls from outside (see `trace`).

mod fleet;
mod stamp;
mod stats;
mod trace;
mod workload;

use fleet::{Book, Fleet, Served};
use fsda_core::pipeline::restore;
use fsda_core::{FsGanAdapter, GuardConfig, Method};
use fsda_serve::controller::{DriftController, Refitter, RegistryRefitter};
use stats::{median_of, sorted, tail};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{CallLog, ControlInputs, Probe, ProbeLog, Timed, TimedRefitter};
use workload::{Cycles, Requests, Traffic};

const SERVING_TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
const DRIFT_TENANTS: [&str; 2] = ["adapted", "bystander"];
const BULK_ROWS: usize = 1024;
const BULK_BATCHES: usize = 5;
const F1_ROWS: usize = 64;
const DRIFT_WINDOWS: usize = 4;
const WARMUP: Duration = Duration::from_millis(300);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Detect→swap cycles per untraced run, at least.
const MIN_CYCLES: usize = 5;
/// Traced detect→swap cycles per traced run, each followed by the
/// component fits it is attributed against.
const TRACED_CYCLES: usize = 3;
/// Requests per window of `stats::quiet_median`: about 0.1 s of batch-1
/// requests, and about 1 s of bulk rounds.
const QUIET_ROWS: usize = 100;
const QUIET_BULK: usize = 8;
/// Tolerance of the stage-sum attribution checks.
const STAGE_SUM_TOL: f64 = 0.1;
/// How long the stage probes run on batch-1 and on bulk traffic.
const PROBE_ROWS: Duration = Duration::from_secs(2);
const PROBE_BULK: Duration = Duration::from_secs(4);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Interactive,
    Bulk,
    Drift,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "interactive" => Workload::Interactive,
        "bulk" => Workload::Bulk,
        "drift" => Workload::Drift,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: correctness, request/cycle counts and named metrics.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; a non-finite metric also marks the run
                // incorrect.
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Median latency of a phase. The median of its quietest `window`
/// requests, the tail (with its evidence), quartiles and throughput are
/// printed beside it.
fn latency(label: &str, traffic: &Traffic, window: usize) -> f64 {
    let lat = sorted(&traffic.latencies_ms);
    if lat.is_empty() {
        println!("{label}: no request completed");
        return f64::NAN;
    }
    let t = tail(&lat);
    let p50 = stats::median(&lat);
    let quiet = stats::quiet_median(&traffic.latencies_ms, window);
    let [q1, _, q3] = if lat.len() >= 2 {
        stats::quartiles(&lat)
    } else {
        [p50; 3]
    };
    println!(
        "{label}: {} requests in {:.2} s, quietest-window p50 {quiet:.4} ms, \
         p50 {p50:.4} ms (quartiles {q1:.4}..{q3:.4}), \
         tail = p{} {:.4} ms ({} samples beyond), {:.1} rows/s; p90 {:.4} p95 {:.4} p98 {:.4} p99 {:.4}",
        lat.len(),
        traffic.elapsed_s,
        t.percentile,
        t.value,
        t.beyond,
        traffic.rows_per_s(),
        stats::nearest_rank(&lat, 90.0),
        stats::nearest_rank(&lat, 95.0),
        stats::nearest_rank(&lat, 98.0),
        stats::nearest_rank(&lat, 99.0),
    );
    let per_tenant: Vec<String> = traffic
        .per_tenant_ms
        .iter()
        .map(|(tenant, ms)| format!("{tenant} {:.4}", median_of(ms)))
        .collect();
    println!("{label}: per-tenant p50 ms: {}", per_tenant.join(", "));
    p50
}

/// Runs the correctness check and prints its outcome.
fn checked(book: &Book, sample: &[Served]) -> bool {
    match fleet::check(book, sample) {
        Ok(n) => {
            println!("correctness: {n} sampled responses equal predict_batch of fresh restores");
            n > 0
        }
        Err(e) => {
            println!("correctness: FAILED: {e}");
            false
        }
    }
}

fn registry_refitter(source: &fsda_data::Dataset) -> Arc<dyn Refitter> {
    Arc::new(
        RegistryRefitter::new(
            Method::FsGan,
            fleet::config(),
            GuardConfig::default(),
            source,
        )
        .expect("the separation cache builds on generated source data"),
    )
}

/// Swaps each `(tenant, bytes)` to a [`Timed`] restore of `bytes` and
/// returns the per-tenant call logs.
fn decorate(
    fleet: &Fleet,
    artifacts: &[(&str, &[u8])],
    book: &mut Book,
) -> BTreeMap<String, Arc<CallLog>> {
    let mut logs = BTreeMap::new();
    for &(tenant, bytes) in artifacts {
        let log = Arc::new(CallLog::default());
        let inner = restore(bytes).expect("served artifacts restore");
        let outcome = fleet
            .server
            .swap(tenant, Box::new(Timed::new(inner, Arc::clone(&log))))
            .expect("fleet tenant exists");
        book.record(tenant, outcome.new_version, bytes.to_vec());
        logs.insert(tenant.to_string(), log);
    }
    logs
}

/// Swaps each `(tenant, bytes)` to a [`Probe`] of `bytes`; all probes
/// record into the returned log.
fn probe(fleet: &Fleet, artifacts: &[(&str, &[u8])], book: &mut Book) -> Arc<ProbeLog> {
    let log = Arc::new(ProbeLog::default());
    for &(tenant, bytes) in artifacts {
        let outcome = fleet
            .server
            .swap(tenant, Box::new(Probe::new(bytes, Arc::clone(&log))))
            .expect("fleet tenant exists");
        book.record(tenant, outcome.new_version, bytes.to_vec());
    }
    log
}

/// Median time a traced request spent outside the artifact: each
/// request's client latency minus its time inside the [`Timed`] decorator,
/// paired in per-tenant order.
fn queue_ms(traffic: &Traffic, logs: &BTreeMap<String, Arc<CallLog>>) -> f64 {
    let mut diffs = Vec::new();
    for (tenant, lat) in &traffic.per_tenant_ms {
        let served = logs[tenant].served();
        if served.len() == lat.len() {
            diffs.extend(lat.iter().zip(&served).map(|(l, s)| l - s));
        } else {
            println!(
                "queue pairing for {tenant}: {} latencies vs {} decorated calls, \
                 using medians",
                lat.len(),
                served.len()
            );
            diffs.push(median_of(lat) - median_of(&served));
        }
    }
    median_of(&diffs)
}

fn overhead(name: &str, untraced: f64, traced: f64) {
    println!(
        "trace overhead {name}: untraced {untraced:.6}, traced {traced:.6}, \
         difference {:+.6} ({:+.2} %)",
        traced - untraced,
        (traced / untraced - 1.0) * 100.0
    );
}

fn refit_lines(records: &[trace::RefitRecord]) {
    for r in records {
        println!(
            "  traced re-fit: separation {:.3} ms ({} CI tests, {}), fit {:.3} s",
            r.separate_ms,
            r.ci_tests,
            if r.warm { "warm" } else { "cold" },
            r.fit_s
        );
    }
}

/// The fastest detect→swap time of the cycles; NaN when none swapped. A
/// cycle lasts a few seconds and a shared core flips speed many times in
/// that, so the fastest cycle is the one the neighbours slowed least.
fn fastest(c: &Cycles) -> f64 {
    c.detect_to_swap_s.iter().copied().fold(f64::NAN, f64::min)
}

fn cycle_line(label: &str, c: &Cycles) {
    let median = if c.detect_to_swap_s.is_empty() {
        f64::NAN
    } else {
        median_of(&c.detect_to_swap_s)
    };
    println!(
        "{label}: {} cycles, {} swapped, {} attempts, detect_to_swap median {median:.4} s, \
         fastest {:.4} s, over {} swaps {:.4?}, cycle_fail_frac {:.4}",
        c.cycles,
        c.swaps,
        c.attempts,
        fastest(c),
        c.swaps,
        c.detect_to_swap_s,
        (c.cycles - c.swaps) as f64 / c.cycles.max(1) as f64
    );
    for f in &c.failures {
        println!("  cycle did not swap: {f}");
    }
}

/// The end-to-end report of an untraced run.
fn e2e(
    setup_s: f64,
    traffic: &Traffic,
    window: usize,
    macro_f1: f64,
    cycles: &Cycles,
    correct: bool,
) -> Report {
    latency("latency", traffic, window);
    let quiet = if traffic.latencies_ms.is_empty() {
        f64::NAN
    } else {
        stats::quiet_median(&traffic.latencies_ms, window)
    };
    cycle_line("control", cycles);
    let attempted = traffic.attempted + cycles.cycles;
    let failed = traffic.failed + (cycles.cycles - cycles.swaps);
    println!(
        "requests: {} attempted, {} failed or refused, fail_frac {:.4} ratio; \
         macro_f1 {macro_f1:.4}",
        traffic.attempted,
        traffic.failed,
        traffic.failed as f64 / traffic.attempted.max(1) as f64
    );
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("latency_quiet_p50_ms", quiet, "ms"),
        ("macro_f1", macro_f1, "ratio"),
        ("detect_to_swap_min_s", fastest(cycles), "s"),
        ("peak_rss_mb", fleet::peak_rss_mb(), "MB"),
    ];
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("a metric is not finite: {metrics:?}");
    }
    Report {
        correct: correct && finite,
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer report of a traced run.
fn layers(
    attempted: usize,
    failed: usize,
    correct: bool,
    s: &trace::ServingLayers,
    c: &trace::ControlLayers,
) -> Report {
    for (name, frac) in [
        ("core.stage_sum_frac", s.stage_sum_frac),
        ("control.stage_sum_frac", c.stage_sum_frac),
    ] {
        let verdict = if stats::attributes(frac, STAGE_SUM_TOL) {
            "within"
        } else {
            "OUTSIDE"
        };
        println!("attribution {name} = {frac:.4}: {verdict} 1 ± {STAGE_SUM_TOL}");
    }
    let metrics = vec![
        ("serve.queue_ms", s.queue_ms, "ms"),
        ("core.guard_ms", s.guard_ms, "ms"),
        ("core.split_ms", s.split_ms, "ms"),
        ("gan.draw_ms", s.draw_ms, "ms"),
        ("models.classify_ms", s.classify_ms, "ms"),
        ("core.mc_draws", s.mc_draws, "count"),
        ("core.predict_per_recon", s.predict_per_recon, "ratio"),
        ("core.stage_sum_frac", s.stage_sum_frac, "ratio"),
        ("linalg.gemm_gflops", s.gemm_gflops, "GFLOP/s"),
        ("linalg.gemv_gflops", s.gemv_gflops, "GFLOP/s"),
        ("core.drift_score_ms", c.drift_score_ms, "ms"),
        ("causal.separate_ms", c.separate_ms, "ms"),
        ("causal.ci_tests", c.ci_tests, "count"),
        ("causal.warm_frac", c.warm_frac, "ratio"),
        ("gan.fit_s", c.gan_fit_s, "s"),
        ("gan.epoch_ms", c.gan_epoch_ms, "ms"),
        ("models.fit_s", c.models_fit_s, "s"),
        ("control.validate_ms", c.validate_ms, "ms"),
        ("core.persist_ms", c.persist_ms, "ms"),
        ("serve.swap_us", c.swap_us, "us"),
        ("control.attempts_per_swap", c.attempts_per_swap, "ratio"),
        ("control.stage_sum_frac", c.stage_sum_frac, "ratio"),
    ];
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Report {
        correct: correct && finite,
        attempted,
        failed,
        metrics,
    }
}

/// `interactive` and `bulk`: serving traffic, then [`MIN_CYCLES`]
/// detect→swap cycles on tenant `t0` with no traffic.
fn serving(args: &Args) -> Report {
    let (bundle, fleet, setup_s) = fleet::setup_median(&SERVING_TENANTS, SETUPS);
    let mut book = Book::booted(&fleet);
    let test = &workload::shuffled(&bundle.target_test, args.seed);
    let source = &bundle.source_train;
    let pool = &workload::labeled_window(&bundle.target_pool);
    let bulk = args.workload == Workload::Bulk;
    let window = if bulk { QUIET_BULK } else { QUIET_ROWS };
    let (req, tenants, samples) = if bulk {
        let req = Requests::blocks(test, BULK_ROWS, BULK_BATCHES);
        (req, fleet.tenants[..2].to_vec(), 4)
    } else {
        (Requests::rows(test), fleet.tenants.clone(), 64)
    };
    println!(
        "workload {:?}: {} tenants on {} shards, {} clients' tenants, batch {} rows, setup {setup_s:.3} s",
        args.workload,
        fleet.tenants.len(),
        fleet.server.shards(),
        tenants.len(),
        req.batches[0].rows()
    );
    let drive = |d: Duration| {
        if bulk {
            workload::bulk_loop(&fleet.server, &tenants, &req, d)
        } else {
            let start = Instant::now();
            workload::closed_loop(&fleet.server, &tenants, &req, &|| start.elapsed() >= d)
        }
    };
    let windows = workload::windows(test, DRIFT_WINDOWS);
    let cycle = |refitter: Arc<dyn Refitter>,
                 incumbent: Vec<u8>,
                 min: usize,
                 book: &mut Book|
     -> (DriftController, Cycles) {
        let mut ctl = workload::controller(
            &fleet.server,
            &fleet.tenants[0],
            source,
            pool,
            incumbent,
            refitter,
            args.seed,
        );
        let cycles = workload::run_cycles(&mut ctl, &windows, book, min, Duration::ZERO);
        (ctl, cycles)
    };
    drive(WARMUP);

    if !args.trace {
        let traffic = drive(secs(args.seconds));
        let (_, cycles) = cycle(
            registry_refitter(source),
            fleet.boot_bytes.clone(),
            MIN_CYCLES,
            &mut book,
        );
        let correct = checked(&book, &traffic.sample(&tenants, &req, samples));
        return e2e(
            setup_s,
            &traffic,
            window,
            traffic.macro_f1(&req),
            &cycles,
            correct,
        );
    }

    let half = secs(args.seconds / 2.0);
    let plain = drive(half);
    let boot = fleet.boot_bytes.clone();
    let artifacts: Vec<(&str, &[u8])> = fleet
        .tenants
        .iter()
        .map(|t| (t.as_str(), boot.as_slice()))
        .collect();
    let logs = decorate(&fleet, &artifacts, &mut book);
    let traced = drive(half);
    let plain_p50 = latency("untraced half", &plain, window);
    let traced_p50 = latency("traced half", &traced, window);
    let queue = queue_ms(&traced, &logs);
    let probed: Vec<(&str, &[u8])> = tenants
        .iter()
        .map(|t| (t.as_str(), boot.as_slice()))
        .collect();
    let probe_log = probe(&fleet, &probed, &mut book);
    let probing = drive(if bulk { PROBE_BULK } else { PROBE_ROWS });

    let (ctl_a, cycles_a) = cycle(registry_refitter(source), boot.clone(), 1, &mut book);
    let incumbent = ctl_a.last_good_artifact().to_vec();
    let timed = Arc::new(
        TimedRefitter::new(source, fleet::config(), Arc::clone(&logs["t0"]))
            .expect("the separation cache builds on generated source data"),
    );
    let component_fit = |timed: &TimedRefitter| {
        let records = timed.records();
        let last = records.last().expect("a traced cycle re-fitted");
        trace::component_fit(source, &fleet::config(), &last.separation)
    };
    let (mut ctl_b, mut cycles_b) = cycle(timed.clone(), incumbent.clone(), 1, &mut book);
    let mut fits = vec![component_fit(&timed)];
    for _ in 1..TRACED_CYCLES {
        cycles_b.merge(workload::run_cycles(
            &mut ctl_b,
            &windows,
            &mut book,
            1,
            Duration::ZERO,
        ));
        fits.push(component_fit(&timed));
    }
    cycle_line("untraced cycle", &cycles_a);
    cycle_line("traced cycle", &cycles_b);
    refit_lines(&timed.records());

    let mut sample = plain.sample(&tenants, &req, samples / 2);
    sample.extend(traced.sample(&tenants, &req, samples / 2));
    sample.extend(probing.sample(&tenants, &req, 2));
    let correct = checked(&book, &sample);

    overhead("latency p50 ms", plain_p50, traced_p50);
    overhead("rows_per_s", plain.rows_per_s(), traced.rows_per_s());
    overhead(
        "detect_to_swap median s",
        median_of(&cycles_a.detect_to_swap_s),
        median_of(&cycles_b.detect_to_swap_s),
    );

    let adapter = FsGanAdapter::from_bytes(&boot).expect("the boot artifact restores");
    let serving = trace::serving_layers(&probe_log.samples(), &adapter, queue, traced_p50);
    let candidate = ctl_b.last_good_artifact().to_vec();
    let control = trace::control_layers(&ControlInputs {
        source,
        config: &fleet::config(),
        drift: &workload::drift_config(),
        window: &windows[0],
        holdback: &workload::holdback(pool),
        incumbent: &incumbent,
        candidate: &candidate,
        records: &timed.records(),
        fits: &fits,
        candidate_log: &logs["t0"],
        attempts: cycles_b.attempts,
        swaps: cycles_b.swaps,
        detect_to_swap_s: median_of(&cycles_b.detect_to_swap_s),
        server: &fleet.server,
        swap_tenant: &fleet.tenants[0],
    });
    let attempted =
        plain.attempted + traced.attempted + probing.attempted + cycles_a.cycles + cycles_b.cycles;
    let failed = plain.failed
        + traced.failed
        + probing.failed
        + (cycles_a.cycles - cycles_a.swaps)
        + (cycles_b.cycles - cycles_b.swaps);
    layers(attempted, failed, correct, &serving, &control)
}

/// One drift phase: a reader thread sends batch-1 requests to both
/// tenants while the controller runs at least `min` cycles and `budget`.
fn drift_phase(
    fleet: &Fleet,
    req: &Requests,
    windows: &[fsda_linalg::Matrix],
    ctl: &mut DriftController,
    book: &mut Book,
    min: usize,
    budget: Duration,
) -> (Traffic, Cycles) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            workload::closed_loop(&fleet.server, &fleet.tenants, req, &|| {
                stop.load(Ordering::SeqCst)
            })
        });
        let cycles = workload::run_cycles(ctl, windows, book, min, budget);
        stop.store(true, Ordering::SeqCst);
        let traffic = reader.join().expect("the reader thread does not panic");
        (traffic, cycles)
    })
}

/// `drift`: detect→swap cycles on `adapted` under concurrent batch-1 reads
/// of `adapted` and `bystander`.
fn drift(args: &Args) -> Report {
    let (bundle, fleet, setup_s) = fleet::setup_median(&DRIFT_TENANTS, SETUPS);
    let mut book = Book::booted(&fleet);
    let test = &workload::shuffled(&bundle.target_test, args.seed);
    let source = &bundle.source_train;
    let pool = &workload::labeled_window(&bundle.target_pool);
    let req = Requests::rows(test);
    let windows = workload::windows(test, DRIFT_WINDOWS);
    println!(
        "workload drift: {} tenants on {} shards, reader batch 1 row, setup {setup_s:.3} s",
        fleet.tenants.len(),
        fleet.server.shards()
    );
    let adapted = fleet.tenants[0].clone();
    let controller = |refitter: Arc<dyn Refitter>, incumbent: Vec<u8>| {
        workload::controller(
            &fleet.server,
            &adapted,
            source,
            pool,
            incumbent,
            refitter,
            args.seed,
        )
    };
    let start = Instant::now();
    workload::closed_loop(&fleet.server, &fleet.tenants, &req, &|| {
        start.elapsed() >= WARMUP
    });

    if !args.trace {
        let mut ctl = controller(registry_refitter(source), fleet.boot_bytes.clone());
        let (traffic, cycles) = drift_phase(
            &fleet,
            &req,
            &windows,
            &mut ctl,
            &mut book,
            MIN_CYCLES,
            secs(args.seconds),
        );
        // Labels served after the final swap, over the whole test split.
        let f1_req = Requests::blocks(test, F1_ROWS, test.len().div_ceil(F1_ROWS));
        let after = workload::serve_each(&fleet.server, &adapted, &f1_req);
        let mut sample = traffic.sample(&fleet.tenants, &req, 64);
        sample.extend(after.sample(
            std::slice::from_ref(&adapted),
            &f1_req,
            f1_req.batches.len(),
        ));
        let correct = checked(&book, &sample) && after.failed == 0;
        let mut report = e2e(
            setup_s,
            &traffic,
            QUIET_ROWS,
            after.macro_f1(&f1_req),
            &cycles,
            correct,
        );
        report.attempted += after.attempted;
        report.failed += after.failed;
        return report;
    }

    let half = secs(args.seconds / 2.0);
    let mut ctl_a = controller(registry_refitter(source), fleet.boot_bytes.clone());
    let (plain, cycles_a) = drift_phase(&fleet, &req, &windows, &mut ctl_a, &mut book, 1, half);
    let incumbent = ctl_a.last_good_artifact().to_vec();
    let boot = fleet.boot_bytes.clone();
    let logs = decorate(
        &fleet,
        &[
            (adapted.as_str(), &incumbent),
            (fleet.tenants[1].as_str(), &boot),
        ],
        &mut book,
    );
    let timed = Arc::new(
        TimedRefitter::new(source, fleet::config(), Arc::clone(&logs[&adapted]))
            .expect("the separation cache builds on generated source data"),
    );
    let mut ctl_b = controller(timed.clone(), incumbent.clone());
    let (traced, cycles_b) = drift_phase(&fleet, &req, &windows, &mut ctl_b, &mut book, 1, half);
    let plain_p50 = latency("untraced half", &plain, QUIET_ROWS);
    let traced_p50 = latency("traced half", &traced, QUIET_ROWS);
    cycle_line("untraced cycles", &cycles_a);
    cycle_line("traced cycles", &cycles_b);
    refit_lines(&timed.records());
    let queue = queue_ms(&traced, &logs);

    // Stage probes on the reader's requests, beside one more cycle.
    let candidate = ctl_b.last_good_artifact().to_vec();
    let probe_log = probe(
        &fleet,
        &[
            (adapted.as_str(), &candidate),
            (fleet.tenants[1].as_str(), &boot),
        ],
        &mut book,
    );
    let mut ctl_c = controller(registry_refitter(source), candidate.clone());
    let (probing, cycles_c) = drift_phase(
        &fleet,
        &req,
        &windows,
        &mut ctl_c,
        &mut book,
        1,
        Duration::ZERO,
    );

    let mut sample = plain.sample(&fleet.tenants, &req, 32);
    sample.extend(traced.sample(&fleet.tenants, &req, 32));
    sample.extend(probing.sample(&fleet.tenants, &req, 8));
    let correct = checked(&book, &sample);

    overhead("latency p50 ms", plain_p50, traced_p50);
    overhead("rows_per_s", plain.rows_per_s(), traced.rows_per_s());
    overhead(
        "detect_to_swap median s",
        median_of(&cycles_a.detect_to_swap_s),
        median_of(&cycles_b.detect_to_swap_s),
    );

    let adapter = FsGanAdapter::from_bytes(&candidate).expect("the swapped artifact restores");
    let serving = trace::serving_layers(&probe_log.samples(), &adapter, queue, traced_p50);
    // The control stages are timed beside reads, as the cycles ran; these
    // responses name versions the swap timing publishes and are not
    // checked.
    let stop = AtomicBool::new(false);
    let control = std::thread::scope(|s| {
        s.spawn(|| {
            workload::closed_loop(&fleet.server, &fleet.tenants, &req, &|| {
                stop.load(Ordering::SeqCst)
            })
        });
        let fits: Vec<(f64, f64)> = timed
            .records()
            .iter()
            .map(|r| trace::component_fit(source, &fleet::config(), &r.separation))
            .collect();
        let control = trace::control_layers(&ControlInputs {
            source,
            config: &fleet::config(),
            drift: &workload::drift_config(),
            window: &windows[0],
            holdback: &workload::holdback(pool),
            incumbent: &incumbent,
            candidate: &candidate,
            records: &timed.records(),
            fits: &fits,
            candidate_log: &logs[&adapted],
            attempts: cycles_b.attempts,
            swaps: cycles_b.swaps,
            detect_to_swap_s: median_of(&cycles_b.detect_to_swap_s),
            server: &fleet.server,
            swap_tenant: &adapted,
        });
        stop.store(true, Ordering::SeqCst);
        control
    });
    let attempted = plain.attempted
        + traced.attempted
        + probing.attempted
        + cycles_a.cycles
        + cycles_b.cycles
        + cycles_c.cycles;
    let failed = plain.failed
        + traced.failed
        + probing.failed
        + (cycles_a.cycles - cycles_a.swaps)
        + (cycles_b.cycles - cycles_b.swaps)
        + (cycles_c.cycles - cycles_c.swaps);
    layers(attempted, failed, correct, &serving, &control)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <interactive|bulk|drift> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("{}", stamp::line(args.seed));
    let report = match args.workload {
        Workload::Interactive | Workload::Bulk => serving(&args),
        Workload::Drift => drift(&args),
    };
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
