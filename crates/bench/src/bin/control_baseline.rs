//! Control-plane baseline for the closed-loop drift controller: the cost
//! of re-separation with and without the warm-start cache, and the
//! end-to-end detect → re-fit → validate → hot-swap latency through a
//! live [`fsda_serve::DriftController`].
//!
//! **Warm vs cold.** A cold fit builds the separation cache from scratch:
//! fit the source normalizer, fold the n_src source rows into co-moments
//! (O(n_src · d²)), then run the cached search. A warm re-fit reuses the
//! per-tenant [`fsda_core::fs::SeparationCache`], so only the few target
//! shots are folded in (O(n_tgt · d²)). The cache itself is built once
//! per tenant at boot, off the re-fit path, and is *not* part of the
//! measured warm time. Both run the same search, so their partitions must
//! be equal (`partitions_agree`). The headline claim this bench
//! regression-gates: **warm re-separation costs at most half of a cold
//! fit** on source-rich tenants (`max_warm_ratio <= 0.5`).
//!
//! **Detect → swap.** A controller supervising a stale tenant is fed a
//! drifted window; the recorded latency spans drift scoring, the few-shot
//! draw, the (warm) re-fit, the validation gate against the restored
//! incumbent, and the atomic hot-swap.
//!
//! Writes `BENCH_control.json` at the repository root.
//!
//! `cargo run -p fsda-bench --release --bin control_baseline [-- --quick]`

use fsda_core::adapter::AdapterConfig;
use fsda_core::drift::DriftConfig;
use fsda_core::fs::{FeatureSeparation, SearchPath, SeparationCache};
use fsda_core::{GuardConfig, Method, RetryPolicy};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::{Synth5gc, Synth5gcBundle};
use fsda_data::Dataset;
use fsda_linalg::SeededRng;
use fsda_serve::controller::{ControlOutcome, ControllerConfig, DriftController, RegistryRefitter};
use fsda_serve::server::{ServeConfig, TenantServer};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One separation workload: a named 5GC preset and how many shots per
/// class the re-fit draws.
struct Workload {
    name: &'static str,
    preset: Synth5gc,
    shots_per_class: usize,
}

struct SeparationRow {
    name: &'static str,
    n_src: usize,
    n_shots: usize,
    features: usize,
    cold_ms: f64,
    warm_ms: f64,
    ratio: f64,
    agree: bool,
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

fn measure_separation(w: &Workload, reps: usize) -> SeparationRow {
    let bundle = w.preset.generate(17).expect("bundle");
    let config = AdapterConfig::quick();
    let mut rng = SeededRng::new(23);
    let shots = few_shot_subset(&bundle.target_pool, w.shots_per_class, &mut rng).expect("shots");

    // Boot-time, per-tenant work — excluded from the measured warm path.
    let cache = SeparationCache::new(&bundle.source_train, &config.fs).expect("cache");

    let (cold_ms, cold) = best_of(reps, || {
        FeatureSeparation::fit(&bundle.source_train, &shots, &config.fs).expect("cold fit")
    });
    let (warm_ms, warm) = best_of(reps, || {
        FeatureSeparation::fit_warm(&cache, &shots, None)
            .expect("warm fit")
            .0
    });

    // A cold fit is the cached search on a fresh cache: the CI job fails
    // unless the two variant sets are equal.
    SeparationRow {
        name: w.name,
        n_src: bundle.source_train.len(),
        n_shots: shots.len(),
        features: bundle.source_train.num_features(),
        cold_ms,
        warm_ms,
        ratio: warm_ms / cold_ms.max(1e-12),
        agree: warm.variant() == cold.variant(),
    }
}

struct ControlRun {
    cycles: usize,
    swaps: usize,
    warm_swaps: usize,
    detect_to_swap_ms: Vec<f64>,
}

/// Runs `cycles` full detect → re-fit → validate → swap loops through a
/// live controller + server, alternating drifted windows with fresh
/// buffered pools so every cycle starts from a stale incumbent.
fn measure_control(bundle: &Synth5gcBundle, cycles: usize) -> ControlRun {
    let k = bundle.source_train.num_classes();
    let rotated = Dataset::new(
        bundle.source_train.features().clone(),
        bundle
            .source_train
            .labels()
            .iter()
            .map(|&y| (y + 1) % k)
            .collect(),
        k,
    )
    .expect("rotated");
    let mut incumbent = Method::SrcOnly.build(&AdapterConfig::quick(), 5);
    incumbent
        .try_fit(&rotated, &rotated, &GuardConfig::default())
        .expect("incumbent fit");
    let incumbent_bytes = incumbent.to_bytes().expect("incumbent bytes");
    let server = Arc::new(
        TenantServer::from_artifacts(vec![("slice-0".into(), incumbent)], ServeConfig::default())
            .expect("server"),
    );
    let refitter = Arc::new(
        RegistryRefitter::new(
            Method::Fs,
            AdapterConfig::quick(),
            GuardConfig::default(),
            &bundle.source_train,
        )
        .expect("refitter"),
    );
    let mut controller = DriftController::new(
        "slice-0",
        Arc::clone(&server),
        Arc::new(bundle.source_train.clone()),
        incumbent_bytes,
        refitter,
        ControllerConfig {
            drift: DriftConfig {
                z_threshold: 0.5,
                ks_threshold: 0.1,
                feature_fraction: 0.01,
                ..DriftConfig::default()
            },
            retry: RetryPolicy::immediate(2),
            attempt_deadline: Duration::from_secs(120),
            shots_per_class: 5,
            seed: 29,
            // Latency bench: the gate must not reject later cycles whose
            // candidates tie the (already re-fitted) incumbent — every
            // stage still runs and is measured.
            min_improvement: -1.0,
            ..ControllerConfig::default()
        },
    )
    .expect("controller");
    controller
        .push_window(bundle.target_pool.clone())
        .expect("pool");

    let mut run = ControlRun {
        cycles,
        swaps: 0,
        warm_swaps: 0,
        detect_to_swap_ms: Vec::new(),
    };
    for cycle in 0..cycles {
        match controller.observe(bundle.target_test.features()) {
            ControlOutcome::Swapped(swap) => {
                run.swaps += 1;
                if swap.path == SearchPath::Warm {
                    run.warm_swaps += 1;
                }
                run.detect_to_swap_ms
                    .push(swap.detect_to_swap.as_secs_f64() * 1e3);
            }
            other => panic!("control cycle {cycle} did not swap: {other:?}"),
        }
    }
    drop(server);
    run
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

const TARGET_MAX_RATIO: f64 = 0.5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (reps, cycles) = if quick { (3, 2) } else { (5, 5) };

    // Source-rich presets: the warm cache amortizes the source side of
    // the correlation build, so its payoff scales with n_src.
    let workloads = [
        Workload {
            name: "paper_full",
            preset: Synth5gc::full(),
            shots_per_class: 5,
        },
        Workload {
            name: "source_rich",
            preset: Synth5gc {
                source_total: 8192,
                ..Synth5gc::full()
            },
            shots_per_class: 5,
        },
    ];

    let mut rows = Vec::new();
    for w in &workloads {
        let row = measure_separation(w, reps);
        println!(
            "{:>12}  n_src={:>5} d={:>3}  cold {:>8.2} ms  warm {:>8.2} ms  ratio {:.3}  agree={}",
            row.name, row.n_src, row.features, row.cold_ms, row.warm_ms, row.ratio, row.agree
        );
        rows.push(row);
    }
    let max_ratio = rows.iter().map(|r| r.ratio).fold(0.0f64, f64::max);

    let control_bundle = Synth5gc::small().generate(11).expect("control bundle");
    let control = measure_control(&control_bundle, cycles);
    println!(
        "control: {} cycles, {} swaps ({} warm), detect->swap mean {:.1} ms max {:.1} ms",
        control.cycles,
        control.swaps,
        control.warm_swaps,
        mean(&control.detect_to_swap_ms),
        control
            .detect_to_swap_ms
            .iter()
            .fold(0.0f64, |a, &b| a.max(b)),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"separation\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"n_src\": {},", r.n_src);
        let _ = writeln!(json, "      \"n_shots\": {},", r.n_shots);
        let _ = writeln!(json, "      \"features\": {},", r.features);
        let _ = writeln!(json, "      \"cold_ms\": {:.4},", r.cold_ms);
        let _ = writeln!(json, "      \"warm_ms\": {:.4},", r.warm_ms);
        let _ = writeln!(json, "      \"ratio\": {:.4},", r.ratio);
        let _ = writeln!(json, "      \"partitions_agree\": {}", r.agree);
        json.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"control\": {\n");
    let _ = writeln!(json, "    \"cycles\": {},", control.cycles);
    let _ = writeln!(json, "    \"swaps\": {},", control.swaps);
    let _ = writeln!(json, "    \"warm_swaps\": {},", control.warm_swaps);
    let _ = writeln!(
        json,
        "    \"detect_to_swap_ms_mean\": {:.4},",
        mean(&control.detect_to_swap_ms)
    );
    let _ = writeln!(
        json,
        "    \"detect_to_swap_ms_max\": {:.4}",
        control
            .detect_to_swap_ms
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
    );
    json.push_str("  },\n");
    json.push_str("  \"summary\": {\n");
    let _ = writeln!(json, "    \"max_warm_ratio\": {max_ratio:.4},");
    let _ = writeln!(json, "    \"target_max_ratio\": {TARGET_MAX_RATIO}");
    json.push_str("  }\n}\n");

    std::fs::write("BENCH_control.json", &json).expect("write BENCH_control.json");
    println!("wrote BENCH_control.json (max_warm_ratio = {max_ratio:.3})");
}
