//! Evolving-drift scenario (§VI-F / Table III), end to end through the
//! serving plane's **closed control loop**: the network-management model
//! is trained **once** on the source domain and boots a
//! [`fsda::serve::TenantServer`] as artifact version 1. The drifted
//! stream comes from a **drift scenario spec** (`fsda::data::scenario`)
//! with a gradual schedule: each window interpolates the scenario's
//! interventions a step further, so the distribution slides from
//! source-like to fully drifted instead of jumping.
//!
//! A [`fsda::serve::DriftController`] supervises the adaptive tenant:
//! it scores every (unlabeled) window, and when one leaves the source
//! envelope it re-fits the lightweight FS+GAN front-end from a few
//! labeled shots of its buffered pool — re-running the F-node search
//! **warm**, through a cache of the source statistics — validates the
//! candidate against the incumbent on a held-back slice, and hot-swaps
//! only a winner into the running server. The classifier is never retrained and traffic
//! never stops. A second tenant serves the same stream on the
//! never-adapted source model, so every window reports what mitigation
//! bought.
//!
//! All serving goes through the tenant-routing path (guarded requests,
//! per-tenant accounting, telemetry); the example hand-rolls nothing. The
//! run ends with the server's per-tenant stats and the aggregated
//! telemetry snapshot — including the controller's `control.*` counters —
//! in one exportable block.
//!
//! Run with: `cargo run --release --example drift_monitor`

use fsda::core::adapter::{AdapterConfig, Budget};
use fsda::core::telemetry::{self, InMemoryRecorder};
use fsda::core::GuardConfig;
use fsda::core::Method;
use fsda::data::fewshot::few_shot_subset;
use fsda::data::scenario::ScenarioSpec;
use fsda::linalg::{Matrix, SeededRng};
use fsda::models::metrics::macro_f1;
use fsda::models::ClassifierKind;
use fsda::serve::controller::{
    ControlOutcome, ControllerConfig, DriftController, RegistryRefitter,
};
use fsda::serve::server::{ServeConfig, TenantServer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The drifted stream, as a scenario spec: a layered SCM whose
/// interventions ramp up over four gradual windows. Editing this string
/// is the whole knob surface — see `docs/SCENARIOS.md`.
const SCENARIO: &str = "\
# drift_monitor stream: gradual drift over four windows
topology = layered
features = 32
classes = 4
variant = 6
strength = 2.4
schedule = gradual:4
seed = 9
";

/// Rows generated per drift window; the first `POOL_ROWS` are the labeled
/// pool the controller buffers (shots and validation hold-back are drawn
/// from it), the rest are the unlabeled serving traffic it scores.
const WINDOW_ROWS: usize = 288;
const POOL_ROWS: usize = 96;

/// Streams `x` through the server in serving-sized windows and scores the
/// predictions — every row goes through the guarded tenant-routing path.
fn serve_f1(
    server: &TenantServer,
    tenant: &str,
    x: &Matrix,
    labels: &[usize],
    classes: usize,
) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let mut preds = Vec::with_capacity(x.rows());
    let mut version = 0;
    for start in (0..x.rows()).step_by(64) {
        let idx: Vec<usize> = (start..(start + 64).min(x.rows())).collect();
        let resp = server.predict(tenant, x.select_rows(&idx))?;
        preds.extend(resp.predictions);
        version = resp.artifact_version;
    }
    Ok((macro_f1(labels, &preds, classes), version))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== drift monitor: one classifier, a gradual drift stream, zero downtime ==\n");
    let recorder = Arc::new(InMemoryRecorder::new());
    telemetry::set_recorder(recorder.clone());

    let spec = ScenarioSpec::parse(SCENARIO)?;
    let compiled = spec.compile()?;
    let data = compiled.generate(None)?;
    let classes = spec.classes;
    let windows = compiled.window_fractions().len();
    println!(
        "scenario: {} features, {} of them variant, {} over {windows} windows\n",
        spec.features, spec.variant, spec.schedule
    );

    let mut rng = SeededRng::new(9);
    let cfg = AdapterConfig {
        classifier: ClassifierKind::RandomForest,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };

    // Two tenants share the serving plane: "nm-frozen" keeps the
    // source-trained model for the whole run, "nm-model" is the same model
    // but sits under a closed-loop DriftController. The gap between the
    // two is what drift mitigation buys, window by window.
    let boot_shots = few_shot_subset(&data.target_pool, spec.shots, &mut rng)?;
    let boot = |seed: u64| -> Result<_, Box<dyn std::error::Error>> {
        let mut m = Method::SrcOnly.build(&cfg, seed);
        m.fit(&data.source_train, &boot_shots)?;
        Ok(m)
    };
    let incumbent = boot(20)?;
    let incumbent_bytes = incumbent.to_bytes()?;
    let server = Arc::new(TenantServer::from_artifacts(
        vec![
            ("nm-model".into(), incumbent),
            ("nm-frozen".into(), boot(20)?),
        ],
        ServeConfig::default(),
    )?);
    println!(
        "serving boots both tenants on the source-trained model (artifact v1, {} shard(s))\n",
        server.shards()
    );

    // The controller owns the whole loop — §VI-F: "FS+GAN only needs to
    // be updated when the data distribution undergoes significant
    // changes". It watches incoming (unlabeled) windows, re-fits the
    // cheap FS+GAN front-end from buffered shots when one drifts,
    // validates the candidate against the incumbent, and swaps only
    // winners — one atomic publish, off the serving path.
    let refitter = Arc::new(RegistryRefitter::new(
        Method::FsGan,
        cfg.clone(),
        GuardConfig::default(),
        &data.source_train,
    )?);
    let mut controller = DriftController::new(
        "nm-model",
        Arc::clone(&server),
        Arc::new(data.source_train.clone()),
        incumbent_bytes,
        refitter,
        ControllerConfig {
            // Only the freshest window feeds each re-fit, matching the
            // paper's "adapt to the flagged window" protocol.
            buffer_capacity: 1,
            shots_per_class: spec.shots,
            seed: 21,
            ..ControllerConfig::default()
        },
    )?;

    let mut refits = 0usize;
    let mut variant_sets: Vec<BTreeSet<usize>> = Vec::new();
    for w in 0..windows {
        let window = compiled.generate_window(w, WINDOW_ROWS, None)?;
        let pool = window.subset(&(0..POOL_ROWS).collect::<Vec<_>>());
        let test = window.subset(&(POOL_ROWS..WINDOW_ROWS).collect::<Vec<_>>());

        controller.push_window(pool)?;
        match controller.observe(test.features()) {
            ControlOutcome::NoDrift(report) => {
                println!(
                    "window {w}: {} of {} features drifted -> within envelope, no action",
                    report.drifted_features.len(),
                    spec.features
                );
            }
            ControlOutcome::Swapped(swap) => {
                refits += 1;
                if let Some(variant) = controller.prev_variant() {
                    variant_sets.push(variant.iter().copied().collect());
                }
                println!(
                    "window {w}: drifted -> re-fit ({} search), validated \
                     F1 {:.2} > {:.2}, hot-swapped to v{} in {:.0} ms",
                    swap.path,
                    swap.candidate_f1,
                    swap.incumbent_f1,
                    swap.version,
                    swap.detect_to_swap.as_secs_f64() * 1e3
                );
            }
            ControlOutcome::Rejected(reject) => {
                println!(
                    "window {w}: drifted -> candidate F1 {:.2} lost the gate \
                     to {:.2}; incumbent retained",
                    reject.candidate_f1, reject.incumbent_f1
                );
            }
            ControlOutcome::Failed(failure) => {
                println!(
                    "window {w}: drifted -> re-fit contained after {} attempt(s): {}",
                    failure.attempts, failure.last_error
                );
            }
            ControlOutcome::BreakerOpen { remaining } => {
                println!(
                    "window {w}: drifted -> breaker open ({remaining:?} to probe), \
                     serving last-good"
                );
            }
            ControlOutcome::CorruptWindow(e) => {
                println!("window {w}: corrupt serving window contained: {e}");
            }
        }

        let (frozen, _) = serve_f1(
            &server,
            "nm-frozen",
            test.features(),
            test.labels(),
            classes,
        )?;
        let (adapted, v) = serve_f1(&server, "nm-model", test.features(), test.labels(), classes)?;
        println!(
            "  frozen   v1: F1 {:>5.1}\n  adaptive v{v}: F1 {:>5.1}\n",
            100.0 * frozen,
            100.0 * adapted
        );
    }
    assert!(refits > 0, "the gradual ramp must trip the monitor");

    // The scenario records which features it actually intervened on, so
    // the control loop can be scored against ground truth.
    let truth: BTreeSet<usize> = data.ground_truth_variant.iter().copied().collect();
    if let Some(last) = variant_sets.last() {
        println!(
            "last re-fit found {} variant features, {} of the {} truly intervened",
            last.len(),
            last.intersection(&truth).count(),
            truth.len()
        );
    }
    if variant_sets.len() >= 2 {
        let first = &variant_sets[0];
        let last = &variant_sets[variant_sets.len() - 1];
        println!(
            "variant sets across re-fits: first {}, last {}, shared {} \
             (paper: mostly common across targets, so cross-use stays competitive)",
            first.len(),
            last.len(),
            first.intersection(last).count()
        );
    }

    // Everything the run cost, in one exportable block: the server's
    // per-tenant accounting plus the controller's control.* counters,
    // causal CI-test counts and stage timings, GAN fit seconds, NN
    // epochs, and per-request serving latencies.
    let stats = server.stats("nm-model")?;
    println!(
        "\ntenant \"{}\": artifact v{}, {} swap(s), {} requests served, {} error(s)",
        stats.tenant, stats.artifact_version, stats.swaps, stats.completed, stats.serve_errors
    );
    drop(controller);
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
    println!("\n== telemetry snapshot ==");
    print!("{}", recorder.snapshot_now().render());
    telemetry::clear_recorder();
    Ok(())
}
