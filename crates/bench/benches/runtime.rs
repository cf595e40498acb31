//! Regenerates the **§VI-D running-time analysis**: wall-clock of the FS
//! method, GAN training, and per-sample inference, checking the paper's
//! qualitative claims —
//!
//! * FS (CI testing) dominates offline cost, but only tests F-node
//!   relationships rather than the whole graph;
//! * GAN training is cheaper than FS (generator only reconstructs the
//!   small variant block);
//! * inference is a single generator pass per sample (paper: ~0.05 s on
//!   their hardware), and FS/GAN are both far cheaper than retraining the
//!   network-management models, which is the operational point.
//!
//! `cargo bench -p fsda-bench --bench runtime`

use fsda_bench::{scenario_5gc, BenchScale};
use fsda_core::adapter::{build_classifier, AdapterConfig, FsGanAdapter};
use fsda_core::fs::{FeatureSeparation, FsConfig};
use fsda_core::DriftMitigator;
use fsda_linalg::SeededRng;
use fsda_models::ClassifierKind;
use std::time::Instant;

fn main() {
    let scale = BenchScale::from_env();
    println!("== Running time of the proposed methods (paper §VI-D) ==");
    println!("{}", scale.banner());
    let (scenario, _) = scenario_5gc(&scale, scale.seed.wrapping_add(91));
    let mut rng = SeededRng::new(scale.seed + 9);
    let shots = scenario.draw_shots(5, &mut rng).expect("draw failed");

    // FS timing.
    let t0 = Instant::now();
    let fs =
        FeatureSeparation::fit(&scenario.source, &shots, &FsConfig::default()).expect("FS failed");
    let fs_time = t0.elapsed();
    println!(
        "\nFS method:        {:>8.2?}  ({} CI tests, {} variant features)  [paper: 42 min on 2x Xeon]",
        fs_time,
        fs.tests_run(),
        fs.variant().len()
    );

    // GAN training timing (inside adapter fit; measure the full fit and
    // the classifier separately to isolate it).
    let cfg = AdapterConfig {
        classifier: ClassifierKind::RandomForest,
        budget: scale.budget(),
        ..AdapterConfig::default()
    };
    let t0 = Instant::now();
    let adapter = FsGanAdapter::fit(&scenario.source, &shots, &cfg, 3).expect("adapter fit failed");
    let fit_time = t0.elapsed();

    let t0 = Instant::now();
    let mut clf = build_classifier(ClassifierKind::RandomForest, 3, &scale.budget());
    clf.fit(
        &fs.normalizer().transform(scenario.source.features()),
        scenario.source.labels(),
        scenario.source.num_classes(),
    )
    .expect("classifier fit failed");
    let clf_time = t0.elapsed();
    let gan_estimate = fit_time.saturating_sub(clf_time).saturating_sub(fs_time);
    println!(
        "GAN training:     {:>8.2?}  (estimated; full pipeline fit {:.2?})  [paper: 12 min]",
        gan_estimate, fit_time
    );
    println!(
        "classifier fit:   {:>8.2?}  (trained ONCE; never retrained afterwards)",
        clf_time
    );

    // Inference timing: single samples through the generator + classifier.
    let test = &scenario.target_test;
    let n_timed = test.len().min(200);
    let t0 = Instant::now();
    for i in 0..n_timed {
        let row = test.features().select_rows(&[i]);
        let _ = adapter.predict(&row);
    }
    let per_sample = t0.elapsed() / n_timed as u32;
    println!(
        "inference:        {:>8.2?} per sample (one generator pass + classifier)  [paper: ~0.05 s]",
        per_sample
    );

    // Batch inference for the throughput-minded.
    let t0 = Instant::now();
    let _ = adapter.predict(test.features());
    let batch = t0.elapsed();
    println!(
        "batch inference:  {:>8.2?} for {} samples ({:.2?}/sample amortized)",
        batch,
        test.len(),
        batch / test.len() as u32
    );

    println!(
        "\nNote on shape: the paper's offline profile is FS-dominated (42 min vs\n\
         12 min GAN) because of their conditional-independence test implementation;\n\
         this crate caches one correlation matrix and tests against it, making FS\n\
         far cheaper and inverting that ratio. The operational claims that matter\n\
         hold: adaptation costs only FS + GAN (no model retraining), and inference\n\
         is a sub-millisecond single generator pass."
    );
}
