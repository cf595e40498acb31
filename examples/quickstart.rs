//! Quickstart: the full FS+GAN pipeline on a small synthetic 5G-core
//! dataset, walking through the three stages of the paper's Fig. 1.
//!
//! Run with: `cargo run --release --example quickstart`

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter, ReconKind};
use fsda::core::fs::FsConfig;
use fsda::core::DriftMitigator;
use fsda::data::fewshot::few_shot_subset;
use fsda::data::synth5gc::Synth5gc;
use fsda::linalg::SeededRng;
use fsda::models::metrics::macro_f1;
use fsda::models::ClassifierKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== fsda quickstart ==\n");

    // ---------------------------------------------------------------
    // Data: a "digital twin" source domain and a drifted "real network"
    // target domain, 16 failure classes, with known intervention targets.
    // ---------------------------------------------------------------
    let bundle = Synth5gc::small().generate(42)?;
    println!(
        "source: {} samples x {} metrics, {} classes",
        bundle.source_train.len(),
        bundle.source_train.num_features(),
        bundle.source_train.num_classes()
    );
    println!(
        "target: {} test samples, ground-truth variant features: {}",
        bundle.target_test.len(),
        bundle.ground_truth_variant.len()
    );

    // Five labelled samples per failure type from the target network —
    // all the target data we get.
    let mut rng = SeededRng::new(7);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
    println!(
        "few-shot budget: {} target samples (5 per class)\n",
        shots.len()
    );

    // ---------------------------------------------------------------
    // Fig. 1(a): causal feature separation.
    // Fig. 1(b): GAN trained on source only.
    // Both happen inside FsGanAdapter::fit.
    // ---------------------------------------------------------------
    let config = AdapterConfig {
        fs: FsConfig::default(),
        recon: ReconKind::Gan,
        classifier: ClassifierKind::RandomForest,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &config, 0)?;
    let sep = adapter.separation();
    println!(
        "FS separated {} variant / {} invariant features ({} CI tests)",
        sep.variant().len(),
        sep.invariant().len(),
        sep.tests_run()
    );
    let (precision, recall) = sep.score_against(&bundle.ground_truth_variant);
    println!("   vs ground truth: precision {precision:.2}, recall {recall:.2}\n");

    // ---------------------------------------------------------------
    // Fig. 1(c): inference. Variant features of each target sample are
    // regenerated by the GAN; the classifier — trained once, on source
    // data only — consumes the reconstructed sample.
    // ---------------------------------------------------------------
    let pred = adapter.predict(bundle.target_test.features());
    let f1 = macro_f1(bundle.target_test.labels(), &pred, 16);
    println!(
        "FS+GAN macro-F1 on drifted target test data: {:.1}",
        100.0 * f1
    );

    // Reference point: the same classifier with no adaptation at all.
    let norm = sep.normalizer();
    let mut src_only =
        fsda::core::adapter::build_classifier(ClassifierKind::RandomForest, 0, &Budget::quick());
    src_only.fit(
        &norm.transform(bundle.source_train.features()),
        bundle.source_train.labels(),
        16,
    )?;
    let pred_naive = src_only.predict(&norm.transform(bundle.target_test.features()));
    let f1_naive = macro_f1(bundle.target_test.labels(), &pred_naive, 16);
    println!(
        "SrcOnly (no adaptation) macro-F1:             {:.1}",
        100.0 * f1_naive
    );
    println!(
        "\ndrift mitigation: +{:.1} F1 points without retraining the classifier",
        100.0 * (f1 - f1_naive)
    );
    Ok(())
}
