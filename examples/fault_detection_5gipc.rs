//! The 5GIPC workload: binary fault detection on an NFV IP-core testbed,
//! with the domains recovered by GMM clustering exactly as in the paper
//! (§IV-B), then adapted with FS+GAN.
//!
//! Run with: `cargo run --release --example fault_detection_5gipc`

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter};
use fsda::core::DriftMitigator;
use fsda::data::fewshot::few_shot_indices;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::linalg::SeededRng;
use fsda::models::metrics::{accuracy, macro_f1};
use fsda::models::ClassifierKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== 5GIPC fault detection ==\n");

    // Reproduce the paper's domain construction: generate the mixed
    // dataset, fit a 2-component GMM, larger cluster = source domain.
    let generator = Synth5gipc::small();
    let (bundle, agreement) = generator.generate_clustered(3)?;
    println!(
        "GMM domain split agrees with the true generating regime on {:.1}% of samples",
        100.0 * agreement
    );
    println!(
        "source: {} samples; target test: {} samples; {} metrics\n",
        bundle.source_train.len(),
        bundle.target_test.len(),
        bundle.source_train.num_features()
    );

    // Few-shot selection is per *fault type* (normal, node failure,
    // interface failure, packet loss, packet delay) even though labels are
    // binary — the paper's protocol.
    for k in [1usize, 5, 10] {
        let mut rng = SeededRng::new(7 + k as u64);
        let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, k, &mut rng)?;
        let shots = bundle.target_pool.subset(&idx);
        let config = AdapterConfig {
            classifier: ClassifierKind::Xgb,
            budget: Budget::quick(),
            ..AdapterConfig::default()
        };
        let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &config, 11)?;
        let pred = adapter.predict(bundle.target_test.features());
        let f1 = macro_f1(bundle.target_test.labels(), &pred, 2);
        let acc = accuracy(bundle.target_test.labels(), &pred);
        println!(
            "k={k:>2}: {} target shots -> FS+GAN F1 {:.1}, accuracy {:.1}%  ({} variant features found)",
            shots.len(),
            100.0 * f1,
            100.0 * acc,
            adapter.separation().variant().len()
        );
    }
    println!(
        "\nGround truth: {} intervened features; detection grows with k (paper §VI-C).",
        bundle.ground_truth_variant.len()
    );
    Ok(())
}
