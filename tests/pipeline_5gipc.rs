//! End-to-end integration test: the 5GIPC fault-detection scenario with
//! the paper's GMM domain construction and fault-type-grouped few-shot
//! sampling.

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter};
use fsda::core::experiment::{run_cell, ExperimentConfig, Scenario};
use fsda::core::method::Method;
use fsda::core::DriftMitigator;
use fsda::data::fewshot::few_shot_indices;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::linalg::SeededRng;
use fsda::models::metrics::macro_f1;
use fsda::models::ClassifierKind;

#[test]
fn gmm_domain_construction_recovers_regimes() {
    let (bundle, agreement) = Synth5gipc::small().generate_clustered(1).unwrap();
    assert!(
        agreement > 0.9,
        "GMM split should match generation domains: {agreement}"
    );
    assert_eq!(bundle.source_train.num_classes(), 2);
}

#[test]
fn group_based_few_shot_and_adaptation() {
    let bundle = Synth5gipc::small().generate(2).unwrap();
    let mut rng = SeededRng::new(3);
    // Few-shot per fault *type* (5 groups), not per binary label.
    let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, 5, &mut rng).unwrap();
    assert_eq!(idx.len(), 25);
    let shots = bundle.target_pool.subset(&idx);

    let cfg = AdapterConfig {
        classifier: ClassifierKind::Xgb,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 4).unwrap();
    let pred = adapter.predict(bundle.target_test.features());
    let f1 = macro_f1(bundle.target_test.labels(), &pred, 2);
    assert!(f1 > 0.55, "FS+GAN fault detection should work: {f1:.3}");
}

#[test]
fn scenario_runner_with_custom_groups() {
    let bundle = Synth5gipc::small().generate(5).unwrap();
    let scenario = Scenario {
        name: "5GIPC".into(),
        source: bundle.source_train,
        target_pool: bundle.target_pool,
        pool_groups: Some(bundle.target_pool_groups),
        num_groups: NUM_GROUPS,
        target_test: bundle.target_test,
    };
    let cfg = ExperimentConfig {
        shots: vec![5],
        repeats: 1,
        budget: Budget::quick(),
        seed: 6,
        parallel: false,
    };
    let src = run_cell(
        &scenario,
        Method::SrcOnly,
        ClassifierKind::RandomForest,
        5,
        &cfg,
    )
    .unwrap()
    .mean_f1;
    let fs = run_cell(&scenario, Method::Fs, ClassifierKind::RandomForest, 5, &cfg)
        .unwrap()
        .mean_f1;
    assert!(
        fs > src,
        "FS ({fs:.3}) should beat SrcOnly ({src:.3}) on 5GIPC"
    );
}

#[test]
fn variant_detection_grows_with_shots() {
    // §VI-C: FS identified 23/31/37 variant features at 1/5/10 shots on
    // 5GIPC — more shots, more detections. Check monotonicity (with slack).
    use fsda::core::fs::{FeatureSeparation, FsConfig};
    let bundle = Synth5gipc::small().generate(7).unwrap();
    let mut counts = Vec::new();
    for k in [1usize, 10] {
        let mut rng = SeededRng::new(8);
        let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, k, &mut rng).unwrap();
        let shots = bundle.target_pool.subset(&idx);
        let fs =
            FeatureSeparation::fit(&bundle.source_train, &shots, &FsConfig::default()).unwrap();
        counts.push(fs.variant().len());
    }
    assert!(
        counts[1] + 2 >= counts[0],
        "variant detections should not shrink with more shots: {counts:?}"
    );
}
