#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::*;
use crate::pipeline::DriftMitigator;
use crate::serve::{FitError, GuardConfig, InputPolicy, ServeError};
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::Synth5gc;
use fsda_data::Dataset;
use fsda_gan::WatchdogConfig;
use fsda_linalg::{Matrix, SeededRng};
use fsda_models::metrics::macro_f1;
use fsda_models::{ClassifierKind, InferPrecision};

fn setup(seed: u64) -> (fsda_data::synth5gc::Synth5gcBundle, Dataset) {
    let bundle = Synth5gc::small().generate(seed).unwrap();
    let mut rng = SeededRng::new(seed ^ 0xAB);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    (bundle, shots)
}

#[test]
fn fs_adapter_beats_source_only() {
    let (bundle, shots) = setup(1);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let fs = FsAdapter::fit(&bundle.source_train, &shots, &cfg, 7).unwrap();
    let pred_fs = fs.predict(bundle.target_test.features());
    let f1_fs = macro_f1(bundle.target_test.labels(), &pred_fs, 16);

    // SrcOnly comparison: same classifier on all features.
    let norm = fs.separation().normalizer();
    let mut src_only = build_classifier(ClassifierKind::RandomForest, 7, &Budget::quick());
    src_only
        .fit(
            &norm.transform(bundle.source_train.features()),
            bundle.source_train.labels(),
            16,
        )
        .unwrap();
    let pred_src = src_only.predict(&norm.transform(bundle.target_test.features()));
    let f1_src = macro_f1(bundle.target_test.labels(), &pred_src, 16);
    assert!(
        f1_fs > f1_src + 0.1,
        "FS ({f1_fs:.3}) must clearly beat SrcOnly ({f1_src:.3}) under drift"
    );
}

#[test]
fn fs_gan_adapter_beats_source_only() {
    let (bundle, shots) = setup(2);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 9).unwrap();
    let pred = adapter.predict(bundle.target_test.features());
    let f1 = macro_f1(bundle.target_test.labels(), &pred, 16);

    let norm = adapter.separation().normalizer();
    let mut src_only = build_classifier(ClassifierKind::RandomForest, 9, &Budget::quick());
    src_only
        .fit(
            &norm.transform(bundle.source_train.features()),
            bundle.source_train.labels(),
            16,
        )
        .unwrap();
    let pred_src = src_only.predict(&norm.transform(bundle.target_test.features()));
    let f1_src = macro_f1(bundle.target_test.labels(), &pred_src, 16);
    assert!(
        f1 > f1_src + 0.05,
        "FS+GAN ({f1:.3}) must clearly beat SrcOnly ({f1_src:.3}) under drift"
    );
    assert!(
        f1 > 0.3,
        "FS+GAN should recover substantial performance, got {f1:.3}"
    );
}

#[test]
fn reconstruction_restores_source_range_on_variant_columns() {
    let (bundle, shots) = setup(3);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 11).unwrap();
    let transformed = adapter.reconstruct_batch_with(
        bundle.target_test.features(),
        None,
        InferPrecision::F64Exact,
    );
    // Variant columns were reconstructed by the tanh generator: bounded.
    for &c in adapter.separation().variant() {
        let col = transformed.col(c);
        assert!(
            col.iter().all(|v| v.abs() <= 1.0 + 1e-9),
            "column {c} out of range"
        );
    }
}

#[test]
fn mc_prediction_agrees_with_fewer_draws() {
    let (bundle, shots) = setup(4);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 13).unwrap();
    let served = adapter.predict(bundle.target_test.features());
    assert_eq!(
        adapter.predict_mc(bundle.target_test.features(), Some(1), MC_DRAWS),
        served
    );
    let mc = adapter.predict_mc(bundle.target_test.features(), None, 3);
    let agreement =
        served.iter().zip(&mc).filter(|(a, b)| a == b).count() as f64 / served.len() as f64;
    assert!(agreement > 0.8, "M={MC_DRAWS} vs M=3 agreement {agreement}");
}

#[test]
fn budget_and_config_builders() {
    let cfg = AdapterConfig::quick()
        .with_classifier(ClassifierKind::Xgb)
        .with_recon(ReconKind::Vae);
    assert_eq!(cfg.classifier, ClassifierKind::Xgb);
    assert_eq!(cfg.recon, ReconKind::Vae);
    assert!(Budget::full().gan_epochs > Budget::quick().gan_epochs);
    assert_eq!(ReconKind::Gan.label(), "FS+GAN");
    assert_eq!(ReconKind::VanillaAe.label(), "FS+VanillaAE");
}

#[test]
fn save_load_round_trip_is_bit_identical() {
    let (bundle, shots) = setup(7);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 17).unwrap();
    let bytes = adapter.to_bytes().unwrap();
    let loaded = FsGanAdapter::from_bytes(&bytes).unwrap();
    // Encode -> decode -> encode is byte-identical.
    assert_eq!(loaded.to_bytes().unwrap(), bytes);
    let x = bundle.target_test.features();
    assert_eq!(loaded.predict(x), adapter.predict(x));
    assert_eq!(
        loaded.reconstruct_batch_with(x, Some(2), InferPrecision::F64Exact),
        adapter.reconstruct_batch_with(x, Some(2), InferPrecision::F64Exact)
    );
    assert_eq!(
        loaded.separation().variant(),
        adapter.separation().variant()
    );
    assert_eq!(loaded.num_classes(), adapter.num_classes());
}

#[test]
fn fs_adapter_round_trips_and_kinds_are_checked() {
    let (bundle, shots) = setup(9);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let fs = FsAdapter::fit(&bundle.source_train, &shots, &cfg, 19).unwrap();
    let bytes = fs.to_bytes().unwrap();
    let loaded = FsAdapter::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.to_bytes().unwrap(), bytes);
    let x = bundle.target_test.features();
    assert_eq!(loaded.predict(x), fs.predict(x));
    // An FS artifact is not an FS+GAN artifact and vice versa.
    assert!(matches!(
        FsGanAdapter::from_bytes(&bytes),
        Err(CoreError::Persist(_))
    ));
}

#[test]
fn batched_reconstruction_is_thread_count_invariant() {
    let (bundle, shots) = setup(11);
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 23).unwrap();
    let x = bundle.target_test.features();
    let scalar = adapter.reconstruct_scalar(x);
    for threads in [1, 2, 4] {
        assert_eq!(
            adapter.reconstruct_batch_with(x, Some(threads), InferPrecision::F64Exact),
            scalar,
            "threads = {threads}"
        );
    }
    assert_eq!(
        adapter.predict_batch(x, Some(1)),
        adapter.predict_batch(x, Some(4))
    );
}

#[test]
fn reconstructor_factory_sizes_by_features() {
    // Just verify both paths construct.
    let small = build_reconstructor(
        ReconKind::Gan,
        100,
        1,
        &Budget::quick(),
        WatchdogConfig::default(),
    );
    let large = build_reconstructor(
        ReconKind::GanNoCond,
        400,
        1,
        &Budget::quick(),
        WatchdogConfig::default(),
    );
    assert_eq!(small.name(), "gan");
    assert_eq!(large.name(), "gan-nocond");
}

#[test]
fn try_predict_batch_guards_malformed_batches() {
    let (bundle, shots) = setup(21);
    let cfg = AdapterConfig::quick();
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 23).unwrap();
    let clean = bundle.target_test.features();

    // Clean data: the guarded path matches the unguarded one exactly.
    let reject = GuardConfig::default();
    assert_eq!(
        adapter.try_predict_batch(clean, None, &reject).unwrap(),
        adapter.predict_batch(clean, None)
    );

    // A NaN cell is rejected with exact localization...
    let mut poisoned = clean.clone();
    poisoned.set(3, 2, f64::NAN);
    assert_eq!(
        adapter.try_predict_batch(&poisoned, None, &reject),
        Err(ServeError::NonFinite { row: 3, col: 2 })
    );
    // ...and repaired under the non-reject policies.
    for policy in [InputPolicy::ImputeSourceMean, InputPolicy::Clamp] {
        let guard = GuardConfig::default().with_policy(policy);
        let recon = adapter
            .try_reconstruct_batch_with(&poisoned, None, &guard, InferPrecision::F64Exact)
            .unwrap();
        assert!(
            (0..recon.rows()).all(|r| recon.row(r).iter().all(|v| v.is_finite())),
            "{policy:?} must yield finite reconstructions"
        );
        adapter.try_predict_batch(&poisoned, None, &guard).unwrap();
    }

    // Wrong width fails before any numeric work.
    let narrow = Matrix::zeros(2, clean.cols() - 1);
    assert!(matches!(
        adapter.try_predict_batch(&narrow, None, &reject),
        Err(ServeError::DimensionMismatch { .. })
    ));

    // FsAdapter mirrors the same guard.
    let fs = FsAdapter::fit(&bundle.source_train, &shots, &cfg, 23).unwrap();
    assert_eq!(
        fs.try_predict_batch(clean, None, &reject).unwrap(),
        fs.predict(clean)
    );
    assert_eq!(
        fs.try_predict_batch(&poisoned, None, &reject),
        Err(ServeError::NonFinite { row: 3, col: 2 })
    );
}

#[test]
fn try_fit_localizes_corrupt_training_cells() {
    let (bundle, shots) = setup(22);
    let cfg = AdapterConfig::quick();
    let reject = GuardConfig::default();

    let mut bad_features = bundle.source_train.features().clone();
    bad_features.set(5, 1, f64::INFINITY);
    let bad_source = Dataset::new(
        bad_features,
        bundle.source_train.labels().to_vec(),
        bundle.source_train.num_classes(),
    )
    .unwrap();
    assert!(matches!(
        FsGanAdapter::try_fit(&bad_source, &shots, &cfg, 3, &reject),
        Err(FitError::CorruptSource { row: 5, col: 1 })
    ));

    let mut bad_shot_features = shots.features().clone();
    bad_shot_features.set(0, 0, f64::NAN);
    let bad_shots = Dataset::new(
        bad_shot_features,
        shots.labels().to_vec(),
        shots.num_classes(),
    )
    .unwrap();
    assert!(matches!(
        FsGanAdapter::try_fit(&bundle.source_train, &bad_shots, &cfg, 3, &reject),
        Err(FitError::CorruptShots { row: 0, col: 0 })
    ));

    // Under the impute policy the same corrupt source still fits, and
    // the repaired adapter serves finite predictions.
    let impute = GuardConfig::default().with_policy(InputPolicy::ImputeSourceMean);
    let adapter = FsGanAdapter::try_fit(&bad_source, &shots, &cfg, 3, &impute).unwrap();
    assert!(adapter.degraded().is_none());
    let preds = adapter.predict(bundle.target_test.features());
    assert_eq!(preds.len(), bundle.target_test.len());
}

#[test]
fn degenerate_separations_serve_pass_through() {
    let (bundle, shots) = setup(24);

    // Shift every column far outside the source support: every feature
    // is domain-variant, the reconstructor has nothing to condition on.
    let shifted = Matrix::from_fn(shots.len(), shots.num_features(), |r, c| {
        shots.features().get(r, c) + 1e4
    });
    let all_variant_shots =
        Dataset::new(shifted, shots.labels().to_vec(), shots.num_classes()).unwrap();
    let cfg = AdapterConfig {
        fs: FsConfig {
            alpha: 0.5,
            ..FsConfig::default()
        },
        ..AdapterConfig::quick()
    };
    let adapter = FsGanAdapter::fit(&bundle.source_train, &all_variant_shots, &cfg, 31).unwrap();
    assert_eq!(adapter.degraded(), Some(DegradedMode::NoInvariantFeatures));
    assert_eq!(
        adapter.separation().mode(),
        crate::fs::SeparationMode::AllVariant
    );
    let health = crate::report::format_pipeline_health(&adapter);
    assert!(
        health.contains("pass-through") && health.contains("no invariant"),
        "unexpected health line: {health}"
    );

    // Pass-through serving: reconstruction is just normalization.
    let batch = bundle.target_test.features();
    let recon = adapter.reconstruct_batch_with(batch, None, InferPrecision::F64Exact);
    let expected = adapter.separation().normalizer().transform(batch);
    for r in 0..recon.rows() {
        assert_eq!(recon.row(r), expected.row(r));
    }
    assert_eq!(adapter.predict(batch).len(), bundle.target_test.len());

    // Shots drawn from the source domain itself: no drift, every
    // feature is invariant (the strict alpha suppresses chance
    // rejections).
    let mut rng = SeededRng::new(24 ^ 0xCD);
    let same_domain_shots = few_shot_subset(&bundle.source_train, 10, &mut rng).unwrap();
    let cfg_inv = AdapterConfig {
        fs: FsConfig {
            alpha: 1e-12,
            ..FsConfig::default()
        },
        ..AdapterConfig::quick()
    };
    let adapter_inv =
        FsGanAdapter::fit(&bundle.source_train, &same_domain_shots, &cfg_inv, 31).unwrap();
    assert_eq!(
        adapter_inv.degraded(),
        Some(DegradedMode::NoVariantFeatures)
    );
    assert_eq!(
        adapter_inv.separation().mode(),
        crate::fs::SeparationMode::AllInvariant
    );
    assert_eq!(adapter_inv.predict(batch).len(), bundle.target_test.len());
}
