//! Train → save → load → adapt round trips through the on-disk artifact
//! format, on both synthetic scenarios. The reloaded pipeline must be
//! bit-identical to the one that was trained: same artifact bytes, same
//! predictions, same F1, and a batched reconstruction that matches the
//! per-sample reference loop at every thread count.

use fsda::core::adapter::{AdapterConfig, Budget, FsAdapter, FsGanAdapter};
use fsda::core::{DriftMitigator, InferPrecision};
use fsda::data::fewshot::{few_shot_indices, few_shot_subset};
use fsda::data::synth5gc::Synth5gc;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::linalg::SeededRng;
use fsda::models::metrics::macro_f1;
use fsda::models::ClassifierKind;

/// A collision-free scratch path under the OS temp dir.
fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fsda-persist-{}-{name}", std::process::id()));
    p
}

struct TmpFile(std::path::PathBuf);

impl Drop for TmpFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn five_gc_pipeline_survives_disk_round_trip() {
    let bundle = Synth5gc::small().generate(41).unwrap();
    let mut rng = SeededRng::new(42);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::RandomForest);
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 43).unwrap();

    let path = TmpFile(tmp_path("5gc.fsda"));
    adapter.save(&path.0).unwrap();
    let loaded = FsGanAdapter::load(&path.0).unwrap();

    // Re-encoding the loaded pipeline reproduces the exact file bytes.
    let on_disk = std::fs::read(&path.0).unwrap();
    assert_eq!(loaded.to_bytes().unwrap(), on_disk);

    // Predictions — and therefore F1 — are exactly those of the original.
    let x = bundle.target_test.features();
    let pred = adapter.predict(x);
    let pred_loaded = loaded.predict(x);
    assert_eq!(pred_loaded, pred);
    let f1 = macro_f1(bundle.target_test.labels(), &pred, 16);
    let f1_loaded = macro_f1(bundle.target_test.labels(), &pred_loaded, 16);
    assert_eq!(
        f1_loaded.to_bits(),
        f1.to_bits(),
        "F1 must match bit-for-bit"
    );

    // The serving path: batched reconstruction of the loaded adapter is
    // bit-identical to the original's per-sample reference loop at every
    // thread count.
    let scalar = adapter.reconstruct_scalar(x);
    for threads in [1, 2, 4] {
        assert_eq!(
            loaded.reconstruct_batch_with(x, Some(threads), InferPrecision::F64Exact),
            scalar,
            "threads = {threads}"
        );
        assert_eq!(
            loaded.predict_batch(x, Some(threads)),
            adapter.predict_batch(x, Some(1)),
            "threads = {threads}"
        );
    }
}

#[test]
fn five_gipc_pipeline_survives_disk_round_trip() {
    let bundle = Synth5gipc::small().generate(44).unwrap();
    let mut rng = SeededRng::new(45);
    let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, 5, &mut rng).unwrap();
    let shots = bundle.target_pool.subset(&idx);
    let cfg = AdapterConfig {
        classifier: ClassifierKind::Xgb,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &cfg, 46).unwrap();

    let path = TmpFile(tmp_path("5gipc.fsda"));
    adapter.save(&path.0).unwrap();
    let loaded = FsGanAdapter::load(&path.0).unwrap();
    assert_eq!(loaded.to_bytes().unwrap(), adapter.to_bytes().unwrap());

    let x = bundle.target_test.features();
    let pred = adapter.predict(x);
    let pred_loaded = loaded.predict(x);
    assert_eq!(pred_loaded, pred);
    let f1 = macro_f1(bundle.target_test.labels(), &pred, 2);
    let f1_loaded = macro_f1(bundle.target_test.labels(), &pred_loaded, 2);
    assert_eq!(
        f1_loaded.to_bits(),
        f1.to_bits(),
        "F1 must match bit-for-bit"
    );

    let scalar = adapter.reconstruct_scalar(x);
    for threads in [1, 2, 4] {
        assert_eq!(
            loaded.reconstruct_batch_with(x, Some(threads), InferPrecision::F64Exact),
            scalar,
            "threads = {threads}"
        );
    }
}

#[test]
fn fs_adapter_survives_disk_round_trip() {
    let bundle = Synth5gc::small().generate(47).unwrap();
    let mut rng = SeededRng::new(48);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let cfg = AdapterConfig::quick().with_classifier(ClassifierKind::Xgb);
    let adapter = FsAdapter::fit(&bundle.source_train, &shots, &cfg, 49).unwrap();

    let path = TmpFile(tmp_path("fs.fsda"));
    adapter.save(&path.0).unwrap();
    let loaded = FsAdapter::load(&path.0).unwrap();
    assert_eq!(loaded.to_bytes().unwrap(), adapter.to_bytes().unwrap());

    let x = bundle.target_test.features();
    assert_eq!(loaded.predict(x), adapter.predict(x));
    assert_eq!(
        loaded.separation().variant(),
        adapter.separation().variant()
    );

    // Loading an FS artifact as an FS+GAN pipeline is refused.
    assert!(FsGanAdapter::load(&path.0).is_err());
}
