//! The registry contract: every registered [`Method`] must go
//! fit → predict → persist → restore → predict through the uniform
//! [`DriftMitigator`] interface, on both synthetic scenarios, and the
//! restored mitigator must predict bit-identically to the one that was
//! trained. Every prediction entry point must return the same labels, and
//! guarded errors must point at the caller's cells. This is what lets
//! serving treat all eighteen methods as one `Box<dyn DriftMitigator>`.

use fsda::core::adapter::{peek_meta, AdapterConfig, Budget};
use fsda::core::pipeline::{self, DriftMitigator};
use fsda::core::{GuardConfig, InferPrecision, Method, ServeError};
use fsda::data::fewshot::{few_shot_indices, few_shot_subset};
use fsda::data::synth5gc::Synth5gc;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::data::Dataset;
use fsda::linalg::{Matrix, SeededRng};
use fsda::models::ClassifierKind;
use std::collections::BTreeMap;

/// Every method the registry serves.
fn all_methods() -> Vec<Method> {
    Method::ALL.to_vec()
}

/// A deliberately tiny budget: the contract is about the interface, not
/// about model quality, so every knob is at the minimum that still trains.
fn tiny_config() -> AdapterConfig {
    AdapterConfig {
        classifier: ClassifierKind::Mlp,
        budget: Budget {
            nn_epochs: 3,
            gan_epochs: 20,
            emb_epochs: 3,
            forest_trees: 5,
            gbdt_rounds: 3,
            threads: 2,
        },
        ..AdapterConfig::default()
    }
}

/// Runs one method through the full mitigator life cycle and checks the
/// restored copy against the original.
fn exercise(method: Method, source: &Dataset, shots: &Dataset, test: &Matrix, seed: u64) {
    let config = tiny_config();
    let mut mitigator = method.build(&config, seed);
    assert_eq!(mitigator.method(), method);
    assert!(!mitigator.is_fitted(), "{method}: fitted before fit");

    mitigator
        .fit(source, shots)
        .unwrap_or_else(|e| panic!("{method}: fit failed: {e}"));
    assert!(mitigator.is_fitted(), "{method}: unfitted after fit");
    assert_eq!(mitigator.num_classes(), source.num_classes());

    let pred = mitigator.predict(test);
    assert_eq!(pred.len(), test.rows(), "{method}: wrong prediction count");

    let bytes = mitigator
        .to_bytes()
        .unwrap_or_else(|e| panic!("{method}: to_bytes failed: {e}"));
    let restored =
        pipeline::restore(&bytes).unwrap_or_else(|e| panic!("{method}: restore failed: {e}"));
    assert_eq!(
        restored.method(),
        method,
        "{method}: identity lost on restore"
    );
    assert!(restored.is_fitted(), "{method}: restored copy unfitted");
    assert_eq!(restored.num_classes(), mitigator.num_classes());
    assert_eq!(
        restored.predict(test),
        pred,
        "{method}: restored predictions drifted"
    );
    assert_eq!(
        restored
            .to_bytes()
            .unwrap_or_else(|e| panic!("{method}: re-encode failed: {e}")),
        bytes,
        "{method}: re-encoding the restored mitigator changed the bytes"
    );
    assert!(!restored.health().is_empty());
}

#[test]
fn every_method_round_trips_on_5gc() {
    let bundle = Synth5gc::small().generate(61).unwrap();
    let mut rng = SeededRng::new(62);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let test = bundle.target_test.features();
    for method in all_methods() {
        exercise(method, &bundle.source_train, &shots, test, 63);
    }
}

/// The persistence kind byte partitions the registry: every method writes
/// exactly one kind, every kind restores through exactly one code path,
/// and the restored mitigator keeps the method identity. This pins the
/// `restore` dispatch table — a new method cannot silently reuse (or
/// orphan) a kind byte.
#[test]
fn every_persistence_kind_maps_to_documented_methods() {
    let bundle = Synth5gc::small().generate(71).unwrap();
    let mut rng = SeededRng::new(72);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let config = tiny_config();

    let mut by_kind: BTreeMap<u8, Vec<Method>> = BTreeMap::new();
    for method in all_methods() {
        let mut mitigator = method.build(&config, 73);
        mitigator
            .fit(&bundle.source_train, &shots)
            .unwrap_or_else(|e| panic!("{method}: fit failed: {e}"));
        let bytes = mitigator.to_bytes().unwrap();
        let (kind, _, _) = peek_meta(&bytes).unwrap();
        by_kind.entry(kind).or_default().push(method);
        let restored = pipeline::restore(&bytes).unwrap();
        assert_eq!(
            restored.method(),
            method,
            "kind {kind} restored to the wrong method"
        );
    }

    let expected: &[(u8, &[Method])] = &[
        (0, &[Method::Fs]),
        (
            1,
            &[
                Method::FsGan,
                Method::FsNoCond,
                Method::FsVae,
                Method::FsVanillaAe,
            ],
        ),
        (
            2,
            &[
                Method::Cmt,
                Method::Icd,
                Method::SrcOnly,
                Method::TarOnly,
                Method::SourceAndTarget,
                Method::FineTune,
                Method::Coral,
            ],
        ),
        (3, &[Method::Dann]),
        (4, &[Method::Scl]),
        (5, &[Method::MatchNet]),
        (6, &[Method::ProtoNet]),
        (7, &[Method::Fada]),
        (8, &[Method::Fmaa]),
    ];
    assert_eq!(
        by_kind.len(),
        expected.len(),
        "kind set drifted: {by_kind:?}"
    );
    for (kind, methods) in expected {
        let mut got = by_kind.get(kind).cloned().unwrap_or_default();
        got.sort_by_key(|m| m.slug().to_string());
        let mut want = methods.to_vec();
        want.sort_by_key(|m| m.slug().to_string());
        assert_eq!(got, want, "kind {kind} maps to the wrong method set");
    }
}

#[test]
fn every_method_round_trips_on_5gipc() {
    let bundle = Synth5gipc::small().generate(64).unwrap();
    let mut rng = SeededRng::new(65);
    let idx = few_shot_indices(&bundle.target_pool_groups, NUM_GROUPS, 5, &mut rng).unwrap();
    let shots = bundle.target_pool.subset(&idx);
    let test = bundle.target_test.features();
    for method in all_methods() {
        exercise(method, &bundle.source_train, &shots, test, 66);
    }
}

/// All five prediction entry points of one mitigator on a clean batch,
/// labelled for failure messages.
fn every_entry_point(
    mitigator: &dyn DriftMitigator,
    test: &Matrix,
) -> Vec<(&'static str, Vec<usize>)> {
    let exact = InferPrecision::F64Exact;
    let guard = GuardConfig::default();
    let guarded = |r: Result<Vec<usize>, ServeError>| {
        r.unwrap_or_else(|e| panic!("{}: clean batch rejected: {e}", mitigator.method()))
    };
    vec![
        ("predict", mitigator.predict(test)),
        (
            "predict_batch(Some(1))",
            mitigator.predict_batch(test, Some(1)),
        ),
        (
            "predict_batch(Some(2))",
            mitigator.predict_batch(test, Some(2)),
        ),
        ("predict_batch(None)", mitigator.predict_batch(test, None)),
        (
            "predict_batch_with(F64Exact)",
            mitigator.predict_batch_with(test, None, exact),
        ),
        (
            "try_predict_batch",
            guarded(mitigator.try_predict_batch(test, None, &guard)),
        ),
        (
            "try_predict_batch_with(F64Exact)",
            guarded(mitigator.try_predict_batch_with(test, None, &guard, exact)),
        ),
    ]
}

/// The five prediction names are forwarders over two bodies per
/// mitigator, so on a clean batch every one of them must return the
/// labels of `predict` — for a freshly fitted mitigator and for its copy
/// restored from bytes alike.
#[test]
fn every_entry_point_returns_the_same_labels() {
    let bundle = Synth5gc::small().generate(81).unwrap();
    let mut rng = SeededRng::new(82);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let test = bundle.target_test.features();
    for method in all_methods() {
        let mut fitted = method.build(&tiny_config(), 83);
        fitted
            .fit(&bundle.source_train, &shots)
            .unwrap_or_else(|e| panic!("{method}: fit failed: {e}"));
        let restored = pipeline::restore(&fitted.to_bytes().unwrap()).unwrap();
        let expected = fitted.predict(test);
        for (copy, mitigator) in [("fitted", &fitted), ("restored", &restored)] {
            for (entry, labels) in every_entry_point(mitigator.as_ref(), test) {
                assert_eq!(
                    labels, expected,
                    "{method} ({copy}): {entry} disagrees with predict"
                );
            }
        }
    }
}

/// ICD trains on a column subset and validates only the columns it keeps,
/// but a rejected cell must still be reported at the caller's column, not
/// at its index within the subset.
#[test]
fn icd_guard_reports_the_callers_column() {
    let bundle = Synth5gc::small().generate(1).unwrap();
    let mut rng = SeededRng::new(2);
    let shots = few_shot_subset(&bundle.target_pool, 10, &mut rng).unwrap();
    let mut icd = Method::Icd.build(&tiny_config(), 3);
    icd.fit(&bundle.source_train, &shots).unwrap();
    let clean = bundle.target_test.features().select_rows(&[0, 1, 2]);
    let guard = GuardConfig::default();
    let mut checked = 0;
    for col in 0..clean.cols() {
        let mut nan = clean.clone();
        nan.set(2, col, f64::NAN);
        if let Err(e) = icd.try_predict_batch(&nan, None, &guard) {
            assert_eq!(
                e,
                ServeError::NonFinite { row: 2, col },
                "NaN at column {col}"
            );
            checked += 1;
        }
        let mut huge = clean.clone();
        huge.set(1, col, 1e300);
        match icd.try_predict_batch(&huge, None, &guard) {
            Ok(_) => {}
            Err(ServeError::OutOfRange { row, col: got, .. }) => {
                assert_eq!((row, got), (1, col), "out-of-range cell at column {col}");
            }
            Err(e) => panic!("out-of-range cell at column {col}: unexpected {e}"),
        }
    }
    // ICD drops the columns it deems variant, but it keeps most of them.
    assert!(
        checked > clean.cols() / 2,
        "ICD validated only {checked} columns"
    );
}
