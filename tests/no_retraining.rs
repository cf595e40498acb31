//! Integration test for the paper's §VI-F / Table III property: the
//! network-management model is trained **once** on source data; evolving
//! drift is absorbed by re-fitting only the FS+GAN front-end.

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter};
use fsda::core::DriftMitigator;
use fsda::data::fewshot::few_shot_indices;
use fsda::data::synth5gipc::{Synth5gipc, NUM_GROUPS};
use fsda::linalg::SeededRng;
use fsda::models::metrics::macro_f1;
use fsda::models::ClassifierKind;

#[test]
fn one_classifier_survives_two_drifts() {
    let bundle = Synth5gipc::small().generate_three_domain(1).unwrap();
    let cfg = AdapterConfig {
        classifier: ClassifierKind::Xgb,
        budget: Budget::quick(),
        ..AdapterConfig::default()
    };
    let mut rng = SeededRng::new(2);

    let idx1 = few_shot_indices(&bundle.target1_pool_groups, NUM_GROUPS, 10, &mut rng).unwrap();
    let shots1 = bundle.target1_pool.subset(&idx1);
    let adapter1 = FsGanAdapter::fit(&bundle.source_train, &shots1, &cfg, 3).unwrap();

    let idx2 = few_shot_indices(&bundle.target2_pool_groups, NUM_GROUPS, 10, &mut rng).unwrap();
    let shots2 = bundle.target2_pool.subset(&idx2);
    let adapter2 = FsGanAdapter::fit(&bundle.source_train, &shots2, &cfg, 4).unwrap();

    // Matched adapters work on their own domains.
    let f11 = macro_f1(
        bundle.target1_test.labels(),
        &adapter1.predict(bundle.target1_test.features()),
        2,
    );
    let f22 = macro_f1(
        bundle.target2_test.labels(),
        &adapter2.predict(bundle.target2_test.features()),
        2,
    );
    assert!(f11 > 0.55, "adapter1 on target1: {f11:.3}");
    assert!(f22 > 0.55, "adapter2 on target2: {f22:.3}");

    // Cross-use stays competitive: the variant sets largely overlap
    // (Table III's observation), so an adapter fit on the other target
    // still mitigates most of the drift.
    let f12 = macro_f1(
        bundle.target2_test.labels(),
        &adapter1.predict(bundle.target2_test.features()),
        2,
    );
    assert!(
        f12 > 0.4,
        "adapter1 cross-applied to target2 should stay functional: {f12:.3}"
    );
}

#[test]
fn variant_sets_of_successive_targets_overlap() {
    let bundle = Synth5gipc::small().generate_three_domain(5).unwrap();
    let s1: std::collections::BTreeSet<_> = bundle.variant_target1.iter().collect();
    let s2: std::collections::BTreeSet<_> = bundle.variant_target2.iter().collect();
    let shared = s1.intersection(&s2).count();
    assert!(
        shared * 2 > s1.len(),
        "majority of variant features shared: {shared}/{}",
        s1.len()
    );
}
