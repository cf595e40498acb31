//! The precision-policy contract of the inference plane:
//!
//! 1. `F64Exact` is the default everywhere and is **bit-identical** to the
//!    precision-oblivious entry points (for reconstruction, the per-sample
//!    reference loop), for every reconstructor and classifier family — the
//!    fast path may never perturb the exact one.
//! 2. `F32Fast` stays within a small divergence envelope of the exact
//!    path (the single-precision kernels only touch the network forward
//!    passes; separation/normalization arithmetic stays in `f64`), and on
//!    the well-separated synthetic fixtures it flips **zero** hard
//!    predictions.
//! 3. Both properties survive persist → restore: the inference plan is
//!    never serialized, it is recompiled from the restored weights, and
//!    the rebuilt plan reproduces the original plan's output bit for bit
//!    at both precisions.

use fsda::core::adapter::{AdapterConfig, Budget, FsGanAdapter, ReconKind};
use fsda::core::{DriftMitigator, InferPrecision};
use fsda::data::fewshot::few_shot_subset;
use fsda::data::synth5gc::Synth5gc;
use fsda::data::Dataset;
use fsda::linalg::{Matrix, SeededRng};
use fsda::models::ClassifierKind;

/// Divergence bound for the f32 forward path on reconstructed features.
/// Activations are O(1) (tanh heads, normalized inputs), so accumulated
/// single-precision rounding across the small fully-connected stacks stays
/// orders of magnitude below this.
const F32_ABS_TOL: f64 = 1e-3;

fn tiny_config() -> AdapterConfig {
    AdapterConfig {
        budget: Budget {
            nn_epochs: 4,
            gan_epochs: 25,
            emb_epochs: 3,
            forest_trees: 5,
            gbdt_rounds: 3,
            threads: 2,
        },
        ..AdapterConfig::default()
    }
}

fn fixture() -> (Dataset, Dataset, Matrix) {
    let bundle = Synth5gc::small().generate(31).expect("bundle");
    let mut rng = SeededRng::new(5);
    let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng).expect("shots");
    let probe = bundle
        .target_test
        .features()
        .select_rows(&(0..48).collect::<Vec<_>>());
    (bundle.source_train, shots, probe)
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    let mut worst = 0.0f64;
    for r in 0..a.rows() {
        for (x, y) in a.row(r).iter().zip(b.row(r)) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

fn exercise(adapter: &FsGanAdapter, probe: &Matrix, label: &str) {
    // (1) The exact precision is bit-identical to the per-sample
    // reference loop.
    let exact = adapter.reconstruct_batch_with(probe, Some(2), InferPrecision::F64Exact);
    assert_eq!(
        adapter.reconstruct_scalar(probe),
        exact,
        "{label}: F64Exact must not perturb output"
    );
    assert_eq!(
        adapter.predict_batch(probe, Some(2)),
        adapter.predict_batch_with(probe, Some(2), InferPrecision::F64Exact),
        "{label}: F64Exact predictions must match the default path"
    );

    // (2) The fast path stays inside the divergence envelope and flips no
    // hard predictions on this fixture.
    let fast = adapter.reconstruct_batch_with(probe, Some(2), InferPrecision::F32Fast);
    let diff = max_abs_diff(&exact, &fast);
    assert!(
        diff < F32_ABS_TOL,
        "{label}: f32 divergence {diff:e} exceeds {F32_ABS_TOL:e}"
    );
    assert_eq!(
        adapter.predict_batch_with(probe, Some(2), InferPrecision::F32Fast),
        adapter.predict_batch(probe, Some(2)),
        "{label}: f32 fast path flipped a prediction"
    );

    // (3) Persist → restore → plan rebuild: the recompiled plan serves bit
    // for bit at both precisions.
    let bytes = DriftMitigator::to_bytes(adapter).expect("to_bytes");
    let restored = FsGanAdapter::from_bytes(&bytes).expect("restore");
    assert_eq!(
        restored.reconstruct_batch_with(probe, Some(2), InferPrecision::F64Exact),
        exact,
        "{label}: restored exact path diverged"
    );
    assert_eq!(
        restored.reconstruct_batch_with(probe, Some(2), InferPrecision::F32Fast),
        fast,
        "{label}: restored f32 plan diverged from the original plan"
    );
}

#[test]
fn all_reconstructor_kinds_respect_the_precision_contract() {
    let (source, shots, probe) = fixture();
    for (i, recon) in [
        ReconKind::Gan,
        ReconKind::GanNoCond,
        ReconKind::Vae,
        ReconKind::VanillaAe,
    ]
    .into_iter()
    .enumerate()
    {
        let config = tiny_config().with_recon(recon);
        let adapter =
            FsGanAdapter::fit(&source, &shots, &config, 40 + i as u64).expect("fit reconstructor");
        exercise(&adapter, &probe, &format!("{recon:?}"));
    }
}

#[test]
fn all_classifier_kinds_respect_the_precision_contract() {
    let (source, shots, probe) = fixture();
    for (i, kind) in ClassifierKind::ALL.into_iter().enumerate() {
        let config = tiny_config().with_classifier(kind);
        let adapter =
            FsGanAdapter::fit(&source, &shots, &config, 60 + i as u64).expect("fit classifier");
        exercise(&adapter, &probe, kind.label());
    }
}

/// The adversarial baselines serve through plan-compiled heads too: the
/// exact precision is bit-identical to the oblivious entry points, the
/// fast path flips no hard predictions on the well-separated fixture, and
/// both properties survive persist → restore (the plan is recompiled from
/// the restored weights, never serialized).
#[test]
fn adversarial_baselines_respect_the_precision_contract() {
    let (source, shots, probe) = fixture();
    for (i, method) in [fsda::core::Method::Fada, fsda::core::Method::Fmaa]
        .into_iter()
        .enumerate()
    {
        let label = method.label();
        let mut mitigator = method.build(&tiny_config(), 80 + i as u64);
        mitigator
            .fit(&source, &shots)
            .unwrap_or_else(|e| panic!("{label}: fit failed: {e}"));

        let baseline = mitigator.predict_batch(&probe, Some(2));
        assert_eq!(
            mitigator.predict_batch_with(&probe, Some(2), InferPrecision::F64Exact),
            baseline,
            "{label}: F64Exact predictions must match the default path"
        );
        assert_eq!(
            mitigator.predict_batch_with(&probe, Some(2), InferPrecision::F32Fast),
            baseline,
            "{label}: f32 fast path flipped a prediction"
        );

        let guard = fsda::core::GuardConfig::default();
        assert_eq!(
            mitigator
                .try_predict_batch_with(&probe, Some(2), &guard, InferPrecision::F32Fast)
                .unwrap_or_else(|e| panic!("{label}: guarded fast path failed: {e:?}")),
            baseline,
            "{label}: guarded fast path diverged"
        );

        let bytes = mitigator.to_bytes().expect("to_bytes");
        let restored = fsda::core::pipeline::restore(&bytes).expect("restore");
        assert_eq!(
            restored.predict_batch_with(&probe, Some(2), InferPrecision::F64Exact),
            baseline,
            "{label}: restored exact path diverged"
        );
        assert_eq!(
            restored.predict_batch_with(&probe, Some(2), InferPrecision::F32Fast),
            baseline,
            "{label}: restored f32 plan flipped a prediction"
        );
    }
}

#[test]
fn trait_object_precision_entry_points_delegate() {
    let (source, shots, probe) = fixture();
    let adapter = FsGanAdapter::fit(&source, &shots, &tiny_config(), 77).expect("fit");
    let boxed: Box<dyn DriftMitigator> = Box::new(adapter);
    let exact = boxed.predict_batch(&probe, Some(2));
    assert_eq!(
        boxed.predict_batch_with(&probe, Some(2), InferPrecision::F64Exact),
        exact
    );
    // The fixture is well separated; the fast path agrees on every row.
    assert_eq!(
        boxed.predict_batch_with(&probe, Some(2), InferPrecision::F32Fast),
        exact
    );
    let guard = fsda::core::GuardConfig::default();
    assert_eq!(
        boxed
            .try_predict_batch_with(&probe, Some(2), &guard, InferPrecision::F32Fast)
            .expect("guarded fast path"),
        exact
    );
}
