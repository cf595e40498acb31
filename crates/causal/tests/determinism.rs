//! Parallel-vs-sequential equivalence tests.
//!
//! The parallel execution layer's contract (see `docs/ARCHITECTURE.md`,
//! "Parallelism and determinism") is that `parallel` / `num_threads` are
//! pure performance knobs: the learned structures must be **bit-identical**
//! to the sequential path for every thread count. These tests enforce that
//! on seeded SCM data, for both the full PC algorithm and the targeted
//! F-node search.

use fsda_causal::ci::FisherZ;
use fsda_causal::fnode::{find_intervened_features, FnodeConfig};
use fsda_causal::pc::{pc, PcConfig};
use fsda_linalg::{Matrix, SeededRng};

/// Linear-Gaussian SCM over `d` variables: every eighth variable is a root,
/// the rest load on the previous variable plus two random earlier parents —
/// enough structure that all conditioning-set sizes get exercised.
fn scm_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    let mut m = Matrix::zeros(n, d);
    for r in 0..n {
        for c in 0..d {
            let v = if c % 8 == 0 {
                rng.normal(0.0, 1.0)
            } else {
                let p2 = (c * 7 + 3) % c;
                0.7 * m.get(r, c - 1) + 0.3 * m.get(r, p2) + rng.normal(0.0, 0.6)
            };
            m.set(r, c, v);
        }
    }
    m
}

#[test]
fn pc_parallel_is_bit_identical_to_sequential() {
    let data = scm_data(400, 24, 11);
    let test = FisherZ::new(&data).unwrap();
    let seq = pc(
        &test,
        &PcConfig {
            max_cond_size: 2,
            ..PcConfig::default()
        },
    )
    .unwrap();
    assert!(
        seq.graph.num_edges() > 0,
        "SCM should yield a nonempty skeleton"
    );
    for threads in [2usize, 3, 8] {
        let par = pc(
            &test,
            &PcConfig {
                max_cond_size: 2,
                parallel: true,
                num_threads: Some(threads),
                ..PcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            seq.graph, par.graph,
            "CPDAG must not depend on thread count {threads}"
        );
        assert_eq!(
            seq.sepsets, par.sepsets,
            "sepsets must not depend on thread count {threads}"
        );
        assert_eq!(
            seq.tests_run, par.tests_run,
            "test count must not depend on thread count"
        );
    }
}

#[test]
fn pc_parallel_with_default_thread_count_matches() {
    let data = scm_data(300, 12, 5);
    let test = FisherZ::new(&data).unwrap();
    let seq = pc(&test, &PcConfig::default()).unwrap();
    let par = pc(
        &test,
        &PcConfig {
            parallel: true,
            ..PcConfig::default()
        },
    )
    .unwrap();
    assert_eq!(seq.graph, par.graph);
    assert_eq!(seq.sepsets, par.sepsets);
    assert_eq!(seq.tests_run, par.tests_run);
}

#[test]
fn fnode_search_parallel_is_bit_identical_to_sequential() {
    // Source vs target with a mean shift on a block of features, so the
    // search has both variant and invariant features to separate.
    let mut rng = SeededRng::new(21);
    let src = Matrix::from_fn(600, 20, |_, c| {
        if c == 0 {
            rng.normal(0.0, 1.0)
        } else {
            rng.normal(0.0, 1.0) * 0.6
        }
    });
    let tgt = Matrix::from_fn(80, 20, |_, c| {
        if c < 6 {
            rng.normal(1.5, 1.0)
        } else {
            rng.normal(0.0, 1.0) * 0.6
        }
    });
    let seq = find_intervened_features(&src, &tgt, &FnodeConfig::default()).unwrap();
    for threads in [2usize, 5] {
        let par = find_intervened_features(
            &src,
            &tgt,
            &FnodeConfig {
                parallel: true,
                num_threads: Some(threads),
                ..FnodeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            seq.variant, par.variant,
            "variant set must not depend on thread count"
        );
        assert_eq!(seq.invariant, par.invariant);
        assert_eq!(seq.tests_run, par.tests_run);
        assert_eq!(
            seq.f_correlation, par.f_correlation,
            "effect sizes must be bit-identical"
        );
    }
}
