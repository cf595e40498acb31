//! Targeted F-node search: identify the features intervened on by the
//! domain shift.
//!
//! This is the heart of the paper's FS method. Rather than learning the
//! whole causal graph over hundreds of features, only edges incident on the
//! F-node (domain indicator) are tested — the paper notes this is what makes
//! FS efficient ("these tests focus solely on direct relationships with the
//! F-node, rather than constructing the entire causal graph"). The F-node is
//! constrained to have no incoming edges, since it was added manually.
//!
//! The search mirrors the PC skeleton restricted to one node: start with
//! `F` adjacent to every feature, then for growing conditioning-set sizes
//! remove the edge `F - X` as soon as some subset `S` of the *other current
//! F-neighbours* renders `X ⟂ F | S`. Conditioning on F-neighbours is what
//! separates features that merely correlate with intervened features from
//! the intervention targets themselves (Eq. 2 of the paper:
//! `X ⟂ F | Pa(X)`).

use crate::ci::{CondIndepTest, FisherZ};
use crate::graph::for_each_subset;
use crate::warm::CiCache;
use crate::{CausalError, Result};
use fsda_linalg::par::{par_map, resolve_threads};
use fsda_linalg::Matrix;

/// Configuration of the F-node search.
#[derive(Debug, Clone, PartialEq)]
pub struct FnodeConfig {
    /// Significance level of the CI tests (features whose test rejects at
    /// this level remain F-neighbours, i.e. are declared variant).
    pub alpha: f64,
    /// Maximum conditioning-set size.
    pub max_cond_size: usize,
    /// Cap on the number of conditioning candidates per feature: the
    /// candidates are the other F-neighbours most correlated with the
    /// feature under test. Keeps the subset enumeration tractable at
    /// 442 features.
    pub max_candidates: usize,
    /// Fan the per-feature CI tests of each stage out to a worker pool.
    /// Every stage already evaluates features against a snapshot of the
    /// F-adjacency, so the result is bit-identical to the sequential path;
    /// only wall-clock changes.
    pub parallel: bool,
    /// Worker threads when `parallel` is set; `None` uses every available
    /// core. Ignored when `parallel` is `false`.
    pub num_threads: Option<usize>,
}

impl Default for FnodeConfig {
    fn default() -> Self {
        FnodeConfig {
            alpha: 0.01,
            max_cond_size: 1,
            max_candidates: 6,
            parallel: false,
            num_threads: None,
        }
    }
}

impl FnodeConfig {
    /// Worker count this configuration resolves to (1 when sequential).
    pub fn effective_threads(&self) -> usize {
        if self.parallel {
            resolve_threads(self.num_threads)
        } else {
            1
        }
    }
}

/// Outcome of the F-node search.
#[derive(Debug, Clone)]
pub struct FnodeResult {
    /// Indices of domain-variant features (the intervention targets `R`).
    pub variant: Vec<usize>,
    /// Indices of domain-invariant features (`V \ R`).
    pub invariant: Vec<usize>,
    /// Marginal correlation of each feature with the F-node (effect size).
    pub f_correlation: Vec<f64>,
    /// Number of CI tests performed.
    pub tests_run: usize,
}

impl FnodeResult {
    /// Fraction of features declared variant.
    pub fn variant_fraction(&self) -> f64 {
        let total = self.variant.len() + self.invariant.len();
        if total == 0 {
            return 0.0;
        }
        self.variant.len() as f64 / total as f64
    }
}

/// Identifies the features intervened on by the domain shift.
///
/// `source` and `target` are feature matrices (rows are samples) over the
/// same feature set. Returns the variant/invariant partition. This is
/// [`CiCache::search`] on a freshly built cache, so it returns exactly what
/// a search through a cache built earlier returns.
///
/// # Errors
///
/// Fails when the domains have mismatched widths, when either domain is
/// empty or both together hold fewer than four rows, when a cell is
/// NaN/Inf ([`CausalError::NonFinite`] numbers rows as in the stacked
/// dataset: source rows first, then target rows), or when a CI test
/// degenerates numerically.
///
/// # Example
///
/// See the crate-level example.
pub fn find_intervened_features(
    source: &Matrix,
    target: &Matrix,
    config: &FnodeConfig,
) -> Result<FnodeResult> {
    let cache = CiCache::new(source)?;
    let window = cache.window(target).map_err(|e| match e {
        CausalError::NonFinite { row, col } => CausalError::NonFinite {
            row: source.rows() + row,
            col,
        },
        e => e,
    })?;
    cache.search(&window, config)
}

/// The staged search over a CI test on `num_features` features plus a
/// trailing F-node.
pub(crate) fn staged_search(
    test: &FisherZ,
    num_features: usize,
    config: &FnodeConfig,
) -> Result<FnodeResult> {
    assert_eq!(
        test.num_vars(),
        num_features + 1,
        "CI test must cover the features plus the trailing F-node"
    );
    let f = num_features;
    let mut tests_run = 0usize;
    let threads = config.effective_threads();
    let features: Vec<usize> = (0..num_features).collect();

    // Effect sizes: marginal correlation with F. Each query is independent,
    // so the pool applies; errors propagate in feature order exactly as the
    // sequential loop would.
    let mut f_correlation = Vec::with_capacity(num_features);
    for r in par_map(threads, &features, |_, &x| test.partial_corr(x, f, &[])) {
        f_correlation.push(r?);
    }

    // Stage 0: marginal tests — the initial F-adjacency.
    let stage_start = fsda_telemetry::enabled().then(std::time::Instant::now);
    let mut adjacent: Vec<bool> = Vec::with_capacity(num_features);
    for r in par_map(threads, &features, |_, &x| {
        test.independent(x, f, &[], config.alpha)
    }) {
        tests_run += 1;
        adjacent.push(!r?);
    }
    if let Some(start) = stage_start {
        fsda_telemetry::duration("causal.fnode.stage0.seconds", start.elapsed().as_secs_f64());
    }

    // Stages 1..=max_cond_size: condition on other current F-neighbours.
    for cond_size in 1..=config.max_cond_size {
        let stage_start = fsda_telemetry::enabled().then(std::time::Instant::now);
        // PC-stable style: snapshot the adjacency for this stage so the
        // outcome depends on neither feature iteration order nor the worker
        // schedule — each feature is a pure function of the snapshot.
        let snapshot: Vec<usize> = (0..num_features).filter(|&x| adjacent[x]).collect();
        if snapshot.len() <= cond_size {
            break;
        }
        let outcomes = par_map(threads, &snapshot, |_, &x| {
            evaluate_feature(test, &snapshot, x, f, cond_size, config)
        });
        // Sequential fold in snapshot (ascending feature) order: the test
        // counter, error propagation, and adjacency updates all happen here.
        for (&x, (local_tests, separated, err)) in snapshot.iter().zip(outcomes) {
            tests_run += local_tests;
            if let Some(e) = err {
                return Err(e);
            }
            if separated {
                adjacent[x] = false;
            }
        }
        if let Some(start) = stage_start {
            fsda_telemetry::duration(
                &format!("causal.fnode.stage{cond_size}.seconds"),
                start.elapsed().as_secs_f64(),
            );
        }
    }

    let variant: Vec<usize> = (0..num_features).filter(|&x| adjacent[x]).collect();
    let invariant: Vec<usize> = (0..num_features).filter(|&x| !adjacent[x]).collect();
    fsda_telemetry::counter("causal.fnode.ci_tests", tests_run as u64);
    fsda_telemetry::counter("causal.fnode.searches", 1);
    fsda_telemetry::gauge("causal.fnode.variant_features", variant.len() as f64);
    Ok(FnodeResult {
        variant,
        invariant,
        f_correlation,
        tests_run,
    })
}

/// Evaluates one feature against one stage's F-adjacency snapshot: ranks the
/// other F-neighbours as conditioning candidates and searches size-`cond_size`
/// subsets for one separating `x` from the F-node.
///
/// Pure function of its arguments — the unit of work handed to the pool.
/// Returns `(tests_performed, separated, first_error)`.
fn evaluate_feature(
    test: &FisherZ,
    snapshot: &[usize],
    x: usize,
    f: usize,
    cond_size: usize,
    config: &FnodeConfig,
) -> (usize, bool, Option<CausalError>) {
    // Conditioning candidates: other F-neighbours, ranked by
    // |corr(candidate, x)| so the most plausible mediators are tried first,
    // truncated for tractability.
    let mut scored: Vec<(usize, f64)> = snapshot
        .iter()
        .copied()
        .filter(|&c| c != x)
        .map(|c| {
            let r = test.partial_corr(c, x, &[]).unwrap_or(0.0);
            (c, r.abs())
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    let candidates: Vec<usize> = scored
        .into_iter()
        .take(config.max_candidates)
        .map(|(c, _)| c)
        .collect();
    if candidates.len() < cond_size {
        return (0, false, None);
    }
    let mut err: Option<CausalError> = None;
    let mut local_tests = 0usize;
    let separated = for_each_subset(&candidates, cond_size, |cond| {
        local_tests += 1;
        match test.independent(x, f, cond, config.alpha) {
            Ok(true) => true,
            Ok(false) => false,
            Err(e) => {
                err = Some(e);
                true
            }
        }
    });
    (local_tests, separated && err.is_none(), err)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fsda_linalg::SeededRng;

    /// Source: x0..x4 from a small SCM. Target: soft intervention shifts the
    /// mechanism of x1 (mean shift) and x3 (scale change); x2 is a child of
    /// x1 so it shifts *indirectly* but should be separated by conditioning
    /// on x1.
    fn two_domain_data(n_src: usize, n_tgt: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        let gen = |rng: &mut SeededRng, shift: bool| {
            let x0 = rng.normal(0.0, 1.0);
            let x1 = if shift {
                rng.normal(3.0, 1.0)
            } else {
                rng.normal(0.0, 1.0)
            };
            let x2 = 1.2 * x1 + rng.normal(0.0, 0.4);
            let x3 = if shift {
                rng.normal(0.0, 3.0)
            } else {
                rng.normal(0.0, 1.0)
            };
            let x4 = 0.8 * x0 + rng.normal(0.0, 0.4);
            [x0, x1, x2, x3, x4]
        };
        let mut src = Matrix::zeros(n_src, 5);
        for r in 0..n_src {
            src.row_mut(r).copy_from_slice(&gen(&mut rng, false));
        }
        let mut tgt = Matrix::zeros(n_tgt, 5);
        for r in 0..n_tgt {
            tgt.row_mut(r).copy_from_slice(&gen(&mut rng, true));
        }
        (src, tgt)
    }

    #[test]
    fn identifies_mean_shift_target() {
        let (src, tgt) = two_domain_data(1000, 200, 1);
        let res = find_intervened_features(&src, &tgt, &FnodeConfig::default()).unwrap();
        assert!(
            res.variant.contains(&1),
            "x1 (mean-shifted) must be variant: {:?}",
            res.variant
        );
        assert!(res.invariant.contains(&0), "x0 is invariant");
        assert!(res.invariant.contains(&4), "x4 is invariant");
    }

    #[test]
    fn separates_descendant_of_intervened_feature() {
        // x2 = f(x1): marginally shifted, but x2 ⟂ F | x1, so conditioning
        // should remove it from the variant set.
        let (src, tgt) = two_domain_data(3000, 600, 2);
        let cfg = FnodeConfig {
            alpha: 0.01,
            max_cond_size: 1,
            max_candidates: 10,
            ..FnodeConfig::default()
        };
        let res = find_intervened_features(&src, &tgt, &cfg).unwrap();
        assert!(res.variant.contains(&1));
        assert!(
            res.invariant.contains(&2),
            "x2 should be separated by conditioning on x1: variant={:?}",
            res.variant
        );
    }

    #[test]
    fn no_shift_means_no_variant_features() {
        let mut rng = SeededRng::new(3);
        let src = Matrix::from_fn(800, 4, |_, _| rng.normal(0.0, 1.0));
        let tgt = Matrix::from_fn(160, 4, |_, _| rng.normal(0.0, 1.0));
        let cfg = FnodeConfig {
            alpha: 0.001,
            ..FnodeConfig::default()
        };
        let res = find_intervened_features(&src, &tgt, &cfg).unwrap();
        assert!(
            res.variant.len() <= 1,
            "identical domains should yield (almost) no variant features: {:?}",
            res.variant
        );
    }

    #[test]
    fn more_target_samples_find_more_variant_features() {
        // A weak shift that is statistically invisible with 1 shot but
        // detectable with many — mirrors the paper's §VI-C observation that
        // FS finds more variant features as target samples grow.
        let build = |n_tgt: usize, seed: u64| {
            let mut rng = SeededRng::new(seed);
            let src = Matrix::from_fn(500, 6, |_, _| rng.normal(0.0, 1.0));
            let tgt = Matrix::from_fn(n_tgt, 6, |_, c| {
                if c < 3 {
                    rng.normal(0.9, 1.0) // weak shift on x0..x2
                } else {
                    rng.normal(0.0, 1.0)
                }
            });
            (src, tgt)
        };
        let cfg = FnodeConfig::default();
        let counts: Vec<usize> = [4usize, 60]
            .iter()
            .map(|&n| {
                let (src, tgt) = build(n, 7);
                find_intervened_features(&src, &tgt, &cfg)
                    .unwrap()
                    .variant
                    .len()
            })
            .collect();
        assert!(
            counts[1] >= counts[0],
            "detection count should not decrease with more samples: {counts:?}"
        );
        assert!(
            counts[1] >= 2,
            "large sample should detect the shifted block: {counts:?}"
        );
    }

    #[test]
    fn result_partition_is_complete_and_disjoint() {
        let (src, tgt) = two_domain_data(400, 80, 4);
        let res = find_intervened_features(&src, &tgt, &FnodeConfig::default()).unwrap();
        let mut all: Vec<usize> = res.variant.iter().chain(&res.invariant).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..5).collect::<Vec<_>>());
        assert_eq!(res.f_correlation.len(), 5);
        assert!(res.tests_run >= 5);
        let frac = res.variant_fraction();
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn mismatched_domains_error() {
        let src = Matrix::zeros(10, 3);
        let tgt = Matrix::zeros(10, 4);
        assert!(find_intervened_features(&src, &tgt, &FnodeConfig::default()).is_err());
    }

    #[test]
    fn corrupt_cells_are_numbered_as_in_the_stacked_dataset() {
        let (mut src, mut tgt) = two_domain_data(40, 10, 5);
        tgt.set(2, 4, f64::NAN);
        let err = find_intervened_features(&src, &tgt, &FnodeConfig::default()).unwrap_err();
        assert_eq!(err, CausalError::NonFinite { row: 42, col: 4 });
        src.set(7, 1, f64::INFINITY);
        let err = find_intervened_features(&src, &tgt, &FnodeConfig::default()).unwrap_err();
        assert_eq!(err, CausalError::NonFinite { row: 7, col: 1 });
    }
}
