//! Cached F-node separation: the source half of the search is folded once.
//!
//! The F-node search runs one Fisher-z search over `source ∪ target` with a
//! trailing domain indicator. A closed drift loop re-runs it every time the
//! monitor fires, but the *source* rows never change — only a small target
//! window does. [`CiCache`] therefore folds the source into centered
//! [`CoMoments`] **once**; each search folds the window the same way, merges
//! the two (the Chan–Golub–LeVeque pairwise update) and reads the combined
//! correlation matrix off the result. A search costs `O(n_tgt · d²)`
//! instead of `O((n_src + n_tgt) · d²)`, and the source rows are never
//! touched again.
//!
//! The F-node needs no column of its own: source rows carry `F = 0` and
//! window rows `F = 1`, each constant within its sample, so the merge's
//! mean-difference term yields every F moment.
//!
//! [`find_intervened_features`](crate::fnode::find_intervened_features) is
//! this search on a freshly built cache, so a search through a cache built
//! earlier returns exactly the partition a cold search returns. Which
//! features were variant last time plays no part: the per-window F-node
//! test already checks whether the drift mechanisms persisted.

use crate::ci::FisherZ;
use crate::fnode::{staged_search, FnodeConfig, FnodeResult};
use crate::{CausalError, Result};
use fsda_linalg::stats::CoMoments;
use fsda_linalg::Matrix;

/// Source-side co-moments for the combined F-node dataset.
///
/// Built once from the (normalized) source feature matrix; every search
/// against a new target window costs only the window's co-moments and one
/// merge.
#[derive(Debug, Clone)]
pub struct CiCache {
    source: CoMoments,
}

/// The first NaN/Inf cell of `m`, as a [`CausalError::NonFinite`].
fn check_finite(m: &Matrix) -> Result<()> {
    for (r, row) in m.iter_rows().enumerate() {
        if let Some(c) = row.iter().position(|v| !v.is_finite()) {
            return Err(CausalError::NonFinite { row: r, col: c });
        }
    }
    Ok(())
}

impl CiCache {
    /// Folds the source rows into co-moments. `source` rows are samples.
    ///
    /// # Errors
    ///
    /// Returns [`CausalError::InsufficientData`] on an empty source and
    /// [`CausalError::NonFinite`] — localized to the first offending cell —
    /// on NaN/Inf values, which would silently poison every later merge.
    pub fn new(source: &Matrix) -> Result<Self> {
        if source.rows() == 0 {
            return Err(CausalError::InsufficientData(
                "the F-node search needs a non-empty source domain".into(),
            ));
        }
        check_finite(source)?;
        Ok(CiCache {
            source: CoMoments::from_rows(source),
        })
    }

    /// Number of features the cache was built over.
    pub fn num_features(&self) -> usize {
        self.source.num_cols()
    }

    /// Number of source rows folded into the cache.
    pub fn source_rows(&self) -> usize {
        self.source.rows()
    }

    /// The source domain's co-moments.
    pub fn source(&self) -> &CoMoments {
        &self.source
    }

    /// Checks a target window against the cache and folds it into
    /// co-moments, the input of [`CiCache::search`].
    ///
    /// # Errors
    ///
    /// Returns [`CausalError::FeatureMismatch`] when the window width
    /// differs from the cached feature count,
    /// [`CausalError::InsufficientData`] on an empty window or when source
    /// and window together hold fewer than four rows (the Fisher-z
    /// statistic needs `n - |cond| - 3 > 0`), and
    /// [`CausalError::NonFinite`] (row/col localized to the *window*) on
    /// corrupt cells.
    pub fn window(&self, target: &Matrix) -> Result<CoMoments> {
        if target.cols() != self.num_features() {
            return Err(CausalError::FeatureMismatch {
                source: self.num_features(),
                target: target.cols(),
            });
        }
        if target.rows() == 0 {
            return Err(CausalError::InsufficientData(
                "the F-node search needs a non-empty target window".into(),
            ));
        }
        let n = self.source_rows() + target.rows();
        if n < 4 {
            return Err(CausalError::InsufficientData(format!(
                "Fisher-z needs >= 4 samples, got {n}"
            )));
        }
        check_finite(target)?;
        Ok(CoMoments::from_rows(target))
    }

    /// The Fisher-z oracle over `source ∪ window` with the F-node as the
    /// last variable. Fails only on a window [`CiCache::window`] refuses.
    fn fisher_z(&self, window: &CoMoments) -> Result<FisherZ> {
        let merged = self
            .source
            .with_constant(0.0)
            .merge(&window.with_constant(1.0));
        Ok(FisherZ::from_correlation(
            merged.correlation()?,
            merged.rows(),
        ))
    }

    /// The F-node search over `source ∪ window`.
    ///
    /// # Errors
    ///
    /// Propagates CI-test failures, and the correlation build's failure on
    /// a window that [`CiCache::window`] would have refused.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not over the cached feature count.
    pub fn search(&self, window: &CoMoments, config: &FnodeConfig) -> Result<FnodeResult> {
        staged_search(&self.fisher_z(window)?, self.num_features(), config)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ci::{combine_with_fnode, CondIndepTest};
    use crate::fnode::find_intervened_features;
    use fsda_linalg::stats::correlation_matrix;
    use fsda_linalg::SeededRng;

    /// Small SCM with a shifted block: x1 mean-shifted, x3 scale-shifted,
    /// x2 a child of x1 (indirectly shifted, separable by conditioning).
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

    /// Largest entrywise gap between the cached correlation matrix and the
    /// two-pass correlation of the stacked `source ∪ target` + F-node data.
    fn max_gap_to_stacked(src: &Matrix, tgt: &Matrix) -> f64 {
        let cache = CiCache::new(src).unwrap();
        let cached = cache.fisher_z(&cache.window(tgt).unwrap()).unwrap();
        let stacked = correlation_matrix(&combine_with_fnode(src, tgt).unwrap()).unwrap();
        let d = src.cols() + 1;
        assert_eq!(cached.num_vars(), d);
        assert_eq!(cached.num_samples(), src.rows() + tgt.rows());
        let mut gap = 0.0f64;
        for i in 0..d {
            for j in (i + 1)..d {
                let a = cached.partial_corr(i, j, &[]).unwrap();
                gap = gap.max((a - stacked.get(i, j)).abs());
            }
        }
        gap
    }

    #[test]
    fn cached_correlation_matches_recomputed() {
        // Data near zero: the merged co-moments agree with the stacked
        // two-pass build to a few ulps of a unit correlation.
        let (src, tgt) = two_domain_data(600, 120, 11);
        let gap = max_gap_to_stacked(&src, &tgt);
        assert!(gap <= 1e-14, "near-zero data: gap {gap:e}");

        // Columns offset far from zero: only centered quantities are ever
        // summed, so the offset costs little precision (gaps of 5e-13,
        // 4e-12 and 7e-11 here). Raw Σxᵢxⱼ − n·μᵢμⱼ moments were off by
        // 6e-10, 1.2e-7 and 1.8e-3 on the same data.
        for offset in [1e3, 1e4, 1e6] {
            let shift =
                |m: &Matrix| Matrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) + offset);
            let gap = max_gap_to_stacked(&shift(&src), &shift(&tgt));
            assert!(gap <= 1e-9, "offset {offset:e}: gap {gap:e}");
        }
    }

    #[test]
    fn cached_search_is_the_cold_search() {
        let (src, tgt) = two_domain_data(2000, 300, 3);
        let cfg = FnodeConfig {
            max_candidates: 10,
            ..FnodeConfig::default()
        };
        let cold = find_intervened_features(&src, &tgt, &cfg).unwrap();
        // A cache built once and searched twice: same partition, test count
        // and effect sizes as the cold search, bit for bit.
        let cache = CiCache::new(&src).unwrap();
        for _ in 0..2 {
            let cached = cache.search(&cache.window(&tgt).unwrap(), &cfg).unwrap();
            assert_eq!(cached.variant, cold.variant);
            assert_eq!(cached.invariant, cold.invariant);
            assert_eq!(cached.tests_run, cold.tests_run);
            assert_eq!(cached.f_correlation, cold.f_correlation);
        }
    }

    #[test]
    fn rejects_mismatched_window_width() {
        let (src, _) = two_domain_data(100, 10, 1);
        let cache = CiCache::new(&src).unwrap();
        let narrow = Matrix::zeros(10, 3);
        assert!(matches!(
            cache.window(&narrow),
            Err(CausalError::FeatureMismatch {
                source: 5,
                target: 3
            })
        ));
    }

    #[test]
    fn rejects_corrupt_window_with_localization() {
        let (src, mut tgt) = two_domain_data(100, 20, 2);
        tgt.set(7, 3, f64::NAN);
        assert_eq!(
            cache_err(&src, &tgt),
            CausalError::NonFinite { row: 7, col: 3 }
        );
        let (src, mut tgt) = two_domain_data(100, 20, 4);
        tgt.set(0, 1, f64::INFINITY);
        assert_eq!(
            cache_err(&src, &tgt),
            CausalError::NonFinite { row: 0, col: 1 }
        );
    }

    fn cache_err(src: &Matrix, tgt: &Matrix) -> CausalError {
        CiCache::new(src).unwrap().window(tgt).unwrap_err()
    }

    #[test]
    fn rejects_empty_window() {
        let (src, _) = two_domain_data(100, 10, 5);
        let cache = CiCache::new(&src).unwrap();
        assert!(matches!(
            cache.window(&Matrix::zeros(0, 5)),
            Err(CausalError::InsufficientData(_))
        ));
    }

    #[test]
    fn rejects_corrupt_or_empty_source_and_tiny_unions() {
        let mut src = Matrix::zeros(10, 3);
        src.set(4, 2, f64::NAN);
        assert_eq!(
            CiCache::new(&src).unwrap_err(),
            CausalError::NonFinite { row: 4, col: 2 }
        );
        assert!(matches!(
            CiCache::new(&Matrix::zeros(0, 3)),
            Err(CausalError::InsufficientData(_))
        ));
        // A one- or two-row source is fine as long as the union holds the
        // four rows the Fisher-z statistic needs.
        let mut rng = SeededRng::new(6);
        let tiny = Matrix::from_fn(2, 3, |_, _| rng.normal(0.0, 1.0));
        let cache = CiCache::new(&tiny).unwrap();
        let one = Matrix::from_fn(1, 3, |_, _| rng.normal(0.0, 1.0));
        assert!(matches!(
            cache.window(&one),
            Err(CausalError::InsufficientData(_))
        ));
        let two = Matrix::from_fn(2, 3, |_, _| rng.normal(0.0, 1.0));
        let window = cache.window(&two).unwrap();
        assert!(cache.search(&window, &FnodeConfig::default()).is_ok());
    }

    #[test]
    fn tolerates_constant_columns() {
        let mut rng = SeededRng::new(9);
        let src = Matrix::from_fn(
            300,
            3,
            |_, c| if c == 1 { 7.5 } else { rng.normal(0.0, 1.0) },
        );
        let tgt = Matrix::from_fn(
            60,
            3,
            |_, c| if c == 1 { 7.5 } else { rng.normal(0.0, 1.0) },
        );
        let cache = CiCache::new(&src).unwrap();
        let window = cache.window(&tgt).unwrap();
        let test = cache.fisher_z(&window).unwrap();
        // Dead counter correlates 0 with everything, including the F-node.
        assert_eq!(test.partial_corr(1, 3, &[]).unwrap(), 0.0);
        assert!(cache.search(&window, &FnodeConfig::default()).is_ok());
    }
}
