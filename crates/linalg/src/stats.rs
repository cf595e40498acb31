//! Statistical primitives: moments, covariance/correlation, partial
//! correlation, the Fisher-z conditional-independence statistic, and
//! two-sample tests.
//!
//! These back the constraint-based causal discovery in `fsda-causal` and the
//! domain-alignment baselines (CORAL) in `fsda-core`.

use crate::decomp::inverse;
use crate::{LinalgError, Matrix, Result};

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance with denominator `n - 1`; 0.0 when fewer than two values.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample covariance of two equal-length slices (denominator `n - 1`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (xs.len() - 1) as f64
}

/// Pearson correlation; 0.0 when either input is (numerically) constant.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx < 1e-12 || sy < 1e-12 {
        return 0.0;
    }
    (covariance(xs, ys) / (sx * sy)).clamp(-1.0, 1.0)
}

/// Centered co-moments of the columns of a sample: the row count `n`, the
/// column means `μ`, and `M2 = Σ (x − μ)(x − μ)ᵀ` summed over the rows.
///
/// The one builder behind [`covariance_matrix`], [`correlation_matrix`]
/// and the cached F-node correlations in `fsda-causal`. Two samples'
/// co-moments [`merge`](CoMoments::merge) into those of their union
/// without revisiting either sample's rows. Only centered quantities are
/// ever summed, so a large common offset in a column costs far less
/// precision than it does in raw `Σ xᵢxⱼ − n·μᵢμⱼ` moments.
#[derive(Debug, Clone)]
pub struct CoMoments {
    n: usize,
    means: Vec<f64>,
    /// Upper triangle (`i <= j`) of `M2`; the strict lower triangle stays 0.
    m2: Matrix,
}

impl CoMoments {
    /// Two-pass co-moments of the columns of `data` (rows are samples):
    /// column means first, then the centered cross-products summed in row
    /// order. An empty `data` gives `n = 0`, zero means and a zero `M2`.
    pub fn from_rows(data: &Matrix) -> Self {
        let d = data.cols();
        let means = data.col_means();
        let mut m2 = Matrix::zeros(d, d);
        for row in data.iter_rows() {
            for i in 0..d {
                let di = row[i] - means[i];
                if di == 0.0 {
                    continue;
                }
                let acc = &mut m2.row_mut(i)[i..];
                for ((a, &x), &m) in acc.iter_mut().zip(&row[i..]).zip(&means[i..]) {
                    *a += di * (x - m);
                }
            }
        }
        CoMoments {
            n: data.rows(),
            means,
            m2,
        }
    }

    /// Co-moments of the same sample with one more column that holds
    /// `value` in every row. A constant column has mean `value` and no
    /// spread; it only enters `M2` through a [`merge`](CoMoments::merge)
    /// with a sample that holds a different constant there.
    pub fn with_constant(&self, value: f64) -> Self {
        let d = self.num_cols();
        let mut means = self.means.clone();
        means.push(value);
        let mut m2 = Matrix::zeros(d + 1, d + 1);
        for i in 0..d {
            m2.row_mut(i)[i..d].copy_from_slice(&self.m2.row(i)[i..]);
        }
        CoMoments {
            n: self.n,
            means,
            m2,
        }
    }

    /// Co-moments of the union of two samples over the same columns
    /// (Chan, Golub & LeVeque's pairwise update): with `δ = μb − μa`,
    /// `μ = μa + δ·nb/n` and `M2 = M2a + M2b + δδᵀ·na·nb/n`.
    ///
    /// # Panics
    ///
    /// Panics if the two samples have different column counts.
    pub fn merge(&self, other: &CoMoments) -> Self {
        let d = self.num_cols();
        assert_eq!(d, other.num_cols(), "CoMoments::merge: column mismatch");
        if self.n == 0 || other.n == 0 {
            return if self.n == 0 { other } else { self }.clone();
        }
        let n = self.n + other.n;
        let (na, nb, nf) = (self.n as f64, other.n as f64, n as f64);
        let delta: Vec<f64> = other
            .means
            .iter()
            .zip(&self.means)
            .map(|(b, a)| b - a)
            .collect();
        let means = self
            .means
            .iter()
            .zip(&delta)
            .map(|(a, dl)| a + dl * nb / nf)
            .collect();
        let w = na * nb / nf;
        let mut m2 = Matrix::zeros(d, d);
        for i in 0..d {
            let (a, b) = (&self.m2.row(i)[i..], &other.m2.row(i)[i..]);
            for (k, out) in m2.row_mut(i)[i..].iter_mut().enumerate() {
                *out = a[k] + b[k] + delta[i] * delta[i + k] * w;
            }
        }
        CoMoments { n, means, m2 }
    }

    /// Number of rows folded in.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.means.len()
    }

    /// Column means (all 0.0 when no rows were folded in).
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// `Σ (x_c − μ_c)²` of column `c`: the diagonal of `M2`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn sum_sq(&self, c: usize) -> f64 {
        self.m2.get(c, c)
    }

    /// Sample covariance matrix `M2 / (n − 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when fewer than two rows were folded
    /// in.
    pub fn covariance(&self) -> Result<Matrix> {
        if self.n < 2 {
            return Err(LinalgError::Empty("covariance needs >= 2 rows".into()));
        }
        let d = self.num_cols();
        let denom = (self.n - 1) as f64;
        let mut cov = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let v = self.m2.get(i, j) / denom;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        Ok(cov)
    }

    /// Correlation matrix: unit diagonal, `r = 0` against any column whose
    /// standard deviation is below `1e-12`, every entry clamped to
    /// `[-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when fewer than two rows were folded
    /// in.
    pub fn correlation(&self) -> Result<Matrix> {
        let cov = self.covariance()?;
        let d = cov.rows();
        let std: Vec<f64> = (0..d).map(|i| cov.get(i, i).sqrt()).collect();
        let mut corr = Matrix::identity(d);
        for i in 0..d {
            for j in (i + 1)..d {
                let r = if std[i] < 1e-12 || std[j] < 1e-12 {
                    0.0
                } else {
                    (cov.get(i, j) / (std[i] * std[j])).clamp(-1.0, 1.0)
                };
                corr.set(i, j, r);
                corr.set(j, i, r);
            }
        }
        Ok(corr)
    }
}

/// Sample covariance matrix of the columns of `data` (rows are samples).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when `data` has fewer than two rows.
pub fn covariance_matrix(data: &Matrix) -> Result<Matrix> {
    CoMoments::from_rows(data).covariance()
}

/// Correlation matrix of the columns of `data`; constant columns correlate
/// 0.0 with everything (and 1.0 with themselves).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when `data` has fewer than two rows.
pub fn correlation_matrix(data: &Matrix) -> Result<Matrix> {
    CoMoments::from_rows(data).correlation()
}

/// Partial correlation of variables `i` and `j` given the set `cond`,
/// computed from a full correlation matrix by inverting the submatrix over
/// `{i, j} ∪ cond` (precision-matrix formula).
///
/// Diagonal ridge regularization escalates `1e-8 → 1e-4 → 1e-2` until the
/// submatrix inverts; a conditioning set that stays singular past the
/// strongest ridge (duplicated or zero-variance columns) carries no usable
/// conditioning information, so the partial correlation degrades to `0.0`
/// — "cannot distinguish from independence" — rather than failing the whole
/// search.
///
/// # Errors
///
/// Returns [`LinalgError::NonFinite`] when the result is non-finite, which
/// only happens when `corr` itself contains NaN/Inf entries.
///
/// # Panics
///
/// Panics if `i == j` or `cond` contains `i` or `j`.
pub fn partial_correlation(corr: &Matrix, i: usize, j: usize, cond: &[usize]) -> Result<f64> {
    assert_ne!(i, j, "partial_correlation: i == j");
    assert!(
        !cond.contains(&i) && !cond.contains(&j),
        "partial_correlation: conditioning set contains i or j"
    );
    if cond.is_empty() {
        return Ok(corr.get(i, j));
    }
    let mut idx = vec![i, j];
    idx.extend_from_slice(cond);
    let k = idx.len();
    let base = Matrix::from_fn(k, k, |a, b| corr.get(idx[a], idx[b]));
    // Ridge keeps near-singular few-shot correlation matrices invertible;
    // escalate when the weak ridge is not enough.
    for &ridge in &[1e-8, 1e-4, 1e-2] {
        let mut sub = base.clone();
        for a in 0..k {
            let v = sub.get(a, a) + ridge;
            sub.set(a, a, v);
        }
        let Ok(prec) = inverse(&sub) else { continue };
        let denom = (prec.get(0, 0) * prec.get(1, 1)).sqrt();
        if denom < 1e-12 {
            return Ok(0.0);
        }
        let r = (-prec.get(0, 1) / denom).clamp(-1.0, 1.0);
        if !r.is_finite() {
            return Err(LinalgError::NonFinite(format!(
                "partial_correlation({i}, {j} | {cond:?}) is non-finite; \
                 the correlation matrix contains NaN/Inf entries"
            )));
        }
        return Ok(r);
    }
    // Singular past the strongest ridge: the conditioning set is degenerate
    // (duplicated / constant columns); treat as uninformative.
    Ok(0.0)
}

/// Fisher z-transform of a correlation coefficient.
pub fn fisher_z(r: f64) -> f64 {
    let r = r.clamp(-0.999_999, 0.999_999);
    0.5 * ((1.0 + r) / (1.0 - r)).ln()
}

/// Two-sided p-value of the Fisher-z conditional-independence test for a
/// (partial) correlation `r` computed on `n` samples with `cond_size`
/// conditioning variables.
///
/// Returns 1.0 (never reject) when the effective sample size is too small
/// for the statistic to be defined.
pub fn fisher_z_pvalue(r: f64, n: usize, cond_size: usize) -> f64 {
    let dof = n as f64 - cond_size as f64 - 3.0;
    if dof <= 0.0 {
        return 1.0;
    }
    let z = fisher_z(r).abs() * dof.sqrt();
    2.0 * (1.0 - normal_cdf(z))
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (absolute error < 1.5e-7).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Inverse standard normal CDF (Acklam's rational approximation).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile: p must be in (0,1), got {p}"
    );
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `D = sup |F_a - F_b|`.
///
/// Returns 0.0 when either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// Asymptotic p-value of the two-sample KS test.
///
/// Returns 1.0 when either sample is empty.
pub fn ks_pvalue(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let d = ks_statistic(a, b);
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let ne = na * nb / (na + nb);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    // Kolmogorov distribution tail sum.
    let mut p = 0.0;
    for k in 1..=100 {
        let kf = k as f64;
        let term = 2.0 * (-1.0_f64).powi(k + 1) * (-2.0 * kf * kf * lambda * lambda).exp();
        p += term;
        if term.abs() < 1e-12 {
            break;
        }
    }
    p.clamp(0.0, 1.0)
}

/// Welch's t-statistic for two samples with unequal variances.
///
/// Returns 0.0 when either sample has fewer than two values.
pub fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < 2 || b.len() < 2 {
        return 0.0;
    }
    let va = variance(a) / a.len() as f64;
    let vb = variance(b) / b.len() as f64;
    let denom = (va + vb).sqrt();
    if denom < 1e-12 {
        return 0.0;
    }
    (mean(a) - mean(b)) / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_constant() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn covariance_matrix_matches_pairwise() {
        let data = Matrix::from_rows(&[
            &[1.0, 2.0, 0.0],
            &[2.0, 1.0, 0.0],
            &[3.0, 4.0, 0.0],
            &[4.0, 3.0, 0.0],
        ]);
        let cov = covariance_matrix(&data).unwrap();
        let c01 = covariance(&data.col(0), &data.col(1));
        assert!((cov.get(0, 1) - c01).abs() < 1e-12);
        assert_eq!(cov.get(2, 2), 0.0);
        assert_eq!(cov.get(0, 1), cov.get(1, 0));
    }

    #[test]
    fn merged_comoments_match_the_stacked_sample() {
        let mut rng = SeededRng::new(5);
        let data = Matrix::from_fn(70, 4, |_, c| rng.normal(c as f64, 1.0 + c as f64));
        let head = Matrix::from_fn(50, 4, |r, c| data.get(r, c));
        let tail = Matrix::from_fn(20, 4, |r, c| data.get(50 + r, c));
        let merged = CoMoments::from_rows(&head).merge(&CoMoments::from_rows(&tail));
        let stacked = CoMoments::from_rows(&data);
        assert_eq!(merged.rows(), 70);
        for c in 0..4 {
            assert!((merged.means()[c] - stacked.means()[c]).abs() < 1e-12);
            assert!((merged.sum_sq(c) - stacked.sum_sq(c)).abs() < 1e-9);
        }
        let (a, b) = (
            merged.correlation().unwrap(),
            stacked.correlation().unwrap(),
        );
        assert!(a.try_sub(&b).unwrap().max_abs() < 1e-14);
        // Merging an empty sample changes nothing.
        let empty = CoMoments::from_rows(&Matrix::zeros(0, 4));
        let same = stacked.merge(&empty);
        assert_eq!(same.means(), stacked.means());
        assert_eq!(same.covariance().unwrap(), stacked.covariance().unwrap());
    }

    #[test]
    fn indicator_column_gets_its_moments_from_the_merge() {
        // A 0/1 column appended per sample: its mean is the share of the
        // second sample, its spread na·nb/n, its co-moment with x
        // δx·na·nb/n — the same as stacking the rows with the column.
        let mut rng = SeededRng::new(8);
        let a = Matrix::from_fn(30, 2, |_, _| rng.normal(0.0, 1.0));
        let b = Matrix::from_fn(10, 2, |_, _| rng.normal(2.0, 1.0));
        let merged = CoMoments::from_rows(&a)
            .with_constant(0.0)
            .merge(&CoMoments::from_rows(&b).with_constant(1.0));
        let stacked = Matrix::from_fn(40, 3, |r, c| match (r < 30, c) {
            (true, 2) => 0.0,
            (false, 2) => 1.0,
            (true, _) => a.get(r, c),
            (false, _) => b.get(r - 30, c),
        });
        let reference = CoMoments::from_rows(&stacked);
        assert_eq!(merged.num_cols(), 3);
        assert!((merged.means()[2] - 0.25).abs() < 1e-15);
        assert!((merged.sum_sq(2) - 7.5).abs() < 1e-12);
        let gap = merged
            .correlation()
            .unwrap()
            .try_sub(&reference.correlation().unwrap())
            .unwrap()
            .max_abs();
        assert!(gap < 1e-14, "gap {gap:e}");
    }

    #[test]
    fn correlation_matrix_unit_diag() {
        let mut rng = SeededRng::new(7);
        let data = Matrix::from_fn(50, 4, |_, _| rng.normal(0.0, 1.0));
        let corr = correlation_matrix(&data).unwrap();
        for i in 0..4 {
            assert!((corr.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..4 {
                assert!(corr.get(i, j).abs() <= 1.0);
            }
        }
    }

    #[test]
    fn partial_correlation_removes_common_cause() {
        // z -> x, z -> y: x and y are correlated marginally but not given z.
        let mut rng = SeededRng::new(42);
        let n = 4000;
        let mut data = Matrix::zeros(n, 3);
        for r in 0..n {
            let z = rng.normal(0.0, 1.0);
            let x = 2.0 * z + rng.normal(0.0, 0.5);
            let y = -1.5 * z + rng.normal(0.0, 0.5);
            data.set(r, 0, x);
            data.set(r, 1, y);
            data.set(r, 2, z);
        }
        let corr = correlation_matrix(&data).unwrap();
        let marginal = corr.get(0, 1);
        assert!(
            marginal.abs() > 0.5,
            "marginal correlation should be strong: {marginal}"
        );
        let partial = partial_correlation(&corr, 0, 1, &[2]).unwrap();
        assert!(
            partial.abs() < 0.1,
            "partial correlation should vanish: {partial}"
        );
    }

    #[test]
    fn partial_correlation_survives_degenerate_conditioning() {
        // Duplicated columns: corr(2,3) == 1 exactly, so the conditioning
        // submatrix over {0, 1, 2, 3} is singular without regularization.
        let mut rng = SeededRng::new(9);
        let mut data = Matrix::zeros(200, 4);
        for r in 0..200 {
            let a = rng.normal(0.0, 1.0);
            let b = rng.normal(0.0, 1.0);
            data.set(r, 0, a);
            data.set(r, 1, b);
            data.set(r, 2, a + b);
            data.set(r, 3, a + b); // exact duplicate of column 2
        }
        let corr = correlation_matrix(&data).unwrap();
        let r = partial_correlation(&corr, 0, 1, &[2, 3]).unwrap();
        assert!(r.is_finite(), "degenerate conditioning set must not fail");
        assert!(r.abs() <= 1.0);
    }

    #[test]
    fn partial_correlation_zero_variance_conditioner() {
        // A constant column correlates 0 with everything; conditioning on it
        // must behave like not conditioning at all (and never error).
        let mut rng = SeededRng::new(11);
        let mut data = Matrix::zeros(300, 3);
        for r in 0..300 {
            let x = rng.normal(0.0, 1.0);
            data.set(r, 0, x);
            data.set(r, 1, 0.9 * x + rng.normal(0.0, 0.3));
            data.set(r, 2, 5.0); // dead counter
        }
        let corr = correlation_matrix(&data).unwrap();
        let marginal = partial_correlation(&corr, 0, 1, &[]).unwrap();
        let conditioned = partial_correlation(&corr, 0, 1, &[2]).unwrap();
        assert!((marginal - conditioned).abs() < 1e-6);
    }

    #[test]
    fn fisher_z_pvalue_behaviour() {
        // Strong correlation with many samples => tiny p-value.
        assert!(fisher_z_pvalue(0.8, 500, 0) < 1e-6);
        // Weak correlation with few samples => large p-value.
        assert!(fisher_z_pvalue(0.05, 30, 0) > 0.5);
        // Insufficient dof => never reject.
        assert_eq!(fisher_z_pvalue(0.9, 3, 2), 1.0);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-3, "p={p}");
        }
    }

    #[test]
    fn ks_detects_shift() {
        let mut rng = SeededRng::new(3);
        let a: Vec<f64> = (0..300).map(|_| rng.normal(0.0, 1.0)).collect();
        let b: Vec<f64> = (0..300).map(|_| rng.normal(2.0, 1.0)).collect();
        let same: Vec<f64> = (0..300).map(|_| rng.normal(0.0, 1.0)).collect();
        assert!(
            ks_pvalue(&a, &b) < 0.01,
            "shifted distributions should be detected"
        );
        assert!(
            ks_pvalue(&a, &same) > 0.01,
            "same distributions should not be rejected"
        );
    }

    #[test]
    fn welch_t_detects_mean_difference() {
        let a = [1.0, 1.1, 0.9, 1.05, 0.95];
        let b = [2.0, 2.1, 1.9, 2.05, 1.95];
        assert!(welch_t(&a, &b).abs() > 5.0);
        assert_eq!(welch_t(&a, &[1.0]), 0.0);
    }
}
