//! Constraint-based causal discovery for the `fsda` workspace.
//!
//! The paper's feature-separation (FS) method casts domain shift as *soft
//! interventions* on an unknown subset of features: source samples are
//! observational data, target samples are interventional data, and an added
//! **F-node** (the domain indicator) is connected — in the causal graph over
//! the combined dataset — exactly to the features whose mechanisms the shift
//! altered. Identifying the F-node's neighbours therefore identifies the
//! domain-variant features.
//!
//! This crate provides the machinery:
//!
//! * [`ci`] — conditional-independence testing (Fisher-z on partial
//!   correlations, with the binary F-node handled as a 0/1 variable).
//! * [`graph`] — undirected/partially-directed graph structures with
//!   separating-set bookkeeping.
//! * [`pc`] — the full PC algorithm (skeleton, v-structures, Meek rules),
//!   usable on its own for whole-graph discovery.
//! * [`fnode`] — the Ψ-FCI-inspired *targeted* search the paper actually
//!   runs: only edges incident on the F-node are tested, which is what makes
//!   FS tractable on 442-feature data.
//! * [`score`] — precision/recall/F1 of a detected intervention-target set
//!   against a known ground truth (SCM-generated data records one).
//! * [`warm`] — the F-node search's source co-moments, folded once: each
//!   new target window merges in `O(n_tgt · d²)`. The cold
//!   [`fnode::find_intervened_features`] is the same search on a freshly
//!   built cache.
//!
//! # Example
//!
//! ```
//! use fsda_linalg::{Matrix, SeededRng};
//! use fsda_causal::fnode::{FnodeConfig, find_intervened_features};
//!
//! // Source: x0 ~ N(0,1); target: x0 ~ N(3,1). x1 invariant.
//! let mut rng = SeededRng::new(1);
//! let src = Matrix::from_fn(300, 2, |_, _| rng.normal(0.0, 1.0));
//! let tgt = Matrix::from_fn(60, 2, |_, c| if c == 0 { rng.normal(3.0, 1.0) } else { rng.normal(0.0, 1.0) });
//! let result = find_intervened_features(&src, &tgt, &FnodeConfig::default())?;
//! assert!(result.variant.contains(&0));
//! assert!(!result.variant.contains(&1));
//! # Ok::<(), fsda_causal::CausalError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod ci;
pub mod fnode;
pub mod graph;
pub mod pc;
pub mod score;
pub mod warm;

pub use graph::Graph;

/// Errors from causal-discovery routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalError {
    /// Input data was empty or too small for the requested test.
    InsufficientData(String),
    /// The two domains have different feature counts.
    FeatureMismatch {
        /// Feature count in the source domain.
        source: usize,
        /// Feature count in the target domain.
        target: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(String),
    /// The input data contains a NaN/Inf cell; the payload localizes it.
    NonFinite {
        /// Row index of the first offending cell.
        row: usize,
        /// Column index of the first offending cell.
        col: usize,
    },
}

impl std::fmt::Display for CausalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CausalError::InsufficientData(msg) => write!(f, "insufficient data: {msg}"),
            CausalError::FeatureMismatch { source, target } => {
                write!(
                    f,
                    "feature count mismatch: source {source} vs target {target}"
                )
            }
            CausalError::Linalg(msg) => write!(f, "linear algebra failure: {msg}"),
            CausalError::NonFinite { row, col } => {
                write!(f, "non-finite value at row {row}, column {col}")
            }
        }
    }
}

impl std::error::Error for CausalError {}

impl From<fsda_linalg::LinalgError> for CausalError {
    fn from(e: fsda_linalg::LinalgError) -> Self {
        CausalError::Linalg(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CausalError>;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CausalError::FeatureMismatch {
            source: 3,
            target: 4,
        };
        assert!(e.to_string().contains('3'));
        assert!(!CausalError::InsufficientData("x".into())
            .to_string()
            .is_empty());
    }

    #[test]
    fn linalg_error_converts() {
        let e: CausalError = fsda_linalg::LinalgError::Singular.into();
        assert!(matches!(e, CausalError::Linalg(_)));
    }
}
