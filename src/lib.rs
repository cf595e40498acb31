//! # fsda — Few-Shot Domain Adaptation for Data Drift Mitigation
//!
//! A from-scratch Rust reproduction of *"Few-Shot Domain Adaptation for
//! Effective Data Drift Mitigation in Network Management"* (Johari,
//! Tornatore, Boutaba, Saleh — ICDCS 2025).
//!
//! ML models for network management (failure classification, fault
//! detection, traffic prediction, ...) degrade when operational data drifts
//! away from the training distribution. The paper's remedy is a
//! model-agnostic, few-shot pipeline that never retrains the downstream
//! models:
//!
//! 1. **Causal feature separation (FS)** — treat the drift as *soft
//!    interventions* on an unknown feature subset and identify the
//!    intervened ("domain-variant") features with a targeted causal search
//!    over a combined source+target dataset with an added domain-indicator
//!    F-node. See [`causal`] and [`core::fs`].
//! 2. **GAN reconstruction** — a conditional GAN trained *only on source
//!    data* learns `P(X_var | X_inv)`; at inference it maps each test
//!    sample's variant features back into the source distribution so a
//!    purely source-trained classifier keeps working. See [`gan`] and
//!    [`core::adapter`].
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Contents |
//! |---|---|
//! | [`linalg`] | dense matrices, decompositions, statistics, seeded RNG |
//! | [`nn`] | from-scratch NN substrate (layers, Adam, losses) |
//! | [`causal`] | CI tests, PC algorithm, F-node intervention search |
//! | [`data`] | `Dataset`, SCM generators for the 5GC/5GIPC datasets, GMM |
//! | [`models`] | TNet / MLP / random-forest / XGBoost classifiers, metrics |
//! | [`gan`] | conditional GAN, VAE, autoencoder reconstructors |
//! | [`core`] | FS, FS+GAN, the 11 baselines, experiment runner |
//! | [`serve`] | multi-tenant serving: manifest boot, lock-free artifact hot-swap |
//!
//! # Quickstart
//!
//! ```no_run
//! use fsda::core::adapter::{AdapterConfig, FsGanAdapter};
//! use fsda::core::DriftMitigator;
//! use fsda::data::fewshot::few_shot_subset;
//! use fsda::data::synth5gc::Synth5gc;
//! use fsda::linalg::SeededRng;
//! use fsda::models::metrics::macro_f1;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A digital-twin (source) and drifted real-network (target) dataset.
//! let bundle = Synth5gc::small().generate(42)?;
//!
//! // Five labelled samples per failure type from the target network.
//! let mut rng = SeededRng::new(7);
//! let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
//!
//! // Fit the two-step pipeline; the classifier only ever sees source data.
//! let adapter = FsGanAdapter::fit(&bundle.source_train, &shots, &AdapterConfig::quick(), 0)?;
//! let pred = adapter.predict(bundle.target_test.features());
//! println!("F1 = {:.1}", 100.0 * macro_f1(bundle.target_test.labels(), &pred, 16));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harnesses that regenerate every table of the paper.

pub use fsda_causal as causal;
pub use fsda_core as core;
pub use fsda_data as data;
pub use fsda_gan as gan;
pub use fsda_linalg as linalg;
pub use fsda_models as models;
pub use fsda_nn as nn;
pub use fsda_serve as serve;
