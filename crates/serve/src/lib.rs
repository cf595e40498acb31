//! `fsda-serve` — the multi-tenant drift-mitigation server.
//!
//! The paper's pipeline (causal feature separation + GAN reconstruction)
//! only pays off in production if freshly re-fitted artifacts can replace
//! stale ones **while traffic keeps flowing** — drift mitigation that
//! requires a serving pause is self-defeating. This crate composes the
//! library layers into that long-running service:
//!
//! - **[`manifest`]** — the tenant manifest: one versioned `FSDA`
//!   artifact per tenant / network slice, each potentially drifting and
//!   re-fitting on its own schedule.
//! - **[`epoch`]** — epoch-based reclamation: readers announce critical
//!   sections in private cache-padded slots; retired artifacts are freed
//!   only when their epoch drains.
//! - **[`hotswap`]** — [`hotswap::SwapCell`], the per-tenant atomic
//!   artifact pointer: wait-free reads, one-atomic-swap publication,
//!   zero request stalls.
//! - **[`controller`]** — [`controller::DriftController`]: the
//!   closed-loop supervisor — detect → re-fit (cached separation) →
//!   validate → hot-swap, with per-attempt deadlines, seeded-jitter
//!   retries, and a circuit breaker that degrades to serve-last-good on
//!   repeated failure.
//! - **[`server`]** — [`server::TenantServer`]: routes batches by tenant
//!   over a thread-per-core shard pool (`fsda_linalg::par::ShardPool`),
//!   applies per-tenant admission control and shard-level backpressure,
//!   serves every batch through the guarded
//!   [`fsda_core::DriftMitigator::try_predict_batch`] entry point, and
//!   emits per-tenant telemetry (`serve.tenant.requests.<tenant>`, swap
//!   counters, queue-depth gauges) through the process-wide
//!   [`fsda_telemetry`] recorder.
//!
//! Operator documentation — manifest format, hot-swap semantics,
//! backpressure knobs, degraded modes, a worked walkthrough — lives in
//! `docs/SERVING.md`; `cargo run -p fsda-serve --release --bin
//! fsda_serve` runs the self-contained demo server.
//!
//! # Fit → persist → serve → hot-swap
//!
//! ```no_run
//! use fsda_core::adapter::AdapterConfig;
//! use fsda_core::{DriftMitigator, Method};
//! use fsda_data::fewshot::few_shot_subset;
//! use fsda_data::synth5gc::Synth5gc;
//! use fsda_linalg::SeededRng;
//! use fsda_serve::server::{ServeConfig, TenantServer};
//!
//! // Offline: fit one pipeline per tenant (normally separate processes).
//! let bundle = Synth5gc::small().generate(42)?;
//! let mut rng = SeededRng::new(7);
//! let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng)?;
//! let mut fit = |seed: u64| -> Result<Box<dyn DriftMitigator>, Box<dyn std::error::Error>> {
//!     let mut m = Method::Fs.build(&AdapterConfig::quick(), seed);
//!     m.fit(&bundle.source_train, &shots)?;
//!     Ok(m)
//! };
//!
//! // Online: boot the server, route batches by tenant, hot-swap.
//! let server = TenantServer::from_artifacts(
//!     vec![("slice-embb".into(), fit(1)?), ("slice-urllc".into(), fit(2)?)],
//!     ServeConfig::default(),
//! )?;
//! let response = server.predict("slice-embb", bundle.target_test.features().clone())?;
//! assert_eq!(response.artifact_version, 1);
//!
//! // Drift detected on slice-embb: re-fit and swap — traffic never stops.
//! server.swap("slice-embb", fit(3)?)?;
//! let response = server.predict("slice-embb", bundle.target_test.features().clone())?;
//! assert_eq!(response.artifact_version, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod controller;
pub mod epoch;
pub mod hotswap;
pub mod manifest;
pub mod server;

pub use controller::{
    BreakerState, ControlOutcome, ControllerConfig, ControllerError, DriftController, Refit,
    RefitRequest, Refitter, RegistryRefitter,
};
pub use hotswap::{ArtifactVersion, SwapCell, SwapOutcome};
pub use manifest::{ManifestError, TenantEntry, TenantManifest};
pub use server::{
    RequestError, ServeConfig, ServerError, TenantResponse, TenantServer, TenantStats, Ticket,
};
