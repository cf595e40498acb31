//! The multi-tenant serving core: tenant routing, admission control, and
//! hot-swap over a thread-per-core shard pool.
//!
//! A [`TenantServer`] owns one [`ShardPool`] (worker threads with bounded
//! FIFO queues) and one [`SwapCell`] per tenant. Tenants are assigned to
//! shards round-robin in manifest order — a stable, deterministic mapping,
//! so requests for one tenant always execute on the same thread in
//! submission order, and per-tenant queue bounds actually bound that
//! tenant's memory.
//!
//! # Request path (wait-free reads, two bounded queues)
//!
//! [`TenantServer::submit`] performs admission control (per-tenant
//! in-flight cap, then the shard's bounded queue) and enqueues a job; the
//! returned [`Ticket`] resolves to the prediction. On the shard thread the
//! job pins its epoch slot, loads the tenant's current artifact (one
//! atomic load — no lock anywhere in the request path), serves the batch
//! through the guarded [`DriftMitigator::try_predict_batch_with`] entry point,
//! and unpins. A request that began on artifact version *n* completes on
//! version *n* even if a swap lands mid-request.
//!
//! # Control path
//!
//! [`TenantServer::swap`] / [`TenantServer::swap_from_bytes`] atomically
//! publish a new artifact for one tenant; in-flight requests drain on the
//! old version, which is freed once its epoch drains (see
//! [`crate::hotswap`]). Swapping never pauses request processing.

use crate::epoch::EpochPool;
use crate::hotswap::{SwapCell, SwapOutcome};
use crate::manifest::TenantManifest;
use fsda_core::pipeline::{restore, DriftMitigator};
use fsda_core::{CoreError, GuardConfig, InferPrecision, ServeError};
use fsda_linalg::par::{resolve_threads, ShardPool, SubmitError};
use fsda_linalg::Matrix;
use fsda_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Serving knobs; start from `ServeConfig::default()` and override.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Shard (worker thread) count; `None` = all available cores.
    pub shards: Option<usize>,
    /// Bound of each shard's job queue (all tenants on that shard
    /// combined). A full shard queue rejects with
    /// [`RequestError::ShardQueueFull`].
    pub shard_queue_capacity: usize,
    /// Per-tenant in-flight cap (queued + executing). Exceeding it rejects
    /// with [`RequestError::TenantQueueFull`] before the shard queue is
    /// touched, so one tenant cannot consume a whole shard's budget.
    pub tenant_queue_capacity: usize,
    /// Input guardrails applied to every batch (see
    /// [`fsda_core::InputPolicy`]).
    pub guard: GuardConfig,
    /// Thread count handed to `predict_batch` *inside* a shard. The
    /// default `Some(1)` is deliberate: shards are already thread-per-core,
    /// so nested fan-out would oversubscribe the host.
    pub predict_threads: Option<usize>,
    /// Numeric precision of the served forward passes. The default
    /// [`InferPrecision::F64Exact`] keeps serving bit-identical to the
    /// experiment pipeline; [`InferPrecision::F32Fast`] runs artifacts
    /// with a compiled inference plan on the single-precision kernels for
    /// higher throughput at a small, bounded divergence (see
    /// `docs/KERNELS.md`). Controller validation always measures at
    /// `F64Exact` regardless of this knob.
    pub predict_precision: InferPrecision,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: None,
            shard_queue_capacity: 256,
            tenant_queue_capacity: 64,
            guard: GuardConfig::default(),
            predict_threads: Some(1),
            predict_precision: InferPrecision::F64Exact,
        }
    }
}

/// Why the server could not be built or a control operation failed.
#[derive(Debug)]
pub enum ServerError {
    /// Manifest loading/parsing failed.
    Manifest(crate::manifest::ManifestError),
    /// A tenant's artifact file could not be read.
    ArtifactIo {
        /// The tenant whose artifact failed.
        tenant: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A tenant's artifact bytes failed to restore.
    ArtifactRestore {
        /// The tenant whose artifact failed.
        tenant: String,
        /// The underlying restore error.
        source: CoreError,
    },
    /// An artifact that has not been fitted cannot be served.
    UnfittedArtifact {
        /// The offending tenant.
        tenant: String,
    },
    /// A tenant id failed validation (see [`crate::manifest`]).
    InvalidTenantId(String),
    /// The same tenant id was supplied twice.
    DuplicateTenant(String),
    /// The server was constructed with no tenants.
    NoTenants,
    /// Every tenant in the manifest failed to boot — there is nothing to
    /// serve. Individual failures are skippable (see
    /// [`TenantServer::boot_failures`]); a fleet of zero is not.
    AllTenantsFailed {
        /// How many manifest entries failed.
        failed: usize,
    },
    /// The named tenant does not exist.
    UnknownTenant(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Manifest(e) => e.fmt(f),
            ServerError::ArtifactIo { tenant, source } => {
                write!(f, "tenant \"{tenant}\": artifact read failed: {source}")
            }
            ServerError::ArtifactRestore { tenant, source } => {
                write!(f, "tenant \"{tenant}\": artifact restore failed: {source}")
            }
            ServerError::UnfittedArtifact { tenant } => {
                write!(f, "tenant \"{tenant}\": artifact is not fitted")
            }
            ServerError::InvalidTenantId(t) => write!(
                f,
                "invalid tenant id \"{t}\" \
                 (allowed: lowercase letters, digits, '.', '_', '-')"
            ),
            ServerError::DuplicateTenant(t) => write!(f, "duplicate tenant \"{t}\""),
            ServerError::NoTenants => write!(f, "server needs at least one tenant"),
            ServerError::AllTenantsFailed { failed } => {
                write!(f, "all {failed} manifest tenants failed to boot")
            }
            ServerError::UnknownTenant(t) => write!(f, "unknown tenant \"{t}\""),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<crate::manifest::ManifestError> for ServerError {
    fn from(e: crate::manifest::ManifestError) -> Self {
        ServerError::Manifest(e)
    }
}

/// Why a request was not served.
#[derive(Debug)]
pub enum RequestError {
    /// The named tenant does not exist.
    UnknownTenant(String),
    /// The tenant's in-flight cap is reached — per-tenant backpressure;
    /// shed load or retry after in-flight requests drain.
    TenantQueueFull {
        /// The tenant that was throttled.
        tenant: String,
        /// Its configured in-flight cap.
        capacity: usize,
    },
    /// The shard's bounded queue is full — shard-level backpressure.
    ShardQueueFull {
        /// The saturated shard.
        shard: usize,
    },
    /// The server has shut down.
    Closed,
    /// The guarded serving path rejected or failed the batch (corrupt
    /// input under `Reject`, dimension mismatch, non-finite output).
    Serve(ServeError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownTenant(t) => write!(f, "unknown tenant \"{t}\""),
            RequestError::TenantQueueFull { tenant, capacity } => {
                write!(f, "tenant \"{tenant}\" queue full ({capacity} in flight)")
            }
            RequestError::ShardQueueFull { shard } => {
                write!(f, "shard {shard} queue full")
            }
            RequestError::Closed => write!(f, "server has shut down"),
            RequestError::Serve(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A served prediction plus the artifact version that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantResponse {
    /// Predicted class per input row.
    pub predictions: Vec<usize>,
    /// The artifact version the request executed on (1 = the boot
    /// artifact, +1 per swap). During a hot-swap, responses from both
    /// the outgoing and incoming versions are in flight; this field says
    /// which one produced each response.
    pub artifact_version: u64,
}

/// Handle to an in-flight request; resolve with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<TenantResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the shard thread finishes the request.
    ///
    /// # Errors
    ///
    /// [`RequestError::Serve`] when the guarded path rejected the batch,
    /// [`RequestError::Closed`] if the server shut down underneath the
    /// request.
    pub fn wait(self) -> Result<TenantResponse, RequestError> {
        match self.rx.recv() {
            Ok(Ok(resp)) => Ok(resp),
            Ok(Err(e)) => Err(RequestError::Serve(e)),
            Err(_) => Err(RequestError::Closed),
        }
    }
}

/// A point-in-time snapshot of one tenant's serving state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: String,
    /// The shard its requests execute on.
    pub shard: usize,
    /// Artifact version new requests observe.
    pub artifact_version: u64,
    /// Hot-swaps performed since boot.
    pub swaps: u64,
    /// Replaced artifact versions whose epochs have not drained yet.
    pub retired_artifacts: usize,
    /// Requests queued or executing right now.
    pub queue_depth: usize,
    /// Requests accepted by admission control since boot.
    pub admitted: u64,
    /// Requests rejected by admission control (tenant or shard queue).
    pub rejected: u64,
    /// Requests completed (successfully or with a serve error).
    pub completed: u64,
    /// Completed requests that returned a [`ServeError`].
    pub serve_errors: u64,
}

/// One tenant that failed to boot from the manifest and was skipped so the
/// rest of the fleet could come up.
#[derive(Debug)]
pub struct BootFailure {
    /// The tenant that was skipped.
    pub tenant: String,
    /// Why its artifact could not serve (I/O, restore, or unfitted).
    pub error: ServerError,
}

struct Tenant {
    name: String,
    shard: usize,
    cell: SwapCell,
    depth: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    serve_errors: AtomicU64,
}

/// The multi-tenant drift-mitigation server; see the [module docs](self).
pub struct TenantServer {
    tenants: HashMap<String, Arc<Tenant>>,
    order: Vec<String>,
    pool: ShardPool,
    epochs: Arc<EpochPool>,
    config: ServeConfig,
    boot_failures: Vec<BootFailure>,
}

impl std::fmt::Debug for TenantServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantServer")
            .field("tenants", &self.order)
            .field("shards", &self.pool.shards())
            .finish()
    }
}

impl TenantServer {
    /// Boots a server from already-restored artifacts, one `(tenant,
    /// artifact)` pair per tenant, assigned to shards round-robin in input
    /// order.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidTenantId`] / [`ServerError::DuplicateTenant`]
    /// on bad tenant sets, [`ServerError::UnfittedArtifact`] when an
    /// artifact cannot serve, [`ServerError::NoTenants`] on an empty set.
    pub fn from_artifacts(
        artifacts: Vec<(String, Box<dyn DriftMitigator>)>,
        config: ServeConfig,
    ) -> Result<TenantServer, ServerError> {
        if artifacts.is_empty() {
            return Err(ServerError::NoTenants);
        }
        let shards = resolve_threads(config.shards);
        let epochs = Arc::new(EpochPool::new(shards));
        let pool = ShardPool::new(shards, config.shard_queue_capacity);
        let mut tenants: HashMap<String, Arc<Tenant>> = HashMap::new();
        let mut order = Vec::with_capacity(artifacts.len());
        for (idx, (name, artifact)) in artifacts.into_iter().enumerate() {
            if !crate::manifest::valid_tenant_id(&name) {
                return Err(ServerError::InvalidTenantId(name));
            }
            if tenants.contains_key(&name) {
                return Err(ServerError::DuplicateTenant(name));
            }
            if !artifact.is_fitted() {
                return Err(ServerError::UnfittedArtifact { tenant: name });
            }
            let tenant = Arc::new(Tenant {
                name: name.clone(),
                shard: idx % shards,
                cell: SwapCell::new(artifact, Arc::clone(&epochs)),
                depth: AtomicUsize::new(0),
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                serve_errors: AtomicU64::new(0),
            });
            order.push(name.clone());
            tenants.insert(name, tenant);
        }
        Ok(TenantServer {
            tenants,
            order,
            pool,
            epochs,
            config,
            boot_failures: Vec::new(),
        })
    }

    /// Boots a server from a [`TenantManifest`]: reads every artifact
    /// file, restores it through the method registry
    /// ([`fsda_core::pipeline::restore`] — the manifest never says which
    /// method produced an artifact), and assigns tenants to shards
    /// round-robin in manifest order.
    ///
    /// A tenant whose artifact cannot be read, restored, or served is
    /// **skipped, not fatal**: one corrupt file must not keep the other
    /// 99 slices of the fleet down. Each skip is recorded (see
    /// [`TenantServer::boot_failures`]) and counted on the
    /// `serve.tenant.boot_failures` / `serve.tenant.boot_failures.<tenant>`
    /// telemetry counters so a partial boot is loud, not silent.
    ///
    /// # Errors
    ///
    /// [`ServerError::AllTenantsFailed`] when *every* entry failed,
    /// plus everything [`TenantServer::from_artifacts`] raises for the
    /// surviving set (duplicate/invalid tenant ids stay fatal — they are
    /// manifest bugs, not artifact damage).
    pub fn from_manifest(
        manifest: &TenantManifest,
        config: ServeConfig,
    ) -> Result<TenantServer, ServerError> {
        let mut artifacts = Vec::with_capacity(manifest.entries().len());
        let mut failures = Vec::new();
        for entry in manifest.entries() {
            let tenant = entry.tenant.clone();
            let outcome = std::fs::read(&entry.path)
                .map_err(|source| ServerError::ArtifactIo {
                    tenant: tenant.clone(),
                    source,
                })
                .and_then(|bytes| {
                    restore(&bytes).map_err(|source| ServerError::ArtifactRestore {
                        tenant: tenant.clone(),
                        source,
                    })
                })
                .and_then(|artifact| {
                    if artifact.is_fitted() {
                        Ok(artifact)
                    } else {
                        Err(ServerError::UnfittedArtifact {
                            tenant: tenant.clone(),
                        })
                    }
                });
            match outcome {
                Ok(artifact) => artifacts.push((tenant, artifact)),
                Err(error) => {
                    telemetry::with_recorder(|rec| {
                        rec.counter("serve.tenant.boot_failures", 1);
                        rec.counter(&format!("serve.tenant.boot_failures.{tenant}"), 1);
                    });
                    failures.push(BootFailure { tenant, error });
                }
            }
        }
        if artifacts.is_empty() {
            return Err(if failures.is_empty() {
                ServerError::NoTenants
            } else {
                ServerError::AllTenantsFailed {
                    failed: failures.len(),
                }
            });
        }
        let mut server = TenantServer::from_artifacts(artifacts, config)?;
        server.boot_failures = failures;
        Ok(server)
    }

    /// Tenants that were skipped during [`TenantServer::from_manifest`]
    /// because their artifact could not be read, restored, or served.
    /// Empty after [`TenantServer::from_artifacts`].
    pub fn boot_failures(&self) -> &[BootFailure] {
        &self.boot_failures
    }

    /// The tenant ids, in boot (manifest) order.
    pub fn tenants(&self) -> &[String] {
        &self.order
    }

    /// Number of shard threads serving requests.
    pub fn shards(&self) -> usize {
        self.pool.shards()
    }

    /// Submits a batch for `tenant` and returns a [`Ticket`] resolving to
    /// the prediction. Non-blocking: admission control either accepts the
    /// request or rejects it with a typed error immediately.
    ///
    /// # Errors
    ///
    /// [`RequestError::UnknownTenant`], [`RequestError::TenantQueueFull`]
    /// (per-tenant cap), [`RequestError::ShardQueueFull`] (shard bound),
    /// [`RequestError::Closed`] after shutdown.
    pub fn submit(&self, tenant: &str, batch: Matrix) -> Result<Ticket, RequestError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| RequestError::UnknownTenant(tenant.to_string()))?;

        // Per-tenant admission: reserve a depth slot or reject.
        let cap = self.config.tenant_queue_capacity;
        if t.depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                (d < cap).then_some(d + 1)
            })
            .is_err()
        {
            t.rejected.fetch_add(1, Ordering::Relaxed);
            telemetry::counter(&format!("serve.tenant.rejected.{}", t.name), 1);
            return Err(RequestError::TenantQueueFull {
                tenant: t.name.clone(),
                capacity: cap,
            });
        }
        telemetry::gauge(
            &format!("serve.tenant.queue_depth.{}", t.name),
            t.depth.load(Ordering::Acquire) as f64,
        );

        let (tx, rx) = mpsc::sync_channel::<Result<TenantResponse, ServeError>>(1);
        let job_tenant = Arc::clone(t);
        let epochs = Arc::clone(&self.epochs);
        let guard_cfg = self.config.guard;
        let predict_threads = self.config.predict_threads;
        let precision = self.config.predict_precision;
        let job = Box::new(move |shard: usize| {
            let start = telemetry::enabled().then(Instant::now);
            let outcome = {
                // Pin → load → serve → unpin: the request executes on
                // whichever artifact version was current at load time,
                // and that version cannot be freed while we are pinned.
                let guard = epochs.pin(shard);
                let version = job_tenant.cell.load(&guard);
                version
                    .artifact()
                    .try_predict_batch_with(&batch, predict_threads, &guard_cfg, precision)
                    .map(|predictions| TenantResponse {
                        predictions,
                        artifact_version: version.version(),
                    })
            };
            job_tenant.depth.fetch_sub(1, Ordering::AcqRel);
            job_tenant.completed.fetch_add(1, Ordering::Relaxed);
            if outcome.is_err() {
                job_tenant.serve_errors.fetch_add(1, Ordering::Relaxed);
            }
            telemetry::with_recorder(|rec| {
                rec.counter(&format!("serve.tenant.requests.{}", job_tenant.name), 1);
                if outcome.is_err() {
                    rec.counter(&format!("serve.tenant.errors.{}", job_tenant.name), 1);
                }
                rec.gauge(
                    &format!("serve.tenant.queue_depth.{}", job_tenant.name),
                    job_tenant.depth.load(Ordering::Acquire) as f64,
                );
                if let Some(start) = start {
                    rec.duration(
                        &format!("serve.tenant.latency.{}", job_tenant.name),
                        start.elapsed().as_secs_f64(),
                    );
                }
            });
            // A dropped ticket is fine; the request still completed.
            let _ = tx.send(outcome);
        });

        match self.pool.try_submit(t.shard, job) {
            Ok(()) => {
                t.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { rx })
            }
            Err(e) => {
                t.depth.fetch_sub(1, Ordering::AcqRel);
                t.rejected.fetch_add(1, Ordering::Relaxed);
                telemetry::counter(&format!("serve.tenant.rejected.{}", t.name), 1);
                Err(match e {
                    SubmitError::Full => RequestError::ShardQueueFull { shard: t.shard },
                    SubmitError::Closed => RequestError::Closed,
                })
            }
        }
    }

    /// Submits a batch and blocks for the response: `submit` + `wait`.
    ///
    /// # Errors
    ///
    /// As [`TenantServer::submit`] and [`Ticket::wait`].
    pub fn predict(&self, tenant: &str, batch: Matrix) -> Result<TenantResponse, RequestError> {
        self.submit(tenant, batch)?.wait()
    }

    /// Atomically publishes `artifact` as `tenant`'s next version with
    /// zero request stalls: in-flight requests finish on the old version,
    /// requests loaded after this call observe the new one, and the old
    /// version is freed once its epoch drains.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`]; [`ServerError::UnfittedArtifact`]
    /// when the replacement cannot serve.
    pub fn swap(
        &self,
        tenant: &str,
        artifact: Box<dyn DriftMitigator>,
    ) -> Result<SwapOutcome, ServerError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServerError::UnknownTenant(tenant.to_string()))?;
        if !artifact.is_fitted() {
            return Err(ServerError::UnfittedArtifact {
                tenant: tenant.to_string(),
            });
        }
        let outcome = t.cell.swap(artifact);
        telemetry::with_recorder(|rec| {
            rec.counter(&format!("serve.tenant.swaps.{}", t.name), 1);
            rec.gauge(
                &format!("serve.tenant.artifact_version.{}", t.name),
                outcome.new_version as f64,
            );
            rec.gauge(
                &format!("serve.tenant.retired.{}", t.name),
                outcome.still_retired as f64,
            );
        });
        Ok(outcome)
    }

    /// [`TenantServer::swap`] from persisted artifact bytes, restored
    /// through the method registry (the new artifact may even be a
    /// different method than the old one).
    ///
    /// # Errors
    ///
    /// [`ServerError::ArtifactRestore`] on undecodable bytes, plus
    /// everything [`TenantServer::swap`] raises.
    pub fn swap_from_bytes(&self, tenant: &str, bytes: &[u8]) -> Result<SwapOutcome, ServerError> {
        let artifact = restore(bytes).map_err(|source| ServerError::ArtifactRestore {
            tenant: tenant.to_string(),
            source,
        })?;
        self.swap(tenant, artifact)
    }

    /// Frees any of `tenant`'s retired artifact versions whose epochs have
    /// drained; returns how many were freed. Swaps already reclaim
    /// opportunistically — this is for quiescent periods.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`].
    pub fn reclaim(&self, tenant: &str) -> Result<usize, ServerError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServerError::UnknownTenant(tenant.to_string()))?;
        Ok(t.cell.reclaim())
    }

    /// A point-in-time snapshot of `tenant`'s serving state.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`].
    pub fn stats(&self, tenant: &str) -> Result<TenantStats, ServerError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServerError::UnknownTenant(tenant.to_string()))?;
        Ok(TenantStats {
            tenant: t.name.clone(),
            shard: t.shard,
            artifact_version: t.cell.version(),
            swaps: t.cell.swaps(),
            retired_artifacts: t.cell.retired(),
            queue_depth: t.depth.load(Ordering::Acquire),
            admitted: t.admitted.load(Ordering::Relaxed),
            rejected: t.rejected.load(Ordering::Relaxed),
            completed: t.completed.load(Ordering::Relaxed),
            serve_errors: t.serve_errors.load(Ordering::Relaxed),
        })
    }

    /// Requests queued or executing across all tenants.
    pub fn pending(&self) -> usize {
        self.tenants
            .values()
            .map(|t| t.depth.load(Ordering::Acquire))
            .sum()
    }

    /// Drains every shard queue and joins the worker threads. In-flight
    /// and queued requests complete first; their tickets stay resolvable.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fsda_core::adapter::AdapterConfig;
    use fsda_core::{InputPolicy, Method};
    use fsda_data::fewshot::few_shot_subset;
    use fsda_data::synth5gc::Synth5gc;
    use fsda_linalg::SeededRng;

    fn fitted(seed: u64) -> (Box<dyn DriftMitigator>, Matrix) {
        let bundle = Synth5gc::small().generate(11).expect("bundle");
        let mut rng = SeededRng::new(seed);
        let shots = few_shot_subset(&bundle.target_pool, 5, &mut rng).expect("shots");
        let mut m = Method::TarOnly.build(&AdapterConfig::quick(), seed);
        m.fit(&bundle.source_train, &shots).expect("fit");
        let probe = bundle.target_test.features().select_rows(&[0, 1, 2, 3]);
        (m, probe)
    }

    fn two_tenant_server() -> (TenantServer, Matrix) {
        let (a, probe) = fitted(1);
        let (b, _) = fitted(2);
        let server = TenantServer::from_artifacts(
            vec![("alpha".into(), a), ("beta".into(), b)],
            ServeConfig {
                shards: Some(2),
                ..ServeConfig::default()
            },
        )
        .expect("server");
        (server, probe)
    }

    #[test]
    fn routes_by_tenant_and_reports_version() {
        let (server, probe) = two_tenant_server();
        assert_eq!(server.tenants(), ["alpha".to_string(), "beta".into()]);
        let ra = server.predict("alpha", probe.clone()).unwrap();
        let rb = server.predict("beta", probe.clone()).unwrap();
        assert_eq!(ra.artifact_version, 1);
        assert_eq!(rb.artifact_version, 1);
        assert_eq!(ra.predictions.len(), probe.rows());
        let err = server.predict("gamma", probe).unwrap_err();
        assert!(matches!(err, RequestError::UnknownTenant(_)), "{err}");
        let stats = server.stats("alpha").unwrap();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.serve_errors, 0);
        server.shutdown();
    }

    #[test]
    fn swap_changes_served_version_without_drops() {
        let (server, probe) = two_tenant_server();
        let before = server.predict("alpha", probe.clone()).unwrap();
        let (replacement, _) = fitted(3);
        let outcome = server.swap("alpha", replacement).unwrap();
        assert_eq!(outcome.old_version, 1);
        assert_eq!(outcome.new_version, 2);
        let after = server.predict("alpha", probe.clone()).unwrap();
        assert_eq!(after.artifact_version, 2);
        // The other tenant is untouched.
        assert_eq!(server.predict("beta", probe).unwrap().artifact_version, 1);
        assert_eq!(before.artifact_version, 1);
        let stats = server.stats("alpha").unwrap();
        assert_eq!(stats.swaps, 1);
        server.shutdown();
    }

    #[test]
    fn unfitted_artifacts_are_rejected_at_boot_and_swap() {
        let (a, _) = fitted(1);
        let unfitted = Method::SrcOnly.build(&AdapterConfig::quick(), 9);
        let err =
            TenantServer::from_artifacts(vec![("a".into(), unfitted)], ServeConfig::default())
                .unwrap_err();
        assert!(matches!(err, ServerError::UnfittedArtifact { .. }), "{err}");

        let server =
            TenantServer::from_artifacts(vec![("a".into(), a)], ServeConfig::default()).unwrap();
        let unfitted = Method::SrcOnly.build(&AdapterConfig::quick(), 9);
        let err = server.swap("a", unfitted).unwrap_err();
        assert!(matches!(err, ServerError::UnfittedArtifact { .. }), "{err}");
        server.shutdown();
    }

    #[test]
    fn tenant_admission_cap_rejects_with_typed_error() {
        let (a, probe) = fitted(1);
        let server = TenantServer::from_artifacts(
            vec![("a".into(), a)],
            ServeConfig {
                shards: Some(1),
                tenant_queue_capacity: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Saturate the single in-flight slot, then keep submitting until
        // admission control pushes back (the worker may drain quickly).
        let mut rejected = false;
        let mut tickets = Vec::new();
        for _ in 0..64 {
            match server.submit("a", probe.clone()) {
                Ok(t) => tickets.push(t),
                Err(RequestError::TenantQueueFull { tenant, capacity }) => {
                    assert_eq!(tenant, "a");
                    assert_eq!(capacity, 1);
                    rejected = true;
                    break;
                }
                Err(other) => panic!("unexpected: {other}"),
            }
        }
        assert!(rejected, "admission cap never fired");
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = server.stats("a").unwrap();
        assert!(stats.rejected >= 1);
        assert_eq!(stats.admitted, stats.completed);
        server.shutdown();
    }

    #[test]
    fn guarded_path_rejects_corrupt_batches_per_request() {
        let (a, probe) = fitted(1);
        let server = TenantServer::from_artifacts(
            vec![("a".into(), a)],
            ServeConfig {
                guard: GuardConfig::default().with_policy(InputPolicy::Reject),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut corrupt = probe.clone();
        corrupt.set(1, 2, f64::NAN);
        let err = server.predict("a", corrupt).unwrap_err();
        match err {
            RequestError::Serve(ServeError::NonFinite { row: 1, col: 2 }) => {}
            other => panic!("unexpected: {other}"),
        }
        // The server keeps serving clean batches afterwards.
        assert!(server.predict("a", probe).is_ok());
        let stats = server.stats("a").unwrap();
        assert_eq!(stats.serve_errors, 1);
        assert_eq!(stats.completed, 2);
        server.shutdown();
    }

    #[test]
    fn f32_fast_precision_config_serves() {
        let (a, probe) = fitted(1);
        // The reference predictions at the default exact precision.
        let exact = a.predict_batch(&probe, Some(1));
        let server = TenantServer::from_artifacts(
            vec![("a".into(), a)],
            ServeConfig {
                predict_precision: InferPrecision::F32Fast,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let served = server.predict("a", probe).unwrap();
        assert_eq!(served.predictions.len(), exact.len());
        // This fixture's artifact has no fast path, so the hint must fall
        // back to the exact pipeline unchanged.
        assert_eq!(served.predictions, exact);
        server.shutdown();
    }

    #[test]
    fn manifest_boot_round_trips_artifacts_from_disk() {
        let (a, probe) = fitted(1);
        let (b, _) = fitted(2);
        let dir = std::env::temp_dir().join(format!("fsda-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.fsda"), a.to_bytes().unwrap()).unwrap();
        std::fs::write(dir.join("b.fsda"), b.to_bytes().unwrap()).unwrap();
        let manifest_path = dir.join("tenants.manifest");
        std::fs::write(&manifest_path, "alpha = a.fsda\nbeta = b.fsda\n").unwrap();

        let manifest = TenantManifest::load(&manifest_path).unwrap();
        let server = TenantServer::from_manifest(&manifest, ServeConfig::default()).unwrap();
        assert!(server.boot_failures().is_empty());
        let direct = a.predict_batch(&probe, Some(1));
        let served = server.predict("alpha", probe).unwrap();
        assert_eq!(served.predictions, direct, "restore is bit-identical");
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_boot_skips_broken_tenants_and_records_them() {
        let (a, probe) = fitted(1);
        let dir =
            std::env::temp_dir().join(format!("fsda-manifest-skip-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("good.fsda"), a.to_bytes().unwrap()).unwrap();
        std::fs::write(dir.join("corrupt.fsda"), b"not an artifact").unwrap();
        // "missing.fsda" is never written: an I/O failure.
        let manifest_path = dir.join("tenants.manifest");
        std::fs::write(
            &manifest_path,
            "alpha = good.fsda\nbroken = corrupt.fsda\ngone = missing.fsda\n",
        )
        .unwrap();

        let manifest = TenantManifest::load(&manifest_path).unwrap();
        let server = TenantServer::from_manifest(&manifest, ServeConfig::default()).unwrap();
        // The fleet is up with the one healthy tenant...
        assert_eq!(server.tenants(), ["alpha".to_string()]);
        assert!(server.predict("alpha", probe).is_ok());
        // ...and both failures are recorded, with their causes.
        let failures = server.boot_failures();
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].tenant, "broken");
        assert!(matches!(
            failures[0].error,
            ServerError::ArtifactRestore { .. }
        ));
        assert_eq!(failures[1].tenant, "gone");
        assert!(matches!(failures[1].error, ServerError::ArtifactIo { .. }));
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_boot_fails_only_when_every_tenant_fails() {
        let dir =
            std::env::temp_dir().join(format!("fsda-manifest-allfail-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.fsda"), b"garbage").unwrap();
        let manifest_path = dir.join("tenants.manifest");
        std::fs::write(&manifest_path, "a = bad.fsda\nb = nowhere.fsda\n").unwrap();
        let manifest = TenantManifest::load(&manifest_path).unwrap();
        let err = TenantServer::from_manifest(&manifest, ServeConfig::default()).unwrap_err();
        assert!(
            matches!(err, ServerError::AllTenantsFailed { failed: 2 }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
