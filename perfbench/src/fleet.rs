//! Set-up shared by every workload (generate, FS+GAN fit, persist, restore
//! the fleet, boot the server) and the correctness check against freshly
//! restored artifacts.

use crate::stats::median_of;
use fsda_core::adapter::AdapterConfig;
use fsda_core::pipeline::{restore, DriftMitigator};
use fsda_core::Method;
use fsda_data::fewshot::few_shot_subset;
use fsda_data::synth5gc::{Synth5gc, Synth5gcBundle};
use fsda_linalg::{Matrix, SeededRng};
use fsda_serve::server::{ServeConfig, TenantServer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Few-shot target samples per class for the set-up fit and every re-fit.
pub const SHOTS_PER_CLASS: usize = 5;

/// GAN epochs per fit. `AdapterConfig::quick()` trains 150; a fifth of that
/// keeps each fit, and so each run's set-up and detect→swap cycle, short
/// enough for the benchmark's run count on a 2-core host. Network shapes,
/// and so every serving cost, are those of the quick preset.
pub const GAN_EPOCHS: usize = 30;

/// The fit configuration: the quick preset with [`GAN_EPOCHS`].
pub fn config() -> AdapterConfig {
    let mut config = AdapterConfig::quick();
    config.budget.gan_epochs = GAN_EPOCHS;
    config
}

/// Seed of the generated data and of the set-up fit, the same on every run.
/// The number of variant features, and with it the generator's shapes,
/// comes out of the data (15 to 17 of 110 across seeds), and at batch 1024
/// one variant feature more or less moves request latency by up to a fifth.
/// A fixed model keeps that out of the run-to-run spread; `--seed` draws
/// the traffic (see `workload::shuffled`) and the re-fits.
pub const DATA_SEED: u64 = 2;

/// A booted server and the artifact every tenant started from.
pub struct Fleet {
    pub server: Arc<TenantServer>,
    pub tenants: Vec<String>,
    pub boot_bytes: Vec<u8>,
}

/// Generates the data, fits FS+GAN, persists it, restores one copy per
/// tenant and boots the server. Returns the set-up wall time in seconds.
pub fn setup(seed: u64, tenants: &[&str]) -> (Synth5gcBundle, Fleet, f64) {
    let start = Instant::now();
    let bundle = Synth5gc::small()
        .generate(seed)
        .expect("Synth5gc::small generates for every seed");
    let mut rng = SeededRng::new(seed ^ 0x5107);
    let shots = few_shot_subset(&bundle.target_pool, SHOTS_PER_CLASS, &mut rng)
        .expect("the target pool holds enough shots per class");
    let mut fitted = Method::FsGan.build(&config(), seed ^ 0xF17);
    fitted
        .fit(&bundle.source_train, &shots)
        .expect("FS+GAN fits the generated source");
    let boot_bytes = fitted
        .to_bytes()
        .expect("a fitted FS+GAN artifact persists");
    let artifacts = tenants
        .iter()
        .map(|t| {
            let artifact = restore(&boot_bytes).expect("a fresh artifact restores");
            (t.to_string(), artifact)
        })
        .collect();
    let server = TenantServer::from_artifacts(artifacts, ServeConfig::default())
        .expect("the fleet boots from valid artifacts");
    let setup_s = start.elapsed().as_secs_f64();
    println!(
        "fitted FS+GAN: {} of {} features variant",
        fitted.variant_features().map_or(0, |v| v.len()),
        bundle.source_train.num_features()
    );
    let fleet = Fleet {
        server: Arc::new(server),
        tenants: tenants.iter().map(|t| t.to_string()).collect(),
        boot_bytes,
    };
    (bundle, fleet, setup_s)
}

/// Runs [`setup`] from [`DATA_SEED`] `times` times, each fleet shut down
/// before the next is built, and keeps the last. Returns the median set-up
/// time in seconds.
pub fn setup_median(tenants: &[&str], times: usize) -> (Synth5gcBundle, Fleet, f64) {
    let mut setup_s = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous fleet first: its shard threads join on drop.
        drop(last.take());
        let (bundle, fleet, s) = setup(DATA_SEED, tenants);
        setup_s.push(s);
        last = Some((bundle, fleet));
    }
    println!("setup: {} runs, {setup_s:.4?} s", setup_s.len());
    let (bundle, fleet) = last.expect("at least one set-up ran");
    (bundle, fleet, median_of(&setup_s))
}

/// The bytes of every artifact version each tenant has served.
#[derive(Default)]
pub struct Book {
    versions: BTreeMap<(String, u64), Vec<u8>>,
}

impl Book {
    /// A book where every tenant serves `bytes` as version 1.
    pub fn booted(fleet: &Fleet) -> Self {
        let mut book = Book::default();
        for t in &fleet.tenants {
            book.record(t, 1, fleet.boot_bytes.clone());
        }
        book
    }

    pub fn record(&mut self, tenant: &str, version: u64, bytes: Vec<u8>) {
        self.versions.insert((tenant.to_string(), version), bytes);
    }

    fn bytes(&self, tenant: &str, version: u64) -> Option<&[u8]> {
        self.versions
            .get(&(tenant.to_string(), version))
            .map(Vec::as_slice)
    }
}

/// One served response kept for the correctness check.
pub struct Served {
    pub tenant: String,
    pub batch: Matrix,
    pub version: u64,
    pub labels: Vec<usize>,
}

/// Checks each sampled response against `predict_batch` of a freshly
/// restored copy of the artifact version it names. Returns the number of
/// responses checked, or a description of the first mismatch.
pub fn check(book: &Book, sample: &[Served]) -> Result<usize, String> {
    let mut fresh: BTreeMap<(String, u64), Box<dyn DriftMitigator>> = BTreeMap::new();
    for s in sample {
        let key = (s.tenant.clone(), s.version);
        if !fresh.contains_key(&key) {
            let bytes = book.bytes(&s.tenant, s.version).ok_or_else(|| {
                format!("{} served unknown artifact version {}", s.tenant, s.version)
            })?;
            let artifact = restore(bytes)
                .map_err(|e| format!("{} version {} fails to restore: {e}", s.tenant, s.version))?;
            fresh.insert(key.clone(), artifact);
        }
        let expected = fresh[&key].predict_batch(&s.batch, None);
        if expected != s.labels {
            return Err(format!(
                "{} version {}: served labels differ from a fresh restore on a {}-row batch",
                s.tenant,
                s.version,
                s.batch.rows()
            ));
        }
    }
    Ok(sample.len())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
