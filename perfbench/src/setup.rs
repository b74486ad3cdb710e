//! Set-up: generate the keys, build the store, save it, open the saved
//! manifest lazily, start the server on it and warm every shard over the
//! wire. Also the resident-memory probe, which runs in a child process so
//! that memory freed by the build cannot hide the growth.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use grafite_core::registry::{FilterSpec, Registry};
use grafite_server::{serve, Client, ServerHandle};
use grafite_store::{FamilySpec, FilterStore, Partitioning, Routing, StoreConfig};
use grafite_workloads::{generate, Dataset};

use crate::Args;

/// Grafite's space budget in the store under test.
pub const BITS_PER_KEY: f64 = 16.0;
/// The store's largest range size; query ranges go up to it.
pub const MAX_RANGE: u64 = 32;
/// Range shards of the store under test.
pub const SHARDS: usize = 64;

/// The store under test.
pub fn store_config() -> StoreConfig {
    StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(BITS_PER_KEY)
        .max_range(MAX_RANGE)
        .partitioning(Partitioning::Range { shards: SHARDS })
}

/// A served store and what the benchmark keeps beside it.
pub struct Served {
    pub handle: ServerHandle,
    pub manifest: PathBuf,
    /// The sorted, deduplicated build keys.
    pub keys: Vec<u64>,
    pub routing: Routing,
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// Sets the server up `repeats` times from scratch and keeps the last one
/// running; every repetition is timed.
pub fn set_up(args: &Args, manifest: &Path, repeats: usize) -> Result<Served, String> {
    let mut setup_s = Vec::with_capacity(repeats);
    let mut last: Option<(ServerHandle, Vec<u64>, Routing)> = None;
    for _ in 0..repeats.max(1) {
        if let Some((handle, _, _)) = last.take() {
            handle.shutdown();
        }
        let started = Instant::now();
        let served = set_up_once(args, manifest)?;
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some(served);
    }
    let (handle, keys, routing) = last.ok_or("no set-up ran")?;
    Ok(Served {
        handle,
        manifest: manifest.to_path_buf(),
        keys,
        routing,
        setup_s,
    })
}

fn set_up_once(args: &Args, manifest: &Path) -> Result<(ServerHandle, Vec<u64>, Routing), String> {
    let registry = Registry::new();
    let keys = generate(Dataset::Uniform, args.keys, args.seed);
    let store =
        FilterStore::build(&registry, store_config(), &keys).map_err(|e| format!("build: {e}"))?;
    let mut out = BufWriter::new(File::create(manifest).map_err(|e| format!("create: {e}"))?);
    store
        .save_to(&mut out)
        .map_err(|e| format!("save_to: {e}"))?;
    out.flush().map_err(|e| format!("save_to: {e}"))?;
    drop(out);
    drop(store);
    let store =
        FilterStore::open_mapped(&registry, manifest).map_err(|e| format!("open_mapped: {e}"))?;
    let routing = store.snapshot().routing().clone();
    let handle = serve(Arc::new(store), "127.0.0.1:0", Some(manifest.to_path_buf()))
        .map_err(|e| format!("serve: {e}"))?;
    warm_up(handle.addr(), &keys, &routing)?;
    Ok((handle, keys, routing))
}

/// One point probe at the first key of every shard, in one frame, so
/// every shard materializes before timing starts.
fn warm_up(addr: SocketAddr, keys: &[u64], routing: &Routing) -> Result<(), String> {
    let probes: Vec<(u64, u64)> = (0..routing.num_shards())
        .filter_map(|s| {
            let (lo, _) = routing.shard_span(s);
            keys.get(keys.partition_point(|&k| k < lo)).map(|&k| (k, k))
        })
        .collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let answers = client
        .query_batch(&probes)
        .map_err(|e| format!("warm-up: {e}"))?;
    if answers.iter().all(|&a| a) {
        Ok(())
    } else {
        Err("warm-up: a present key answered false".into())
    }
}

/// Growth of resident memory, in bytes, from opening `manifest` with
/// `open_mapped` to every shard materialized, measured in a fresh child
/// process (this executable with `--rss-probe`).
pub fn resident_growth_bytes(manifest: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--rss-probe")
        .arg(manifest)
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "rss probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("rss probe output: {e}"))
}

/// The child side of [`resident_growth_bytes`]: prints the growth.
pub fn rss_probe(manifest: &Path) -> Result<(), String> {
    let store = FilterStore::open_mapped(&Registry::new(), manifest)
        .map_err(|e| format!("open_mapped: {e}"))?;
    let snap = store.snapshot();
    let before = vm_rss_bytes()?;
    for shard in snap.shards() {
        std::hint::black_box(shard.filter());
    }
    let after = vm_rss_bytes()?;
    println!("{}", after.saturating_sub(before));
    Ok(())
}

/// This process's resident set size, from `/proc/self/status`.
fn vm_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| "VmRSS missing".into())
}
