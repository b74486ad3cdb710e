//! Per-layer timings for the traced run: the benchmark's own calls into
//! each layer's public functions, on the workload's inputs, each wrapped
//! in a span under one `bench.layers` root.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use grafite_core::registry::{FilterSpec, Registry};
use grafite_core::{sort, FilterConfig, GrafiteFilter, Parallelism, RangeFilter, DEFAULT_SEED};
use grafite_hash::LocalityHash;
use grafite_server::protocol;
use grafite_store::{FamilySpec, FilterStore, Snapshot, Update};
use grafite_succinct::EliasFano;

use crate::inputs::Range;
use crate::setup::{BITS_PER_KEY, MAX_RANGE};
use crate::summary::median;
use crate::trace::Tracer;

/// Timed repetitions per measurement; the median is reported.
const ROUNDS: usize = 5;
/// Round trips per loopback echo measurement.
const ECHO_ROUNDS: usize = 1000;
/// Update batches applied on the twin store.
const MAX_APPLIES: usize = 32;

/// What the layer measurements run on.
pub struct Inputs<'a> {
    pub keys: &'a [u64],
    pub manifest: &'a Path,
    /// A warm snapshot of the served version.
    pub snap: Arc<Snapshot>,
    /// The workload's read frames.
    pub reads: &'a [Arc<[Range]>],
    /// The workload's update batches.
    pub updates: &'a [Vec<(bool, u64)>],
}

/// One measured number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Times `f` [`ROUNDS`] times in spans named `name` under `parent`;
/// returns the median nanoseconds per item.
fn per_item_ns(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    items: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let span = tracer.open(name, parent, 0);
        f();
        let end = Instant::now();
        tracer.record(span, end);
        samples.push((end - span.start).as_nanos() as f64 / items.max(1) as f64);
    }
    median(&samples)
}

/// Median round trip, in microseconds, of a `request`-byte frame answered
/// by a `response`-byte frame over raw loopback TCP with nodelay set.
pub fn loopback_rtt_us(
    tracer: &Tracer,
    parent: u64,
    request: usize,
    response: usize,
) -> Result<f64, String> {
    let span = tracer.open("net.echo", parent, 0);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("echo addr: {e}"))?;
    let samples = std::thread::scope(|s| -> Result<Vec<f64>, String> {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut frame = vec![0u8; request];
            let reply = vec![1u8; response];
            loop {
                match stream.read_exact(&mut frame) {
                    Ok(()) => stream.write_all(&reply)?,
                    Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let measured = (|| -> std::io::Result<Vec<f64>> {
            let mut client = TcpStream::connect(addr)?;
            client.set_nodelay(true)?;
            let frame = vec![2u8; request];
            let mut reply = vec![0u8; response];
            let mut samples = Vec::with_capacity(ECHO_ROUNDS);
            for _ in 0..ECHO_ROUNDS {
                let started = Instant::now();
                client.write_all(&frame)?;
                client.read_exact(&mut reply)?;
                samples.push(started.elapsed().as_secs_f64() * 1e6);
            }
            Ok(samples)
        })();
        let echoed = echo.join().expect("echo thread panicked");
        let samples = measured.map_err(|e| format!("echo client: {e}"))?;
        echoed.map_err(|e| format!("echo server: {e}"))?;
        Ok(samples)
    })?;
    tracer.close(span);
    Ok(median(&samples))
}

/// The shard most of the workload's probes route to.
fn busiest_shard(snap: &Snapshot, reads: &[Arc<[Range]>]) -> usize {
    let mut hits = vec![0usize; snap.num_shards()];
    for &(a, _) in reads.iter().flat_map(|r| r.iter()) {
        hits[snap.routing().shard_of(a)] += 1;
    }
    (0..hits.len()).max_by_key(|&s| hits[s]).unwrap_or(0)
}

/// Measures every layer below the server. `frame` is the workload's read
/// frame size in probes.
pub fn measure(
    inp: &Inputs<'_>,
    frame: usize,
    tracer: &Tracer,
    parent: u64,
) -> Result<Vec<Metric>, String> {
    let registry = Registry::new();
    let mut out = Vec::new();
    let probes: Vec<Range> = inp.reads.iter().flat_map(|r| r.iter().copied()).collect();
    let snap = &inp.snap;

    // protocol: batch encoding and decoding of the workload's frames.
    let encoded: Vec<Vec<u8>> = inp
        .reads
        .iter()
        .map(|r| protocol::encode_batch(r).map_err(|e| format!("encode_batch: {e}")))
        .collect::<Result<_, _>>()?;
    let encode = per_item_ns(
        tracer,
        "protocol.encode_batch",
        parent,
        probes.len(),
        || {
            for r in inp.reads {
                std::hint::black_box(protocol::encode_batch(r).ok());
            }
        },
    );
    let decode = per_item_ns(
        tracer,
        "protocol.decode_batch",
        parent,
        probes.len(),
        || {
            for bytes in &encoded {
                std::hint::black_box(protocol::decode_batch(bytes).ok());
            }
        },
    );
    out.push(metric("protocol.encode_batch_ns_per_probe", encode, "ns"));
    out.push(metric("protocol.decode_batch_ns_per_probe", decode, "ns"));

    // store: routed probes, one at a time and by frame.
    let probe = per_item_ns(
        tracer,
        "store.may_contain_range",
        parent,
        probes.len(),
        || {
            for &(a, b) in &probes {
                std::hint::black_box(snap.may_contain_range(a, b));
            }
        },
    );
    let mut answers = Vec::new();
    let batch = per_item_ns(tracer, "store.query_ranges", parent, probes.len(), || {
        for r in inp.reads {
            snap.query_ranges(r, &mut answers);
            std::hint::black_box(&answers);
        }
    });
    out.push(metric("store.probe_ns", probe, "ns"));
    out.push(metric("store.batch_ns_per_probe", batch, "ns"));

    // store: apply on a warm twin of the served manifest.
    let twin =
        FilterStore::open_mapped(&registry, inp.manifest).map_err(|e| format!("twin: {e}"))?;
    std::hint::black_box(twin.snapshot().serialized_bits());
    let (mut apply_us, mut dirty, mut rebuilt) = (Vec::new(), 0usize, 0usize);
    for batch in inp.updates.iter().take(MAX_APPLIES) {
        let updates: Vec<Update> = batch
            .iter()
            .map(|&(insert, key)| {
                if insert {
                    Update::Insert(key)
                } else {
                    Update::Delete(key)
                }
            })
            .collect();
        let span = tracer.open("store.apply", parent, 0);
        let report = twin
            .apply(&updates)
            .map_err(|e| format!("twin apply: {e}"))?;
        let end = Instant::now();
        tracer.record(span, end);
        apply_us.push((end - span.start).as_secs_f64() * 1e6);
        dirty += report.dirty_shards;
        rebuilt += report.rebuilt_keys;
    }
    let applies = apply_us.len().max(1) as f64;
    out.push(metric("store.apply_us", median(&apply_us), "us"));
    out.push(metric(
        "store.dirty_shards_per_apply",
        dirty as f64 / applies,
        "count",
    ));
    out.push(metric(
        "store.rebuilt_keys_per_apply",
        rebuilt as f64 / applies,
        "count",
    ));
    drop(twin);

    // store: the lazy open, and first touch minus warm probe per shard.
    let mut open_us = Vec::with_capacity(ROUNDS);
    let mut fresh = None;
    for _ in 0..ROUNDS {
        let span = tracer.open("store.open_mapped", parent, 0);
        let store = FilterStore::open_mapped(&registry, inp.manifest)
            .map_err(|e| format!("open_mapped: {e}"))?;
        let end = Instant::now();
        tracer.record(span, end);
        open_us.push((end - span.start).as_secs_f64() * 1e6);
        fresh = Some(store);
    }
    out.push(metric("store.open_mapped_us", median(&open_us), "us"));
    let fresh = fresh.ok_or("no open_mapped round ran")?;
    let cold = fresh.snapshot();
    let mut materialize = Vec::with_capacity(cold.num_shards());
    let span = tracer.open("store.materialize", parent, 0);
    for s in 0..cold.num_shards() {
        let (lo, _) = cold.routing().shard_span(s);
        let key = inp.keys[inp
            .keys
            .partition_point(|&k| k < lo)
            .min(inp.keys.len() - 1)];
        let t0 = Instant::now();
        std::hint::black_box(cold.may_contain_range(key, key));
        let t1 = Instant::now();
        std::hint::black_box(cold.may_contain_range(key, key));
        let t2 = Instant::now();
        materialize.push(((t1 - t0).as_secs_f64() - (t2 - t1).as_secs_f64()) * 1e6);
    }
    tracer.close(span);
    out.push(metric("store.materialize_us", median(&materialize), "us"));

    // core: the busiest shard's filter, with the probes clamped to it.
    let shard = busiest_shard(snap, inp.reads);
    let (lo, hi) = snap.routing().shard_span(shard);
    let clamped: Vec<Range> = probes
        .iter()
        .filter(|&&(a, b)| a <= hi && b >= lo)
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .collect();
    let filter = snap.shards()[shard].filter();
    let filter_probe = per_item_ns(
        tracer,
        "core.may_contain_range",
        parent,
        clamped.len(),
        || {
            for &(a, b) in &clamped {
                std::hint::black_box(filter.may_contain_range(a, b));
            }
        },
    );
    let filter_batch = per_item_ns(
        tracer,
        "core.may_contain_ranges",
        parent,
        clamped.len(),
        || {
            for chunk in clamped.chunks(frame.max(1)) {
                filter.may_contain_ranges(chunk, &mut answers);
                std::hint::black_box(&answers);
            }
        },
    );
    let positives = clamped
        .iter()
        .filter(|&&(a, b)| filter.may_contain_range(a, b))
        .count();
    out.push(metric("core.filter_probe_ns", filter_probe, "ns"));
    out.push(metric("core.filter_batch_ns_per_probe", filter_batch, "ns"));
    out.push(metric(
        "core.positive_rate",
        positives as f64 / clamped.len().max(1) as f64,
        "ratio",
    ));

    // core, hash, succinct: the build pipeline on the shard's keys.
    let keys = snap.shards()[shard].keys();
    let parallelism = Parallelism::auto();
    let cfg = FilterConfig::new(keys)
        .bits_per_key(BITS_PER_KEY)
        .max_range(MAX_RANGE)
        .seed(DEFAULT_SEED)
        .parallelism(parallelism);
    let family = FamilySpec::Registry(FilterSpec::Grafite);
    let mut built = Ok(());
    let build = per_item_ns(tracer, "core.shard_build", parent, keys.len(), || {
        if let Err(e) = family.build(&registry, &cfg) {
            built = Err(format!("shard build: {e}"));
        }
    });
    built?;
    let r = GrafiteFilter::builder()
        .bits_per_key(BITS_PER_KEY)
        .seed(DEFAULT_SEED)
        .build(keys)
        .map_err(|e| format!("grafite build: {e}"))?
        .reduced_universe();
    let h = LocalityHash::from_seed(DEFAULT_SEED, r);
    let mut codes = Vec::with_capacity(keys.len());
    let eval = per_item_ns(tracer, "hash.eval", parent, keys.len(), || {
        codes.clear();
        codes.extend(keys.iter().map(|&k| h.eval(k)));
        std::hint::black_box(&codes);
    });
    let mut sorted = codes.clone();
    let sort_ns = per_item_ns(tracer, "core.sort", parent, codes.len(), || {
        sorted.copy_from_slice(&codes);
        sort::partition_radix_sort(&mut sorted, parallelism.threads());
    });
    sorted.dedup();
    let ef_build = per_item_ns(tracer, "succinct.ef_build", parent, sorted.len(), || {
        std::hint::black_box(EliasFano::new(&sorted, r));
    });
    let ef = EliasFano::new(&sorted, r);
    let targets: Vec<u64> = clamped.iter().map(|&(a, _)| h.eval(a)).collect();
    let pred = per_item_ns(
        tracer,
        "succinct.predecessor",
        parent,
        targets.len(),
        || {
            for &y in &targets {
                std::hint::black_box(ef.predecessor(y));
            }
        },
    );
    out.push(metric("core.shard_build_ns_per_key", build, "ns"));
    out.push(metric("core.sort_ns_per_key", sort_ns, "ns"));
    out.push(metric("hash.locality_eval_ns", eval, "ns"));
    out.push(metric("succinct.ef_predecessor_ns", pred, "ns"));
    out.push(metric("succinct.ef_build_ns_per_key", ef_build, "ns"));
    Ok(out)
}
