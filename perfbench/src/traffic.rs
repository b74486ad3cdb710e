//! The four workloads' client traffic: closed-loop `grafite_server::Client`
//! connections, each sending its next request only after the previous
//! answer arrived and a short seeded pause ([`Pacer`]). Every frame is timed
//! from send to answer, and every answer is kept for the oracle, which
//! checks them after the timed window.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grafite_server::{ApplySummary, Client, ProtocolError};
use grafite_store::Routing;
use grafite_workloads::WorkloadRng;

use crate::inputs::{self, Range, UpdateGen};
use crate::setup::MAX_RANGE;
use crate::trace::Tracer;

/// Probes per `BATCH_QUERY` in `batch_correlated`.
pub const BATCH_SIZE: usize = 4096;
/// Share of `batch_correlated` probes that are correlated empty ranges.
pub const BATCH_EMPTY_SHARE: f64 = 0.8;
/// Probes per reader `BATCH_QUERY` in `update_mix`.
pub const READ_BATCH: usize = 1024;
/// Updates per `APPLY` in `update_mix` (half inserts, half deletes).
pub const APPLY_SIZE: usize = 256;
/// Probes per frame of the false-positive sweep.
pub const SWEEP_FRAME: usize = 65_536;
/// Connections of `single_uncorrelated` (and of `update_mix`: one writer,
/// one reader).
pub const CONNECTIONS: usize = 2;

/// Upper end of the pause before each request, in microseconds: one kernel
/// timer tick at HZ=250.
const MAX_PAUSE_US: u64 = 4_000;

/// The seeded pause a connection takes before each request, outside the
/// timed frame, and the connection's probe rate net of its pauses.
///
/// While the server's per-frame floor is set by a kernel timer (frames
/// take whole 4 ms ticks: 44, 48, 52 ms), answers land on timer ticks, and a closed loop that sends again at once
/// stays in step with the tick: a run's frames lock onto one whole number
/// of ticks, and which one changes from run to run (`BATCH_QUERY(4096)`
/// read 44 ms in some runs and 48 ms in others). A pause of up to one tick
/// spreads the sends over the tick's phase.
struct Pacer {
    rng: WorkloadRng,
    started: Instant,
    paused: Duration,
}

impl Pacer {
    fn new(seed: u64) -> Self {
        Self {
            rng: WorkloadRng::new(seed ^ 0x5EED_9A5E),
            started: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    fn pause(&mut self) {
        let at = Instant::now();
        std::thread::sleep(Duration::from_micros(self.rng.below(MAX_PAUSE_US)));
        self.paused += at.elapsed();
    }

    /// Sets `out.probe_rate`: the connection's probes per second of the
    /// time it did not spend pausing.
    fn finish(&self, out: &mut Phase) {
        let busy = self.started.elapsed().saturating_sub(self.paused);
        out.probe_rate = out.probes as f64 / busy.as_secs_f64().max(1e-9);
    }
}

/// One answered (or failed) read frame.
pub struct ReadRec {
    /// Request id shared by the frame's spans (0 when untraced).
    pub id: u64,
    pub queries: Arc<[Range]>,
    pub answers: Result<Vec<bool>, ProtocolError>,
    /// The store versions the server may have answered from: the last
    /// acknowledged version before the frame was sent, up to one past the
    /// last acknowledged once the answer arrived.
    pub v_lo: u64,
    pub v_hi: u64,
}

/// One `APPLY` frame and its outcome.
pub struct ApplyRec {
    pub updates: Vec<(bool, u64)>,
    pub result: Result<ApplySummary, ProtocolError>,
}

/// What one timed phase produced.
#[derive(Default)]
pub struct Phase {
    pub reads: Vec<ReadRec>,
    pub applies: Vec<ApplyRec>,
    /// Latency of every read frame, in microseconds.
    pub read_us: Vec<f64>,
    /// Latency of the workload's defining operation, in microseconds.
    pub op_us: Vec<f64>,
    /// `cold_start`: `RELOAD` sent to the last shard answered, in ms.
    pub sweep_ms: Vec<f64>,
    /// Probes answered inside the timed window.
    pub probes: u64,
    /// Probes per second, summed over the connections, each net of its
    /// pauses.
    pub probe_rate: f64,
    pub elapsed_s: f64,
    /// `RELOAD` frames answered.
    pub reloads: u64,
    /// Failed operations other than read and `APPLY` frames (connects,
    /// reloads).
    pub errors: Vec<String>,
    /// The store version the phase ended at.
    pub version: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.reads.extend(other.reads);
        self.applies.extend(other.applies);
        self.read_us.extend(other.read_us);
        self.op_us.extend(other.op_us);
        self.sweep_ms.extend(other.sweep_ms);
        self.probes += other.probes;
        self.probe_rate += other.probe_rate;
        self.reloads += other.reloads;
        self.errors.extend(other.errors);
        self.version = self.version.max(other.version);
    }
}

/// One shard's cold-start probe candidates.
pub struct ShardProbes {
    pub full: Vec<Range>,
    pub empty: Vec<Range>,
}

/// A workload's generated requests.
pub enum Traffic<'a> {
    /// Single `QUERY` frames over uncorrelated empty ranges.
    Single(Vec<Arc<[Range]>>),
    /// `BATCH_QUERY` frames of correlated empty and non-empty ranges.
    Batch(Vec<Arc<[Range]>>),
    /// The reader's probe pool, and the writer's batches.
    Update(Vec<Range>, UpdateGen<'a>),
    /// Per-shard probes for the reload cycles.
    Cold(Vec<ShardProbes>),
}

/// What every workload loop needs.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub manifest: &'a Path,
    pub seed: u64,
    pub tracer: &'a Tracer,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// Runs `traffic` for `seconds`, starting from store version `version`.
pub fn run(
    ctx: &Ctx<'_>,
    traffic: &mut Traffic<'_>,
    seconds: f64,
    version: u64,
    parent: u64,
) -> Phase {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut phase = match traffic {
        Traffic::Single(pool) => single(ctx, pool, deadline, parent),
        Traffic::Batch(pool) => batch(ctx, pool, deadline, parent),
        Traffic::Update(pool, gen) => update_mix(ctx, pool, gen, deadline, version, parent),
        Traffic::Cold(shards) => cold_start(ctx, shards, deadline, parent),
    };
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase.version = phase.version.max(version);
    phase
}

/// Sends one read frame, timing it and keeping its answers.
fn read_frame(
    ctx: &Ctx<'_>,
    client: &mut Client,
    queries: &Arc<[Range]>,
    parent: u64,
    out: &mut Phase,
) -> (ReadRec, bool) {
    let id = ctx.tracer.fresh_id();
    let (name, single) = match queries.len() {
        1 => ("server.query", true),
        _ => ("server.batch_query", false),
    };
    let span = ctx.tracer.open(name, parent, id);
    let answers = if single {
        client
            .query(queries[0].0, queries[0].1)
            .map(|hit| vec![hit])
    } else {
        client.query_batch(queries)
    };
    let end = Instant::now();
    ctx.tracer.record(span, end);
    out.read_us.push(us(end - span.start));
    let broken = matches!(answers, Err(ProtocolError::Io(_)));
    if answers.is_ok() {
        out.probes += queries.len() as u64;
    }
    let rec = ReadRec {
        id,
        queries: Arc::clone(queries),
        answers,
        v_lo: 0,
        v_hi: 0,
    };
    (rec, broken)
}

fn single(ctx: &Ctx<'_>, pool: &[Arc<[Range]>], deadline: Instant, parent: u64) -> Phase {
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Phase::default();
                    let mut client = match connect(ctx.addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.errors.push(e);
                            return out;
                        }
                    };
                    let mut i = t;
                    let mut pacer = Pacer::new(ctx.seed ^ t as u64);
                    while Instant::now() < deadline {
                        pacer.pause();
                        let (rec, broken) =
                            read_frame(ctx, &mut client, &pool[i % pool.len()], parent, &mut out);
                        out.reads.push(rec);
                        i += CONNECTIONS;
                        if broken {
                            break;
                        }
                    }
                    pacer.finish(&mut out);
                    out
                })
            })
            .collect();
        for w in workers {
            phase.absorb(w.join().expect("query connection panicked"));
        }
    });
    phase.op_us = phase.read_us.clone();
    phase
}

fn batch(ctx: &Ctx<'_>, pool: &[Arc<[Range]>], deadline: Instant, parent: u64) -> Phase {
    let mut out = Phase::default();
    let mut client = match connect(ctx.addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut i = 0;
    let mut pacer = Pacer::new(ctx.seed);
    while Instant::now() < deadline {
        pacer.pause();
        let (rec, broken) = read_frame(ctx, &mut client, &pool[i % pool.len()], parent, &mut out);
        out.reads.push(rec);
        i += 1;
        if broken {
            break;
        }
    }
    pacer.finish(&mut out);
    out.op_us = out.read_us.clone();
    out
}

/// What the writer has had acknowledged: the version and the keys the
/// last batch inserted.
struct Acked {
    version: u64,
    fresh: Vec<u64>,
}

fn update_mix(
    ctx: &Ctx<'_>,
    pool: &[Range],
    gen: &mut UpdateGen<'_>,
    deadline: Instant,
    version: u64,
    parent: u64,
) -> Phase {
    let acked = Mutex::new(Acked {
        version,
        fresh: Vec::new(),
    });
    let acked = &acked;
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut out = Phase::default();
            let mut client = match connect(ctx.addr) {
                Ok(c) => c,
                Err(e) => {
                    out.errors.push(e);
                    return out;
                }
            };
            let mut pacer = Pacer::new(ctx.seed ^ 0x0A99);
            while Instant::now() < deadline {
                pacer.pause();
                let updates = gen.next_batch();
                let span = ctx
                    .tracer
                    .open("server.apply", parent, ctx.tracer.fresh_id());
                let result = client.apply(&updates);
                let end = Instant::now();
                ctx.tracer.record(span, end);
                out.op_us.push(us(end - span.start));
                let broken = matches!(result, Err(ProtocolError::Io(_)));
                if let Ok(summary) = &result {
                    let mut a = acked.lock().expect("ack lock poisoned");
                    a.version = summary.version;
                    a.fresh = updates.iter().filter(|u| u.0).map(|u| u.1).collect();
                    out.version = summary.version;
                }
                out.applies.push(ApplyRec { updates, result });
                if broken {
                    break;
                }
            }
            out
        });
        let reader = s.spawn(move || {
            let mut out = Phase::default();
            let mut client = match connect(ctx.addr) {
                Ok(c) => c,
                Err(e) => {
                    out.errors.push(e);
                    return out;
                }
            };
            let mut rng = WorkloadRng::new(ctx.seed ^ 0x5EED_0EAD);
            let mut at = 0;
            let mut pacer = Pacer::new(ctx.seed);
            while Instant::now() < deadline {
                pacer.pause();
                let (v_lo, fresh) = {
                    let a = acked.lock().expect("ack lock poisoned");
                    (a.version, a.fresh.clone())
                };
                // Ranges over the keys whose insert was just acknowledged,
                // then the uncorrelated / non-empty mix.
                let mut queries: Vec<Range> = fresh
                    .iter()
                    .take(READ_BATCH)
                    .map(|&k| inputs::range_at(k, &mut rng, MAX_RANGE))
                    .collect();
                while queries.len() < READ_BATCH {
                    queries.push(pool[at % pool.len()]);
                    at += 1;
                }
                let queries: Arc<[Range]> = queries.into();
                let (mut rec, broken) = read_frame(ctx, &mut client, &queries, parent, &mut out);
                rec.v_lo = v_lo;
                rec.v_hi = acked.lock().expect("ack lock poisoned").version + 1;
                out.reads.push(rec);
                if broken {
                    break;
                }
            }
            pacer.finish(&mut out);
            out
        });
        phase.absorb(writer.join().expect("writer panicked"));
        phase.absorb(reader.join().expect("reader panicked"));
    });
    phase
}

/// One reload cycle's probe order: the first probe is non-empty on the
/// middle shard, the other shards follow in seeded random order, and half
/// of all probes are non-empty.
///
/// The first answer waits for the shards the audit loads before the probed
/// one, so its time grows with the shard's position. A 20 s window holds
/// only seven cycles; with the first shard fixed, their median compares
/// like with like, where first shards spread over the positions made the
/// median hang on whichever cycle probed near the middle.
fn cycle_order(seed: u64, cycle: u64, shards: usize) -> Vec<(usize, bool)> {
    let first = shards / 2;
    let mut rng = WorkloadRng::new(seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rest: Vec<usize> = (0..shards).filter(|&s| s != first).collect();
    inputs::shuffle(&mut rest, &mut rng);
    let mut full = vec![false; rest.len()];
    for f in full.iter_mut().take((shards / 2).saturating_sub(1)) {
        *f = true;
    }
    inputs::shuffle(&mut full, &mut rng);
    std::iter::once((first, true))
        .chain(rest.into_iter().zip(full))
        .collect()
}

fn cold_start(ctx: &Ctx<'_>, shards: &[ShardProbes], deadline: Instant, parent: u64) -> Phase {
    let mut out = Phase::default();
    let mut client = match connect(ctx.addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let manifest = ctx.manifest.to_string_lossy().into_owned();
    let mut cycle = 0u64;
    // One pause per cycle, before its RELOAD: the cycle's probes follow
    // back to back, since their times from the RELOAD are the measure.
    let mut pacer = Pacer::new(ctx.seed);
    while Instant::now() < deadline {
        pacer.pause();
        let order = cycle_order(ctx.seed, cycle, shards.len());
        let id = ctx.tracer.fresh_id();
        let span = ctx.tracer.open("server.reload", parent, id);
        let started = span.start;
        let reloaded = client.reload(Some(&manifest));
        ctx.tracer.close(span);
        if let Err(e) = reloaded {
            out.errors.push(format!("reload: {e}"));
            break;
        }
        out.reloads += 1;
        for (i, &(shard, full)) in order.iter().enumerate() {
            let candidates = match full {
                true => &shards[shard].full,
                false => &shards[shard].empty,
            };
            let q: Arc<[Range]> = Arc::new([candidates[cycle as usize % candidates.len()]]);
            let (rec, broken) = read_frame(ctx, &mut client, &q, parent, &mut out);
            out.reads.push(rec);
            if broken {
                return out;
            }
            if i == 0 {
                out.op_us.push(us(started.elapsed()));
            }
        }
        out.sweep_ms.push(started.elapsed().as_secs_f64() * 1e3);
        cycle += 1;
    }
    pacer.finish(&mut out);
    out
}

/// Per-shard cold-start candidates: ranges starting at keys of the shard,
/// and empty ranges lying inside it.
pub fn cold_probes(
    keys: &[u64],
    routing: &Routing,
    empty_pool: &[Range],
    max_range: u64,
    seed: u64,
) -> Vec<ShardProbes> {
    const PER_SHARD: usize = 8;
    let mut rng = WorkloadRng::new(seed ^ 0x5EED_0C01);
    let mut out: Vec<ShardProbes> = (0..routing.num_shards())
        .map(|s| {
            let (lo, hi) = routing.shard_span(s);
            let from = keys.partition_point(|&k| k < lo);
            let to = keys.partition_point(|&k| k <= hi).max(from + 1);
            let full = (0..PER_SHARD)
                .map(|_| {
                    let at = from + rng.below((to - from) as u64) as usize;
                    let key = keys[at.min(keys.len() - 1)];
                    let (a, b) = inputs::range_at(key, &mut rng, max_range);
                    (a, b.min(hi))
                })
                .collect();
            ShardProbes {
                full,
                empty: Vec::new(),
            }
        })
        .collect();
    for &(a, b) in empty_pool {
        let s = routing.shard_of(a);
        if s == routing.shard_of(b) && out[s].empty.len() < PER_SHARD {
            out[s].empty.push((a, b));
        }
    }
    // A shard the pool missed falls back to a point probe one past its
    // first key: still a single-shard probe, answered by the oracle.
    for (s, probes) in out.iter_mut().enumerate() {
        if probes.empty.is_empty() {
            let (lo, _) = routing.shard_span(s);
            probes.empty.push((lo, lo));
        }
    }
    out
}

/// Sends `ranges` in [`SWEEP_FRAME`]-probe frames outside the timed
/// window; the oracle counts their false positives.
pub fn fp_sweep(ctx: &Ctx<'_>, ranges: &[Range], version: u64, parent: u64) -> Phase {
    let mut out = Phase::default();
    let mut client = match connect(ctx.addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    for chunk in ranges.chunks(SWEEP_FRAME) {
        let queries: Arc<[Range]> = chunk.into();
        let (mut rec, broken) = read_frame(ctx, &mut client, &queries, parent, &mut out);
        rec.v_lo = version;
        rec.v_hi = version;
        out.reads.push(rec);
        if broken {
            break;
        }
    }
    out.version = version;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cycles_probe_every_shard_once_half_non_empty() {
        for cycle in 0..20 {
            let order = cycle_order(42, cycle, 64);
            assert_eq!(
                order[0],
                (32, true),
                "the first probe is on the middle shard"
            );
            let mut seen: Vec<usize> = order.iter().map(|p| p.0).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
            assert_eq!(order.iter().filter(|p| p.1).count(), 32);
        }
    }
}
