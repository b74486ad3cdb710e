//! `perfbench` — the serving benchmark.
//!
//! One command sets up a Grafite `FilterStore` (build, `save_to`,
//! `open_mapped`), serves it with `grafite_server::serve` in this process,
//! and drives it with closed-loop `grafite_server::Client` connections over
//! loopback TCP. The store is fixed: Grafite at 16 bits/key, `max_range`
//! 32, 64 range shards (see `setup`). Every answer is checked against a twin store opened from
//! the same manifest. The last line of standard output is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`); the lines before it print every metric by name
//! with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--keys N] [--sweep N] [--setups N] [--out-dir DIR]
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use grafite_server::Client;
use grafite_workloads::WorkloadRng;

mod inputs;
mod layers;
mod oracle;
mod setup;
mod summary;
mod trace;
mod traffic;

use inputs::{Range, UpdateGen};
use layers::Metric;
use oracle::Oracle;
use setup::{BITS_PER_KEY, MAX_RANGE, SHARDS};
use summary::{binomial_lower, median, quantile, tail};
use trace::Tracer;
use traffic::{Phase, Traffic};

const USAGE: &str =
    "usage: perfbench --workload <single_uncorrelated|batch_correlated|update_mix|cold_start> \
--seed <n> --seconds <s> --trace <0|1> [--keys N] [--sweep N] [--setups N] [--out-dir DIR]";

/// One-sided level of the exact binomial lower limit that is compared with
/// the paper's bound. A run makes one comparison per range size plus the
/// pooled one, and Grafite's rate sits right at its bound, so each
/// comparison needs a false alarm rate near 1e-6 for the run to keep one
/// below 1e-4.
const FP_BOUND_ALPHA: f64 = 1e-6;
/// Ranges in a workload's generated query pool.
const POOL: usize = 100_000;
/// Batches in `batch_correlated`'s pool.
const BATCH_POOL: usize = 32;

/// The four workloads, under the names `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SingleUncorrelated,
    BatchCorrelated,
    UpdateMix,
    ColdStart,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "single_uncorrelated" => Some(Self::SingleUncorrelated),
            "batch_correlated" => Some(Self::BatchCorrelated),
            "update_mix" => Some(Self::UpdateMix),
            "cold_start" => Some(Self::ColdStart),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::SingleUncorrelated => "single_uncorrelated",
            Self::BatchCorrelated => "batch_correlated",
            Self::UpdateMix => "update_mix",
            Self::ColdStart => "cold_start",
        }
    }

    /// Probes per read frame.
    fn read_frame(self) -> usize {
        match self {
            Self::SingleUncorrelated | Self::ColdStart => 1,
            Self::BatchCorrelated => traffic::BATCH_SIZE,
            Self::UpdateMix => traffic::READ_BATCH,
        }
    }

    /// The STATS verb of the read frames.
    fn read_verb(self) -> &'static str {
        match self.read_frame() {
            1 => "query",
            _ => "batch_query",
        }
    }

    /// Correlation degree of the empty ranges probed (`None`: uncorrelated).
    fn degree(self) -> Option<f64> {
        match self {
            Self::BatchCorrelated => Some(inputs::CORRELATION),
            _ => None,
        }
    }
}

/// The command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub keys: usize,
    /// Empty ranges probed after the timed window for the FP count.
    pub sweep: usize,
    /// Set-ups per run; the median time is reported.
    pub setups: usize,
    pub out_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        fn num<T: std::str::FromStr>(
            flags: &BTreeMap<String, String>,
            name: &str,
            default: Option<T>,
        ) -> Result<T, String> {
            match (flags.get(name), default) {
                (Some(v), _) => v.parse().map_err(|_| format!("--{name}: cannot parse {v}")),
                (None, Some(d)) => Ok(d),
                (None, None) => Err(format!("--{name} is required")),
            }
        }
        let workload = flags.get("workload").ok_or("--workload is required")?;
        let args = Self {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload}"))?,
            seed: num(&flags, "seed", None)?,
            seconds: num(&flags, "seconds", None)?,
            trace: match flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
            keys: num(&flags, "keys", Some(2_000_000))?,
            sweep: num(&flags, "sweep", Some(3_000_000))?,
            setups: num(&flags, "setups", Some(9))?,
            out_dir: flags
                .get("out-dir")
                .map(PathBuf::from)
                .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out")),
        };
        if args.seconds.is_nan() || args.seconds <= 0.0 || args.keys < 2 * SHARDS {
            return Err(format!(
                "need --seconds > 0 and --keys of at least {}",
                2 * SHARDS
            ));
        }
        if let Some(unknown) = flags.keys().find(|k| {
            ![
                "workload", "seed", "seconds", "trace", "keys", "sweep", "setups", "out-dir",
            ]
            .contains(&k.as_str())
        }) {
            return Err(format!("unknown flag --{unknown}"));
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, manifest] = argv.as_slice() {
        if flag == "--rss-probe" {
            return match setup::rss_probe(Path::new(manifest)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("rss probe: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.out_dir.join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a metric line for people and returns it for the JSON result.
fn show(name: &'static str, value: f64, unit: &'static str, note: &str) -> Metric {
    println!(
        "metric {name} {value} {unit}{}",
        if note.is_empty() {
            String::new()
        } else {
            format!("  # {note}")
        }
    );
    Metric { name, value, unit }
}

/// Reads a number at `path` (successive keys) out of the STATS JSON.
fn stat(json: &str, path: &[&str]) -> Option<f64> {
    let mut at = 0;
    for key in path {
        at += json[at..].find(&format!("\"{key}\":"))? + key.len() + 3;
    }
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The server's STATS over the timed window, beside the oracle's exact
/// counts over the same frames.
struct Audit {
    /// STATS as read right after the timed window.
    stats: String,
    /// Positives and refuted positives the server's audit counted during
    /// the timed window.
    positives: f64,
    refuted: f64,
    /// The oracle's tally over the timed window's frames.
    exact: oracle::Tally,
}

impl Audit {
    fn new(before: &str, stats: String, exact: &oracle::Tally) -> Self {
        let count = |json: &str, key| stat(json, &["fp", key]).unwrap_or(0.0);
        Self {
            positives: count(&stats, "positives") - count(before, "positives"),
            refuted: count(&stats, "refuted") - count(before, "refuted"),
            stats,
            exact: exact.clone(),
        }
    }

    /// The server's refuted share over the timed window (0 without a
    /// positive, as STATS reports it).
    fn observed_rate(&self) -> f64 {
        match self.positives {
            p if p > 0.0 => self.refuted / p,
            _ => 0.0,
        }
    }
}

/// Generates the workload's requests from the seed.
fn make_traffic<'k>(args: &Args, keys: &'k [u64], routing: &grafite_store::Routing) -> Traffic<'k> {
    let seed = args.seed;
    match args.workload {
        Workload::SingleUncorrelated => Traffic::Single(
            inputs::empty_ranges(keys, POOL, MAX_RANGE, None, seed)
                .into_iter()
                .map(|q| Arc::from([q]))
                .collect(),
        ),
        Workload::BatchCorrelated => Traffic::Batch(
            inputs::correlated_batches(
                keys,
                BATCH_POOL,
                traffic::BATCH_SIZE,
                traffic::BATCH_EMPTY_SHARE,
                MAX_RANGE,
                seed,
            )
            .into_iter()
            .map(Arc::from)
            .collect(),
        ),
        Workload::UpdateMix => {
            let empty = inputs::empty_ranges(keys, POOL * 4 / 5, MAX_RANGE, None, seed);
            let full = inputs::ranges_at_keys(keys, POOL / 5, MAX_RANGE, seed);
            let mut pool: Vec<Range> = empty.into_iter().chain(full).collect();
            inputs::shuffle(&mut pool, &mut WorkloadRng::new(seed ^ 0x5EED_0B01));
            let updates = UpdateGen::new(keys, routing.clone(), traffic::APPLY_SIZE, seed);
            Traffic::Update(pool, updates)
        }
        Workload::ColdStart => {
            let empty = inputs::empty_ranges(keys, POOL, MAX_RANGE, None, seed);
            Traffic::Cold(traffic::cold_probes(keys, routing, &empty, MAX_RANGE, seed))
        }
    }
}

/// The workload's read frames, for the layer measurements.
fn read_frames(traffic: &Traffic, phase: &Phase) -> Vec<Arc<[Range]>> {
    match traffic {
        Traffic::Single(pool) | Traffic::Batch(pool) => pool.clone(),
        Traffic::Update(..) | Traffic::Cold(_) => {
            phase.reads.iter().map(|r| Arc::clone(&r.queries)).collect()
        }
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let workload = args.workload;
    println!(
        "# host nproc={} simd={}",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        grafite_succinct::simd::level().name()
    );
    println!(
        "# workload {} seed {} seconds {} trace {} | store: {} uniform keys, Grafite {} bits/key, max_range {}, {} range shards, save_to + open_mapped",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.keys,
        BITS_PER_KEY,
        MAX_RANGE,
        SHARDS
    );
    let manifest = run_dir.join("store.grafite");
    let served = setup::set_up(args, &manifest, args.setups)?;
    let result = measure(args, &served);
    served.handle.shutdown();
    result
}

fn measure(args: &Args, served: &setup::Served) -> Result<String, String> {
    let workload = args.workload;
    let keys = &served.keys;
    let n = keys.len() as f64;
    let resident: Vec<f64> = (0..3)
        .map(|_| setup::resident_growth_bytes(&served.manifest))
        .collect::<Result<_, _>>()?;
    let resident_bits = median(&resident) * 8.0 / n;
    let mut oracle = Oracle::open(&served.manifest)?;
    let snap = oracle.snapshot();
    let filter_bits = snap.serialized_bits() as f64 / snap.num_keys() as f64;

    let mut traffic = make_traffic(args, keys, &served.routing);
    let untraced = Tracer::new(false);
    let ctx = traffic::Ctx {
        addr: served.addr(),
        manifest: &served.manifest,
        seed: args.seed,
        tracer: &untraced,
    };

    // STATS around the timed window, so that its counters can be compared
    // with the oracle's over the same frames; then the false-positive
    // sweep, then the checks.
    let mut client = Client::connect(served.addr()).map_err(|e| format!("stats connect: {e}"))?;
    let before = client.stats_json().map_err(|e| format!("stats: {e}"))?;
    let timed = traffic::run(&ctx, &mut traffic, args.seconds, 0, 0);
    let stats = client.stats_json().map_err(|e| format!("stats: {e}"))?;
    let started = Instant::now();
    let sweep_ranges = inputs::empty_ranges(
        keys,
        args.sweep,
        MAX_RANGE,
        workload.degree(),
        args.seed ^ 0x5EED_5EE9,
    );
    let sweep = traffic::fp_sweep(&ctx, &sweep_ranges, timed.version, 0);
    drop(sweep_ranges);
    let swept = started.elapsed().as_secs_f64();
    oracle.check(&timed, &untraced, 0, false);
    let audit = Audit::new(&before, stats, &oracle.tally);
    oracle.check(&sweep, &untraced, 0, true);
    let tally = oracle.tally.clone();

    // The bound at each range size, and over the sizes as the sweep mixed
    // them: the mean of l/2^(B-2) over the empty ranges probed.
    let bound = |len: u64| len as f64 / (BITS_PER_KEY - 2.0).exp2();
    let fp_bound = tally
        .by_len
        .iter()
        .map(|(&len, &(empty, _))| empty as f64 * bound(len))
        .sum::<f64>()
        / tally.empty.max(1) as f64;
    let fp_lower = binomial_lower(tally.fp, tally.empty, FP_BOUND_ALPHA);
    let mut breach = fp_lower > fp_bound;
    let mut by_len = String::new();
    for (&len, &(empty, fp)) in &tally.by_len {
        let lower = binomial_lower(fp, empty, FP_BOUND_ALPHA);
        breach |= lower > bound(len);
        by_len.push_str(&format!(
            " l={len}:{fp}/{empty}{}",
            if lower > bound(len) { "!" } else { "" }
        ));
    }
    println!(
        "# timed window {:.3} s: {} read frames, {} ops, {} probes; sweep {swept:.3} s, checks {:.3} s; checked {} operations, {} failed ({} mismatches, {} false negatives, {} failed frames){}",
        timed.elapsed_s,
        timed.read_us.len(),
        timed.op_us.len(),
        timed.probes,
        started.elapsed().as_secs_f64() - swept,
        tally.attempted,
        tally.failed,
        tally.mismatches,
        tally.false_negatives,
        tally.frame_errors,
        tally.first_error.as_deref().map(|e| format!(" (first: {e})")).unwrap_or_default()
    );
    println!(
        "# fp: {} of {} empty sweep ranges answered true; bound mean l/2^(B-2) = {fp_bound:.6e} (l={MAX_RANGE}: {:.6e}); exact lower limit (level {FP_BOUND_ALPHA:e}) {fp_lower:.6e}; breach {breach}",
        tally.fp,
        tally.empty,
        bound(MAX_RANGE)
    );
    println!("# fp by range size (fp/empty, ! = lower limit above l/2^(B-2)):{by_len}");

    let (op, read): (&[f64], &[f64]) = (&timed.op_us, &timed.read_us);
    let mut e2e = vec![
        show(
            "setup_s",
            median(&served.setup_s),
            "s",
            &format!("median of {:.3?}", served.setup_s),
        ),
        show("op_p50_us", median(op), "us", &format!("n={}", op.len())),
        show(
            "read_p50_us",
            median(read),
            "us",
            &format!("n={}", read.len()),
        ),
        show(
            "probes_per_s",
            timed.probe_rate,
            "1/s",
            "net of the pauses before requests",
        ),
        show(
            "fp_rate",
            tally.fp_rate(),
            "ratio",
            &format!("{}/{}", tally.fp, tally.empty),
        ),
        show("filter_bits_per_key", filter_bits, "bits/key", ""),
        show("resident_bits_per_key", resident_bits, "bits/key", ""),
    ];
    // Printed, not in the result: at the current per-frame cost a window
    // holds a few hundred frames, and their tail does not repeat run to run
    // as closely as a bound on it would need.
    show(
        "op_tail_us",
        tail(op).1,
        "us",
        &format!("p{}", 100.0 * tail(op).0),
    );
    show(
        "read_tail_us",
        tail(read).1,
        "us",
        &format!("p{}", 100.0 * tail(read).0),
    );
    // The same numbers under the names that fit the workload.
    show(
        "error_rate",
        tally.error_rate(),
        "ratio",
        &format!("{}/{}", tally.failed, tally.attempted),
    );
    show(
        "fp_bound",
        fp_bound,
        "ratio",
        "mean l/2^(B-2) over the empty sweep ranges",
    );
    let query = ("query_p50_us", "query_p99_us", read);
    let batch = ("batch_p50_us", "batch_p99_us", read);
    let named: &[(&'static str, &'static str, &[f64])] = match workload {
        Workload::SingleUncorrelated | Workload::ColdStart => &[query],
        Workload::BatchCorrelated => &[batch],
        Workload::UpdateMix => &[("apply_p50_us", "apply_p99_us", op), batch],
    };
    for &(p50, p99, values) in named {
        show(p50, median(values), "us", "");
        show(
            p99,
            quantile(values, 0.99),
            "us",
            &format!("n={}", values.len()),
        );
    }
    if workload == Workload::ColdStart {
        show(
            "first_answer_p50_us",
            median(op),
            "us",
            "RELOAD sent to first answer",
        );
        show(
            "cold_sweep_p50_ms",
            median(&timed.sweep_ms),
            "ms",
            "RELOAD sent to every shard answered",
        );
    }

    let mut correct = tally.failed == 0 && !breach && timed.probes > 0;
    if args.trace {
        e2e = traced(args, served, &mut traffic, &mut oracle, &timed, &audit)?;
        let after = &oracle.tally;
        correct &= after.failed == 0;
        println!(
            "# traced run: checked {} operations in total, {} failed",
            after.attempted, after.failed
        );
    }
    let tally = &oracle.tally;
    let mut metrics = String::new();
    for m in &e2e {
        if !m.value.is_finite() {
            correct = false;
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if !metrics.is_empty() {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed
    ))
}

/// The traced run: the same traffic again with spans, the layer
/// measurements, and the per-layer metrics derived from both.
fn traced(
    args: &Args,
    served: &setup::Served,
    traffic: &mut Traffic<'_>,
    oracle: &mut Oracle,
    untraced: &Phase,
    audit: &Audit,
) -> Result<Vec<Metric>, String> {
    let workload = args.workload;
    let tracer = Tracer::new(true);
    let ctx = traffic::Ctx {
        addr: served.addr(),
        manifest: &served.manifest,
        seed: args.seed,
        tracer: &tracer,
    };
    let root = tracer.open("bench.traffic", 0, 0);
    let phase = traffic::run(&ctx, traffic, args.seconds, untraced.version, root.id);
    tracer.close(root);
    let root = tracer.open("bench.verify", 0, 0);
    oracle.check(&phase, &tracer, root.id, false);
    tracer.close(root);

    let root = tracer.open("bench.layers", 0, 0);
    let frame = workload.read_frame();
    let reads = read_frames(traffic, untraced);
    let batches: Vec<Vec<(bool, u64)>> = match untraced.applies.is_empty() {
        false => untraced.applies.iter().map(|a| a.updates.clone()).collect(),
        true => {
            let mut gen = UpdateGen::new(
                &served.keys,
                served.routing.clone(),
                traffic::APPLY_SIZE,
                args.seed,
            );
            (0..32).map(|_| gen.next_batch()).collect()
        }
    };
    let inputs = layers::Inputs {
        keys: &served.keys,
        manifest: &served.manifest,
        snap: oracle.snapshot(),
        reads: &reads,
        updates: &batches,
    };
    let below = layers::measure(&inputs, frame, &tracer, root.id)?;
    let value = |name: &str| {
        below
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };

    // Raw loopback round trips of the same frame sizes.
    let read_req = match frame {
        1 => 5 + 16,
        k => 5 + 4 + 16 * k,
    };
    let rtt = layers::loopback_rtt_us(&tracer, root.id, read_req, 5 + frame)?;
    let op_rtt = match workload {
        Workload::UpdateMix => {
            layers::loopback_rtt_us(&tracer, root.id, 5 + 4 + 9 * traffic::APPLY_SIZE, 5 + 24)?
        }
        Workload::ColdStart => {
            rtt + layers::loopback_rtt_us(
                &tracer,
                root.id,
                5 + served.manifest.as_os_str().len(),
                5 + 8,
            )?
        }
        _ => rtt,
    };
    // In-process time of the same request.
    let store_read_us = match workload {
        Workload::ColdStart => value("store.materialize_us") + value("store.probe_ns") / 1e3,
        _ if frame == 1 => value("store.probe_ns") / 1e3,
        _ => value("store.batch_ns_per_probe") * frame as f64 / 1e3,
    };
    let store_op_us = match workload {
        Workload::UpdateMix => value("store.apply_us"),
        Workload::ColdStart => value("store.open_mapped_us") + store_read_us,
        _ => store_read_us,
    };

    // Shards a positive QUERY right after a RELOAD materializes.
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let span = tracer.open("server.reload", root.id, 0);
    client
        .reload(Some(&served.manifest.to_string_lossy()))
        .map_err(|e| format!("reload: {e}"))?;
    tracer.close(span);
    let key = served.keys[(args.seed as usize).wrapping_mul(2_654_435_761) % served.keys.len()];
    let span = tracer.open("server.query", root.id, 0);
    let hit = client.query(key, key).map_err(|e| format!("query: {e}"))?;
    tracer.close(span);
    if !hit {
        return Err(format!("false negative on key {key} after RELOAD"));
    }
    let loaded = served
        .handle
        .store()
        .snapshot()
        .shards()
        .iter()
        .filter(|s| s.is_materialized())
        .count();
    tracer.close(root);

    let read_traced = median(&phase.read_us);
    let read_untraced = median(&untraced.read_us);
    let (observed, exact) = (audit.observed_rate(), audit.exact.refuted_share());
    let mut out = vec![
        show("net.rtt_us", rtt, "us", "raw loopback, read frame size"),
        show(
            "net.op_rtt_us",
            op_rtt,
            "us",
            "raw loopback, operation frame sizes",
        ),
        show(
            "server.read_overhead_us",
            read_untraced - rtt - store_read_us,
            "us",
            "read p50 - rtt - in-process",
        ),
        show(
            "server.op_overhead_us",
            median(&untraced.op_us) - op_rtt - store_op_us,
            "us",
            "op p50 - rtt - in-process",
        ),
        show(
            "server.handle_p50_us",
            stat(&audit.stats, &["verbs", workload.read_verb(), "p50_us"]).unwrap_or(0.0),
            "us",
            "STATS after the timed window, read verb",
        ),
        show(
            "server.audit_positives",
            audit.positives,
            "count",
            &format!(
                "STATS, timed window; oracle counts {}",
                audit.exact.positives
            ),
        ),
        show(
            "server.fp_estimate_error",
            (observed - exact).abs(),
            "ratio",
            &format!(
                "timed window: STATS refuted/positives {}/{} vs exact {}/{}",
                audit.refuted, audit.positives, audit.exact.refuted, audit.exact.positives
            ),
        ),
        show(
            "server.shards_loaded_by_first_probe",
            loaded as f64,
            "count",
            "",
        ),
        show(
            "store.lazy_shard_loads",
            stat(&audit.stats, &["lazy_shard_loads"]).unwrap_or(0.0),
            "count",
            "STATS after the timed window",
        ),
    ];
    for m in below {
        out.push(show(m.name, m.value, m.unit, ""));
    }
    let self_ns = tracer.self_time_by_layer();
    for (layer, name) in [
        ("bench", "bench.self_ms"),
        ("net", "net.self_ms"),
        ("server", "server.self_ms"),
        ("protocol", "protocol.self_ms"),
        ("store", "store.self_ms"),
        ("core", "core.self_ms"),
        ("hash", "hash.self_ms"),
        ("succinct", "succinct.self_ms"),
    ] {
        out.push(show(
            name,
            self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            "ms",
            "span self time",
        ));
    }
    let (spans, dropped) = tracer.counts();
    out.push(show(
        "trace.read_p50_overhead_us",
        read_traced - read_untraced,
        "us",
        &format!("traced {read_traced} - untraced {read_untraced}"),
    ));
    out.push(show(
        "trace.spans",
        spans as f64,
        "count",
        &format!("{dropped} dropped"),
    ));
    let trace_dir = args.out_dir.join("traces");
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("create {}: {e}", trace_dir.display()))?;
    let path = trace_dir.join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(out)
}
