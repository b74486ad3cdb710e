//! The answer oracle: a twin of the served store, opened from the same
//! manifest in this process, against which every wire answer is checked.
//!
//! A read must equal the twin snapshot's answer at one of the versions
//! the server may have used, and a range holding a key in every one of
//! those versions must answer true. Update batches are replayed on the
//! twin in the writer's order, so the twin walks the same versions the
//! server did. Empty ranges and the positives among them give the exact
//! false-positive count, and every positive answer is sorted into
//! confirmed and refuted the way the server's audit sorts it.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use grafite_core::registry::Registry;
use grafite_store::{ApplyReport, FilterStore, Snapshot, Update};
use grafite_workloads::queries::intersects;

use crate::trace::Tracer;
use crate::traffic::{ApplyRec, Phase, ReadRec};

/// Operations attempted and failed, and the false-positive count.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Probes answered plus `APPLY` and `RELOAD` frames sent.
    pub attempted: u64,
    pub failed: u64,
    /// Answers no twin version gives.
    pub mismatches: u64,
    /// Ranges holding a key that answered false.
    pub false_negatives: u64,
    /// Frames that came back as `ERR` or an I/O error.
    pub frame_errors: u64,
    /// Ranges of the false-positive sweep empty in every version the
    /// server may have used.
    pub empty: u64,
    /// Those of them answered true.
    pub fp: u64,
    /// `(empty, fp)` of the sweep by range size `b - a + 1`.
    pub by_len: BTreeMap<u64, (u64, u64)>,
    /// Probes answered true, over every frame checked.
    pub positives: u64,
    /// Those of them on ranges empty in every version the server may have
    /// used: what the server's audit counts as refuted.
    pub refuted: u64,
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn fp_rate(&self) -> f64 {
        self.fp as f64 / self.empty.max(1) as f64
    }

    /// Refuted positives over all positives (0 before the first positive),
    /// the ratio the server's STATS reports as `fp.observed_rate`.
    pub fn refuted_share(&self) -> f64 {
        self.refuted as f64 / self.positives.max(1) as f64
    }
}

/// The twin store and the snapshots of the versions still in play.
pub struct Oracle {
    twin: FilterStore,
    window: VecDeque<Arc<Snapshot>>,
    pub tally: Tally,
    /// In-process `FilterStore::apply` of each replayed batch.
    pub applies: Vec<(f64, ApplyReport)>,
}

impl Oracle {
    pub fn open(manifest: &Path) -> Result<Self, String> {
        let twin = FilterStore::open_mapped(&Registry::new(), manifest)
            .map_err(|e| format!("oracle open_mapped: {e}"))?;
        let snap = twin.snapshot();
        Ok(Self {
            twin,
            window: VecDeque::from([snap]),
            tally: Tally::default(),
            applies: Vec::new(),
        })
    }

    /// The twin's current snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.twin.snapshot()
    }

    /// Checks every frame of `phase`, replaying its update batches. Empty
    /// ranges enter the false-positive count only when `count_fp` is set:
    /// the timed windows cycle through their request pools, and a range
    /// sent many times would weigh its answer that many times.
    pub fn check(&mut self, phase: &Phase, tracer: &Tracer, parent: u64, count_fp: bool) {
        self.tally.attempted += phase.reloads + phase.errors.len() as u64;
        for e in &phase.errors {
            self.tally.fail(1, || e.clone());
        }
        let mut applies = phase.applies.iter();
        for read in &phase.reads {
            while self.twin.version() < read.v_hi {
                match applies.next() {
                    Some(rec) => self.replay(rec),
                    None => break,
                }
            }
            let span = tracer.open("bench.oracle", parent, read.id);
            self.check_read(read, count_fp);
            tracer.close(span);
        }
        for rec in applies {
            self.replay(rec);
        }
    }

    fn replay(&mut self, rec: &ApplyRec) {
        self.tally.attempted += 1;
        let summary = match &rec.result {
            Ok(s) => *s,
            Err(e) => {
                self.tally.frame_errors += 1;
                self.tally.fail(1, || format!("apply: {e}"));
                return;
            }
        };
        let updates: Vec<Update> = rec
            .updates
            .iter()
            .map(|&(insert, key)| match insert {
                true => Update::Insert(key),
                false => Update::Delete(key),
            })
            .collect();
        let started = Instant::now();
        let report = match self.twin.apply(&updates) {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(1, || format!("twin apply: {e}"));
                return;
            }
        };
        self.applies
            .push((started.elapsed().as_secs_f64() * 1e6, report));
        if (
            report.version,
            report.inserted as u64,
            report.deleted as u64,
        ) != (summary.version, summary.inserted, summary.deleted)
        {
            self.tally.mismatches += 1;
            self.tally.fail(1, || {
                format!("apply acknowledged {summary:?}, twin gave {report:?}")
            });
        }
        self.window.push_back(self.twin.snapshot());
    }

    fn check_read(&mut self, read: &ReadRec, count_fp: bool) {
        let n = read.queries.len() as u64;
        self.tally.attempted += n;
        let answers = match &read.answers {
            Ok(a) if a.len() == read.queries.len() => a,
            Ok(a) => {
                self.tally.frame_errors += 1;
                let got = a.len();
                self.tally
                    .fail(n, || format!("{got} answers for {n} probes"));
                return;
            }
            Err(e) => {
                self.tally.frame_errors += 1;
                self.tally.fail(n, || format!("read: {e}"));
                return;
            }
        };
        while self.window.len() > 1 && self.window[0].version() < read.v_lo {
            self.window.pop_front();
        }
        let snaps: Vec<&Arc<Snapshot>> = self
            .window
            .iter()
            .filter(|s| s.version() <= read.v_hi)
            .collect();
        let mut expected = Vec::with_capacity(snaps.len());
        let mut held = Vec::with_capacity(snaps.len());
        for snap in &snaps {
            let mut out = Vec::new();
            snap.query_ranges(&read.queries, &mut out);
            expected.push(out);
            held.push(
                read.queries
                    .iter()
                    .map(|&(a, b)| holds_key(snap, a, b))
                    .collect::<Vec<bool>>(),
            );
        }
        for (i, (&(a, b), &answer)) in read.queries.iter().zip(answers).enumerate() {
            if !expected.iter().any(|e| e[i] == answer) {
                self.tally.mismatches += 1;
                self.tally.fail(1, || {
                    format!("[{a}, {b}] answered {answer}, twin disagrees")
                });
            } else if !answer && held.iter().all(|h| h[i]) {
                self.tally.false_negatives += 1;
                self.tally
                    .fail(1, || format!("false negative on [{a}, {b}]"));
            }
            let empty = held.iter().all(|h| !h[i]);
            if answer {
                self.tally.positives += 1;
                self.tally.refuted += u64::from(empty);
            }
            if count_fp && empty {
                self.tally.empty += 1;
                self.tally.fp += u64::from(answer);
                let size = self.tally.by_len.entry(b - a + 1).or_default();
                size.0 += 1;
                size.1 += u64::from(answer);
            }
        }
    }
}

/// Ground truth from a snapshot's keys: does `[a, b]` hold a key?
pub fn holds_key(snap: &Snapshot, a: u64, b: u64) -> bool {
    let routing = snap.routing();
    (routing.shard_of(a)..=routing.shard_of(b)).any(|s| intersects(snap.shards()[s].keys(), a, b))
}
