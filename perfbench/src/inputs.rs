//! Workload inputs, all derived from the run's seed: query pools over the
//! built key set and the update batches of `update_mix`.

use std::collections::HashSet;

use grafite_store::Routing;
use grafite_workloads::{correlated_queries, uncorrelated_queries, RangeQuery, WorkloadRng};

/// A closed range `[a, b]` as the wire protocol sends it.
pub type Range = (u64, u64);

/// Correlation degree of `batch_correlated`'s empty ranges (the paper's
/// adversarial regime of Figures 1 and 3).
pub const CORRELATION: f64 = 0.8;

/// Fisher–Yates shuffle driven by the workload generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut WorkloadRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// `count` empty ranges with sizes spread evenly over `1..=max_range`,
/// shuffled: uncorrelated when `degree` is `None`, else correlated to the
/// keys with that degree.
pub fn empty_ranges(
    keys: &[u64],
    count: usize,
    max_range: u64,
    degree: Option<f64>,
    seed: u64,
) -> Vec<Range> {
    let per_size = count.div_ceil(max_range as usize);
    let mut out = Vec::with_capacity(per_size * max_range as usize);
    for len in 1..=max_range {
        let size_seed = seed ^ len.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let qs: Vec<RangeQuery> = match degree {
            None => uncorrelated_queries(keys, per_size, len, size_seed),
            Some(d) => correlated_queries(keys, per_size, len, d, size_seed),
        };
        out.extend(qs.iter().map(|q| (q.lo, q.hi)));
    }
    let mut rng = WorkloadRng::new(seed ^ 0x5EED_0E11);
    shuffle(&mut out, &mut rng);
    out.truncate(count);
    out
}

/// A non-empty range that starts at `key`, of a size in `1..=max_range`.
pub fn range_at(key: u64, rng: &mut WorkloadRng, max_range: u64) -> Range {
    let len = rng.range_inclusive(1, max_range);
    (key, key.saturating_add(len - 1))
}

/// `count` non-empty ranges, each starting at a uniformly drawn key.
pub fn ranges_at_keys(keys: &[u64], count: usize, max_range: u64, seed: u64) -> Vec<Range> {
    let mut rng = WorkloadRng::new(seed ^ 0x5EED_0A7C);
    (0..count)
        .map(|_| {
            let key = keys[rng.below(keys.len() as u64) as usize];
            range_at(key, &mut rng, max_range)
        })
        .collect()
}

/// `batches` batches of `size` ranges: `empty_share` of each are
/// correlated empty ranges, the rest start at a key, shuffled together.
pub fn correlated_batches(
    keys: &[u64],
    batches: usize,
    size: usize,
    empty_share: f64,
    max_range: u64,
    seed: u64,
) -> Vec<Vec<Range>> {
    let empty_per = (size as f64 * empty_share).round() as usize;
    let empty = empty_ranges(
        keys,
        batches * empty_per,
        max_range,
        Some(CORRELATION),
        seed,
    );
    let full = ranges_at_keys(keys, batches * (size - empty_per), max_range, seed);
    let mut rng = WorkloadRng::new(seed ^ 0x5EED_0BA7);
    let mut out = Vec::with_capacity(batches);
    let (mut e, mut f) = (empty.chunks(empty_per), full.chunks(size - empty_per));
    for _ in 0..batches {
        let mut batch: Vec<Range> = Vec::with_capacity(size);
        batch.extend_from_slice(e.next().unwrap_or(&[]));
        batch.extend_from_slice(f.next().unwrap_or(&[]));
        shuffle(&mut batch, &mut rng);
        out.push(batch);
    }
    out
}

/// Insert/delete batches for `update_mix`: each batch holds `half` inserts
/// of fresh keys and `half` deletes of keys from the build set, all inside
/// a window a quarter of a shard wide that starts in the current hot shard
/// (so most batches dirty one range shard and about a quarter of them
/// two). The hot shard moves every [`HOT_BATCHES`] batches, so ingest keeps
/// landing near recent keys, and the key count stays steady.
pub struct UpdateGen<'a> {
    rng: WorkloadRng,
    keys: &'a [u64],
    routing: Routing,
    deleted: HashSet<usize>,
    batch: u64,
    hot: usize,
    half: usize,
}

/// Batches spent on one hot shard before ingest moves on.
pub const HOT_BATCHES: u64 = 16;
/// Update windows per shard width.
const WINDOW_PER_SHARD: u64 = 4;

impl<'a> UpdateGen<'a> {
    pub fn new(keys: &'a [u64], routing: Routing, batch_size: usize, seed: u64) -> Self {
        Self {
            rng: WorkloadRng::new(seed ^ 0x5EED_0D7A),
            keys,
            routing,
            deleted: HashSet::new(),
            batch: 0,
            hot: 0,
            half: batch_size / 2,
        }
    }

    /// The next batch of `(insert?, key)` updates.
    pub fn next_batch(&mut self) -> Vec<(bool, u64)> {
        if self.batch.is_multiple_of(HOT_BATCHES) {
            self.hot = self.rng.below(self.routing.num_shards() as u64) as usize;
        }
        self.batch += 1;
        let (lo, hi) = self.routing.shard_span(self.hot);
        let span = hi.saturating_sub(lo);
        let start = lo.saturating_add(self.rng.below(span.max(1)));
        let end = start.saturating_add(span / WINDOW_PER_SHARD);
        let mut batch = Vec::with_capacity(2 * self.half);
        for _ in 0..self.half {
            batch.push((true, self.rng.range_inclusive(start, end)));
        }
        let from = self.keys.partition_point(|&k| k < start);
        let to = self.keys.partition_point(|&k| k <= end);
        let mut tries = 0;
        let mut deletes = 0;
        while deletes < self.half && to > from && tries < 8 * self.half {
            tries += 1;
            let at = from + self.rng.below((to - from) as u64) as usize;
            if self.deleted.insert(at) {
                batch.push((false, self.keys[at]));
                deletes += 1;
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafite_workloads::queries::intersects;
    use grafite_workloads::{generate, Dataset};

    #[test]
    fn generated_ranges_are_empty_sized_and_reproducible() {
        let keys = generate(Dataset::Uniform, 20_000, 3);
        let a = empty_ranges(&keys, 1000, 32, None, 9);
        assert_eq!(a, empty_ranges(&keys, 1000, 32, None, 9));
        assert_eq!(a.len(), 1000);
        for &(lo, hi) in &a {
            assert!(!intersects(&keys, lo, hi));
            assert!(hi - lo < 32);
        }
        for batch in correlated_batches(&keys, 3, 100, 0.8, 32, 5) {
            let empty = batch
                .iter()
                .filter(|&&(lo, hi)| !intersects(&keys, lo, hi))
                .count();
            assert_eq!(batch.len(), 100);
            assert!(empty >= 80, "{empty}");
        }
    }

    #[test]
    fn update_batches_balance_inserts_and_deletes() {
        let keys = generate(Dataset::Uniform, 20_000, 3);
        let routing = Routing::Range {
            starts: vec![0, 1 << 62, 1 << 63, 3 << 62],
        };
        let mut gen = UpdateGen::new(&keys, routing, 256, 1);
        for _ in 0..40 {
            let batch = gen.next_batch();
            let inserts = batch.iter().filter(|u| u.0).count();
            assert_eq!(inserts, 128);
            assert_eq!(batch.len(), 256);
        }
    }
}
