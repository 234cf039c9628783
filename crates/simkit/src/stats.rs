//! Lightweight named-counter statistics.

use std::fmt;

/// A registry of named `u64` counters plus a few derived helpers.
///
/// Components increment counters as events occur; at the end of a run the
/// harness reads them out to compute hit rates, stall fractions, and
/// bandwidth. Counters live in a name-sorted vector — registries are
/// small (tens of entries), so a binary search beats a tree walk and,
/// unlike a `String`-keyed map, bumping an existing counter allocates
/// nothing. This is hot-path code: components charge counters every
/// simulated cycle.
///
/// # Example
///
/// ```
/// use simkit::Stats;
/// let mut s = Stats::new();
/// s.add("hits", 3);
/// s.inc("misses");
/// assert_eq!(s.get("hits"), 3);
/// assert!((s.ratio("hits", "misses") - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// `(name, value)` sorted by name.
    counters: Vec<(Box<str>, u64)>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.counters
            .binary_search_by(|(k, _)| k.as_ref().cmp(name))
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.position(name) {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (name.into(), n)),
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        match self.position(name) {
            Ok(i) => self.counters[i].1,
            Err(_) => 0,
        }
    }

    /// `a / b` as `f64`; zero when `b` is zero.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let d = self.get(b);
        if d == 0 {
            0.0
        } else {
            self.get(a) as f64 / d as f64
        }
    }

    /// `a / (a + b)` as `f64`; zero when both are zero. Handy for hit rates.
    pub fn fraction(&self, a: &str, b: &str) -> f64 {
        let x = self.get(a);
        let y = self.get(b);
        if x + y == 0 {
            0.0
        } else {
            x as f64 / (x + y) as f64
        }
    }

    /// Merges another registry into this one, summing shared counters.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
    }

    /// Iterates counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when no counter has been created.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

/// Time-bucketed aggregation of a sampled quantity: for each window of
/// `bucket_cycles` simulated cycles, the count, sum, and maximum of the
/// samples that fell inside it. Backs the exported occupancy series.
///
/// # Example
///
/// ```
/// use simkit::stats::TimeBuckets;
/// let mut tb = TimeBuckets::new(100);
/// tb.record(10, 4);
/// tb.record(50, 8);
/// tb.record(250, 2);
/// let pts = tb.points();
/// assert_eq!(pts, vec![(0, 8, 6.0), (200, 2, 2.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeBuckets {
    bucket_cycles: u64,
    /// `(bucket_index, count, sum, max)`, append-only and index-ordered
    /// because simulation time only moves forward.
    buckets: Vec<(u64, u64, u64, u64)>,
}

impl TimeBuckets {
    /// Aggregation over windows of `bucket_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics when `bucket_cycles` is zero.
    pub fn new(bucket_cycles: u64) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be nonzero");
        TimeBuckets {
            bucket_cycles,
            buckets: Vec::new(),
        }
    }

    /// Records sample `v` taken at cycle `now`. Samples must arrive in
    /// nondecreasing time order (simulation time is monotonic).
    pub fn record(&mut self, now: u64, v: u64) {
        let idx = now / self.bucket_cycles;
        match self.buckets.last_mut() {
            Some(b) if b.0 == idx => {
                b.1 = b.1.saturating_add(1);
                b.2 = b.2.saturating_add(v);
                b.3 = b.3.max(v);
            }
            _ => self.buckets.push((idx, 1, v, v)),
        }
    }

    /// Width of one bucket in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.1).sum()
    }

    /// `(bucket_start_cycle, max, mean)` per non-empty bucket, in time
    /// order — the shape the trace exporters consume.
    pub fn points(&self) -> Vec<(u64, u64, f64)> {
        self.buckets
            .iter()
            .map(|&(idx, count, sum, max)| {
                (
                    idx * self.bucket_cycles,
                    max,
                    if count == 0 {
                        0.0
                    } else {
                        sum as f64 / count as f64
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.inc("x");
        s.add("x", 4);
        assert_eq!(s.get("x"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut s = Stats::new();
        s.add("a", 10);
        assert_eq!(s.ratio("a", "nothing"), 0.0);
        s.add("b", 5);
        assert!((s.ratio("a", "b") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_is_hit_rate_style() {
        let mut s = Stats::new();
        s.add("hits", 30);
        s.add("misses", 10);
        assert!((s.fraction("hits", "misses") - 0.75).abs() < 1e-12);
        assert_eq!(Stats::new().fraction("h", "m"), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn display_is_never_empty_per_counter() {
        let mut s = Stats::new();
        s.inc("only");
        assert_eq!(s.to_string(), "only: 1\n");
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut s = Stats::new();
        s.inc("b");
        s.inc("a");
        let names: Vec<_> = s.iter().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn time_buckets_aggregate_per_window() {
        let mut tb = TimeBuckets::new(100);
        tb.record(0, 1);
        tb.record(99, 3);
        tb.record(100, 10);
        tb.record(350, 4);
        assert_eq!(tb.count(), 4);
        assert_eq!(
            tb.points(),
            vec![(0, 3, 2.0), (100, 10, 10.0), (300, 4, 4.0)]
        );
    }

    #[test]
    fn time_buckets_empty_and_single() {
        let tb = TimeBuckets::new(16);
        assert_eq!(tb.count(), 0);
        assert!(tb.points().is_empty());
        let mut tb = TimeBuckets::new(16);
        tb.record(17, 5);
        assert_eq!(tb.points(), vec![(16, 5, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "bucket width must be nonzero")]
    fn time_buckets_reject_zero_width() {
        let _ = TimeBuckets::new(0);
    }
}
