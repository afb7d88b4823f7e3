//! Deterministic log-bucket latency histograms.
//!
//! Serving systems summarize tail latency with percentiles, but exact
//! percentiles require keeping every sample. A [`LatencyHistogram`]
//! instead buckets samples geometrically — 32 sub-buckets per power of
//! two, i.e. at most ~2.2% relative bucket width — which makes it
//!
//! * **O(1) per sample** and sparse in memory (only touched buckets are
//!   stored, in a `BTreeMap`);
//! * **mergeable**: combining two histograms is bucket-wise addition,
//!   so per-window or per-shard histograms aggregate losslessly;
//! * **bitwise-reproducible**: the bucket of a sample is a pure bit
//!   manipulation of its IEEE-754 representation (no logarithms, no
//!   libm), and a quantile query returns the exact `f64` lower bound of
//!   the answering bucket — the same bits on every platform.
//!
//! The reported quantile is the largest bucket floor not exceeding the
//! true order statistic: it under-reports by at most one bucket width
//! (~3.1% relative), property-tested in `crates/serve/tests`.

use std::collections::BTreeMap;

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave.
const SUB_BITS: u32 = 5;

/// A mergeable, bitwise-deterministic log-bucket histogram of
/// nonnegative `f64` samples (seconds, by convention).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket index → sample count. Sparse; ordered iteration gives
    /// ascending sample magnitude.
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. `NaN` and non-positive samples land in the
    /// zero bucket (floor `0.0`); `+∞` lands in the top bucket, so a
    /// quantile answering from it reports `+∞`.
    pub fn record(&mut self, seconds: f64) {
        self.record_n(seconds, 1);
    }

    /// Records `n` identical samples. Counts saturate at `u64::MAX`
    /// instead of wrapping, so a pathological `record_n` (or a long
    /// chain of merges) degrades quantiles gracefully rather than
    /// corrupting them.
    pub fn record_n(&mut self, seconds: f64, n: u64) {
        if n == 0 {
            return;
        }
        let c = self.counts.entry(Self::bucket_of(seconds)).or_insert(0);
        *c = c.saturating_add(n);
        self.total = self.total.saturating_add(n);
    }

    /// Adds every bucket of `other` into `self`. Merging per-shard
    /// histograms is exactly equivalent to recording all their samples
    /// into one histogram. Counts saturate at `u64::MAX` (as
    /// [`LatencyHistogram::record_n`]).
    pub fn merge(&mut self, other: &Self) {
        for (&b, &n) in &other.counts {
            let c = self.counts.entry(b).or_insert(0);
            *c = c.saturating_add(n);
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): the floor of the
    /// bucket holding the `ceil(q · total)`-th smallest sample. Returns
    /// `0.0` on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&b, &n) in &self.counts {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Self::bucket_floor_of(b);
            }
        }
        unreachable!("total is the sum of bucket counts")
    }

    /// Median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// The lower bound of the bucket `seconds` falls into — the value a
    /// quantile query answering from that bucket reports. Exposed so
    /// tests can pin expected percentiles from hand-computed samples.
    #[must_use]
    pub fn bucket_floor(seconds: f64) -> f64 {
        Self::bucket_floor_of(Self::bucket_of(seconds))
    }

    /// Bucket index of a sample: the biased exponent and top mantissa
    /// bits of the positive `f64`, i.e. `exponent * 32 + sub-bucket`.
    fn bucket_of(seconds: f64) -> u32 {
        if seconds > 0.0 {
            (seconds.to_bits() >> (52 - SUB_BITS as u64)) as u32
        } else {
            0
        }
    }

    /// Smallest `f64` mapping to bucket `b`.
    fn bucket_floor_of(b: u32) -> f64 {
        f64::from_bits((b as u64) << (52 - SUB_BITS as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_sample_set() {
        let mut h = LatencyHistogram::new();
        for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.record(ms * 1e-3);
        }
        assert_eq!(h.count(), 5);
        // rank(0.5 * 5) = 3rd smallest = 3 ms; rank(0.99 * 5) = 5th = 100 ms
        assert_eq!(
            h.p50().to_bits(),
            LatencyHistogram::bucket_floor(3e-3).to_bits()
        );
        assert_eq!(
            h.p99().to_bits(),
            LatencyHistogram::bucket_floor(100e-3).to_bits()
        );
        assert_eq!(
            h.quantile(0.0).to_bits(),
            LatencyHistogram::bucket_floor(1e-3).to_bits()
        );
        assert_eq!(
            h.quantile(1.0).to_bits(),
            LatencyHistogram::bucket_floor(100e-3).to_bits()
        );
    }

    #[test]
    fn bucket_floor_is_tight() {
        for v in [1e-6, 3.7e-3, 0.5, 1.0, 1.03, 127.9] {
            let f = LatencyHistogram::bucket_floor(v);
            assert!(f <= v, "floor {f} above sample {v}");
            assert!(f > v / 1.04, "floor {f} more than one bucket below {v}");
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for i in 0..100 {
            let v = 1e-4 * (1.0 + i as f64 * 0.37);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(a.quantile(q).to_bits(), all.quantile(q).to_bits());
        }
    }

    #[test]
    fn degenerate_samples_land_in_the_zero_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut h = LatencyHistogram::new();
        h.record_n(1e-3, u64::MAX);
        h.record_n(1e-3, 1); // would wrap the bucket AND the total
        assert_eq!(h.count(), u64::MAX);
        // quantiles still answer from the (saturated) bucket
        assert_eq!(
            h.p99().to_bits(),
            LatencyHistogram::bucket_floor(1e-3).to_bits()
        );
        let mut other = LatencyHistogram::new();
        other.record_n(2.0, u64::MAX);
        h.merge(&other); // would wrap total by ~u64::MAX
        assert_eq!(h.count(), u64::MAX);
        // a saturated leading bucket absorbs every rank — degraded but
        // well-defined, and no arithmetic wrapped along the way
        assert_eq!(
            h.quantile(1.0).to_bits(),
            LatencyHistogram::bucket_floor(1e-3).to_bits()
        );
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(2.5e-3, 7);
        for _ in 0..7 {
            b.record(2.5e-3);
        }
        assert_eq!(a, b);
        a.record_n(1.0, 0);
        assert_eq!(a.count(), 7, "recording zero samples is a no-op");
    }
}
