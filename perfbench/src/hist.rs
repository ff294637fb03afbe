//! A fixed-size log-linear histogram of nanosecond values.
//!
//! Rounds make a fixed number of calls but a run makes as many rounds as
//! its seconds allow, so samples are folded into buckets instead of kept:
//! the benchmark's own memory then does not grow with host speed. Each
//! power-of-two octave is split into 128 linear sub-buckets, so a
//! reported quantile is within 0.8% of the true sample.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A sample that never completed (a shed request): lands in the top
/// bucket, above every measured time.
pub const MISSING: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let shift = octave - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Midpoint of bucket `b`'s value range.
fn value(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let shift = b / SUB - 1;
    let lo = (SUB + b % SUB) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    #[must_use]
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Sample count.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (nearest rank), or 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (1..1u64 << 20).step_by(97) {
            let b = bucket(v);
            assert!(b >= last);
            last = b;
            let mid = value(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / SUB as f64,
                "{v} -> {mid}"
            );
        }
        assert_eq!(bucket(MISSING), BUCKETS - 1);
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut h = Hist::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        h.record(MISSING);
        assert!(h.quantile(1.0) > 1e18);
    }
}
