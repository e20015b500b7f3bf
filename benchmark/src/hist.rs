//! Allocation-free latency recording: a preallocated log-bucket
//! histogram (64 sub-buckets per octave, so a reported quantile is within
//! 0.8 % of the true sample) and the segment rule the end-to-end metrics
//! use — a timed phase is cut into equal wall-clock segments, the run
//! keeps the faster half of them (interference from the host only ever
//! slows a segment), and a metric is the median over the kept segments of
//! the per-segment figure.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB;

/// Segments per timed phase, and how many of them (the fastest) the
/// end-to-end metrics are computed from.
pub const SEGMENTS: usize = 15;
pub const KEPT_SEGMENTS: usize = 8;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    n: u64,
    sum: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + m
}

/// Midpoint of a bucket's value range.
fn value_of(bucket: usize) -> f64 {
    if bucket < SUB {
        return bucket as f64;
    }
    let e = (bucket / SUB) as u32 + SUB_BITS - 1;
    let lo = (1u64 << e) + (((bucket % SUB) as u64) << (e - SUB_BITS));
    lo as f64 + (1u64 << (e - SUB_BITS)) as f64 / 2.0
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0u32; BUCKETS].into_boxed_slice(),
            n: 0,
            sum: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += u64::from(c);
            if acc >= target {
                return value_of(i).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

/// One histogram per segment of the timed phase.
#[derive(Clone)]
pub struct SegHist {
    segs: Vec<Hist>,
}

impl Default for SegHist {
    fn default() -> SegHist {
        SegHist::new()
    }
}

impl SegHist {
    pub fn new() -> SegHist {
        SegHist {
            segs: (0..SEGMENTS).map(|_| Hist::new()).collect(),
        }
    }

    pub fn record(&mut self, seg: usize, v: u64) {
        self.segs[seg.min(SEGMENTS - 1)].record(v);
    }

    pub fn merge(&mut self, other: &SegHist) {
        for (a, b) in self.segs.iter_mut().zip(&other.segs) {
            a.merge(b);
        }
    }

    pub fn seg(&self, seg: usize) -> &Hist {
        &self.segs[seg]
    }

    /// All segments folded together.
    pub fn total(&self) -> Hist {
        let mut all = Hist::new();
        for s in &self.segs {
            all.merge(s);
        }
        all
    }

    /// Median over the segments in `which` of the per-segment
    /// `q`-quantile; segments without samples are skipped.
    pub fn seg_median_quantile(&self, q: f64, which: &[usize]) -> f64 {
        median(
            which
                .iter()
                .filter(|&&s| self.segs[s].count() > 0)
                .map(|&s| self.segs[s].quantile(q))
                .collect(),
        )
    }
}

/// Median of a small sample (0 when empty; mean of the middle pair when
/// even).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = (q * 100_000.0) * 37.0;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn buckets_round_trip() {
        for v in [0u64, 1, 63, 64, 65, 1000, 123_456_789, u64::MAX / 2] {
            let mid = value_of(bucket_of(v));
            let err = (mid - v as f64).abs() / (v.max(1) as f64);
            assert!(err < 0.01, "{v} -> {mid}");
        }
    }

    #[test]
    fn segment_median_skips_empty_segments() {
        let mut s = SegHist::new();
        s.record(0, 100);
        s.record(2, 300);
        s.record(4, 200);
        let all: Vec<usize> = (0..SEGMENTS).collect();
        let m = s.seg_median_quantile(0.5, &all);
        assert!((m - 200.0).abs() < 3.0, "{m}");
    }
}
