//! Order statistics the reports are built from: medians and quartiles of
//! small vectors, and a log-linear histogram for the per-op latencies of a
//! whole run (tens of millions of samples, so they are never stored).

/// Median of `values` (mean of the two middle elements for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile with the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)` — the rule the acceptance
/// driver applies to ten runs.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Python: j = i*m // 4 clamped to [1, n-1]; delta = i*m - 4*j (may
        // leave [0, 4] after clamping, which extrapolates, as Python does).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the "spread" every
/// acceptance rule in this benchmark is written in.
pub fn iqr_share(values: &[f64]) -> f64 {
    spread_of(quartiles(values))
}

/// The same spread from quartiles already computed.
pub fn spread_of([q1, q2, q3]: [f64; 3]) -> f64 {
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Where a series of resident-memory samples taken at equal intervals would
/// peak without its one-off steps: the first sample plus the **median**
/// increment times the number of intervals.  A steady leak is in every
/// increment, so it shows in full; a step — capacity that doubles once,
/// during a spell in which the host runs fast — is in one increment, so it
/// does not show.
pub fn steady_peak(samples: &[f64]) -> f64 {
    let Some(&first) = samples.first() else {
        return 0.0;
    };
    let increments: Vec<f64> = samples.windows(2).map(|w| w[1] - w[0]).collect();
    first + (median(&increments) * increments.len() as f64).max(0.0)
}

/// Percentile `p` (0..=100) of `values` by linear interpolation between
/// closest ranks.  Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Sub-buckets per power of two: 1/64 ≈ 1.6 % bucket width, and the
/// quantile is interpolated inside the bucket, so the reported median moves
/// continuously with the data.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (~18 min) are resolved; larger ones saturate.
const MAX_POW: usize = 40;

/// Log-linear histogram of nanosecond latencies: fixed memory, O(1) record,
/// no allocation after construction.
pub struct LatHist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatHist {
    pub fn new() -> Self {
        LatHist {
            buckets: vec![0; (MAX_POW + 1) * SUB],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let pow = 63 - ns.leading_zeros();
        let sub = ((ns >> (pow - SUB_BITS)) as usize) & (SUB - 1);
        let row = (pow - SUB_BITS + 1) as usize;
        (row * SUB + sub).min((MAX_POW + 1) * SUB - 1)
    }

    /// Lower and upper (exclusive) bound of bucket `i`, in ns.
    fn bounds(i: usize) -> (u64, u64) {
        let row = i / SUB;
        let sub = (i % SUB) as u64;
        if row == 0 {
            (sub, sub + 1)
        } else {
            let shift = row as u32 - 1;
            let lo = (SUB as u64 + sub) << shift;
            (lo, lo + (1 << shift))
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile `q` in 0..=1, in ns, interpolated by rank inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0.0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n as f64;
            if next >= target {
                let (lo, hi) = Self::bounds(i);
                let inside = ((target - seen) / n as f64).clamp(0.0, 1.0);
                return lo as f64 + (hi - lo) as f64 * inside;
            }
            seen = next;
        }
        Self::bounds(self.buckets.len() - 1).1 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_slices_ignores_a_disturbed_slice() {
        // 23 steady one-second slices and one that a neighbour halved: the
        // mean moves by 2 %, the median not at all.
        let mut slices = vec![1000.0; 23];
        slices.push(500.0);
        assert_eq!(median(&slices), 1000.0);
        let mean = slices.iter().sum::<f64>() / slices.len() as f64;
        assert!(mean < 985.0);
    }

    #[test]
    fn steady_peak_keeps_a_leak_and_drops_a_step() {
        assert_eq!(steady_peak(&[]), 0.0);
        assert_eq!(steady_peak(&[3.0]), 3.0);
        assert_eq!(steady_peak(&[3.0, 3.0, 3.0, 3.0, 3.0]), 3.0);
        // 0.25 MiB leaked every second: the last sample, in full.
        assert_eq!(steady_peak(&[3.0, 3.25, 3.5, 3.75, 4.0]), 4.0);
        // One step of 1 MiB in four flat seconds: not a trend.
        assert_eq!(steady_peak(&[3.0, 3.0, 4.0, 4.0, 4.0]), 3.0);
        // A leak with a step on top: the leak alone.
        assert_eq!(steady_peak(&[3.0, 3.25, 4.5, 4.75, 5.0]), 4.0);
        // Memory given back is not a negative peak.
        assert_eq!(steady_peak(&[3.0, 2.5, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past the data.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_known_vectors() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket_of_exact() {
        let mut h = LatHist::new();
        let values: Vec<u64> = (0..100_000u64).map(|i| 900 + (i * 7919) % 4000).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        let exact: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for (q, p) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
            let want = percentile(&exact, p);
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.02,
                "q{q}: histogram {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn histogram_bucket_bounds_cover_their_values() {
        for ns in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            123_456,
            1 << 30,
            u64::MAX,
        ] {
            let i = LatHist::index(ns);
            let (lo, hi) = LatHist::bounds(i);
            if ns < (1 << 40) {
                assert!(lo <= ns && ns < hi, "{ns} not in [{lo}, {hi})");
            }
        }
    }
}
