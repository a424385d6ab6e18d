//! Order statistics over per-request samples.
//!
//! Percentiles are nearest-rank, computed in integer arithmetic so a
//! percentile's support (how many samples lie strictly beyond it) is
//! exact. A percentile is only *reportable* when at least
//! [`MIN_BEYOND`] samples lie beyond it: p99 of 200 samples would be
//! the second-largest sample, a single outlier's worth of evidence.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles are given in basis points (`9900` = p99) so that rank
/// arithmetic stays exact.
pub const P50: u64 = 5000;
/// p99 in basis points.
pub const P99: u64 = 9900;

/// 1-based nearest rank of percentile `p_bp` among `n` samples:
/// `ceil(p · n)`, at least 1.
pub fn rank(n: usize, p_bp: u64) -> usize {
    let r = (p_bp as u128 * n as u128).div_ceil(10_000) as usize;
    r.max(1)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p_bp`.
pub fn samples_beyond(n: usize, p_bp: u64) -> usize {
    n.saturating_sub(rank(n, p_bp))
}

/// Whether percentile `p_bp` of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, p_bp: u64) -> bool {
    n > 0 && samples_beyond(n, p_bp) >= MIN_BEYOND
}

/// The highest of `candidates` (basis points) that is reportable for
/// `n` samples, if any.
pub fn highest_reportable(n: usize, candidates: &[u64]) -> Option<u64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| reportable(n, p))
        .max()
}

/// A note naming the highest reportable of p50, p99, p99.9 and p99.99
/// over `sorted` latencies (nanoseconds), with the sample count.
pub fn tail_note(sorted: &[u64]) -> String {
    match highest_reportable(sorted.len(), &[P50, P99, 9990, 9999]) {
        Some(p) => format!(
            "{} samples; highest percentile with ten beyond: p{} = {:.6} ms",
            sorted.len(),
            p as f64 / 100.0,
            percentile_sorted(sorted, p) as f64 / 1e6
        ),
        None => format!("{} samples: too few for any percentile", sorted.len()),
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p_bp: u64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p_bp) - 1]
}

/// Median of a set of floats (mean of the two middle values for even
/// lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What [`Blocks::quiet`] reports.
pub struct Quiet {
    /// Median latency over the quietest fortieth of the run.
    pub p50_ns: u64,
    /// Requests per second of block time over the same stretch.
    pub rate: f64,
    /// Sampled latencies (ascending) of the tail stretch, for p99.
    pub tail: Vec<u64>,
}

/// Per-request latencies of a run, grouped into blocks of `block_ns` by
/// request start time (for an open loop, the due time). Each block keeps
/// a seeded uniform sample of at most `cap` latencies, so memory stays
/// bounded however many requests a run completes and the process's peak
/// RSS reflects the program, not the harness.
pub struct Blocks {
    origin: u64,
    block_ns: u64,
    cap: usize,
    rng: cortex_rng::Rng,
    blocks: Vec<Block>,
}

#[derive(Default, Clone)]
struct Block {
    lat: Vec<u64>,
    seen: u64,
    first_start: u64,
    last_end: u64,
}

impl Blocks {
    /// Blocks of `block_ns` from `origin`, sampling at most `cap`
    /// latencies per block.
    pub fn new(origin: u64, block_ns: u64, cap: usize, seed: u64) -> Self {
        Blocks {
            origin,
            block_ns,
            cap,
            rng: cortex_rng::Rng::new(seed),
            blocks: Vec::new(),
        }
    }

    /// Records one request that started (or was due) at `start` and
    /// completed at `end`.
    pub fn record(&mut self, start: u64, end: u64) {
        let i = (start.saturating_sub(self.origin) / self.block_ns) as usize;
        if i >= self.blocks.len() {
            self.blocks.resize(i + 1, Block::default());
        }
        let b = &mut self.blocks[i];
        if b.seen == 0 {
            b.first_start = start;
        }
        b.first_start = b.first_start.min(start);
        b.last_end = b.last_end.max(end);
        b.seen += 1;
        let lat = end - start;
        if b.lat.len() < self.cap {
            b.lat.push(lat);
        } else {
            // Reservoir sampling: every request is kept with equal
            // probability cap / seen.
            let j = self.rng.below_u64(b.seen) as usize;
            if j < self.cap {
                b.lat[j] = lat;
            }
        }
    }

    /// Requests recorded.
    pub fn count(&self) -> u64 {
        self.blocks.iter().map(|b| b.seen).sum()
    }

    /// The sampled latencies of every block, ascending.
    pub fn all(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .blocks
            .iter()
            .flat_map(|b| b.lat.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// The end-to-end figures of a run: p50 and throughput over its
    /// quietest fortieth (at least 250 requests), p99 over its quietest
    /// `1 / tail_share` (at least 1000, so that ten samples lie beyond
    /// it). Each percentile takes a small quiet stretch that supports
    /// it, so that a few quiet seconds in a mostly contended run
    /// suffice; the tail share trades contention phases (which a
    /// smaller share avoids) against single host stalls (which more
    /// samples absorb).
    pub fn quiet(&self, tail_share: u64) -> Quiet {
        let n = self.count();
        let (mut mid, rate) = self.quietest((n / 40).max(250));
        let (tail, _) = self.quietest((n / tail_share).max(1000));
        mid.sort_unstable();
        Quiet {
            p50_ns: if mid.is_empty() {
                0
            } else {
                percentile_sorted(&mid, P50)
            },
            rate,
            tail,
        }
    }

    /// The run's quietest stretch: blocks in order of increasing median
    /// latency, taken until they hold at least `min_requests` requests.
    /// This host's co-tenants slow every request of a block alike, in
    /// phases of seconds to minutes; these blocks measure the program
    /// while the host is quiet, and a slowdown of the program itself
    /// still moves every block. Returns their sampled latencies
    /// (ascending) and their completed requests per second of block time.
    pub fn quietest(&self, min_requests: u64) -> (Vec<u64>, f64) {
        let mut ranked: Vec<(u64, &Block)> = self
            .blocks
            .iter()
            .filter(|b| !b.lat.is_empty())
            .map(|b| {
                let mut l = b.lat.clone();
                l.sort_unstable();
                (percentile_sorted(&l, P50), b)
            })
            .collect();
        ranked.sort_by_key(|&(m, b)| (m, b.first_start));
        let (mut kept, mut seen, mut span) = (Vec::new(), 0u64, 0u64);
        for (_, b) in ranked {
            if seen >= min_requests {
                break;
            }
            kept.extend_from_slice(&b.lat);
            seen += b.seen;
            span += b.last_end - b.first_start;
        }
        kept.sort_unstable();
        (kept, seen as f64 / (span.max(1) as f64 / 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, P99), 10);
        assert!(reportable(1000, P99));
        assert_eq!(samples_beyond(999, P99), 9);
        assert!(!reportable(999, P99));
        assert!(!reportable(0, P50));
        // p50 needs 20: ten at or below, ten beyond.
        assert!(reportable(20, P50));
        assert!(!reportable(19, P50));
        assert!(reportable(10_000, 9990));
        assert!(!reportable(9_999, 9990));
    }

    #[test]
    fn highest_reportable_picks_the_top_supported_percentile() {
        let candidates = [P50, P99, 9990, 9999];
        assert_eq!(highest_reportable(100_000, &candidates), Some(9999));
        assert_eq!(highest_reportable(99_999, &candidates), Some(9990));
        assert_eq!(highest_reportable(10_000, &candidates), Some(9990));
        assert_eq!(highest_reportable(9_999, &candidates), Some(P99));
        assert_eq!(highest_reportable(1_000, &candidates), Some(P99));
        assert_eq!(highest_reportable(999, &candidates), Some(P50));
        assert_eq!(highest_reportable(20, &candidates), Some(P50));
        assert_eq!(highest_reportable(19, &candidates), None);
        let v: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        assert_eq!(
            tail_note(&v),
            "1000 samples; highest percentile with ten beyond: p99 = 990.000000 ms"
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, P50), 50);
        assert_eq!(percentile_sorted(&v, P99), 99);
        assert_eq!(percentile_sorted(&v, 10_000), 100);
        assert_eq!(percentile_sorted(&[7u32], P99), 7);
    }

    #[test]
    fn quietest_keeps_the_uncontended_blocks() {
        // 1 ms requests back to back in 20 ms blocks; blocks 3, 7 and 9
        // run at full speed, the rest 1.45x slower (a contention phase).
        let mut blocks = Blocks::new(0, 20_000_000, 1000, 1);
        for block in 0..12u64 {
            let d = if [3, 7, 9].contains(&block) {
                1_000_000
            } else {
                1_450_000
            };
            let mut t = block * 20_000_000;
            for _ in 0..10 {
                blocks.record(t, t + d);
                t += d;
            }
        }
        assert_eq!(blocks.count(), 120);
        let (kept, rate) = blocks.quietest(25);
        assert_eq!(kept.len(), 30, "whole blocks, until at least 25");
        assert!(kept.iter().all(|&l| l == 1_000_000));
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        // Asking for more than the quiet blocks hold takes the next
        // quietest ones too.
        assert_eq!(blocks.quietest(31).0.len(), 40);
        assert_eq!(blocks.quietest(u64::MAX).0.len(), 120);
        assert!(Blocks::new(0, 100, 10, 1).quietest(1).0.is_empty());
    }

    #[test]
    fn each_percentile_takes_the_smallest_quiet_stretch_that_supports_it() {
        // 4000 blocks of 10 requests: the first 100 blocks (2.5% of the
        // run) are quiet (1 ms), the next 300 half-quiet (1.2 ms), the
        // rest contended (1.45 ms).
        let mut blocks = Blocks::new(0, 100_000_000, 100, 3);
        for block in 0..4000u64 {
            let d = match block {
                0..=99 => 1_000_000,
                100..=399 => 1_200_000,
                _ => 1_450_000,
            };
            let mut t = block * 100_000_000;
            for _ in 0..10 {
                blocks.record(t, t + d);
                t += d;
            }
        }
        let q = blocks.quiet(10);
        assert_eq!(q.p50_ns, 1_000_000, "p50 from the quietest 2.5%");
        assert!((q.rate - 1000.0).abs() < 1e-6);
        assert_eq!(q.tail.len(), 4000, "p99 from the quietest 10%");
        assert_eq!(percentile_sorted(&q.tail, P99), 1_200_000);
    }

    #[test]
    fn blocks_keep_a_bounded_uniform_sample() {
        let mut blocks = Blocks::new(0, 1_000_000, 100, 7);
        for i in 0..10_000u64 {
            blocks.record(i * 10, i * 10 + i % 1000);
        }
        assert_eq!(blocks.count(), 10_000);
        let all = blocks.all();
        assert_eq!(all.len(), 100);
        // The sample's median tracks the population's (uniform 0..1000).
        let m = percentile_sorted(&all, P50);
        assert!((350..650).contains(&m), "{m}");
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
