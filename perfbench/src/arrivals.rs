//! Open-loop load: Poisson due times and the rate-ladder search behind
//! `max_rate_rps`.

use cortex_rng::Rng;

/// Due times (nanoseconds from the start of the phase) of `n` Poisson
/// arrivals at `rate` requests per second. Deterministic in `seed`.
pub fn poisson_due_times(rate: f64, n: usize, seed: u64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = Rng::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
            t += -(1.0 - rng.f64()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// The fixed geometric rate ladder: `start · ratio^k` for every rung not
/// above `top`.
pub fn ladder(start: f64, ratio: f64, top: f64) -> Vec<f64> {
    assert!(
        start > 0.0 && ratio > 1.0,
        "ladder must start positive and grow"
    );
    let mut rates = Vec::new();
    let mut r = start;
    while r <= top * (1.0 + 1e-9) {
        rates.push(r);
        r *= ratio;
    }
    rates
}

/// Whether a rung's backlog (requests due but not yet completed, sampled
/// at each arrival) grew over the rung: the mean of the last quarter of
/// samples exceeds twice the first quarter's mean plus `slack`.
pub fn backlog_grows(backlog: &[u32], slack: f64) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u32]| s.iter().map(|&b| b as f64).sum::<f64>() / s.len() as f64;
    mean(&backlog[backlog.len() - q..]) > 2.0 * mean(&backlog[..q]) + slack
}

/// What one rung of the ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// p99 latency from due time, milliseconds.
    pub p99_ms: f64,
    /// Whether the backlog grew over the rung.
    pub backlog_grew: bool,
}

impl Rung {
    /// Whether the rung sustains its rate within `p99_limit_ms`.
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        self.p99_ms <= p99_limit_ms && !self.backlog_grew
    }
}

/// Walks `rates` upward and returns every probe in order. A rung that
/// fails is probed once more and only a second failure ends the walk, so
/// one host stall cannot end it early.
pub fn walk_up(rates: &[f64], p99_limit_ms: f64, probe: &mut impl FnMut(f64) -> Rung) -> Vec<Rung> {
    let mut probes = Vec::new();
    for &rate in rates {
        let first = probe(rate);
        probes.push(first);
        if !first.passes(p99_limit_ms) {
            let second = probe(rate);
            probes.push(second);
            if !second.passes(p99_limit_ms) {
                break;
            }
        }
    }
    probes
}

/// The highest rate a walk sustained: the highest rung with a passing
/// probe (every rung below it passed too, or the walk would have
/// stopped).
pub fn sustained(probes: &[Rung], p99_limit_ms: f64) -> Option<f64> {
    probes
        .iter()
        .filter(|r| r.passes(p99_limit_ms))
        .map(|r| r.rate)
        .reduce(f64::max)
}

/// What the rate search found.
#[derive(Debug, Clone, PartialEq)]
pub struct Search {
    /// Every probe, in order.
    pub probes: Vec<Rung>,
    /// The highest rate sustained; `None` when even the first rung
    /// failed.
    pub max_rate: Option<f64>,
}

/// The rate search behind `max_rate_rps`, on the fixed ladder
/// `start · 2^(k/8)`. Rung `start` is taken as given (`first`). A coarse
/// walk in steps of `2^(1/2)` finds the first failing rung. Then the
/// search climbs from the coarse rung below the last coarse pass, one
/// `2^(1/8)` step at a time
/// for `climb_probes` probes: it moves up once the next rung passes two
/// probes in a row, and re-probes that rung otherwise. Rates never go
/// down, and a rung whose backlog grows is never passed. Contention
/// phases only slow the system, so re-probing lets the search find the
/// rate the program sustains while the host is quiet, which is what a
/// code change moves; two passes in a row keep a lucky probe above the
/// knee from counting.
pub fn ladder_search(
    first: Rung,
    top: f64,
    p99_limit_ms: f64,
    climb_probes: usize,
    mut probe: impl FnMut(f64) -> Rung,
) -> Search {
    let mut probes = vec![first];
    if !first.passes(p99_limit_ms) {
        return Search {
            probes,
            max_rate: None,
        };
    }
    let coarse_step = 2f64.powf(0.5);
    let fine_step = 2f64.powf(0.125);
    let coarse = ladder(first.rate * coarse_step, coarse_step, top);
    probes.extend(walk_up(&coarse, p99_limit_ms, &mut probe));
    // The climb confirms the last coarse pass too: it starts one coarse
    // rung below it.
    let mut best = sustained(&probes, p99_limit_ms).expect("the first rung passed");
    if best > first.rate {
        best /= coarse_step;
    }
    let mut streak = 0;
    for _ in 0..climb_probes {
        let next = best * fine_step;
        if next > top * (1.0 + 1e-9) {
            break;
        }
        let r = probe(next);
        probes.push(r);
        streak = if r.passes(p99_limit_ms) {
            streak + 1
        } else {
            0
        };
        if streak == 2 {
            best = next;
            streak = 0;
        }
    }
    Search {
        probes,
        max_rate: Some(best),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_due_times_are_deterministic_in_the_seed() {
        let a = poisson_due_times(500.0, 2000, 42);
        let b = poisson_due_times(500.0, 2000, 42);
        let c = poisson_due_times(500.0, 2000, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // Mean inter-arrival gap near 1/rate = 2 ms.
        let mean_gap_ms = *a.last().unwrap() as f64 / 1e6 / a.len() as f64;
        assert!((mean_gap_ms - 2.0).abs() < 0.15, "mean gap {mean_gap_ms}");
    }

    #[test]
    fn ladder_is_geometric_and_bounded() {
        let l = ladder(100.0, 2.0, 800.0);
        assert_eq!(l, vec![100.0, 200.0, 400.0, 800.0]);
        assert!(ladder(100.0, 1.5, 99.0).is_empty());
    }

    fn rung(rate: f64, p99_ms: f64, backlog_grew: bool) -> Rung {
        Rung {
            rate,
            p99_ms,
            backlog_grew,
        }
    }

    #[test]
    fn search_is_monotone_and_stops_at_the_knee() {
        // A queue whose p99 rises with load: knee near 1300 rps.
        let p99 = |rate: f64| 5.0 + 20.0 * (rate / 1300.0).powi(4);
        let mut probed = Vec::new();
        let search = ladder_search(rung(400.0, p99(400.0), false), 6400.0, 25.0, 14, |rate| {
            probed.push(rate);
            rung(rate, p99(rate), false)
        });
        // Coarse rungs ascend until a confirmed failure (1600 twice)...
        for (got, want) in probed.iter().zip([565.7, 800.0, 1131.4, 1600.0, 1600.0]) {
            assert!((got - want).abs() < 0.1, "{probed:?}");
        }
        // ...then the climb starts one coarse rung below the last coarse
        // pass (800), moves up after two passes and keeps re-probing the
        // first failing rung (1345), never going down.
        assert!((probed[5] - 872.4).abs() < 0.1, "{probed:?}");
        assert!(probed[5..].windows(2).all(|w| w[0] <= w[1]), "{probed:?}");
        assert!((probed.last().unwrap() - 1345.5).abs() < 0.1, "{probed:?}");
        let best = search.max_rate.unwrap();
        assert!((best - 1233.8).abs() < 0.1, "{best}");
        assert!(p99(best) <= 25.0 && p99(best * 2f64.powf(0.125)) > 25.0);
        // A faster system never reports a lower rate.
        let faster = ladder_search(rung(400.0, 1.0, false), 6400.0, 25.0, 14, |rate| {
            rung(rate, p99(rate / 1.2), false)
        });
        assert!(faster.max_rate.unwrap() > best);
    }

    #[test]
    fn search_stops_on_a_growing_backlog_even_within_the_p99_limit() {
        let mut probed = Vec::new();
        let search = ladder_search(rung(400.0, 1.0, false), 6400.0, 25.0, 16, |rate| {
            probed.push(rate);
            rung(rate, 1.0, rate >= 700.0)
        });
        // 566 passes, 800 fails twice; the climb from 400 reaches 673 and
        // never gets past 734, whose backlog grows.
        assert!(search.probes.last().unwrap().backlog_grew);
        assert_eq!(
            probed.iter().filter(|&&r| r > 700.0 && r < 790.0).count(),
            4
        );
        let best = search.max_rate.unwrap();
        assert!((best - 400.0 * 2f64.powf(0.75)).abs() < 0.1, "{best}");
        // A failing first rung sustains nothing and probes nothing else.
        let search = ladder_search(
            rung(400.0, 30.0, false),
            6400.0,
            25.0,
            4,
            |_| unreachable!(),
        );
        assert_eq!(search.probes.len(), 1);
        assert_eq!(search.max_rate, None);
    }

    #[test]
    fn the_climb_finds_the_quiet_phase_rate() {
        // Contended for the first 8 probes (knee 1000), quiet after
        // (knee 1500).
        let mut calls = 0;
        let search = ladder_search(rung(400.0, 1.0, false), 6400.0, 25.0, 24, |rate| {
            calls += 1;
            let knee = if calls <= 8 { 1000.0 } else { 1500.0 };
            rung(rate, 1.0, rate > knee)
        });
        let best = search.max_rate.unwrap();
        assert!((best - 400.0 * 2f64.powf(15.0 / 8.0)).abs() < 0.1, "{best}");
    }

    #[test]
    fn a_lucky_probe_above_the_knee_does_not_count() {
        // Knee at 1000; every third probe passes by luck, never two in a
        // row (the lucky coarse pass of 1131 is re-checked by the climb).
        let mut calls = 0;
        let search = ladder_search(rung(400.0, 1.0, false), 6400.0, 25.0, 12, |rate| {
            calls += 1;
            rung(rate, 1.0, rate > 1000.0 && calls % 3 != 0)
        });
        assert!((search.max_rate.unwrap() - 951.4).abs() < 0.1, "{search:?}");
    }

    #[test]
    fn one_failed_probe_does_not_end_the_walk() {
        let mut calls = 0;
        let probes = walk_up(&[100.0, 200.0, 400.0], 25.0, &mut |rate| {
            calls += 1;
            // The first probe of 200 hits a stall; its retry passes.
            rung(rate, if calls == 2 { 40.0 } else { 5.0 }, false)
        });
        assert_eq!(probes.len(), 4);
        assert_eq!(sustained(&probes, 25.0), Some(400.0));
    }

    #[test]
    fn backlog_growth_detection() {
        let steady: Vec<u32> = (0..400).map(|i| 3 + (i % 5)).collect();
        assert!(!backlog_grows(&steady, 16.0));
        let growing: Vec<u32> = (0..400).map(|i| i / 4).collect();
        assert!(backlog_grows(&growing, 16.0));
        assert!(
            !backlog_grows(&[100, 1, 2], 16.0),
            "too few samples to judge"
        );
    }
}
