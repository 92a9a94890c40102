//! The benchmark's own arithmetic: percentiles with their sample
//! counts, due-time latency, the knee-ladder decision and the
//! ack-gap measure of unavailability. Pure functions, so the unit
//! tests at the bottom pin every decision the report depends on.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Each non-empty slice's median, for (offset, value) samples over
/// `slices` equal slices of `[0, window)`.
pub fn slice_medians(samples: &[(f64, f64)], window: f64, slices: usize) -> Vec<f64> {
    let slices = slices.max(1);
    let mut buckets = vec![Vec::new(); slices];
    for &(at, v) in samples {
        let i = ((at / window * slices as f64) as usize).min(slices - 1);
        buckets[i].push(v);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect()
}

/// The lower quartile of per-slice figures: the level the run holds in
/// its quieter stretches. On a shared machine other tenants slow whole
/// slices of a run at random; a change to the program moves every
/// slice, so this is the figure that repeats and still shows it.
pub fn quiet_quartile(per_slice: &[f64]) -> f64 {
    let mut v = per_slice.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.25)
}

/// A latency distribution reported the way the benchmark promises: the
/// median, the p99, and the highest tail percentile that still has at
/// least ten samples beyond it, always with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (check `count` before trusting it).
    pub p99: f64,
    /// The deepest tail percentile with at least ten samples beyond
    /// it, as (quantile, value); `None` below ten samples.
    pub tail: Option<(f64, f64)>,
}

/// Tail quantiles considered for [`Dist::tail`], deepest first, in
/// parts per thousand (exact integer ranks, no float rounding).
const TAILS: [usize; 4] = [999, 990, 900, 500];

impl Dist {
    /// Summarizes `samples` (any order).
    pub fn of(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        let tail = TAILS
            .iter()
            .find(|&&permille| count - (permille * count).div_ceil(1000) >= 10)
            .map(|&permille| {
                let q = permille as f64 / 1000.0;
                (q, quantile(&samples, q))
            });
        Dist {
            count,
            p50: quantile(&samples, 0.5),
            p99: quantile(&samples, 0.99),
            tail,
        }
    }

    /// `p50 … pNN (n=…)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "p50 {:.4} {unit}, p{} {:.4} {unit} (n={})",
                self.p50,
                q * 100.0,
                v,
                self.count
            ),
            None => format!(
                "p50 {:.4} {unit} (n={}, too few for a tail)",
                self.p50, self.count
            ),
        }
    }
}

/// Client-observed timing of one open-loop operation: latency counts
/// from the instant the operation was *due*, so a generator stall is
/// charged to every operation it delayed; lateness is how far behind
/// schedule the generator issued it.
pub fn op_timing(due: Instant, issued: Instant, done: Instant) -> (Duration, Duration) {
    (
        done.saturating_duration_since(due),
        issued.saturating_duration_since(due),
    )
}

/// What one knee-ladder probe observed at one offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, operations per second.
    pub offered_rate: f64,
    /// Operations due inside the probe window.
    pub offered: u64,
    /// Of those, operations completed by the end of the window plus
    /// the SLO as grace.
    pub completed: u64,
    /// Completed operations per second of the window.
    pub achieved_rate: f64,
    /// p99 of due-time latency, ms, over every due operation (an
    /// unfinished one counts as missing the SLO).
    pub p99_ms: f64,
    /// Median generator lateness over the first quarter of the window.
    pub late_first_ms: f64,
    /// Median generator lateness over the last quarter of the window.
    pub late_last_ms: f64,
}

/// Minimum completed/offered for a rung to count as sustained.
pub const KNEE_MIN_COMPLETION: f64 = 0.99;

/// Lateness growth across a probe beyond which the generator (or the
/// process it shares cores with) is falling behind its own schedule.
pub const KNEE_MAX_LATE_GROWTH_MS: f64 = 1.0;

/// The knee decision for one rung: enough completions, a generator
/// that kept to its schedule, and p99 under the workload's SLO.
pub fn rung_passes(rung: &Rung, slo_ms: f64) -> bool {
    rung.offered > 0
        && rung.completed as f64 >= KNEE_MIN_COMPLETION * rung.offered as f64
        && rung.late_last_ms - rung.late_first_ms <= KNEE_MAX_LATE_GROWTH_MS
        && rung.p99_ms < slo_ms
}

/// The fixed geometric ladder of offered rates: `steps` rungs per
/// doubling from `min` up to and including the first rung at or above
/// `max`.
pub fn ladder(min: f64, max: f64, steps: u32) -> Vec<f64> {
    let mut rungs = Vec::new();
    let mut k = 0u32;
    loop {
        let rate = min * 2f64.powf(f64::from(k) / f64::from(steps));
        rungs.push(rate);
        if rate >= max {
            return rungs;
        }
        k += 1;
    }
}

/// Result of a knee search: the highest passing rung (if any) and
/// every probe made, in order.
#[derive(Debug, Clone)]
pub struct Knee {
    /// Index into the ladder of the highest rung that passed.
    pub index: Option<usize>,
    /// The passing rung's measurement.
    pub rung: Option<Rung>,
    /// Every probe, in the order made.
    pub probes: Vec<Rung>,
}

/// Bisects the ladder for the highest rung that passes, starting from
/// rung `start` (expected to pass). Assumes a monotone system: a rung
/// above a failing one is not probed. A failing rung is probed once
/// more before it counts as failed, so one scheduler stall on a shared
/// machine does not cut the knee.
pub fn search_knee(
    rungs: &[f64],
    start: usize,
    slo_ms: f64,
    mut probe: impl FnMut(f64) -> Rung,
) -> Knee {
    let mut probes = Vec::new();
    let mut best: Option<(usize, Rung)> = None;
    // Invariant: every rung below `lo` passed (or was skipped as below
    // a pass); every rung at or above `hi` failed or is untested above.
    let mut lo = 0usize;
    let mut hi = rungs.len();
    let mut next = start.min(rungs.len().saturating_sub(1));
    while lo < hi {
        let mut rung = probe(rungs[next]);
        probes.push(rung);
        if !rung_passes(&rung, slo_ms) {
            rung = probe(rungs[next]);
            probes.push(rung);
        }
        if rung_passes(&rung, slo_ms) {
            best = Some((next, rung));
            lo = next + 1;
        } else {
            hi = next;
        }
        if lo >= hi {
            break;
        }
        next = lo + (hi - lo) / 2;
    }
    Knee {
        index: best.map(|(i, _)| i),
        rung: best.map(|(_, r)| r),
        probes,
    }
}

/// Time without service across a fault: the largest gap between
/// consecutive write acks (seconds since the run started, any order)
/// that overlaps the fault window `[fault, heal]`. With no ack after
/// the fault the gap runs to `end`.
pub fn unavailable_s(acks: &[f64], fault: f64, heal: f64, end: f64) -> f64 {
    let mut sorted = acks.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut worst = 0.0f64;
    let mut prev: Option<f64> = None;
    for &ack in &sorted {
        if let Some(p) = prev {
            if ack > fault && p < heal {
                worst = worst.max(ack - p);
            }
        }
        prev = Some(ack);
    }
    match prev {
        Some(last) if last <= fault => worst.max(end - last),
        None => end,
        _ => worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn slice_medians_bucket_by_offset() {
        // Five slices of 1.0 except one stalled slice at 50.0.
        let mut samples: Vec<(f64, f64)> = (0..500).map(|i| (f64::from(i) / 100.0, 1.0)).collect();
        for s in samples.iter_mut().filter(|(at, _)| *at >= 2.0 && *at < 3.0) {
            s.1 = 50.0;
        }
        assert_eq!(
            slice_medians(&samples, 5.0, 5),
            vec![1.0, 1.0, 50.0, 1.0, 1.0]
        );
        // Offsets past the window land in the last slice; empty slices
        // are skipped.
        assert_eq!(slice_medians(&[(9.0, 2.0)], 5.0, 5), vec![2.0]);
        assert!(slice_medians(&[], 5.0, 5).is_empty());
    }

    #[test]
    fn quiet_quartile_ignores_slowed_slices_but_not_a_shift() {
        let quiet = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0];
        let q = quiet_quartile(&quiet);
        // Three of eight slices slowed threefold by a neighbour: the
        // figure stays put.
        let noisy = [3.0, 1.1, 0.9, 3.0, 1.05, 0.95, 3.0, 1.0];
        assert_eq!(quiet_quartile(&noisy), q);
        // A regression that slows every slice by 20% shows in full.
        let slower: Vec<f64> = quiet.iter().map(|x| x * 1.2).collect();
        assert!((quiet_quartile(&slower) - q * 1.2).abs() < 1e-9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let d = Dist::of((0..1000).map(f64::from).collect());
        assert_eq!(d.count, 1000);
        assert_eq!(d.tail.map(|t| t.0), Some(0.99));
        // 10,000 samples reach p99.9.
        let d = Dist::of((0..10_000).map(f64::from).collect());
        assert_eq!(d.tail.map(|t| t.0), Some(0.999));
        // 100 samples: only p90 is backed by ten samples.
        let d = Dist::of((0..100).map(f64::from).collect());
        assert_eq!(d.tail.map(|t| t.0), Some(0.9));
        // Nine samples back nothing, and the report says so.
        let d = Dist::of((0..9).map(f64::from).collect());
        assert_eq!(d.tail, None);
        assert!(d.describe("ms").contains("n=9"));
    }

    #[test]
    fn due_time_latency_charges_generator_stalls() {
        // Four ops due 1 ms apart; the generator stalls and issues all
        // of them at t = 3 ms; each completes 0.1 ms after issue.
        let t0 = Instant::now();
        let ms = |x: f64| t0 + Duration::from_secs_f64(x / 1e3);
        let mut lat = Vec::new();
        let mut late = Vec::new();
        for i in 0..4 {
            let (l, g) = op_timing(ms(f64::from(i)), ms(3.0), ms(3.1));
            lat.push((l.as_secs_f64() * 1e3 * 10.0).round() / 10.0);
            late.push((g.as_secs_f64() * 1e3 * 10.0).round() / 10.0);
        }
        assert_eq!(lat, vec![3.1, 2.1, 1.1, 0.1]);
        assert_eq!(late, vec![3.0, 2.0, 1.0, 0.0]);
        // Completion before the due instant (clock skew) saturates.
        let (l, g) = op_timing(ms(5.0), ms(4.0), ms(4.5));
        assert_eq!((l, g), (Duration::ZERO, Duration::ZERO));
    }

    /// A synthetic system with a hard capacity: completions track the
    /// offered rate up to `cap`, then fall behind and p99 explodes.
    fn synthetic(cap: f64) -> impl FnMut(f64) -> Rung {
        move |rate| {
            let offered = rate as u64;
            let over = rate > cap;
            Rung {
                offered_rate: rate,
                offered,
                completed: if over { cap as u64 } else { offered },
                achieved_rate: rate.min(cap),
                p99_ms: if over { 500.0 } else { 1.0 },
                late_first_ms: 0.1,
                late_last_ms: 0.1,
            }
        }
    }

    #[test]
    fn ladder_is_geometric_and_fixed() {
        let l = ladder(1000.0, 8000.0, 4);
        assert_eq!(l.len(), 13);
        assert!((l[4] - 2000.0).abs() < 1e-9);
        assert!((l[12] - 8000.0).abs() < 1e-6);
        assert_eq!(l, ladder(1000.0, 8000.0, 4));
    }

    #[test]
    fn knee_search_finds_highest_sustained_rung() {
        let rungs = ladder(1000.0, 64_000.0, 8);
        for cap in [1500.0, 9_000.0, 20_000.0, 33_333.0] {
            let knee = search_knee(&rungs, 8, 50.0, synthetic(cap));
            let i = knee.index.expect("some rung passes");
            assert!(rungs[i] <= cap, "cap {cap}: rung {} above it", rungs[i]);
            assert!(
                i + 1 == rungs.len() || rungs[i + 1] > cap,
                "cap {cap}: rung {} is not the highest",
                rungs[i]
            );
            assert!(knee.probes.len() <= 14, "bisection, not a sweep");
        }
        // A rung that fails once and passes on its second probe passes.
        let mut calls = 0;
        let flaky = search_knee(&rungs, 8, 50.0, |rate| {
            calls += 1;
            let mut rung = synthetic(9_000.0)(rate);
            if calls == 1 {
                rung.p99_ms = 80.0;
            }
            rung
        });
        assert_eq!(flaky.probes.len(), calls);
        assert!(rungs[flaky.index.expect("passes")] > 8_000.0);
        // Nothing passes: no knee. Everything passes: the top rung.
        assert_eq!(search_knee(&rungs, 8, 50.0, synthetic(10.0)).index, None);
        let top = search_knee(&rungs, 8, 50.0, synthetic(1e9));
        assert_eq!(top.index, Some(rungs.len() - 1));
    }

    #[test]
    fn knee_rejects_each_failure_mode() {
        let ok = Rung {
            offered_rate: 1000.0,
            offered: 1000,
            completed: 1000,
            achieved_rate: 1000.0,
            p99_ms: 2.0,
            late_first_ms: 0.1,
            late_last_ms: 0.2,
        };
        assert!(rung_passes(&ok, 10.0));
        // 98% completion is a backlog, not a pass.
        assert!(!rung_passes(
            &Rung {
                completed: 980,
                ..ok
            },
            10.0
        ));
        // p99 at or over the SLO.
        assert!(!rung_passes(&Rung { p99_ms: 10.0, ..ok }, 10.0));
        // The generator drifting behind its own schedule.
        assert!(!rung_passes(
            &Rung {
                late_last_ms: 5.0,
                ..ok
            },
            10.0
        ));
        assert!(!rung_passes(&Rung { offered: 0, ..ok }, 10.0));
    }

    #[test]
    fn unavailability_is_the_gap_across_the_fault() {
        // Acks every 10 ms, fault at 1.0 s, service back at 2.2 s.
        let mut acks: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.01).collect();
        acks.extend((0..50).map(|i| 2.2 + f64::from(i) * 0.01));
        let u = unavailable_s(&acks, 1.0, 3.0, 4.0);
        assert!((u - (2.2 - 0.99)).abs() < 1e-9, "got {u}");
        // A straggler ack just after the fault does not hide the outage.
        acks.push(1.001);
        let u = unavailable_s(&acks, 1.0, 3.0, 4.0);
        assert!((u - (2.2 - 1.001)).abs() < 1e-9, "got {u}");
        // Gaps wholly before the fault or after the heal do not count.
        let calm: Vec<f64> = vec![0.0, 0.5, 1.01, 1.02, 3.5, 3.51];
        let u = unavailable_s(&calm, 1.0, 3.0, 4.0);
        assert!((u - (3.5 - 1.02)).abs() < 1e-9, "got {u}");
        // No ack after the fault: the outage runs to the end.
        assert!((unavailable_s(&[0.1, 0.2], 1.0, 3.0, 4.0) - 3.8).abs() < 1e-9);
        assert_eq!(unavailable_s(&[], 1.0, 3.0, 4.0), 4.0);
    }
}
