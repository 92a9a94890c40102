//! The two kinds of run and what they print.
//!
//! [`timed`] (`--trace 0`) measures the end-to-end metrics with the
//! flight recorder off: latency and CPU per operation at the workload's
//! fixed nominal rate, set-up time and peak memory. [`traced`]
//! (`--trace 1`) finds the knee on the fixed ladder, repeats the
//! latency phase untraced and traced, and adds the per-layer probes
//! and, where the workload asks for it, the fail-over drill; the
//! difference in CPU per operation between the two phases is the
//! tracing overhead.

use std::time::{Duration, Instant};

use globe_core::trace::FailoverTimeline;
use globe_core::{GlobeRuntime, ProtocolCounters};

use crate::gen::{self, Load, PageMode, Tally};
use crate::probes::{self, Shape};
use crate::stats::{self, median, Dist, Rung};
use crate::workloads::{
    self, check_fifo, check_replicas, deploy, fault_drill, lost_writes, read_document, Deployment,
    FaultTimes, Workload,
};

/// A write the home acknowledged at most this long before the
/// partition may not have reached a peer yet (the home acknowledges
/// after its local apply).
const ACK_BEFORE_PEER_S: f64 = 0.01;

/// How long replicas get to converge after the drain before a page
/// they do not serve counts as wrong.
const CONVERGE: Duration = Duration::from_secs(3);

/// Rungs per doubling of the knee ladder.
const LADDER_STEPS: u32 = 12;

/// One metric line.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        println!("  check {}: {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failures.push(what);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints every metric by name with its unit, then the result line.
    pub fn print(&self) {
        println!("metrics:");
        for m in &self.metrics {
            println!("  {:<40} {:>16} {}", m.name, fmt_num(m.value), m.unit);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit the measurement has.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The deployment's page mode for the latency phase: the fail-over
/// drill writes every page once, so each ack can be checked at the
/// elected home.
fn latency_pages(w: &Workload) -> PageMode {
    if w.failover {
        PageMode::Distinct
    } else {
        PageMode::Fixed(w.pages)
    }
}

/// Outcome of one latency phase (with the fault on the fail-over drill)
/// and its output checks.
struct Phase {
    tally: Tally,
    window: Duration,
    fault: Option<FaultTimes>,
    unavailable_s: Option<f64>,
    known_lost: usize,
    rejoin_missing: usize,
    cpu_s: f64,
    traffic: (u64, u64),
    counters: ProtocolCounters,
    transport_faults: u64,
    applies_checked: usize,
}

fn traffic_totals(rt: &dyn GlobeRuntime) -> (u64, u64, ProtocolCounters) {
    let metrics = rt.metrics();
    let m = metrics.lock();
    (m.total_messages(), m.total_bytes(), m.protocol)
}

/// Runs the latency phase on `dep` at the nominal rate and checks the
/// outputs: every replica serves every acked page, FIFO coherence over
/// the history, well-formed reads, and on the fail-over drill every
/// acked write at the elected home.
fn latency_phase(
    w: &Workload,
    dep: &mut Deployment,
    load: &Load,
    report: &mut Report,
) -> Result<Phase, String> {
    let window = load.window;
    let (msgs0, bytes0, counters0) = traffic_totals(&*dep.rt);
    let mut fault = None;
    let tally = {
        let rt = &mut dep.rt;
        let doc = &dep.docs[0];
        let failover = w.failover;
        gen::run(&dep.port, &mut dep.lanes, load, |start| {
            if failover {
                fault = Some(fault_drill(
                    &mut **rt,
                    doc,
                    start,
                    window.mul_f64(0.3),
                    window.mul_f64(0.65),
                    window + load.drain,
                ));
            }
        })
    };
    // The system threads' CPU over the window, from the sampler's marks.
    let cpu_s = tally.cpu_marks.last().unwrap_or(&0.0) - tally.cpu_marks.first().unwrap_or(&0.0);
    let (msgs1, bytes1, counters1) = traffic_totals(&*dep.rt);
    let transport = dep.rt.metrics().lock().transport;
    let transport_faults = transport.malformed_frames
        + transport.send_errors
        + transport.disconnects
        + transport.rejected_frames
        + transport.spawn_failures;

    let mut unavailable = None;
    let mut known_lost = 0;
    // Pages the deposed home may miss without failing the check: none,
    // unless the fault drill ran (see below).
    let mut deposed_window: Option<(f64, f64)> = None;
    if let Some(f) = fault {
        let end = secs(window + load.drain);
        unavailable = Some(stats::unavailable_s(&tally.ack_s, f.fault_s, f.heal_s, end));
        let elected_s = f.elected_s.unwrap_or(f.heal_s);
        report.check(
            f.elected_s.is_some(),
            format!(
                "a surviving store was elected home ({:.3} s after the partition)",
                elected_s - f.fault_s
            ),
        );
        let view = dep
            .rt
            .membership(dep.docs[0].object)
            .map_err(|e| e.to_string())?;
        let elected = view.members.first().map(|m| m.node);
        let replica = dep.docs[0]
            .replicas
            .iter()
            .position(|&n| Some(n) == elected)
            .ok_or("the elected home is not a replica of the document")?;
        let document = read_document(dep, 0, replica)?;
        // The known loss, the fail-over window in which acknowledged
        // writes are not yet durable across a sequencer change: a
        // write acknowledged after the partition that fell due before
        // the sessions were rerouted (it was resent to the elected home
        // and acknowledged there as a duplicate), or one the home
        // acknowledged just before the partition, after its local apply
        // and before a peer held it.
        let reroute_s = elected_s + secs(workloads::HEARTBEAT);
        let (known, other) = lost_writes(&dep.lanes, &document, |p| {
            (p.acked_at >= f.fault_s && p.due_at <= reroute_s)
                || (p.acked_at < f.fault_s && f.fault_s - p.acked_at <= ACK_BEFORE_PEER_S)
        });
        known_lost = known;
        report.check(
            other == 0,
            format!(
                "every acked write is at the elected home ({other} lost outside the known window; \
                 {known} acked-but-lost writes due before the reroute at {reroute_s:.3} s or acked \
                 within {:.0} ms before the partition at {:.3} s)",
                ACK_BEFORE_PEER_S * 1e3,
                f.fault_s
            ),
        );
        // Lost writes are counted above; no replica can serve them.
        for (thread, doc, page) in workloads::missing_pages(&dep.lanes, 0, &document) {
            dep.lanes[thread].pages[doc][page].acked = 0;
        }
        deposed_window = Some((f.fault_s, f.heal_s + secs(workloads::HEARTBEAT)));
    }
    // The deposed home (replica 0 after a fail-over) is the one replica
    // allowed to miss writes acknowledged while it was partitioned: the
    // same known window, counted as `rejoin_missing` and reported.
    let (wrong, rejoin_missing) = check_replicas(dep, CONVERGE, |replica, page| {
        deposed_window
            .is_some_and(|(lo, hi)| replica == 0 && page.acked_at >= lo && page.acked_at <= hi)
    })?;
    report.check(
        wrong == 0,
        format!(
            "every replica of every document serves the last acked body of each page ({wrong} \
             wrong; {rejoin_missing} writes acked while the deposed home was partitioned never \
             reached it)"
        ),
    );
    report.check(
        tally.bad_reads == 0,
        format!(
            "every read returned a body written to its page ({} bad)",
            tally.bad_reads
        ),
    );
    let applies_checked = match check_fifo(dep) {
        Ok(n) => {
            report.check(
                true,
                format!("FIFO coherence over the history ({n} applies)"),
            );
            n
        }
        Err(e) => {
            report.check(false, e);
            0
        }
    };
    Ok(Phase {
        tally,
        window,
        fault,
        unavailable_s: unavailable,
        known_lost,
        rejoin_missing,
        cpu_s,
        traffic: (msgs1 - msgs0, bytes1 - bytes0),
        counters: delta(&counters1, &counters0),
        transport_faults,
        applies_checked,
    })
}

fn delta(after: &ProtocolCounters, before: &ProtocolCounters) -> ProtocolCounters {
    ProtocolCounters {
        flush_max: after.flush_max - before.flush_max,
        flush_window: after.flush_window - before.flush_window,
        flush_read: after.flush_read - before.flush_read,
        flush_demand: after.flush_demand - before.flush_demand,
        flush_policy: after.flush_policy - before.flush_policy,
        batch_writes: after.batch_writes - before.batch_writes,
        batch_max_size: after.batch_max_size,
        lease_served: after.lease_served - before.lease_served,
        lease_forwarded: after.lease_forwarded - before.lease_forwarded,
        lease_refused: after.lease_refused - before.lease_refused,
        log_truncated: after.log_truncated - before.log_truncated,
    }
}

fn describe_phase(label: &str, w: &Workload, p: &Phase) {
    let t = &p.tally;
    println!(
        "{label}: open loop at {} ops/s for {:.1} s: offered {} issued {} completed {} \
         (issue errors {}, error results {}, abandoned {}, acked-but-lost {})",
        w.nominal_rate,
        secs(p.window),
        t.offered,
        t.issued,
        t.completed,
        t.issue_errors,
        t.error_results,
        t.abandoned,
        p.known_lost
    );
    println!(
        "  read latency from due:  {}",
        Dist::of(t.latencies(true)).describe("ms")
    );
    println!(
        "  write latency from due: {}",
        Dist::of(t.latencies(false)).describe("ms")
    );
    let show = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  per-slice read p50 ms:  {}",
        show(t.slice_p50s(true, p.window, workloads::SLICES))
    );
    println!(
        "  per-slice write p50 ms: {}",
        show(t.slice_p50s(false, p.window, workloads::SLICES))
    );
    println!(
        "  per-slice system CPU us/op: {}",
        show(t.slice_cpu_us_per_op(p.window))
    );
    let late: Vec<f64> = t.late.iter().map(|&(_, l)| l).collect();
    println!(
        "  generator lateness:     {}",
        Dist::of(late).describe("ms")
    );
    if let Some(f) = p.fault {
        println!(
            "  fault: partition at {:.3} s, elected at {}, heal at {:.3} s, old home caught up \
             {} after the heal; unavailable {:.4} s",
            f.fault_s,
            f.elected_s
                .map_or("never".to_string(), |e| format!("{e:.3} s")),
            f.heal_s,
            f.rejoin_catchup_ms.map_or_else(
                || format!("never (watched {:.0} ms)", f.rejoin_watched_ms),
                |c| format!("{c:.1} ms")
            ),
            p.unavailable_s.unwrap_or(0.0)
        );
        println!(
            "  known fail-over defects: {} acked writes lost; {} writes acked while the old home \
             was partitioned never reached it",
            p.known_lost, p.rejoin_missing
        );
    }
}

fn rung_of(t: &Tally, rate: f64, window: Duration) -> Rung {
    let (late_first_ms, late_last_ms) = t.late_quarters(window);
    Rung {
        offered_rate: rate,
        offered: t.offered,
        completed: t.completed_in_grace,
        achieved_rate: t.completed_in_grace as f64 / secs(window),
        p99_ms: t.p99_all_ms(),
        late_first_ms,
        late_last_ms,
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// The untraced run: latency and CPU cost at the nominal rate, set-up
/// time, memory.
pub fn timed(w: &Workload, seed: u64, budget: Duration, threads: usize) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up: the same deployment built and torn down several times.
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        // Set-up ends at the first operation; the workload's content is
        // not needed for it.
        let dep = deploy(
            w,
            seed.wrapping_add(k as u64 + 1),
            false,
            threads,
            PageMode::Distinct,
        )?;
        setups.push(dep.setup_s);
    }
    println!(
        "setup: {} deployments (build, bind, start, first operation), median {:.4} s (range {:.4}..{:.4} s)",
        setups.len(),
        median(&setups),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );

    // Latency at the fixed nominal rate, on the deployment whose
    // outputs are checked.
    let mut dep = deploy(w, seed, false, threads, latency_pages(w))?;
    let window = budget.mul_f64(0.75).max(workloads::MIN_PHASE);
    let load = w.load(w.nominal_rate, window, latency_pages(w), seed);
    let phase = latency_phase(w, &mut dep, &load, &mut report)?;
    drop(dep);
    let peak_rss_mb = workloads::peak_rss_mb();
    describe_phase("latency", w, &phase);
    let t = &phase.tally;
    // CPU per operation moves both ways under interference (a slowed
    // slice batches more work per wake-up), so it takes the median.
    let cpu_us_per_op = median(&t.slice_cpu_us_per_op(phase.window));
    println!(
        "  system threads' CPU {:.2} us per op over the window (benchmark threads left out)",
        phase.cpu_s / t.offered.max(1) as f64 * 1e6
    );
    report.attempted = t.attempted();
    report.failed = t.failed() + phase.known_lost as u64;
    report.metric("server_cpu_us_per_op", cpu_us_per_op, "us");
    let quiet =
        |reads| stats::quiet_quartile(&t.slice_p50s(reads, phase.window, workloads::SLICES));
    println!(
        "  end-to-end latency is the lower quartile, CPU per op the median, over {} slices",
        workloads::SLICES
    );
    report.metric("read_p50_ms", quiet(true), "ms");
    report.metric("write_p50_ms", quiet(false), "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(report)
}

/// The knee: bisect a fixed geometric ladder, each probe on a fresh
/// deployment so no probe inherits another's history or backlog.
/// Returns the completed rate of the highest sustained rung.
fn knee(
    w: &Workload,
    seed: u64,
    budget: Duration,
    threads: usize,
    report: &mut Report,
) -> Result<f64, String> {
    let rungs = stats::ladder(w.ladder.0, w.ladder.1, LADDER_STEPS);
    let probe_window = budget
        .mul_f64(0.05)
        .clamp(Duration::from_millis(400), Duration::from_secs(2));
    let mut probe_seed = seed;
    let mut probe_error = None;
    let mut bad_reads = 0;
    let knee = stats::search_knee(&rungs, 0, w.slo_ms, |rate| {
        probe_seed = probe_seed.wrapping_add(1);
        let mut dep = match deploy(w, probe_seed, false, threads, PageMode::Fixed(w.pages)) {
            Ok(dep) => dep,
            Err(e) => {
                probe_error = Some(e);
                return Rung {
                    offered_rate: rate,
                    offered: 0,
                    completed: 0,
                    achieved_rate: 0.0,
                    p99_ms: f64::INFINITY,
                    late_first_ms: 0.0,
                    late_last_ms: 0.0,
                };
            }
        };
        let mut load = w.load(rate, probe_window, PageMode::Fixed(w.pages), probe_seed);
        load.drain = Duration::from_millis(500);
        let t = gen::run(&dep.port, &mut dep.lanes, &load, |_| {});
        bad_reads += t.bad_reads;
        rung_of(&t, rate, probe_window)
    });
    if let Some(e) = probe_error {
        return Err(e);
    }
    println!(
        "knee: fixed ladder {:.0}..{:.0} ops/s, {LADDER_STEPS} rungs per doubling, {:.2} s \
         probes; a rung passes with completed/offered >= {}, lateness growth <= {} ms and p99 < {} ms",
        rungs[0],
        rungs[rungs.len() - 1],
        secs(probe_window),
        stats::KNEE_MIN_COMPLETION,
        stats::KNEE_MAX_LATE_GROWTH_MS,
        w.slo_ms
    );
    for r in &knee.probes {
        println!(
            "  probe {:>9.0} ops/s: completed {:>7}/{:<7} achieved {:>9.1} ops/s p99 {:>9.3} ms \
             lateness {:.3}->{:.3} ms {}",
            r.offered_rate,
            r.completed,
            r.offered,
            r.achieved_rate,
            r.p99_ms,
            r.late_first_ms,
            r.late_last_ms,
            if stats::rung_passes(r, w.slo_ms) {
                "pass"
            } else {
                "fail"
            }
        );
    }
    if let Some(i) = knee.index {
        println!("  knee at rung {i} ({:.0} ops/s offered)", rungs[i]);
    }
    report.check(
        knee.rung.is_some(),
        "some rung of the knee ladder is sustained",
    );
    report.check(
        bad_reads == 0,
        format!("every knee-probe read returned a body written to its page ({bad_reads} bad)"),
    );
    Ok(knee.rung.map_or(0.0, |r| r.achieved_rate))
}

/// What the fail-over drill measured.
struct Drill {
    phase: Phase,
    timeline: FailoverTimeline,
}

/// The fail-over drill: a traced deployment of [`workloads::drill`]
/// under its light load for `window`, its home partitioned at 30% of
/// the window and healed at 65%. Its operations are not the workload's
/// and stay out of `attempted` and `failed`: unattended fail-over loses
/// acknowledged writes inside a known window, which the drill reports
/// as counts (`lifecycle.acked_lost_writes`,
/// `lifecycle.rejoin_missing_pages`). A loss outside that window fails
/// its output checks.
fn fail_over_drill(
    seed: u64,
    window: Duration,
    threads: usize,
    report: &mut Report,
) -> Result<Drill, String> {
    let d = workloads::drill();
    let seed = seed.wrapping_add(2);
    let mut dep = deploy(&d, seed, true, threads, latency_pages(&d))?;
    let load = d.load(d.nominal_rate, window, latency_pages(&d), seed);
    let phase = latency_phase(&d, &mut dep, &load, report)?;
    describe_phase(
        "fail-over drill (traced home-failover deployment, outside attempted/failed)",
        &d,
        &phase,
    );
    let trace = dep.rt.trace();
    println!(
        "  drill trace: {} events kept, {} dropped",
        trace.len(),
        trace.dropped
    );
    Ok(Drill {
        phase,
        timeline: trace.failover_timeline(),
    })
}

/// The traced run: the latency phase untraced (A) then traced (B), the
/// per-layer probes built from B's shapes, and the fail-over drill
/// where the workload asks for it.
pub fn traced(w: &Workload, seed: u64, budget: Duration, threads: usize) -> Result<Report, String> {
    let mut report = Report::default();
    let knee_ops_s = knee(w, seed, budget, threads, &mut report)?;
    let window = budget.mul_f64(0.25).max(workloads::MIN_PHASE);

    let mut dep = deploy(w, seed, false, threads, latency_pages(w))?;
    let mut load = w.load(w.nominal_rate, window, latency_pages(w), seed);
    load.lock_probe = Some(dep.rt.metrics());
    let a = latency_phase(w, &mut dep, &load, &mut report)?;
    drop(dep);
    describe_phase("phase A (untraced)", w, &a);

    let mut dep = deploy(w, seed.wrapping_add(1), true, threads, latency_pages(w))?;
    let mut load = w.load(
        w.nominal_rate,
        window,
        latency_pages(w),
        seed.wrapping_add(1),
    );
    load.spans = true;
    let b = latency_phase(w, &mut dep, &load, &mut report)?;
    describe_phase("phase B (traced)", w, &b);
    let trace = dep.rt.trace();
    let t0 = Instant::now();
    let breakdowns = trace.write_breakdowns();
    println!(
        "trace: {} events kept, {} dropped, {} write breakdowns (joined in {:.3} s)",
        trace.len(),
        trace.dropped,
        breakdowns.len(),
        t0.elapsed().as_secs_f64()
    );
    let pages: usize = dep.lanes.iter().map(|l| l.pages[0].len()).sum();
    let batch = b.counters.mean_batch_occupancy().round().max(1.0) as usize;
    let (fanout_kind, fanout_bytes) = {
        let metrics = dep.rt.metrics();
        let m = metrics.lock();
        let kinds: Vec<String> = m
            .traffic
            .iter()
            .map(|(kind, c)| {
                format!(
                    "{kind} {}x{:.0}B",
                    c.count,
                    c.bytes as f64 / c.count.max(1) as f64
                )
            })
            .collect();
        println!("traffic of the traced run: {}", kinds.join(", "));
        probes::observed_fanout(&m.traffic)
    };
    let shape = {
        let history = dep.rt.history();
        let history = history.lock();
        Shape::from_run(
            &history,
            dep.docs[0].object,
            w.body_bytes,
            fanout_kind,
            batch,
            w.mirrors,
            pages,
        )
    };
    drop(dep);
    let drill = if w.drill {
        // Longer than the phases above, so detection and election fit
        // well inside the partition even on a busy machine.
        let window = budget.mul_f64(0.4).max(workloads::MIN_PHASE);
        Some(fail_over_drill(seed, window, threads, &mut report)?)
    } else {
        None
    };

    let wire = probes::wire(&shape);
    let multicast_us = probes::multicast(&shape);
    let hop_us = probes::tcp_hop(&shape)?;
    let storage = probes::storage(&shape)?;
    let (put_us, get_us) = probes::web(&shape, w.body_bytes);
    println!(
        "probes (shapes from the traced run: {} logged writes, {} B pages, {} pages, batch {}, {} peers):",
        shape.writes.len(),
        w.body_bytes,
        pages,
        batch,
        w.mirrors
    );
    println!(
        "  fan-out frame {fanout_kind} {} B (the run's {fanout_kind} frames averaged {fanout_bytes:.1} B), \
         write request {} B",
        wire.frame_bytes, wire.write_req_bytes
    );

    let us = |v: &[f64]| Dist::of(v.to_vec());
    // Stage waits end at the ordering decision, or at the apply under
    // models that take no total-order step (FIFO batches apply in
    // place); a breakdown missing a stage contributes no sample.
    let gap = |from: Option<globe_net::SimTime>, to: Option<globe_net::SimTime>| {
        Some(secs(to?.saturating_since(from?)) * 1e6)
    };
    let stage: Vec<f64> = breakdowns
        .iter()
        .filter_map(|x| gap(x.staged, x.ordered.or(x.applied)))
        .collect();
    let apply: Vec<f64> = breakdowns
        .iter()
        .filter_map(|x| gap(x.ordered, x.applied))
        .collect();
    let ack: Vec<f64> = breakdowns
        .iter()
        .filter_map(|x| gap(x.applied, x.acked))
        .collect();
    let (stage, apply, ack) = (us(&stage), us(&apply), us(&ack));
    let issue = us(&b.tally.issue_us);
    let poll = us(&b.tally.poll_us);
    let hops = match w.backend {
        workloads::Backend::Tcp => 2.0 * hop_us,
        workloads::Backend::Shard => 0.0,
    };
    let write_issue_us = Dist::of(b.tally.write_issue_ms.clone()).p50 * 1e3;
    let unattributed = write_issue_us - (issue.p50 + stage.p50 + apply.p50 + ack.p50 + hops);
    println!(
        "write path (p50, us): issued->acked {:.1} = issue {:.2} + [tcp hops {:.1}] + stage {:.1} \
         + order->apply {:.1} + apply->ack {:.1} + unattributed {:.1} (samples: stage {}, \
         order->apply {}, apply->ack {})",
        write_issue_us,
        issue.p50,
        hops,
        stage.p50,
        apply.p50,
        ack.p50,
        unattributed,
        stage.count,
        apply.count,
        ack.count
    );

    let ops_a = a.tally.offered.max(1) as f64;
    let ops_b = b.tally.offered.max(1) as f64;
    let overhead = (b.cpu_s / ops_b) / (a.cpu_s / ops_a).max(f64::MIN_POSITIVE) - 1.0;
    println!(
        "tracing overhead: {:.2} us CPU/op untraced, {:.2} us CPU/op traced",
        a.cpu_s / ops_a * 1e6,
        b.cpu_s / ops_b * 1e6
    );
    let ms = |d: Option<Duration>| d.map_or(0.0, |d| secs(d) * 1e3);
    let ta = &a.tally;
    let late: Vec<f64> = ta.late.iter().map(|&(_, l)| l).collect();

    report.attempted = ta.attempted() + b.tally.attempted();
    report.failed = ta.failed() + b.tally.failed();
    report.metric("knee_ops_s", knee_ops_s, "ops/s");
    report.metric("wire.encode_ns", wire.encode_ns, "ns");
    report.metric("wire.decode_ns", wire.decode_ns, "ns");
    report.metric("wire.frame_bytes", wire.frame_bytes as f64, "bytes");
    report.metric("comm.multicast_us", multicast_us, "us");
    report.metric("comm.msgs_per_op", a.traffic.0 as f64 / ops_a, "count");
    report.metric("comm.bytes_per_op", a.traffic.1 as f64 / ops_a, "bytes");
    report.metric("net.tcp_hop_us", hop_us, "us");
    report.metric(
        "net.transport_faults",
        (a.transport_faults + b.transport_faults) as f64,
        "count",
    );
    report.metric("control.issue_us", issue.p50, "us");
    report.metric("control.poll_us", poll.p50, "us");
    report.metric(
        "control.polls_per_completion",
        b.tally.polls as f64 / ops_b,
        "count",
    );
    report.metric("store_engine.stage_wait_us", stage.p50, "us");
    report.metric("store_engine.stage_wait_p99_us", stage.p99, "us");
    report.metric("store_engine.order_to_apply_us", apply.p50, "us");
    report.metric("store_engine.order_to_apply_p99_us", apply.p99, "us");
    report.metric("store_engine.apply_to_ack_us", ack.p50, "us");
    report.metric("store_engine.apply_to_ack_p99_us", ack.p99, "us");
    report.metric(
        "store_engine.batch_occupancy",
        a.counters.mean_batch_occupancy(),
        "count",
    );
    report.metric(
        "store_engine.lease_hit_ratio",
        a.counters.lease_hit_ratio(),
        "ratio",
    );
    report.metric("storage.append_us", storage.durable_append_us, "us");
    report.metric("storage.memory_append_us", storage.memory_append_us, "us");
    report.metric("storage.checkpoint_us", storage.checkpoint_us, "us");
    report.metric("storage.compact_us", storage.compact_us, "us");
    report.metric(
        "storage.log_truncated",
        a.counters.log_truncated as f64,
        "count",
    );
    report.metric("web.apply_put_us", put_us, "us");
    report.metric("web.apply_get_us", get_us, "us");
    let lock_wait: Vec<f64> = ta.lock_wait_us.clone();
    report.metric(
        "metrics.lock_wait_us",
        lock_wait.iter().sum::<f64>() / lock_wait.len().max(1) as f64,
        "us",
    );
    // The lifecycle figures come from the drill; 0 where it did not run.
    let drilled = |f: &dyn Fn(&Drill) -> f64| drill.as_ref().map_or(0.0, f);
    report.metric(
        "lifecycle.detect_to_takeover_ms",
        drilled(&|d| ms(d.timeline.detection_to_takeover())),
        "ms",
    );
    report.metric(
        "lifecycle.takeover_to_first_write_ms",
        drilled(&|d| ms(d.timeline.takeover_to_first_write())),
        "ms",
    );
    report.metric(
        "lifecycle.rejoin_catchup_ms",
        drilled(&|d| {
            d.phase
                .fault
                .map_or(0.0, |f| f.rejoin_catchup_ms.unwrap_or(f.rejoin_watched_ms))
        }),
        "ms",
    );
    report.metric(
        "lifecycle.rejoin_missing_pages",
        drilled(&|d| d.phase.rejoin_missing as f64),
        "count",
    );
    report.metric(
        "lifecycle.acked_lost_writes",
        drilled(&|d| d.phase.known_lost as f64),
        "count",
    );
    report.metric(
        "unavailable_s",
        drilled(&|d| d.phase.unavailable_s.unwrap_or(0.0)),
        "s",
    );
    report.metric(
        "coherence.stale_read_frac",
        ta.stale_reads as f64 / ta.reads_done.max(1) as f64,
        "ratio",
    );
    report.metric(
        "coherence.applies_checked",
        a.applies_checked as f64,
        "count",
    );
    report.metric("read_p99_ms", Dist::of(ta.latencies(true)).p99, "ms");
    report.metric("write_p99_ms", Dist::of(ta.latencies(false)).p99, "ms");
    report.metric(
        "failed_frac",
        ta.failed() as f64 / ta.attempted().max(1) as f64,
        "ratio",
    );
    report.metric("generator.late_p99_ms", Dist::of(late).p99, "ms");
    report.metric("trace.dropped", trace.dropped as f64, "count");
    report.metric("trace.overhead_frac", overhead, "ratio");
    report.metric("unattributed_us", unattributed, "us");
    Ok(report)
}
