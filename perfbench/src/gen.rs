//! The open-loop load generator.
//!
//! At most `nproc` generator threads issue through one
//! [`EnginePort`]; each thread multiplexes a writer and a reader handle
//! per document and runs its own Poisson arrival process, so the
//! offered load does not slow down when the system does. Every
//! operation is timed from the instant it was *due*, and the thread
//! records how late it issued it. Each thread owns its pages (page
//! names carry the thread number), so the last acknowledged write of a
//! page is well defined under FIFO coherence and the final-state
//! checks can name the body every replica must serve.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_core::{CallError, ClientHandle, EnginePort, RequestId, SharedMetrics};
use globe_web::{methods, Page};
use globe_workload::{Arrival, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::op_timing;
use crate::workloads::BENCH_THREAD_PREFIX;

/// How long a thread with operations in flight sleeps between polls.
const POLL_INTERVAL: Duration = Duration::from_micros(100);

/// How often the first thread times acquiring the metrics mutex.
const LOCK_PROBE_EVERY: Duration = Duration::from_millis(5);

/// Reads in [`PageMode::Distinct`] pick among this many of the thread's
/// most recently written pages.
const RECENT_PAGES: usize = 16;

/// Which pages a thread's operations touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// A fixed set of pages per document, each overwritten in place.
    Fixed(u32),
    /// Every write creates a new page; reads pick a recent one.
    Distinct,
}

/// Write bookkeeping for one page of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PageState {
    /// Highest write sequence issued to the page.
    pub issued: u32,
    /// Highest write sequence acknowledged.
    pub acked: u32,
    /// When that acknowledgement was observed, seconds since the
    /// phase started (only meaningful in the phase that acked it).
    pub acked_at: f64,
    /// When the last issued write fell due, seconds since the phase
    /// started.
    pub due_at: f64,
}

/// One generator thread's handles and the state of its pages.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Thread number (part of every page name it writes).
    pub thread: usize,
    /// Writer handle per document (bound for writes at the home).
    pub writers: Vec<ClientHandle>,
    /// Reader handle per document (bound to a mirror).
    pub readers: Vec<ClientHandle>,
    /// Page states per document.
    pub pages: Vec<Vec<PageState>>,
}

/// The page a thread names `p` in every document.
pub fn page_name(thread: usize, page: usize) -> String {
    format!("t{thread}p{page}")
}

/// The body of write `seq` to a page: a parseable tag padded to the
/// workload's fixed size.
pub fn page_body(thread: usize, page: usize, seq: u32, bytes: usize) -> Bytes {
    let mut body = format!("t{thread}p{page}s{seq}|").into_bytes();
    body.resize(bytes.max(body.len()), b'.');
    Bytes::from(body)
}

/// The write sequence a body carries, if it is a body of `page`.
pub fn body_seq(body: &[u8], thread: usize, page: usize) -> Option<u32> {
    let end = body.iter().position(|&b| b == b'|')?;
    let tag = std::str::from_utf8(&body[..end]).ok()?;
    let rest = tag.strip_prefix(&format!("t{thread}p{page}s"))?;
    rest.parse().ok()
}

/// One phase of offered load.
#[derive(Clone)]
pub struct Load {
    /// Total offered rate across threads, operations per second.
    pub rate: f64,
    /// How long operations keep falling due.
    pub window: Duration,
    /// Completions up to this long after the window still count as
    /// keeping up (the knee decision).
    pub grace: Duration,
    /// Longest drain after the window before in-flight operations are
    /// abandoned.
    pub drain: Duration,
    /// Fraction of operations that are reads.
    pub read_frac: f64,
    /// Zipf skew over documents.
    pub zipf_theta: f64,
    /// Which pages operations touch.
    pub pages: PageMode,
    /// Fixed body size of every write.
    pub body_bytes: usize,
    /// Seed of the arrival and choice streams.
    pub seed: u64,
    /// Time every `issue`/`try_result` call (traced runs only).
    pub spans: bool,
    /// Periodically time taking this mutex while the load runs.
    pub lock_probe: Option<SharedMetrics>,
    /// Equal slices of the window that per-slice figures are taken
    /// over (latency medians, CPU per operation).
    pub slices: usize,
}

/// What the threads of one phase observed, merged.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations that fell due inside the window.
    pub offered: u64,
    /// Operations issued without error.
    pub issued: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    /// Operations completed by the end of the window plus the grace.
    pub completed_in_grace: u64,
    /// `issue` calls that returned an error.
    pub issue_errors: u64,
    /// Completions that carried an error.
    pub error_results: u64,
    /// Operations still in flight when the drain gave up.
    pub abandoned: u64,
    /// Reads whose body is not a body ever written to that page.
    pub bad_reads: u64,
    /// Reads older than a write to the same page acknowledged before
    /// the read was issued.
    pub stale_reads: u64,
    /// Reads completed (the base of the two counters above).
    pub reads_done: u64,
    /// Due-time read latency as (due offset s, latency ms).
    pub read_ms: Vec<(f64, f64)>,
    /// Due-time write latency as (due offset s, latency ms).
    pub write_ms: Vec<(f64, f64)>,
    /// Write latency from issue (not due), ms.
    pub write_issue_ms: Vec<f64>,
    /// (due offset s, lateness ms) per issued operation.
    pub late: Vec<(f64, f64)>,
    /// Write acknowledgements, seconds since the phase started.
    pub ack_s: Vec<f64>,
    /// Duration of each `EnginePort::issue` call, µs (spans on).
    pub issue_us: Vec<f64>,
    /// Duration of each `EnginePort::try_result` call, µs (spans on).
    pub poll_us: Vec<f64>,
    /// `try_result` calls made.
    pub polls: u64,
    /// Time to acquire the metrics mutex, µs (lock probe on).
    pub lock_wait_us: Vec<f64>,
    /// CPU seconds of the system's threads (the benchmark's own left
    /// out) at each slice boundary of the window.
    pub cpu_marks: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, mut other: Tally) {
        self.offered += other.offered;
        self.issued += other.issued;
        self.completed += other.completed;
        self.completed_in_grace += other.completed_in_grace;
        self.issue_errors += other.issue_errors;
        self.error_results += other.error_results;
        self.abandoned += other.abandoned;
        self.bad_reads += other.bad_reads;
        self.stale_reads += other.stale_reads;
        self.reads_done += other.reads_done;
        self.read_ms.append(&mut other.read_ms);
        self.write_ms.append(&mut other.write_ms);
        self.write_issue_ms.append(&mut other.write_issue_ms);
        self.late.append(&mut other.late);
        self.ack_s.append(&mut other.ack_s);
        self.issue_us.append(&mut other.issue_us);
        self.poll_us.append(&mut other.poll_us);
        self.polls += other.polls;
        self.lock_wait_us.append(&mut other.lock_wait_us);
    }

    /// Operations the phase attempted to issue.
    pub fn attempted(&self) -> u64 {
        self.issued + self.issue_errors
    }

    /// Operations that failed: issue errors, error results and
    /// abandoned ones.
    pub fn failed(&self) -> u64 {
        self.issue_errors + self.error_results + self.abandoned
    }

    /// Latencies of reads (or writes), ms.
    pub fn latencies(&self, reads: bool) -> Vec<f64> {
        let samples = if reads { &self.read_ms } else { &self.write_ms };
        samples.iter().map(|&(_, ms)| ms).collect()
    }

    /// Per-slice medians of read (or write) latency, ms.
    pub fn slice_p50s(&self, reads: bool, window: Duration, slices: usize) -> Vec<f64> {
        let samples = if reads { &self.read_ms } else { &self.write_ms };
        crate::stats::slice_medians(samples, window.as_secs_f64(), slices)
    }

    /// Per-slice CPU of the system's threads per operation due in the
    /// slice, µs.
    pub fn slice_cpu_us_per_op(&self, window: Duration) -> Vec<f64> {
        let slices = self.cpu_marks.len().saturating_sub(1).max(1);
        let mut due = vec![0u64; slices];
        let w = window.as_secs_f64();
        for &(at, _) in &self.late {
            due[((at / w * slices as f64) as usize).min(slices - 1)] += 1;
        }
        self.cpu_marks
            .windows(2)
            .zip(&due)
            .filter(|(_, &n)| n > 0)
            .map(|(m, &n)| (m[1] - m[0]) / n as f64 * 1e6)
            .collect()
    }

    /// Median lateness over the first and the last quarter of the
    /// window, ms.
    pub fn late_quarters(&self, window: Duration) -> (f64, f64) {
        let w = window.as_secs_f64();
        let pick = |lo: f64, hi: f64| {
            let v: Vec<f64> = self
                .late
                .iter()
                .filter(|(at, _)| *at >= lo * w && *at < hi * w)
                .map(|&(_, l)| l)
                .collect();
            crate::stats::median(&v)
        };
        (pick(0.0, 0.25), pick(0.75, 1.0))
    }

    /// p99 of due-time latency over every due operation, counting one
    /// that did not complete within the grace as infinitely late.
    pub fn p99_all_ms(&self) -> f64 {
        let mut all: Vec<f64> = self
            .read_ms
            .iter()
            .chain(&self.write_ms)
            .map(|&(_, ms)| ms)
            .collect();
        let missing = self.offered.saturating_sub(self.completed_in_grace);
        all.extend(std::iter::repeat_n(f64::INFINITY, missing as usize));
        all.sort_by(f64::total_cmp);
        crate::stats::quantile(&all, 0.99)
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: RequestId,
    due: Instant,
    issued: Instant,
    is_read: bool,
    doc: usize,
    page: usize,
    seq: u32,
    /// Highest acknowledged write of the page when a read was issued.
    acked_then: u32,
}

/// Runs one phase of `load` over `lanes` (one thread each) and merges
/// what they observed. Page states in `lanes` advance in place.
/// `during` runs on the calling thread while the load is live (fault
/// injection), and is handed the instant the first operation fell due.
pub fn run(
    port: &Arc<dyn EnginePort>,
    lanes: &mut [Lane],
    load: &Load,
    during: impl FnOnce(Instant),
) -> Tally {
    // A common start a little in the future, so every thread's first
    // operation is due at the same instant.
    let start = Instant::now() + Duration::from_millis(2);
    let threads = lanes.len().max(1);
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let (window, slices) = (load.window, load.slices.max(1));
        let sampler = std::thread::Builder::new()
            .name(format!("{BENCH_THREAD_PREFIX}cpu"))
            .spawn_scoped(scope, move || {
                (0..=slices)
                    .map(|k| {
                        let at = start + window.mul_f64(k as f64 / slices as f64);
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        crate::workloads::server_cpu_seconds()
                    })
                    .collect::<Vec<f64>>()
            })
            .expect("spawn the CPU sampler");
        let joins: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let port = Arc::clone(port);
                let load = load.clone();
                std::thread::Builder::new()
                    .name(format!("{BENCH_THREAD_PREFIX}gen{}", lane.thread))
                    .spawn_scoped(scope, move || drive(&*port, lane, &load, threads, start))
                    .expect("spawn a generator thread")
            })
            .collect();
        during(start);
        for join in joins {
            let part = join.join().expect("generator thread panicked");
            tally.merge(part);
        }
        tally.cpu_marks = sampler.join().expect("CPU sampler panicked");
    });
    tally
}

/// One generator thread.
fn drive(
    port: &dyn EnginePort,
    lane: &mut Lane,
    load: &Load,
    threads: usize,
    start: Instant,
) -> Tally {
    let mut rng = StdRng::seed_from_u64(
        load.seed ^ (lane.thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let docs = lane.writers.len();
    let zipf = Zipf::new(docs.max(1), load.zipf_theta);
    let arrival = Arrival::Poisson(load.rate / threads as f64);
    let window_end = start + load.window;
    let grace_end = window_end + load.grace;
    let drain_end = window_end + load.drain;
    // In-flight operations per handle: index 2·doc for the writer,
    // 2·doc + 1 for the reader. Completions of one handle arrive in
    // issue order (FIFO per client), so polling stops at the first
    // operation of a handle that has not completed.
    let mut queues: Vec<VecDeque<InFlight>> = vec![VecDeque::new(); 2 * docs];
    let mut in_flight = 0usize;
    let mut t = Tally::default();
    let mut next_due = start + arrival.next_gap(&mut rng);
    let mut next_lock_probe = start;
    let probe_lock = lane.thread == 0 && load.lock_probe.is_some();

    let now = Instant::now();
    if start > now {
        std::thread::sleep(start - now);
    }
    loop {
        let now = Instant::now();
        while next_due <= now && next_due < window_end {
            t.offered += 1;
            let is_read = rng.random::<f64>() < load.read_frac;
            let doc = zipf.sample(&mut rng);
            let op = choose(lane, doc, is_read, load, &mut rng);
            if !is_read {
                lane.pages[doc][op.page].due_at = (next_due - start).as_secs_f64();
            }
            let (handle, inv) = if is_read {
                (
                    lane.readers[doc],
                    methods::get_page(&page_name(lane.thread, op.page)),
                )
            } else {
                let body = page_body(lane.thread, op.page, op.seq, load.body_bytes);
                let inv = methods::put_page(&page_name(lane.thread, op.page), &Page::html(body));
                (lane.writers[doc], inv)
            };
            let issue_start = Instant::now();
            let issued = port.issue(&handle, inv, is_read);
            let issued_at = Instant::now();
            if load.spans {
                t.issue_us.push(micros(issued_at - issue_start));
            }
            match issued {
                Ok(req) => {
                    t.issued += 1;
                    let due = next_due;
                    let late = issued_at.saturating_duration_since(due);
                    t.late
                        .push(((due - start).as_secs_f64(), late.as_secs_f64() * 1e3));
                    queues[2 * doc + usize::from(is_read)].push_back(InFlight {
                        req,
                        due,
                        issued: issued_at,
                        is_read,
                        doc,
                        page: op.page,
                        seq: op.seq,
                        acked_then: op.acked_then,
                    });
                    in_flight += 1;
                }
                Err(_) => t.issue_errors += 1,
            }
            next_due += arrival.next_gap(&mut rng);
        }
        if probe_lock && now >= next_lock_probe {
            if let Some(metrics) = &load.lock_probe {
                let t0 = Instant::now();
                drop(metrics.lock());
                t.lock_wait_us.push(micros(t0.elapsed()));
            }
            next_lock_probe = now + LOCK_PROBE_EVERY;
        }
        in_flight -= poll(port, lane, &mut queues, load, start, grace_end, &mut t);
        let now = Instant::now();
        if next_due >= window_end {
            if in_flight == 0 || now >= drain_end {
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        } else if next_due > now {
            let wait = next_due - now;
            std::thread::sleep(if in_flight > 0 {
                wait.min(POLL_INTERVAL)
            } else {
                wait
            });
        }
    }
    t.abandoned = in_flight as u64;
    t
}

struct Chosen {
    page: usize,
    seq: u32,
    acked_then: u32,
}

/// Picks the page of the next operation and, for a write, assigns its
/// sequence number.
fn choose(lane: &mut Lane, doc: usize, is_read: bool, load: &Load, rng: &mut StdRng) -> Chosen {
    let pages = &mut lane.pages[doc];
    match load.pages {
        PageMode::Fixed(n) => {
            let page = rng.random_range(0..n.max(1) as usize);
            if pages.len() <= page {
                pages.resize(page + 1, PageState::default());
            }
            let state = &mut pages[page];
            if is_read {
                Chosen {
                    page,
                    seq: 0,
                    acked_then: state.acked,
                }
            } else {
                state.issued += 1;
                Chosen {
                    page,
                    seq: state.issued,
                    acked_then: 0,
                }
            }
        }
        PageMode::Distinct => {
            if is_read {
                let recent = pages.len().min(RECENT_PAGES);
                let page = pages.len() - recent + rng.random_range(0..recent.max(1));
                let acked_then = pages.get(page).map_or(0, |s| s.acked);
                Chosen {
                    page,
                    seq: 0,
                    acked_then,
                }
            } else {
                pages.push(PageState {
                    issued: 1,
                    ..PageState::default()
                });
                Chosen {
                    page: pages.len() - 1,
                    seq: 1,
                    acked_then: 0,
                }
            }
        }
    }
}

/// Polls every handle with operations in flight, oldest first, and
/// returns how many completed.
fn poll(
    port: &dyn EnginePort,
    lane: &mut Lane,
    queues: &mut [VecDeque<InFlight>],
    load: &Load,
    start: Instant,
    grace_end: Instant,
    t: &mut Tally,
) -> usize {
    let mut done = 0;
    for (index, queue) in queues.iter_mut().enumerate() {
        let doc = index / 2;
        let handle = if index % 2 == 1 {
            lane.readers[doc]
        } else {
            lane.writers[doc]
        };
        while let Some(op) = queue.front().copied() {
            let poll_start = Instant::now();
            let result = port.try_result(&handle, op.req);
            let polled_at = Instant::now();
            t.polls += 1;
            if load.spans {
                t.poll_us.push(micros(polled_at - poll_start));
            }
            let Some(result) = result else { break };
            queue.pop_front();
            done += 1;
            record(lane, op, result, polled_at, start, grace_end, t);
        }
    }
    done
}

/// Books one completion: latency, page state, and the read checks.
fn record(
    lane: &mut Lane,
    op: InFlight,
    result: Result<Bytes, CallError>,
    done: Instant,
    start: Instant,
    grace_end: Instant,
    t: &mut Tally,
) {
    let reply = match result {
        Ok(reply) => reply,
        Err(_) => {
            t.error_results += 1;
            return;
        }
    };
    t.completed += 1;
    if done <= grace_end {
        t.completed_in_grace += 1;
    }
    let (latency, _) = op_timing(op.due, op.issued, done);
    let ms = (
        op.due.saturating_duration_since(start).as_secs_f64(),
        latency.as_secs_f64() * 1e3,
    );
    let state = lane.pages[op.doc].get_mut(op.page);
    if op.is_read {
        t.read_ms.push(ms);
        t.reads_done += 1;
        let seen = match globe_wire::from_bytes::<Option<Page>>(&reply) {
            Ok(None) => Some(0),
            Ok(Some(page)) => body_seq(&page.body, lane.thread, op.page),
            Err(_) => None,
        };
        let issued = state.map_or(0, |s| s.issued);
        match seen {
            Some(seq) if seq <= issued => {
                if seq < op.acked_then {
                    t.stale_reads += 1;
                }
            }
            _ => t.bad_reads += 1,
        }
    } else {
        t.write_ms.push(ms);
        t.write_issue_ms
            .push(done.saturating_duration_since(op.issued).as_secs_f64() * 1e3);
        let at = done.saturating_duration_since(start).as_secs_f64();
        t.ack_s.push(at);
        if let Some(state) = state {
            if op.seq > state.acked {
                state.acked = op.seq;
                state.acked_at = at;
            }
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_round_trip_their_tag() {
        let body = page_body(1, 7, 42, 512);
        assert_eq!(body.len(), 512);
        assert_eq!(body_seq(&body, 1, 7), Some(42));
        // A body of another page or thread is not accepted.
        assert_eq!(body_seq(&body, 1, 71), None);
        assert_eq!(body_seq(&body, 0, 7), None);
        assert_eq!(body_seq(b"garbage", 1, 7), None);
    }
}
