//! The workloads, the fail-over drill, their deployments, and the
//! output checks.
//!
//! Every deployment is built through the public `GlobeRuntime` API and
//! driven through its `EnginePort`. Writes are fixed-size `put_page`
//! calls, never `patch_page`: `WebDocument::append` copies the whole
//! page on every patch, so a patch workload slows down the longer it
//! runs and no two runs of it would measure the same thing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use globe_coherence::{ObjectModel, StoreClass};
use globe_core::{
    BindOptions, ClientHandle, EnginePort, GlobeRuntime, GlobeShard, GlobeTcp, ObjectSpec,
    ReplicationPolicy, RuntimeConfig, DEFAULT_SHARDS,
};
use globe_naming::ObjectId;
use globe_net::NodeId;
use globe_web::{methods, Page, WebDocument, WebSemantics};

use crate::gen::{body_seq, page_body, page_name, Lane, Load, PageMode, PageState};

/// Which runtime serves a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `GlobeShard`: in-process lanes fed by channels.
    Shard,
    /// `GlobeTcp`: one loopback socket endpoint per node.
    Tcp,
}

impl Backend {
    /// Name for the report.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Shard => "shard",
            Backend::Tcp => "tcp",
        }
    }
}

/// One workload: deployment shape, traffic mix and the rates it is
/// measured at.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Runtime.
    pub backend: Backend,
    /// Documents (distributed Web objects).
    pub docs: usize,
    /// Store nodes the replicas are spread over.
    pub store_nodes: usize,
    /// Permanent mirrors per document besides its home.
    pub mirrors: usize,
    /// Replica (0 = home) the reader handles read from.
    pub reader_replica: usize,
    /// Replica the writer handles read from (writes always go home).
    pub writer_read_replica: usize,
    /// Fraction of operations that are reads.
    pub read_frac: f64,
    /// Zipf skew over documents.
    pub zipf_theta: f64,
    /// Pages each generator thread owns in each document.
    pub pages: u32,
    /// Fixed body size of every write.
    pub body_bytes: usize,
    /// The fixed nominal rate latency is measured at, ops/s.
    pub nominal_rate: f64,
    /// p99 limit of the knee decision, ms.
    pub slo_ms: f64,
    /// Lowest and highest offered rate of the knee ladder, ops/s.
    pub ladder: (f64, f64),
    /// Durable storage (WAL + checkpoints) with group commit.
    pub durable: bool,
    /// Failure detector with unattended fail-over, and a home
    /// partition during the latency phase.
    pub failover: bool,
    /// The traced run also runs the fail-over drill ([`drill`]).
    pub drill: bool,
    /// Read leases at the mirrors.
    pub leases: bool,
}

/// Checkpoint cadence of the durable workload, in applied writes.
pub const CHECKPOINT_EVERY: usize = 256;
/// Group-commit size of the durable workload.
pub const BATCH_MAX: usize = 8;
/// Group-commit window of the durable workload.
pub const BATCH_WINDOW: Duration = Duration::from_millis(1);
/// Failure-detector heartbeat of the fail-over workload.
pub const HEARTBEAT: Duration = Duration::from_millis(100);
/// Shortest nominal-rate phase: the fail-over drill needs detection
/// and election to fit between 30% and 65% of it.
pub const MIN_PHASE: Duration = Duration::from_secs(5);
/// Slices of a measured window that per-slice figures are taken over.
pub const SLICES: usize = 12;
/// Retained op samples in the runtime's metrics store.
const OP_SAMPLES: usize = 4096;
/// Per-node flight-recorder ring in traced runs.
pub const TRACE_CAPACITY: usize = 8192;
/// Per-node ring of the fail-over drill: large enough to keep its whole
/// journal, so the suspicion, election and takeover events are not
/// evicted by the writes that follow them.
pub const DRILL_TRACE_CAPACITY: usize = 1 << 17;

/// The workloads, by command-line name.
pub fn workload(name: &str) -> Option<Workload> {
    let base = Workload {
        name: "",
        backend: Backend::Shard,
        docs: 1,
        store_nodes: 1,
        mirrors: 0,
        reader_replica: 0,
        writer_read_replica: 0,
        read_frac: 0.5,
        zipf_theta: 0.0,
        pages: 4,
        body_bytes: 512,
        nominal_rate: 1000.0,
        slo_ms: 20.0,
        ladder: (1000.0, 16_000.0),
        durable: false,
        failover: false,
        drill: false,
        leases: false,
    };
    Some(match name {
        // The paper's Web case: many readers of rarely changing
        // documents served from mirrors.
        "read-mostly" => Workload {
            name: "read-mostly",
            docs: 32,
            store_nodes: 4,
            mirrors: 1,
            reader_replica: 1,
            read_frac: 0.9,
            zipf_theta: 0.8,
            pages: 4,
            nominal_rate: 10_000.0,
            slo_ms: 100.0,
            ladder: (20_000.0, 320_000.0),
            leases: true,
            drill: true,
            ..base
        },
        // A hot document under heavy editing: ordering, 4-peer
        // fan-out, 5 socket hops, WAL appends and compaction per write.
        "write-fanout" => Workload {
            name: "write-fanout",
            backend: Backend::Tcp,
            docs: 2,
            store_nodes: 5,
            mirrors: 4,
            reader_replica: 1,
            read_frac: 0.2,
            pages: 8,
            nominal_rate: 4_000.0,
            slo_ms: 200.0,
            ladder: (5_000.0, 80_000.0),
            durable: true,
            ..base
        },
        _ => return None,
    })
}

/// Names of every workload, in report order.
pub const NAMES: [&str; 2] = ["read-mostly", "write-fanout"];

/// The fail-over drill: a Web server dies under a light steady load.
/// It is part of a traced run, not a workload of its own: unattended
/// fail-over loses acknowledged writes inside a known window (see
/// `lost_writes`), so the drill's operations do not all succeed.
pub fn drill() -> Workload {
    Workload {
        name: "home-failover",
        backend: Backend::Shard,
        docs: 1,
        store_nodes: 3,
        mirrors: 2,
        reader_replica: 2,
        writer_read_replica: 1,
        read_frac: 0.5,
        zipf_theta: 0.0,
        pages: 16,
        body_bytes: 512,
        nominal_rate: 4_000.0,
        slo_ms: 100.0,
        ladder: (10_000.0, 160_000.0),
        durable: false,
        failover: true,
        drill: false,
        leases: false,
    }
}

impl Workload {
    /// Shard lanes of the deployment (0 on TCP).
    pub fn lanes(&self) -> usize {
        match self.backend {
            Backend::Shard => DEFAULT_SHARDS,
            Backend::Tcp => 0,
        }
    }

    /// Storage backend name for the report.
    pub fn storage(&self) -> &'static str {
        if self.durable {
            "durable"
        } else {
            "memory"
        }
    }

    fn config(&self, seed: u64, trace: bool, dir: Option<&Path>) -> RuntimeConfig {
        let mut config = RuntimeConfig::new()
            .seed(seed)
            .op_sample_capacity(OP_SAMPLES)
            .trace_capacity(match (trace, self.failover) {
                (false, _) => 0,
                (true, false) => TRACE_CAPACITY,
                (true, true) => DRILL_TRACE_CAPACITY,
            })
            .read_leases(self.leases);
        if let Some(dir) = dir {
            config = config
                .durable_dir(dir)
                .checkpoint_every(CHECKPOINT_EVERY)
                .batch_max(BATCH_MAX)
                .batch_window(BATCH_WINDOW);
        }
        if self.failover {
            config = config.heartbeat_period(HEARTBEAT).auto_failover(true);
        }
        config
    }

    /// The load of one phase at `rate`.
    pub fn load(&self, rate: f64, window: Duration, pages: PageMode, seed: u64) -> Load {
        Load {
            rate,
            window,
            grace: Duration::from_secs_f64(self.slo_ms / 1e3),
            drain: Duration::from_secs(2),
            read_frac: self.read_frac,
            zipf_theta: self.zipf_theta,
            pages,
            body_bytes: self.body_bytes,
            seed,
            spans: false,
            lock_probe: None,
            slices: SLICES,
        }
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Root of the benchmark's scratch files, inside the checkout it runs
/// from (the durable backend's files and the storage probe's files).
pub const SCRATCH_ROOT: &str = ".bench_tmp";

/// A scratch directory under [`SCRATCH_ROOT`], removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, uniquely named directory.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}_{}_{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the root too once the last scratch directory is gone.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// One document of a deployment.
#[derive(Debug, Clone)]
pub struct Doc {
    /// The object.
    pub object: ObjectId,
    /// Replica nodes, home first.
    pub replicas: Vec<NodeId>,
    /// One checking client per replica, reading from that replica.
    pub checkers: Vec<ClientHandle>,
}

/// A live deployment of one workload.
pub struct Deployment {
    /// The runtime.
    pub rt: Box<dyn GlobeRuntime>,
    /// Its client plane.
    pub port: Arc<dyn EnginePort>,
    /// One lane of handles per generator thread.
    pub lanes: Vec<Lane>,
    /// The documents.
    pub docs: Vec<Doc>,
    /// Time from construction until the deployment completed its first
    /// operation, seconds.
    pub setup_s: f64,
    _dir: Option<ScratchDir>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.rt.shutdown();
    }
}

fn err(context: &str) -> impl Fn(globe_core::RuntimeError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Builds and starts a deployment of `w` with `threads` generator lanes.
/// With `PageMode::Fixed` every lane's pages get their first write, so
/// reads find content; the writer handles then read once through their
/// read replica, which tells a future elected home where their sessions
/// live.
pub fn deploy(
    w: &Workload,
    seed: u64,
    trace: bool,
    threads: usize,
    pages: PageMode,
) -> Result<Deployment, String> {
    let t0 = Instant::now();
    let dir = if w.durable {
        Some(ScratchDir::new(w.name).map_err(|e| format!("scratch dir: {e}"))?)
    } else {
        None
    };
    let config = w.config(seed, trace, dir.as_ref().map(ScratchDir::path));
    let mut rt: Box<dyn GlobeRuntime> = match w.backend {
        Backend::Shard => Box::new(GlobeShard::with_config(config)),
        Backend::Tcp => Box::new(GlobeTcp::with_config(config)),
    };
    let stores = (0..w.store_nodes)
        .map(|_| rt.add_node())
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("add store node"))?;
    let clients = (0..threads)
        .map(|_| rt.add_node())
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("add client node"))?;
    let policy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .map_err(|e| format!("policy: {e}"))?;
    let mut docs = Vec::with_capacity(w.docs);
    let mut lanes: Vec<Lane> = (0..threads)
        .map(|thread| Lane {
            thread,
            writers: Vec::new(),
            readers: Vec::new(),
            pages: vec![Vec::new(); w.docs],
        })
        .collect();
    for d in 0..w.docs {
        let replicas: Vec<NodeId> = (0..=w.mirrors)
            .map(|k| stores[(d + k) % w.store_nodes])
            .collect();
        let mut spec = ObjectSpec::new(format!("/bench/{}/doc{d:02}", w.name))
            .policy(policy.clone())
            .semantics(WebSemantics::new);
        for &node in &replicas {
            spec = spec.store(node, StoreClass::Permanent);
        }
        let object = spec.create(&mut *rt).map_err(err("create object"))?;
        for (lane, &client) in lanes.iter_mut().zip(&clients) {
            let writer_via = BindOptions::new().read_node(replicas[w.writer_read_replica]);
            let reader_via = BindOptions::new().read_node(replicas[w.reader_replica]);
            lane.writers.push(
                rt.bind(object, client, writer_via)
                    .map_err(err("bind writer"))?,
            );
            lane.readers.push(
                rt.bind(object, client, reader_via)
                    .map_err(err("bind reader"))?,
            );
        }
        let checkers = replicas
            .iter()
            .map(|&node| rt.bind(object, clients[0], BindOptions::new().read_node(node)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err("bind checker"))?;
        docs.push(Doc {
            object,
            replicas,
            checkers,
        });
    }
    rt.start(&clients);
    let port = rt
        .engine_port()
        .ok_or_else(|| format!("{} backend has no engine port", w.backend.name()))?;
    // The deployment is up once its first operation completes; the
    // content written below is the workload's, not set-up.
    let first = lanes[0].writers[0];
    rt.read(&first, methods::get_page(&page_name(0, 0)))
        .map_err(|e| format!("first operation: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if let PageMode::Fixed(n) = pages {
        for lane in &mut lanes {
            for d in 0..w.docs {
                for p in 0..n as usize {
                    let body = page_body(lane.thread, p, 1, w.body_bytes);
                    let inv = methods::put_page(&page_name(lane.thread, p), &Page::html(body));
                    rt.write(&lane.writers[d], inv)
                        .map_err(|e| format!("initial content: {e}"))?;
                    lane.pages[d].push(PageState {
                        issued: 1,
                        acked: 1,
                        ..PageState::default()
                    });
                }
            }
        }
    }
    for lane in &lanes {
        for &writer in &lane.writers {
            rt.read(&writer, methods::get_page(&page_name(lane.thread, 0)))
                .map_err(|e| format!("warm-up read: {e}"))?;
        }
    }
    Ok(Deployment {
        rt,
        port,
        lanes,
        docs,
        setup_s,
        _dir: dir,
    })
}

/// Reads the whole document `doc` as replica `replica` serves it.
pub fn read_document(
    dep: &mut Deployment,
    doc: usize,
    replica: usize,
) -> Result<WebDocument, String> {
    let checker = dep.docs[doc].checkers[replica];
    let reply = dep
        .rt
        .read(&checker, methods::get_document())
        .map_err(|e| format!("read document at replica {replica}: {e}"))?;
    globe_wire::from_bytes(&reply).map_err(|e| format!("decode document: {e}"))
}

/// Pages of `lanes` that `document` does not serve at their last
/// acknowledged body (or a later issued one), as (thread, doc, page).
pub fn missing_pages(
    lanes: &[Lane],
    doc: usize,
    document: &WebDocument,
) -> Vec<(usize, usize, usize)> {
    let mut missing = Vec::new();
    for lane in lanes {
        for (p, state) in lane.pages[doc].iter().enumerate() {
            if state.acked == 0 {
                continue;
            }
            let seen = document
                .page(&page_name(lane.thread, p))
                .and_then(|page| body_seq(&page.body, lane.thread, p));
            match seen {
                Some(seq) if seq >= state.acked && seq <= state.issued => {}
                _ => missing.push((lane.thread, doc, p)),
            }
        }
    }
    missing
}

/// After the drain: every replica of every document serves the last
/// acknowledged body of every page. Replicas get up to `patience` to
/// converge. Returns the (replica, page) pairs that never did, as
/// (wrong, exempt): a pair `exempt(replica, page)` accepts is counted
/// apart instead of failing the check.
pub fn check_replicas(
    dep: &mut Deployment,
    patience: Duration,
    exempt: impl Fn(usize, &PageState) -> bool,
) -> Result<(usize, usize), String> {
    let deadline = Instant::now() + patience;
    let (mut wrong, mut exempted) = (0, 0);
    for doc in 0..dep.docs.len() {
        for replica in 0..dep.docs[doc].replicas.len() {
            loop {
                let document = read_document(dep, doc, replica)?;
                let missing = missing_pages(&dep.lanes, doc, &document);
                let (known, other): (Vec<_>, Vec<_>) = missing
                    .into_iter()
                    .partition(|&(t, d, p)| exempt(replica, &dep.lanes[t].pages[d][p]));
                if other.is_empty() || Instant::now() >= deadline {
                    wrong += other.len();
                    exempted += known.len();
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Ok((wrong, exempted))
}

/// The object-model check over the deployment's whole history.
pub fn check_fifo(dep: &Deployment) -> Result<usize, String> {
    let history = dep.rt.history();
    let history = history.lock();
    globe_coherence::check_object_model(&history, ObjectModel::Fifo)
        .map_err(|v| format!("FIFO coherence violated: {v:?}"))?;
    Ok(history.applies().len())
}

/// Pages missed during the partition that the drill watches for the
/// old home's catch-up.
const CATCHUP_SAMPLE: usize = 16;

/// What the fault drill observed on the main thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultTimes {
    /// Partition instant, seconds since the phase started.
    pub fault_s: f64,
    /// Heal instant.
    pub heal_s: f64,
    /// When membership first named the elected home.
    pub elected_s: Option<f64>,
    /// From the heal until the old home served every page the elected
    /// home held at the heal, ms; `None` if it never did in the phase.
    pub rejoin_catchup_ms: Option<f64>,
    /// How long after the heal the drill kept watching, ms (a lower
    /// bound on the catch-up when it never happened).
    pub rejoin_watched_ms: f64,
}

/// The home-failover drill, run on the calling thread while the load
/// is live: partition document 0's home at `fault`, watch membership
/// for the election, heal at `heal`, and time the old home's catch-up.
pub fn fault_drill(
    rt: &mut dyn GlobeRuntime,
    doc: &Doc,
    start: Instant,
    fault: Duration,
    heal: Duration,
    end: Duration,
) -> FaultTimes {
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let sleep_until = |at: Duration| {
        let target = start + at;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
    };
    let home = doc.replicas[0];
    let mut times = FaultTimes::default();
    let pages_at = |rt: &mut dyn GlobeRuntime, replica: usize| -> Vec<String> {
        rt.read(&doc.checkers[replica], methods::get_document())
            .ok()
            .and_then(|b| globe_wire::from_bytes::<WebDocument>(&b).ok())
            .map_or_else(Vec::new, |d| d.paths().map(str::to_string).collect())
    };
    sleep_until(fault);
    // What the home holds as it is cut off: it receives nothing more
    // until the heal (and a read through it would block meanwhile).
    let old = pages_at(rt, 0);
    times.fault_s = since(Instant::now());
    if rt.partition_node(home, true).is_err() {
        return times;
    }
    while Instant::now() < start + heal {
        if times.elected_s.is_none() {
            if let Ok(view) = rt.membership(doc.object) {
                if view
                    .members
                    .first()
                    .is_some_and(|m| m.is_home && m.node != home)
                {
                    times.elected_s = Some(since(Instant::now()));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // The elected home, if the election happened (reading through the
    // still-partitioned home would block until the call times out).
    let elected = rt
        .membership(doc.object)
        .ok()
        .and_then(|view| view.members.first().map(|m| m.node))
        .filter(|&node| node != home)
        .and_then(|node| doc.replicas.iter().position(|&n| n == node));
    // Pages the elected home holds and the partitioned old home does
    // not; a sample of them is watched after the heal, so the watch
    // stays cheap while the load runs.
    let missed: Vec<String> = elected
        .map(|replica| pages_at(rt, replica))
        .unwrap_or_default()
        .into_iter()
        .filter(|p| old.binary_search(p).is_err())
        .collect();
    let step = (missed.len() / CATCHUP_SAMPLE).max(1);
    let mut watch: Vec<String> = missed.into_iter().step_by(step).collect();
    let _ = rt.partition_node(home, false);
    let healed = Instant::now();
    times.heal_s = since(healed);
    while Instant::now() < start + end {
        // Drop watched pages the old home now serves, stopping at the
        // first it does not (one read per round while it lags).
        while let Some(page) = watch.last() {
            let served = rt
                .read(&doc.checkers[0], methods::get_page(page))
                .ok()
                .and_then(|b| globe_wire::from_bytes::<Option<Page>>(&b).ok())
                .is_some_and(|p| p.is_some());
            if !served {
                break;
            }
            watch.pop();
        }
        if watch.is_empty() {
            if elected.is_some() {
                times.rejoin_catchup_ms = Some(healed.elapsed().as_secs_f64() * 1e3);
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    times.rejoin_watched_ms = healed.elapsed().as_secs_f64() * 1e3;
    times
}

/// Acknowledged writes of the fault phase that the elected home does
/// not hold, as (known, other): `known` accepts the page states of the
/// known loss.
pub fn lost_writes(
    lanes: &[Lane],
    elected: &WebDocument,
    known: impl Fn(&PageState) -> bool,
) -> (usize, usize) {
    let (mut hits, mut other) = (0, 0);
    for (thread, doc, page) in missing_pages(lanes, 0, elected) {
        if known(&lanes[thread].pages[doc][page]) {
            hits += 1;
        } else {
            other += 1;
        }
    }
    (hits, other)
}

/// VmHWM of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Name prefix of the benchmark's own threads (generator, CPU
/// sampler), which [`server_cpu_seconds`] leaves out.
pub const BENCH_THREAD_PREFIX: &str = "pb-";

/// CPU time so far of the threads that run the system under test,
/// seconds: every live thread of the process except the main thread and
/// the benchmark's own (named [`BENCH_THREAD_PREFIX`]…), summed from
/// each thread's scheduler statistics (nanosecond resolution;
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for a slice).
/// Only differences between two instants at which the same threads ran
/// are meaningful.
pub fn server_cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let main = std::process::id().to_string();
    let nanos: u64 = tasks
        .flatten()
        .filter(|task| task.file_name().to_str() != Some(main.as_str()))
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| !comm.starts_with(BENCH_THREAD_PREFIX))
        })
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    nanos as f64 / 1e9
}
