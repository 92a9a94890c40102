//! Per-layer probes, timed from outside each layer's public functions.
//!
//! Every probe is built from the shapes the workload's own run
//! produced: the write ids and dependency vectors recorded in its
//! history, its page size and page count, its peer count and, on the
//! durable workload, the batch size group commit actually reached. So
//! a layer number transfers to the workload it was taken from.

use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_coherence::{History, StoreId, VersionVector};
use globe_core::{
    shared_metrics, CoherenceMsg, CommObject, DurableBackend, InvocationMessage, LoggedWrite,
    MemoryBackend, NetMsg, RequestId, Semantics, StoreBackend,
};
use globe_naming::ObjectId;
use globe_net::tcp::TcpMesh;
use globe_net::{Event, NetCtx, NodeId, SimNet, SimTime, TimerId, TimerToken, Topology};
use globe_web::{methods, Page, WebDocument, WebSemantics};

use crate::gen::page_body;
use crate::stats::median;
use crate::workloads::{ScratchDir, CHECKPOINT_EVERY};

/// The workload shapes every probe is built from.
pub struct Shape {
    /// The object the frames address.
    pub object: ObjectId,
    /// A store of the run (names the storage files).
    pub store: StoreId,
    /// Writes as the run logged them: real ids and dependency vectors,
    /// the workload's `put_page` invocation and page size.
    pub writes: Vec<LoggedWrite>,
    /// A vector covering every write in `writes`.
    pub version: VersionVector,
    /// The fan-out frame kind the run sent most: `Update`,
    /// `UpdateBatch` or `WriteBatch`.
    pub fanout_kind: &'static str,
    /// Writes per batched fan-out frame.
    pub batch: usize,
    /// Peers each write fans out to.
    pub peers: usize,
    /// A document with the workload's page count and page size.
    pub doc: WebDocument,
}

/// Writes taken from the history for the probes (the most recent).
const SHAPE_WRITES: usize = 512;

impl Shape {
    /// Builds the shapes from a finished run's history.
    pub fn from_run(
        history: &History,
        object: ObjectId,
        body_bytes: usize,
        fanout_kind: &'static str,
        batch: usize,
        peers: usize,
        pages: usize,
    ) -> Shape {
        let mut writes = Vec::new();
        let mut version = VersionVector::new();
        let all: Vec<_> = history.writes().collect();
        for (op, wid, deps) in all.iter().rev().take(SHAPE_WRITES).rev() {
            let body = page_body(0, 0, wid.seq as u32, body_bytes);
            let inv = methods::put_page(&op.page, &Page::html(body));
            let mut write = LoggedWrite::from_client(*wid, inv, (*deps).clone());
            write.page = Some(op.page.clone());
            version.record(*wid);
            writes.push(write);
        }
        let store = history.stores().first().copied().unwrap_or(StoreId::new(0));
        let doc = (0..pages.max(1))
            .map(|p| {
                (
                    format!("t0p{p}"),
                    Page::html(page_body(0, p, 1, body_bytes)),
                )
            })
            .collect();
        Shape {
            object,
            store,
            writes,
            version,
            fanout_kind,
            batch: batch.max(1),
            peers,
            doc,
        }
    }

    /// The frame the home sends each peer per write (or per batch).
    pub fn fanout(&self) -> CoherenceMsg {
        let first = self.writes.first().cloned().unwrap_or_else(|| {
            LoggedWrite::from_client(
                globe_coherence::WriteId::new(globe_coherence::ClientId::new(0), 1),
                InvocationMessage::new(methods::PUT_PAGE, Bytes::new()),
                VersionVector::new(),
            )
        });
        let batch = || -> Vec<LoggedWrite> {
            self.writes
                .iter()
                .cycle()
                .take(self.batch)
                .cloned()
                .collect()
        };
        match self.fanout_kind {
            "UpdateBatch" => CoherenceMsg::UpdateBatch {
                writes: batch(),
                version: self.version.clone(),
            },
            "WriteBatch" => CoherenceMsg::WriteBatch {
                first_order: 1,
                writes: batch(),
                version: self.version.clone(),
            },
            _ => CoherenceMsg::Update { write: first },
        }
    }

    /// The client's write request for the first write.
    pub fn write_req(&self) -> Option<CoherenceMsg> {
        let write = self.writes.first()?.clone();
        Some(CoherenceMsg::WriteReq {
            req: RequestId::new(1),
            client: write.wid.client,
            write,
        })
    }
}

/// Median per-operation time of `f`, µs: `reps` batches of `batch`
/// calls each, so clock reads do not dominate sub-microsecond calls.
fn per_op_us(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&samples)
}

/// Codec cost of the fan-out frame.
pub struct WireProbe {
    /// `globe_wire::to_bytes` per frame, ns.
    pub encode_ns: f64,
    /// `globe_wire::from_bytes::<NetMsg>` per frame, ns.
    pub decode_ns: f64,
    /// Encoded size, bytes.
    pub frame_bytes: usize,
    /// The client's write-request frame size, bytes.
    pub write_req_bytes: usize,
}

/// Times the codec on the workload's fan-out frame.
pub fn wire(shape: &Shape) -> WireProbe {
    let env = NetMsg {
        object: shape.object,
        msg: shape.fanout(),
    };
    let bytes = globe_wire::to_bytes(&env);
    let encode = per_op_us(31, 256, || {
        std::hint::black_box(globe_wire::to_bytes(std::hint::black_box(&env)));
    });
    let decode = per_op_us(31, 256, || {
        let decoded = globe_wire::from_bytes::<NetMsg>(std::hint::black_box(&bytes));
        std::hint::black_box(decoded.is_ok());
    });
    let write_req_bytes = shape.write_req().map_or(0, |msg| {
        globe_wire::to_bytes(&NetMsg {
            object: shape.object,
            msg,
        })
        .len()
    });
    WireProbe {
        encode_ns: encode * 1e3,
        decode_ns: decode * 1e3,
        frame_bytes: bytes.len(),
        write_req_bytes,
    }
}

/// A `NetCtx` that drops every frame: the multicast probe measures the
/// communication object's own work (clone, encode, accounting), not a
/// transport.
struct NullCtx {
    node: NodeId,
    timer: TimerId,
}

impl NetCtx for NullCtx {
    fn node(&self) -> NodeId {
        self.node
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn send(&mut self, _to: NodeId, payload: Bytes) {
        std::hint::black_box(payload);
    }
    fn set_timer(&mut self, _delay: Duration, _token: TimerToken) -> TimerId {
        self.timer
    }
    fn cancel_timer(&mut self, _id: TimerId) {}
}

/// `CommObject::multicast` of the fan-out frame to the workload's peer
/// count, µs per call.
pub fn multicast(shape: &Shape) -> f64 {
    // `TimerId` has no public constructor; borrow one from a simulator
    // context (multicast never arms a timer).
    let mut sim = SimNet::new(Topology::lan(), 0);
    let node = sim.add_node();
    let timer = sim.with_ctx(node, |ctx| ctx.set_timer(Duration::ZERO, TimerToken(0)));
    let mut ctx = NullCtx { node, timer };
    let comm = CommObject::new(shape.object, shared_metrics());
    let msg = shape.fanout();
    let peers: Vec<NodeId> = (1..=shape.peers.max(1) as u32).map(NodeId::new).collect();
    per_op_us(31, 64, || {
        comm.multicast(&mut ctx, peers.iter().copied(), &msg)
    })
}

/// One-way `TcpMesh` hop on loopback at the fan-out frame's size: send
/// on one endpoint, `recv_timeout` on the other, µs (median).
pub fn tcp_hop(shape: &Shape) -> Result<f64, String> {
    let payload = globe_wire::to_bytes(&NetMsg {
        object: shape.object,
        msg: shape.fanout(),
    });
    let mesh = TcpMesh::new();
    let a = mesh
        .add_node()
        .map_err(|e| format!("tcp probe node: {e}"))?;
    let b = mesh
        .add_node()
        .map_err(|e| format!("tcp probe node: {e}"))?;
    let sender = a.sender();
    let mut samples = Vec::new();
    let mut failure = None;
    for i in 0..1200 {
        let t0 = Instant::now();
        if let Err(e) = sender.send(b.node(), payload.clone()) {
            failure = Some(format!("tcp probe send: {e}"));
            break;
        }
        match b.recv_timeout(Duration::from_secs(2)) {
            Some(Event::Message { .. }) => {
                // The first hops include connection set-up.
                if i >= 200 {
                    samples.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            _ => {
                failure = Some("tcp probe: frame not delivered".to_string());
                break;
            }
        }
    }
    mesh.shutdown();
    match failure {
        Some(e) => Err(e),
        None => Ok(median(&samples)),
    }
}

/// Storage-layer costs at the workload's entry and snapshot sizes.
pub struct StorageProbe {
    /// `DurableBackend::append`, µs.
    pub durable_append_us: f64,
    /// `MemoryBackend::append`, µs.
    pub memory_append_us: f64,
    /// `DurableBackend::checkpoint` of the workload's document, µs.
    pub checkpoint_us: f64,
    /// `DurableBackend::truncate_covered` of one checkpoint interval, µs.
    pub compact_us: f64,
}

/// Times the storage backends with the run's logged writes.
pub fn storage(shape: &Shape) -> Result<StorageProbe, String> {
    let dir = ScratchDir::new("storage_probe").map_err(|e| format!("scratch dir: {e}"))?;
    let mut durable = DurableBackend::open(dir.path(), shape.object, shape.store)
        .map_err(|e| format!("open durable backend: {e}"))?;
    let mut memory = MemoryBackend::new();
    let writes = &shape.writes;
    if writes.is_empty() {
        return Err("storage probe: the run logged no writes".to_string());
    }
    let entries = CHECKPOINT_EVERY;
    let image = globe_core::CheckpointImage {
        version: shape.version.clone(),
        state: globe_wire::to_bytes(&shape.doc),
        writers: Vec::new(),
        order_high: None,
    };
    let mut durable_append = Vec::new();
    let mut memory_append = Vec::new();
    let mut checkpoint = Vec::new();
    let mut compact = Vec::new();
    for _ in 0..5 {
        // One checkpoint interval: append, checkpoint, compact.
        for write in writes.iter().cycle().take(entries) {
            let t0 = Instant::now();
            durable.append(write);
            durable_append.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            memory.append(write);
            memory_append.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let t0 = Instant::now();
        durable.checkpoint(&image);
        checkpoint.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let dropped = durable.truncate_covered(&shape.version);
        compact.push(t0.elapsed().as_secs_f64() * 1e6);
        memory.truncate_covered(&shape.version);
        if dropped == 0 {
            return Err("storage probe: compaction dropped nothing".to_string());
        }
    }
    drop(durable);
    drop(dir);
    Ok(StorageProbe {
        durable_append_us: median(&durable_append),
        memory_append_us: median(&memory_append),
        checkpoint_us: median(&checkpoint),
        compact_us: median(&compact),
    })
}

/// `WebSemantics::dispatch` of a put and of a get on a document of the
/// workload's size, µs each.
pub fn web(shape: &Shape, body_bytes: usize) -> (f64, f64) {
    let mut sem = WebSemantics::with_document(shape.doc.clone());
    let pages = shape.doc.len().max(1);
    let puts: Vec<_> = (0..pages)
        .map(|p| {
            methods::put_page(
                &format!("t0p{p}"),
                &Page::html(page_body(0, p, 2, body_bytes)),
            )
        })
        .collect();
    let gets: Vec<_> = (0..pages)
        .map(|p| methods::get_page(&format!("t0p{p}")))
        .collect();
    let mut i = 0usize;
    let put = per_op_us(31, 64, || {
        i = (i + 1) % pages;
        std::hint::black_box(sem.dispatch(&puts[i]).is_ok());
    });
    let get = per_op_us(31, 64, || {
        i = (i + 1) % pages;
        std::hint::black_box(sem.dispatch(&gets[i]).is_ok());
    });
    (put, get)
}

/// The fan-out frame kind a run sent most, with its mean size in bytes.
pub fn observed_fanout(
    traffic: &std::collections::BTreeMap<&'static str, globe_core::KindCount>,
) -> (&'static str, f64) {
    ["Update", "UpdateBatch", "WriteBatch"]
        .into_iter()
        .filter_map(|kind| traffic.get(kind).map(|c| (kind, *c)))
        .filter(|(_, c)| c.count > 0)
        .max_by_key(|(_, c)| c.count)
        .map_or(("Update", 0.0), |(kind, c)| {
            (kind, c.bytes as f64 / c.count as f64)
        })
}
