//! Real-socket runtime: a mesh of TCP connections on the loopback device.
//!
//! The mesh delivers the same [`Event`] stream through the same [`NetCtx`]
//! interface as the simulator, so any protocol validated deterministically
//! in [`crate::SimNet`] runs unmodified over real sockets. Frames are
//! length-prefixed; the first frame on every connection carries the
//! sender's [`NodeId`].
//!
//! # Threads
//!
//! Every node has one `globe-accept-*` thread and one `globe-reader`
//! thread per inbound connection. A reader puts each frame it decodes on
//! its node's FIFO queue. Until [`TcpEndpoint::dispatch`] installs a
//! handler the node is *caller-driven*: its owner takes events with
//! [`TcpEndpoint::recv_timeout`]. Once a handler is installed, the reader
//! that queued a frame also drains the queue through the handler, unless
//! another thread is draining it already (run-to-completion: no hand-off
//! to a second thread per frame). The node's `globe-node-*` thread only
//! drains what the shared [`WallTimer`] queued — no handler ever runs on
//! the timer thread — and flushes spilled frames. Handlers never block on
//! a peer: their sends are non-blocking, and what a full socket refuses
//! waits, in order, in a per-peer spill queue that the node thread
//! flushes. [`TcpMesh::shutdown`] ends and joins every mesh thread.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::timer::WallTimer;
use crate::{Event, NetCtx, NodeId, SimTime, TimerId, TimerToken};

/// Errors surfaced by the TCP mesh.
#[derive(Debug)]
pub enum MeshError {
    /// An `std::io` operation failed.
    Io(std::io::Error),
    /// The peer node has not been registered with the mesh.
    UnknownPeer(NodeId),
    /// The mesh has been shut down.
    ShutDown,
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::Io(e) => write!(f, "i/o failure in tcp mesh: {e}"),
            MeshError::UnknownPeer(n) => write!(f, "peer {n} is not registered"),
            MeshError::ShutDown => write!(f, "mesh has been shut down"),
        }
    }
}

impl std::error::Error for MeshError {}

impl From<std::io::Error> for MeshError {
    fn from(e: std::io::Error) -> Self {
        MeshError::Io(e)
    }
}

const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Each reader's receive buffer: a burst of small frames costs one
/// `read` per buffer-full instead of two per frame.
const READ_BUFFER: usize = 64 * 1024;

/// How long a sender waits before retrying a connection whose socket
/// refused part of a frame.
const SPILL_RETRY: Duration = Duration::from_millis(1);

/// Upper bound on an idle node thread's sleep. Everything that needs the
/// thread (a timer, a spill, shutdown) wakes it; this is a safety net.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Bound on the connection shutdown makes to wake an accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Frames `payload`: length prefix and payload in one buffer, so the
/// frame leaves in a single `write`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn read_frame(reader: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame exceeds limit",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes as much of `buf` as the non-blocking socket takes and returns
/// how much that was.
fn write_some(stream: &mut TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < buf.len() {
        match stream.write(&buf[done..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// Cumulative transport-fault counters for one mesh, so a deployment can
/// observe disconnects and rejected frames instead of crashing on them.
#[derive(Debug, Default)]
struct MeshFaults {
    /// Sends that failed (connect refused, broken pipe, shut-down mesh).
    send_errors: AtomicU64,
    /// Established connections whose reader loop ended: the peer went
    /// away, or sent a garbled/oversized frame after the hello.
    disconnects: AtomicU64,
    /// Inbound connections rejected before entering service (unreadable
    /// or malformed hello, reader spawn failure).
    rejected_frames: AtomicU64,
    /// Service threads the OS refused to spawn (node threads, the timer
    /// thread): the mesh degrades observably instead of panicking.
    spawn_failures: AtomicU64,
}

/// A point-in-time snapshot of a mesh's transport-fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshFaultStats {
    /// Sends that failed (connect refused, broken pipe, shut-down mesh).
    pub send_errors: u64,
    /// Established connections that ended: peer gone, or a
    /// garbled/oversized frame after the hello.
    pub disconnects: u64,
    /// Inbound connections rejected before entering service (bad hello,
    /// reader spawn failure).
    pub rejected_frames: u64,
    /// Service threads the OS refused to spawn (node threads, the timer
    /// thread).
    pub spawn_failures: u64,
}

struct MeshShared {
    addrs: RwLock<HashMap<NodeId, SocketAddr>>,
    timer: Arc<WallTimer>,
    epoch: Instant,
    shutdown: AtomicBool,
    faults: MeshFaults,
    /// What shutdown tears down. The shutdown flag flips under this
    /// lock, so everything registered here is seen by shutdown and
    /// nothing is registered after it.
    service: Mutex<Service>,
    /// Mesh threads that have started and not yet returned.
    live_threads: AtomicUsize,
    next_conn: AtomicU64,
}

/// The mesh's threads and the handles shutdown needs to end them.
#[derive(Default)]
struct Service {
    /// Every node's inbox: closing one wakes its node thread.
    inboxes: HashMap<NodeId, Arc<Inbox>>,
    /// Every listener: a connection wakes its accept loop.
    listeners: Vec<SocketAddr>,
    /// A clone of every live inbound connection: shutting one down ends
    /// its reader.
    accepted: HashMap<u64, TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

/// Decrements [`MeshShared::live_threads`] when a mesh thread returns.
struct LiveThread(Arc<MeshShared>);

impl Drop for LiveThread {
    fn drop(&mut self) {
        self.0.live_threads.fetch_sub(1, Ordering::SeqCst);
    }
}

impl MeshShared {
    fn fault_stats(&self) -> MeshFaultStats {
        MeshFaultStats {
            send_errors: self.faults.send_errors.load(Ordering::Relaxed),
            disconnects: self.faults.disconnects.load(Ordering::Relaxed),
            rejected_frames: self.faults.rejected_frames.load(Ordering::Relaxed),
            spawn_failures: self.faults.spawn_failures.load(Ordering::Relaxed),
        }
    }

    /// Spawns a mesh thread and registers it for shutdown to join.
    /// `service` is this mesh's locked [`Service`]; the caller has
    /// checked that the mesh is not shut down under that same lock.
    fn spawn(
        self: &Arc<Self>,
        service: &mut Service,
        name: String,
        body: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        service.threads.retain(|t| !t.is_finished());
        self.live_threads.fetch_add(1, Ordering::SeqCst);
        let live = LiveThread(Arc::clone(self));
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            let _live = live;
            body();
        })?;
        service.threads.push(handle);
        Ok(())
    }
}

/// A mesh of real TCP endpoints on the loopback interface.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use globe_net::{tcp::TcpMesh, Event, NetCtx};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mesh = TcpMesh::new();
/// let a = mesh.add_node()?;
/// let b = mesh.add_node()?;
/// let (an, bn) = (a.node(), b.node());
/// a.sender().send(bn, Bytes::from_static(b"ping"))?;
/// match b.recv_timeout(std::time::Duration::from_secs(5)) {
///     Some(Event::Message { from, payload }) => {
///         assert_eq!(from, an);
///         assert_eq!(&payload[..], b"ping");
///     }
///     other => panic!("expected message, got {other:?}"),
/// }
/// mesh.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct TcpMesh {
    shared: Arc<MeshShared>,
    next_node: AtomicU64,
}

impl TcpMesh {
    /// Creates an empty mesh (and its timer service thread). If the
    /// timer thread cannot be spawned the mesh still constructs —
    /// degraded, with timers inert — and the failure is counted in
    /// [`TcpMesh::fault_stats`] instead of panicking.
    pub fn new() -> Self {
        let timer = WallTimer::spawn();
        let timer_failed = timer.is_stopped();
        let mesh = TcpMesh {
            shared: Arc::new(MeshShared {
                addrs: RwLock::new(HashMap::new()),
                timer,
                epoch: Instant::now(),
                shutdown: AtomicBool::new(false),
                faults: MeshFaults::default(),
                service: Mutex::new(Service::default()),
                live_threads: AtomicUsize::new(0),
                next_conn: AtomicU64::new(0),
            }),
            next_node: AtomicU64::new(0),
        };
        if timer_failed {
            mesh.shared
                .faults
                .spawn_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        mesh
    }

    /// Binds a listener for a new node and returns its endpoint, which
    /// starts out caller-driven.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Io`] if the listener cannot be bound or its
    /// accept thread cannot be spawned, [`MeshError::ShutDown`] after
    /// [`TcpMesh::shutdown`].
    pub fn add_node(&self) -> Result<TcpEndpoint, MeshError> {
        let node = NodeId::new(self.next_node.fetch_add(1, Ordering::Relaxed) as u32);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let inbox = Arc::new(Inbox::default());
        {
            let mut service = self.shared.service.lock();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(MeshError::ShutDown);
            }
            let shared = Arc::clone(&self.shared);
            let accept_inbox = Arc::clone(&inbox);
            self.shared
                .spawn(&mut service, format!("globe-accept-{node}"), move || {
                    accept_loop(listener, accept_inbox, shared)
                })?;
            service.listeners.push(addr);
            service.inboxes.insert(node, Arc::clone(&inbox));
        }
        self.shared.addrs.write().insert(node, addr);
        Ok(TcpEndpoint {
            node,
            shared: Arc::clone(&self.shared),
            inbox,
            out: Arc::new(Outbound::default()),
        })
    }

    /// A snapshot of the mesh's cumulative transport-fault counters.
    pub fn fault_stats(&self) -> MeshFaultStats {
        self.shared.fault_stats()
    }

    /// Accept, reader and node threads of this mesh that have started
    /// and not yet returned (the timer thread is not counted).
    pub fn live_threads(&self) -> usize {
        self.shared.live_threads.load(Ordering::SeqCst)
    }

    /// Shuts the mesh down and joins its threads. Timers stop, every
    /// inbox closes (so [`TcpEndpoint::recv_timeout`] returns `None`
    /// and node threads return), inbound connections are shut down (so
    /// readers see end-of-stream) and each accept loop is woken by one
    /// last connection. Idempotent.
    pub fn shutdown(&self) {
        let service = {
            let mut service = self.shared.service.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
            std::mem::take(&mut *service)
        };
        self.shared.timer.stop();
        for inbox in service.inboxes.values() {
            inbox.close();
        }
        for stream in service.accepted.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for addr in &service.listeners {
            let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
        }
        let me = std::thread::current().id();
        for thread in service.threads {
            if thread.thread().id() != me {
                let _ = thread.join();
            }
        }
    }

    /// Wall-clock origin used for [`NetCtx::now`] values.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }
}

impl Default for TcpMesh {
    fn default() -> Self {
        TcpMesh::new()
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMesh")
            .field("nodes", &self.shared.addrs.read().len())
            .finish()
    }
}

fn accept_loop(listener: TcpListener, inbox: Arc<Inbox>, shared: Arc<MeshShared>) {
    for conn in listener.incoming() {
        let mut service = shared.service.lock();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let spawned = stream.try_clone().and_then(|clone| {
            service.accepted.insert(id, clone);
            let inbox = Arc::clone(&inbox);
            let reader_shared = Arc::clone(&shared);
            shared.spawn(&mut service, "globe-reader".into(), move || {
                read_loop(stream, &inbox, &reader_shared);
                reader_shared.service.lock().accepted.remove(&id);
            })
        });
        if spawned.is_err() {
            // Out of threads (or descriptors): drop the connection
            // rather than crash the accept loop; the peer's sends
            // surface as its own errors.
            service.accepted.remove(&id);
            shared
                .faults
                .rejected_frames
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One inbound connection: reads the hello, then queues every frame on
/// the node's inbox (running the handler when this reader becomes the
/// drainer) until the peer hangs up, the inbox closes or the mesh shuts
/// down.
fn read_loop(stream: TcpStream, inbox: &Inbox, shared: &MeshShared) {
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    // First frame identifies the peer; a connection that cannot even
    // say hello is rejected, not crashed on.
    let from = match read_frame(&mut reader) {
        Ok(hello) if hello.len() == 4 => {
            NodeId::new(u32::from_be_bytes([hello[0], hello[1], hello[2], hello[3]]))
        }
        _ => {
            shared
                .faults
                .rejected_frames
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    while let Ok(frame) = read_frame(&mut reader) {
        let event = Event::Message {
            from,
            payload: Bytes::from(frame),
        };
        if !inbox.push(event, Origin::Reader) {
            return;
        }
    }
    // The peer hung up (or sent an oversized/garbled length): an
    // observable disconnect, not a panic — unless shutdown closed it.
    if !shared.shutdown.load(Ordering::SeqCst) {
        shared.faults.disconnects.fetch_add(1, Ordering::Relaxed);
    }
}

/// Who queued an event: a reader may drain the queue itself; the
/// shared timer thread and in-process hand-offs
/// ([`TcpEndpoint::inject_ctx`]) leave that to the node thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Reader,
    Handoff,
}

/// One node's FIFO of inbound events (frames from every connection and
/// timer firings), and the handler that drains it once installed.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    /// Wakes a caller-driven [`TcpEndpoint::recv_timeout`], or the node
    /// thread once a handler is installed.
    ready: Condvar,
    /// The installed handler. Whoever drains holds this lock while the
    /// handler runs, so handlers for one node never overlap.
    dispatch: Mutex<Option<Dispatcher>>,
}

#[derive(Default)]
struct InboxState {
    queue: VecDeque<Event>,
    /// A handler is installed: events are dispatched, not waited for.
    dispatching: bool,
    /// Some thread is draining `queue` through the handler.
    draining: bool,
    /// A handler's send left frames in a spill queue for the node thread.
    spilled: bool,
    /// The endpoint is gone or the mesh is shut down.
    closed: bool,
    /// Threads blocked on `ready`. A push wakes one only if there is
    /// one: a caller-driven client that polls never waits, and a wake
    /// costs a system call.
    waiters: usize,
}

/// A node's protocol handler, as installed by [`TcpEndpoint::dispatch`].
type Handler = Box<dyn FnMut(Event, &mut dyn NetCtx) + Send>;

/// The installed handler with the endpoint its [`TcpCtx`] sends from.
struct Dispatcher {
    endpoint: TcpEndpoint,
    handler: Handler,
    /// The events being handled, swapped out of the queue in one go.
    batch: VecDeque<Event>,
}

impl Dispatcher {
    fn run_batch(&mut self) {
        let mut ctx = TcpCtx {
            endpoint: &self.endpoint,
            mode: SendMode::Spill,
        };
        while let Some(event) = self.batch.pop_front() {
            (self.handler)(event, &mut ctx);
        }
    }
}

/// The node thread's next job.
enum Job {
    Drain,
    Flush,
    Exit,
}

impl Inbox {
    /// Queues `event`; false once the inbox is closed. A reader that
    /// finds a handler installed and nobody draining drains the queue
    /// itself; a hand-off wakes the node thread instead.
    fn push(&self, event: Event, origin: Origin) -> bool {
        let mut state = self.state.lock();
        if state.closed {
            return false;
        }
        state.queue.push_back(event);
        if state.draining {
            return true;
        }
        let drain_here = state.dispatching && origin == Origin::Reader;
        state.draining = drain_here;
        let wake = state.waiters > 0;
        drop(state);
        if drain_here {
            self.drain();
        } else if wake {
            self.ready.notify_one();
        }
        true
    }

    /// Runs the handler over the queue until it is empty. The caller has
    /// set `draining`; this clears it.
    fn drain(&self) {
        let mut dispatch = self.dispatch.lock();
        loop {
            let mut state = self.state.lock();
            let Some(d) = dispatch
                .as_mut()
                .filter(|_| !state.closed && !state.queue.is_empty())
            else {
                state.draining = false;
                return;
            };
            std::mem::swap(&mut state.queue, &mut d.batch);
            drop(state);
            d.run_batch();
        }
    }

    /// Installs the handler. Events queued while the node was
    /// caller-driven stay at the head of the queue and are handled
    /// first, by the node thread unless a reader gets there first.
    fn install(&self, dispatcher: Dispatcher) {
        *self.dispatch.lock() = Some(dispatcher);
        self.state.lock().dispatching = true;
        self.ready.notify_one();
    }

    /// Waits on `ready` for at most `timeout`, counted in `waiters`.
    fn wait(&self, state: &mut MutexGuard<'_, InboxState>, timeout: Duration) {
        state.waiters += 1;
        self.ready.wait_for(state, timeout);
        state.waiters -= 1;
    }

    /// Blocks the node thread until it has something to do.
    fn next_job(&self) -> Job {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Job::Exit;
            }
            if state.spilled {
                state.spilled = false;
                return Job::Flush;
            }
            if state.dispatching && !state.draining && !state.queue.is_empty() {
                state.draining = true;
                return Job::Drain;
            }
            self.wait(&mut state, IDLE_WAIT);
        }
    }

    /// Asks the node thread to flush spilled frames.
    fn mark_spilled(&self) {
        let mut state = self.state.lock();
        state.spilled = true;
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Caller-driven receive: the next queued event, waiting up to
    /// `timeout` for one.
    fn recv(&self, timeout: Duration) -> Option<Event> {
        let mut state = self.state.lock();
        let deadline = Instant::now() + timeout;
        loop {
            if state.closed {
                return None;
            }
            if let Some(event) = state.queue.pop_front() {
                return Some(event);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.wait(&mut state, deadline.saturating_duration_since(now));
        }
    }

    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        state.queue.clear();
        drop(state);
        self.ready.notify_all();
    }
}

/// A node thread: drains timer events into the handler and flushes
/// spilled frames until the inbox closes, then drops the handler.
fn node_loop(inbox: &Inbox, out: &Outbound, shared: &MeshShared) {
    loop {
        match inbox.next_job() {
            Job::Exit => break,
            Job::Drain => inbox.drain(),
            Job::Flush => {
                if out.flush_all(shared) {
                    inbox.state.lock().spilled = true;
                    std::thread::sleep(SPILL_RETRY);
                }
            }
        }
    }
    // The dispatcher owns the endpoint, which owns this inbox: dropping
    // it here breaks that cycle.
    let dispatcher = inbox.dispatch.lock().take();
    drop(dispatcher);
}

/// One endpoint's outbound connections, one per peer it has sent to.
#[derive(Default)]
struct Outbound {
    conns: Mutex<HashMap<NodeId, Conn>>,
}

/// An outbound connection and, in order, the frames its socket has not
/// taken yet.
struct Conn {
    stream: TcpStream,
    spill: VecDeque<Vec<u8>>,
    /// Bytes of the front spilled frame already written.
    written: usize,
}

impl Conn {
    /// Connects to `to`, says hello, and switches the socket to
    /// non-blocking writes.
    fn open(shared: &MeshShared, from: NodeId, to: NodeId) -> Result<Conn, MeshError> {
        let addr = *shared
            .addrs
            .read()
            .get(&to)
            .ok_or(MeshError::UnknownPeer(to))?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&framed(&from.raw().to_be_bytes()))?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            spill: VecDeque::new(),
            written: 0,
        })
    }

    /// Writes spilled frames until the socket refuses; true when none
    /// are left.
    fn flush(&mut self) -> std::io::Result<bool> {
        while let Some(front) = self.spill.front() {
            self.written += write_some(&mut self.stream, &front[self.written..])?;
            if self.written < front.len() {
                return Ok(false);
            }
            self.spill.pop_front();
            self.written = 0;
        }
        Ok(true)
    }

    /// Sends one frame behind any spilled ones; true when all of it is
    /// on the wire, false when (part of) it waits in the spill queue.
    fn send(&mut self, frame: Vec<u8>) -> std::io::Result<bool> {
        if self.flush()? {
            let n = write_some(&mut self.stream, &frame)?;
            if n == frame.len() {
                return Ok(true);
            }
            self.written = n;
        }
        self.spill.push_back(frame);
        Ok(false)
    }
}

impl Outbound {
    /// Sends `payload` to `to` without blocking; `Ok(false)` when part
    /// of the frame waits in the spill queue.
    fn send(
        &self,
        shared: &MeshShared,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
    ) -> Result<bool, MeshError> {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(MeshError::ShutDown);
        }
        let frame = framed(payload);
        let mut conns = self.conns.lock();
        // Entry-based connect-or-reuse: no second lookup that could miss.
        let conn = match conns.entry(to) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(Conn::open(shared, from, to)?),
        };
        match conn.send(frame) {
            Ok(done) => Ok(done),
            Err(e) => {
                // Drop the broken connection so a later send can
                // re-establish it (the peer's reader side accounts the
                // disconnect itself).
                conns.remove(&to);
                Err(MeshError::Io(e))
            }
        }
    }

    /// Blocks until the spill queue to `to` is empty, i.e. the caller's
    /// frame is on the wire. Holds no lock while it waits.
    fn wait_flushed(&self, shared: &MeshShared, to: NodeId) -> Result<(), MeshError> {
        loop {
            std::thread::sleep(SPILL_RETRY);
            if shared.shutdown.load(Ordering::SeqCst) {
                return Err(MeshError::ShutDown);
            }
            let mut conns = self.conns.lock();
            let Some(conn) = conns.get_mut(&to) else {
                // Another flush found the connection broken and dropped
                // it together with this frame.
                return Err(MeshError::Io(ErrorKind::BrokenPipe.into()));
            };
            match conn.flush() {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) => {
                    conns.remove(&to);
                    return Err(MeshError::Io(e));
                }
            }
        }
    }

    /// Flushes every spill queue as far as the sockets take; true while
    /// frames remain. A connection that fails is dropped with its
    /// frames and counted as a send error.
    fn flush_all(&self, shared: &MeshShared) -> bool {
        let mut pending = false;
        self.conns.lock().retain(|_, conn| match conn.flush() {
            Ok(done) => {
                pending |= !done;
                true
            }
            Err(_) => {
                shared.faults.send_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        });
        pending
    }
}

/// Sends one frame from `from`, counting a failure. A dispatching
/// handler passes its inbox as `spill_to`: it must not block, so frames
/// the socket refuses are left to the node thread. Any other caller
/// waits until its frame is on the wire.
fn send_frame(
    shared: &MeshShared,
    from: NodeId,
    out: &Outbound,
    to: NodeId,
    payload: &[u8],
    spill_to: Option<&Inbox>,
) -> Result<(), MeshError> {
    let result = match out.send(shared, from, to, payload) {
        Ok(true) => Ok(()),
        Ok(false) => match spill_to {
            Some(inbox) => {
                inbox.mark_spilled();
                Ok(())
            }
            None => out.wait_flushed(shared, to),
        },
        Err(e) => Err(e),
    };
    if result.is_err() {
        shared.faults.send_errors.fetch_add(1, Ordering::Relaxed);
    }
    result
}

/// Queues `payload` on `to`'s inbox as a frame from `from`, in this
/// process, counting a failure.
fn inject(shared: &MeshShared, from: NodeId, to: NodeId, payload: Bytes) -> Result<(), MeshError> {
    let inbox = shared.service.lock().inboxes.get(&to).cloned();
    let result = match inbox {
        None if shared.shutdown.load(Ordering::SeqCst) => Err(MeshError::ShutDown),
        None => Err(MeshError::UnknownPeer(to)),
        // False once the receiver's inbox is closed: it is gone, or the
        // mesh is shut down.
        Some(inbox) if inbox.push(Event::Message { from, payload }, Origin::Handoff) => Ok(()),
        Some(_) => Err(MeshError::ShutDown),
    };
    if result.is_err() {
        shared.faults.send_errors.fetch_add(1, Ordering::Relaxed);
    }
    result
}

/// One node's connection to the mesh: an inbox plus outbound links.
pub struct TcpEndpoint {
    node: NodeId,
    shared: Arc<MeshShared>,
    inbox: Arc<Inbox>,
    out: Arc<Outbound>,
}

impl TcpEndpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks up to `timeout` for the next event of a caller-driven
    /// endpoint. Returns `None` on timeout or when the mesh has shut
    /// down.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Event> {
        self.inbox.recv(timeout)
    }

    /// A cloneable handle for sending from other threads.
    pub fn sender(&self) -> TcpSender {
        TcpSender {
            node: self.node,
            shared: Arc::clone(&self.shared),
            out: Arc::clone(&self.out),
        }
    }

    /// A [`NetCtx`] for handling one event on the caller's thread. Its
    /// sends block while a peer's socket is full.
    pub fn ctx(&self) -> TcpCtx<'_> {
        TcpCtx {
            endpoint: self,
            mode: SendMode::Block,
        }
    }

    /// A [`NetCtx`] whose sends skip the sockets: each frame goes
    /// straight onto the receiving node's queue, in this process,
    /// before `send` returns, and the receiver handles it on its own
    /// thread as if it had arrived from this node. A frame sent this
    /// way is therefore queued ahead of anything sent after it over
    /// any connection — what a caller-side control plane needs, since
    /// a frame on a fresh connection can be overtaken by later traffic
    /// on established ones while the peer accepts it.
    pub fn inject_ctx(&self) -> TcpCtx<'_> {
        TcpCtx {
            endpoint: self,
            mode: SendMode::Inject,
        }
    }

    /// Hands the endpoint to `handler` for good: from now on every
    /// event runs through it, on the reader thread that queued the frame
    /// or on the node's `globe-node-*` thread (timer events, and frames
    /// that were queued while the endpoint was caller-driven — those
    /// first, in order). Handlers of one node never run concurrently.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the node thread cannot be spawned (the
    /// failure is also counted in the mesh's [`TcpMesh::fault_stats`],
    /// so a live deployment observes the dark node instead of crashing),
    /// or an error if the mesh has been shut down.
    pub fn dispatch<F>(self, handler: F) -> std::io::Result<()>
    where
        F: FnMut(Event, &mut dyn NetCtx) + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        {
            let mut service = shared.service.lock();
            if shared.shutdown.load(Ordering::SeqCst) {
                return Err(std::io::Error::other(MeshError::ShutDown));
            }
            let (inbox, out, node_shared) = (
                Arc::clone(&self.inbox),
                Arc::clone(&self.out),
                Arc::clone(&shared),
            );
            shared
                .spawn(
                    &mut service,
                    format!("globe-node-{}", self.node),
                    move || node_loop(&inbox, &out, &node_shared),
                )
                .inspect_err(|_| {
                    shared.faults.spawn_failures.fetch_add(1, Ordering::Relaxed);
                })?;
        }
        let inbox = Arc::clone(&self.inbox);
        inbox.install(Dispatcher {
            endpoint: self,
            handler: Box::new(handler),
            batch: VecDeque::new(),
        });
        Ok(())
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        // Readers of this node stop at their next frame and close their
        // connections, so peers observe the node as gone.
        self.inbox.close();
    }
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("node", &self.node)
            .finish()
    }
}

/// Cloneable sending handle usable from any thread except a dispatching
/// handler's (its sends block while the peer's socket is full).
#[derive(Clone)]
pub struct TcpSender {
    node: NodeId,
    shared: Arc<MeshShared>,
    out: Arc<Outbound>,
}

impl TcpSender {
    /// Sends `payload` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError`] if the peer is unknown, the mesh is shut
    /// down, or the connection fails.
    pub fn send(&self, to: NodeId, payload: Bytes) -> Result<(), MeshError> {
        send_frame(&self.shared, self.node, &self.out, to, &payload, None)
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("node", &self.node)
            .finish()
    }
}

/// [`NetCtx`] implementation for one event being handled on a TCP node.
pub struct TcpCtx<'a> {
    endpoint: &'a TcpEndpoint,
    mode: SendMode,
}

/// How a [`TcpCtx`] sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendMode {
    /// On the caller's thread: wait while the peer's socket is full.
    Block,
    /// In a handler run by [`TcpEndpoint::dispatch`]: never block, leave
    /// what the socket refuses to the node thread.
    Spill,
    /// [`TcpEndpoint::inject_ctx`]: straight onto the receiver's queue.
    Inject,
}

impl NetCtx for TcpCtx<'_> {
    fn node(&self) -> NodeId {
        self.endpoint.node
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.endpoint.shared.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&mut self, to: NodeId, payload: Bytes) {
        let endpoint = self.endpoint;
        let (shared, from) = (&endpoint.shared, endpoint.node);
        // Datagram semantics: failures are silent, like simulator loss.
        let _ = match self.mode {
            SendMode::Block => send_frame(shared, from, &endpoint.out, to, &payload, None),
            SendMode::Spill => send_frame(
                shared,
                from,
                &endpoint.out,
                to,
                &payload,
                Some(&endpoint.inbox),
            ),
            SendMode::Inject => inject(shared, from, to, payload),
        };
    }

    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        let inbox = Arc::clone(&self.endpoint.inbox);
        self.endpoint.shared.timer.arm(delay, move || {
            // Queue only: the handler never runs on the timer thread.
            inbox.push(Event::Timer { token }, Origin::Handoff);
        })
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.endpoint.shared.timer.cancel(id);
    }
}

impl std::fmt::Debug for TcpCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCtx")
            .field("node", &self.node())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_over_sockets() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let (an, bn) = (a.node(), b.node());

        b.dispatch(move |event, ctx| {
            if let Event::Message { from, payload } = event {
                assert_eq!(from, an);
                ctx.send(from, payload);
            }
        })
        .expect("test host can spawn a node thread");

        a.sender().send(bn, Bytes::from_static(b"ping")).unwrap();
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Message { from, payload }) => {
                assert_eq!(from, bn);
                assert_eq!(&payload[..], b"ping");
            }
            other => panic!("expected echo, got {other:?}"),
        }
        mesh.shutdown();
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let id = a.ctx().set_timer(Duration::from_millis(30), TimerToken(5));
        let _ = id;
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Timer { token }) => assert_eq!(token, TimerToken(5)),
            other => panic!("expected timer, got {other:?}"),
        }
        mesh.shutdown();
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let id = a.ctx().set_timer(Duration::from_millis(50), TimerToken(1));
        a.ctx().cancel_timer(id);
        a.ctx().set_timer(Duration::from_millis(100), TimerToken(2));
        match a.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Timer { token }) => assert_eq!(token, TimerToken(2)),
            other => panic!("expected timer 2, got {other:?}"),
        }
        mesh.shutdown();
    }

    #[test]
    fn injected_frame_is_queued_before_send_returns() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        a.inject_ctx().send(b.node(), Bytes::from_static(b"join"));
        // No socket, no reader: the frame is already on b's queue.
        match b.recv_timeout(Duration::ZERO) {
            Some(Event::Message { from, payload }) => {
                assert_eq!(from, a.node());
                assert_eq!(&payload[..], b"join");
            }
            other => panic!("expected the injected frame, got {other:?}"),
        }
        a.inject_ctx()
            .send(NodeId::new(99), Bytes::from_static(b"x"));
        assert_eq!(mesh.fault_stats().send_errors, 1);
        mesh.shutdown();
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let err = a
            .sender()
            .send(NodeId::new(99), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(err, MeshError::UnknownPeer(_)));
        mesh.shutdown();
    }

    #[test]
    fn send_failures_are_counted_not_fatal() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        assert_eq!(mesh.fault_stats().send_errors, 0);
        // Unknown peer: an error result plus a counted fault.
        let _ = a.sender().send(NodeId::new(99), Bytes::from_static(b"x"));
        assert_eq!(mesh.fault_stats().send_errors, 1);
        // After shutdown every send fails observably.
        mesh.shutdown();
        let _ = a.sender().send(NodeId::new(99), Bytes::from_static(b"y"));
        assert_eq!(mesh.fault_stats().send_errors, 2);
    }

    #[test]
    fn peer_disconnect_is_counted_and_survivable() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let bn = b.node();
        // Establish a live connection a -> b.
        a.sender().send(bn, Bytes::from_static(b"hello")).unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(5)),
            Some(Event::Message { .. })
        ));
        // b goes away: its inbox (and reader ends) drop with it.
        drop(b);
        // The next sends hit the broken pipe eventually; the connection
        // is dropped and the failure counted instead of panicking at
        // "connection just inserted". (The OS may buffer a write or two
        // before surfacing the broken pipe, so retry a few times.)
        let mut failed = false;
        for _ in 0..500 {
            if a.sender().send(bn, Bytes::from_static(b"late")).is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(failed, "a send to a dead peer must eventually error");
        assert!(mesh.fault_stats().send_errors >= 1);
        mesh.shutdown();
    }

    #[test]
    fn many_messages_preserve_order() {
        let mesh = TcpMesh::new();
        let a = mesh.add_node().unwrap();
        let b = mesh.add_node().unwrap();
        let sender = a.sender();
        let bn = b.node();
        for i in 0..200u32 {
            sender
                .send(bn, Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 200 {
            match b.recv_timeout(Duration::from_secs(5)) {
                Some(Event::Message { payload, .. }) => {
                    got.push(u32::from_be_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]));
                }
                _ => break,
            }
        }
        assert_eq!(got, (0..200).collect::<Vec<u32>>());
        mesh.shutdown();
    }
}
