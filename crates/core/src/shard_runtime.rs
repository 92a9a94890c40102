//! The in-process sharded Globe runtime.
//!
//! [`GlobeShard`] is the third backend behind [`GlobeRuntime`], built for
//! throughput on one machine: objects hash-partition across N shard
//! lanes, each with a worker thread and a FIFO queue of events, and each
//! lane owns every replica (control object, store, sessions) of the
//! objects in its slice of the object space. Within a lane the full
//! replication/semantics machinery of the simulator runs unchanged;
//! across lanes, independent objects make progress in parallel, so a
//! multi-object workload scales with the lane count instead of being
//! serialized through one event loop.
//!
//! Routing is by *object*, not by node: a message addressed to node X
//! about object O is queued on the lane owning O, which handles it
//! inside its own copy of X's address space. That keeps each object's
//! protocol single-threaded (no per-object races to reason about) while
//! letting the set of objects exploit every core. Timers come from the
//! shared wall-clock [`globe_net::timer::WallTimer`] service, exactly as
//! in the TCP runtime.
//!
//! Handlers run on two kinds of thread, always under the lane's space
//! lock. The lane worker handles one queued event per lock acquisition.
//! A thread issuing a *read* runs to completion instead: before it
//! releases the lock it handles everything queued on the lane, so a read
//! its lane can serve (at a mirror, under a lease or forwarded to the
//! home) has its result waiting when the issue returns. A write only
//! queues its first frame and leaves the rest to the worker, which is
//! what lets group commit share one hand-off across a batch. Events are
//! popped only under the space lock, so each lane's events run in FIFO
//! order whichever thread handles them, and timer closures only queue.
//! No event-loop thread owns a replica, so [`GlobeShard::set_policy`]
//! works on a live deployment.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_coherence::{ClientId, StoreClass, StoreId};
use globe_naming::{ContactRecord, LocationService, NameSpace, ObjectId};
use globe_net::timer::WallTimer;
use globe_net::{Event, NetCtx, NodeId, RegionId, SimTime, TimerId, TimerToken};
use globe_wire::WireDecode;
use parking_lot::{Condvar, Mutex};

use crate::lifecycle::MembershipView;
use crate::plan::{self, ObjectRecord};
use crate::{
    shared_history, AddressSpace, BindOptions, CallError, ClientHandle, CoherenceMsg, CommObject,
    GlobeRuntime, InvocationMessage, ObjectSpec, ReplicationPolicy, RequestId, RuntimeConfig,
    RuntimeError, Semantics, SharedHistory, SharedMetrics,
};

/// Default number of shard workers when none is requested.
pub const DEFAULT_SHARDS: usize = 4;

/// How long the caller sleeps between result polls, so a tight poll loop
/// cannot starve the shard workers of their space locks.
const POLL_BACKOFF: Duration = Duration::from_micros(200);

/// How long an idle lane worker waits before re-checking for shutdown.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// An event en route to a shard lane: which node's address space must
/// handle it, and the event itself.
type ShardEvent = (NodeId, Event);

/// One shard lane: the address spaces holding the control objects of
/// the lane's objects, and the FIFO of events waiting to run in them.
#[derive(Default)]
struct Lane {
    spaces: Mutex<HashMap<NodeId, AddressSpace>>,
    /// Popped only while `spaces` is held, so two threads draining the
    /// lane cannot reorder its events.
    queue: Mutex<LaneQueue>,
    /// Wakes the lane worker, the only thread that ever waits on it.
    ready: Condvar,
}

#[derive(Default)]
struct LaneQueue {
    events: VecDeque<ShardEvent>,
    /// The worker is blocked on `ready`. Only the first push after it
    /// started waiting wakes it: a wake costs a system call.
    waiting: bool,
    /// A read's issuer will drain the queue before it releases the
    /// lane, so a push needs no wake at all.
    draining: bool,
}

impl Lane {
    fn push(&self, event: ShardEvent) {
        let mut queue = self.queue.lock();
        queue.events.push_back(event);
        let wake = !queue.draining && std::mem::take(&mut queue.waiting);
        drop(queue);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Blocks the lane worker until an event is queued, or for at most
    /// [`IDLE_WAIT`].
    fn idle(&self) {
        let mut queue = self.queue.lock();
        if queue.events.is_empty() {
            queue.waiting = true;
            self.ready.wait_for(&mut queue, IDLE_WAIT);
            queue.waiting = false;
        }
    }
}

/// Shared routing fabric: the lanes plus the timer service.
struct ShardRouter {
    lanes: Vec<Lane>,
    timer: Arc<WallTimer>,
    epoch: Instant,
    metrics: SharedMetrics,
}

impl ShardRouter {
    fn shard_of(&self, object: ObjectId) -> usize {
        // Node-scoped detector frames carry their sending lane's scope
        // in the envelope id, so replies route back to the copy of the
        // space whose detector sent the ping.
        if object.raw() >= crate::space::NODE_SCOPE_BASE {
            return ((object.raw() - crate::space::NODE_SCOPE_BASE) % self.lanes.len() as u64)
                as usize;
        }
        (object.raw() % self.lanes.len() as u64) as usize
    }

    fn lane(&self, object: ObjectId) -> &Lane {
        &self.lanes[self.shard_of(object)]
    }

    fn deliver(&self, object: ObjectId, node: NodeId, event: Event) {
        self.lane(object).push((node, event));
    }

    /// Runs an event in its node's space; `spaces` is the locked map of
    /// the lane the event was queued on.
    fn dispatch(
        self: &Arc<Self>,
        spaces: &mut HashMap<NodeId, AddressSpace>,
        (node, event): ShardEvent,
    ) {
        if let Some(space) = spaces.get_mut(&node) {
            let mut ctx = ShardCtx { node, router: self };
            space.handle_event(event, &mut ctx);
        }
    }

    /// Issues one client call for `handle`. A read then drains its lane
    /// before releasing the space lock, so a read its lane can serve is
    /// complete on return; a write leaves its events to the lane worker.
    fn issue(
        self: &Arc<Self>,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError> {
        let lane = self.lane(handle.object);
        let mut spaces = lane.spaces.lock();
        let control = spaces
            .get_mut(&handle.node)
            .and_then(|space| space.control_mut(handle.object))
            .ok_or(CallError::NotBound)?;
        let mut ctx = ShardCtx {
            node: handle.node,
            router: self,
        };
        if !is_read {
            return control.client_write(handle.client, inv, &mut ctx);
        }
        lane.queue.lock().draining = true;
        let issued = control.client_read(handle.client, inv, &mut ctx);
        // Drain until empty. This ends: other issuers of this lane wait
        // for `spaces`, so only the timer thread and other lanes can
        // queue more meanwhile, and `draining` spares them waking the
        // worker for events this loop handles anyway.
        loop {
            let mut queue = lane.queue.lock();
            let Some(event) = queue.events.pop_front() else {
                queue.draining = false;
                break;
            };
            drop(queue);
            self.dispatch(&mut spaces, event);
        }
        issued
    }

    /// Takes the result of `req` if it has completed.
    fn take_result(
        &self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        let mut spaces = self.lane(handle.object).spaces.lock();
        spaces
            .get_mut(&handle.node)?
            .control_mut(handle.object)?
            .take_result(handle.client, req)
    }
}

/// [`NetCtx`] for protocol code running on behalf of one node inside a
/// lane, on its worker or on a thread issuing a call.
struct ShardCtx<'a> {
    node: NodeId,
    router: &'a Arc<ShardRouter>,
}

impl NetCtx for ShardCtx<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.router.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&mut self, to: NodeId, payload: Bytes) {
        // The wire envelope leads with the object id; peeking it is
        // enough to pick the owning shard without decoding the message.
        let mut cursor: &[u8] = &payload;
        let Ok(object) = ObjectId::decode(&mut cursor) else {
            // Corrupt frame: drop, like a bad datagram, but observably.
            self.router.metrics.lock().record_malformed_frame();
            return;
        };
        self.router.deliver(
            object,
            to,
            Event::Message {
                from: self.node,
                payload,
            },
        );
    }

    fn set_timer(&mut self, delay: Duration, token: TimerToken) -> TimerId {
        let (object, _) = crate::space::decode_timer(token);
        let node = self.node;
        let router = Arc::clone(self.router);
        self.router.timer.arm(delay, move || {
            router.deliver(object, node, Event::Timer { token })
        })
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.router.timer.cancel(id);
    }
}

/// A lane worker: handles the lane's events one per acquisition of its
/// space lock, so issuers waiting for the lock get in between events.
fn shard_loop(router: &Arc<ShardRouter>, index: usize, shutdown: &AtomicBool) {
    let lane = &router.lanes[index];
    while !shutdown.load(Ordering::SeqCst) {
        let mut spaces = lane.spaces.lock();
        let next = lane.queue.lock().events.pop_front();
        match next {
            Some(event) => router.dispatch(&mut spaces, event),
            None => {
                drop(spaces);
                lane.idle();
            }
        }
    }
}

/// The Globe middleware sharded across in-process worker threads.
///
/// Build phase is identical to the other runtimes: add nodes, create
/// objects, bind clients. [`GlobeShard::start`] spawns the shard
/// workers (issuing a call starts them implicitly, so the polling
/// contract of [`GlobeRuntime::result`] holds regardless). The caller's
/// thread issues client calls and runs each read to completion; the
/// workers do everything else.
///
/// # Examples
///
/// ```
/// use globe_core::{registers, BindOptions, GlobeRuntime, GlobeShard, ObjectSpec,
///                  RegisterDoc, ReplicationPolicy};
/// use globe_coherence::StoreClass;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut shard = GlobeShard::new(2);
/// let server = shard.add_node()?;
/// let browser = shard.add_node()?;
/// let object = ObjectSpec::new("/home/alice")
///     .policy(ReplicationPolicy::personal_home_page())
///     .semantics(RegisterDoc::new)
///     .store(server, StoreClass::Permanent)
///     .create(&mut shard)?;
/// let alice = shard.bind(object, browser, BindOptions::new())?;
/// shard.start(&[]);
/// shard.handle(alice).write(registers::put("index.html", b"<h1>hi</h1>"))?;
/// let page = shard.handle(alice).read(registers::get("index.html"))?;
/// assert_eq!(&page[..], b"<h1>hi</h1>");
/// shard.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct GlobeShard {
    router: Arc<ShardRouter>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    nodes: HashSet<NodeId>,
    /// Nodes currently isolated by [`GlobeShard::partition_node`]: a
    /// lane that materializes its first copy of such a node's space
    /// *after* the partition must still create it isolated.
    partitioned: HashSet<NodeId>,
    names: NameSpace,
    locations: LocationService,
    objects: HashMap<ObjectId, ObjectRecord>,
    history: SharedHistory,
    metrics: SharedMetrics,
    next_node: u32,
    next_client: u32,
    next_store: u32,
    started: bool,
    seed: u64,
    call_timeout: Duration,
    detector: crate::lifecycle::DetectorConfig,
    tuning: crate::StoreTuning,
    storage: crate::storage::StorageSpec,
}

impl GlobeShard {
    /// Creates a runtime with `shards` worker lanes (at least one) and
    /// the default configuration.
    pub fn new(shards: usize) -> Self {
        GlobeShard::with_shards(shards, RuntimeConfig::new())
    }

    /// Creates a runtime with [`DEFAULT_SHARDS`] worker lanes — the
    /// construction path symmetric with [`crate::GlobeSim::with_config`]
    /// and [`crate::GlobeTcp::with_config`].
    pub fn with_config(config: RuntimeConfig) -> Self {
        GlobeShard::with_shards(DEFAULT_SHARDS, config)
    }

    /// Creates a runtime with an explicit shard count and configuration.
    pub fn with_shards(shards: usize, config: RuntimeConfig) -> Self {
        let lanes = (0..shards.max(1)).map(|_| Lane::default()).collect();
        let metrics = config.build_metrics();
        // A refused timer thread degrades the runtime (timers inert)
        // instead of panicking; the failure is counted like any other
        // transport fault.
        let timer = WallTimer::spawn();
        if timer.is_stopped() {
            metrics.lock().record_spawn_failure();
        }
        GlobeShard {
            router: Arc::new(ShardRouter {
                lanes,
                timer,
                epoch: Instant::now(),
                metrics: metrics.clone(),
            }),
            threads: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            nodes: HashSet::new(),
            partitioned: HashSet::new(),
            names: NameSpace::new(),
            locations: LocationService::new(),
            objects: HashMap::new(),
            history: shared_history(),
            metrics,
            next_node: 0,
            next_client: 0,
            next_store: 0,
            started: false,
            seed: config.seed,
            // Wall-clock time, as in the TCP runtime; loopback channels
            // are fast, so the default deadline is tight.
            call_timeout: config.call_timeout.unwrap_or(Duration::from_secs(10)),
            detector: config.detector(),
            tuning: config.tuning(),
            storage: config.storage(),
        }
    }

    /// The number of shard worker lanes.
    pub fn num_shards(&self) -> usize {
        self.router.lanes.len()
    }

    /// The determinism seed this runtime was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum wall-clock time a synchronous trait-level call may take.
    pub fn set_call_timeout(&mut self, timeout: Duration) {
        self.call_timeout = timeout;
    }

    /// Adds an address space. Its per-object state materializes lazily
    /// in whichever shards come to own objects it participates in.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` mirrors the trait contract.
    pub fn add_node(&mut self) -> Result<NodeId, RuntimeError> {
        let node = NodeId::new(self.next_node);
        self.next_node += 1;
        self.nodes.insert(node);
        Ok(node)
    }

    fn shard_of(&self, object: ObjectId) -> usize {
        self.router.shard_of(object)
    }

    fn lane(&self, object: ObjectId) -> &Lane {
        self.router.lane(object)
    }

    /// Shared creation routine behind [`ObjectSpec`]; every replica of
    /// the object lands in the shard owning the object's hash slice.
    fn create_object_impl(
        &mut self,
        name: &str,
        policy: ReplicationPolicy,
        semantics_factory: &mut dyn FnMut() -> Box<dyn Semantics>,
        placement: &[(NodeId, StoreClass)],
    ) -> Result<ObjectId, RuntimeError> {
        let creation = plan::plan_creation(
            name,
            &policy,
            placement,
            &mut self.names,
            |node| self.nodes.contains(&node),
            &mut self.next_store,
        )?;
        let object = creation.object;
        creation.register_locations(&mut self.locations, |_| RegionId::new(0));
        let lane = self.router.shard_of(object);
        let router = &self.router;
        let metrics = self.metrics.clone();
        let detector = self.detector;
        let partitioned = &self.partitioned;
        creation.build_replicas(
            &policy,
            semantics_factory,
            &self.history,
            &self.metrics,
            self.detector,
            self.tuning,
            &self.storage,
            |node, replica| {
                let mut spaces = router.lanes[lane].spaces.lock();
                let space = spaces.entry(node).or_insert_with(|| {
                    let mut space =
                        AddressSpace::with_scope(node, metrics.clone(), detector, lane as u64);
                    space.set_partitioned(partitioned.contains(&node));
                    space
                });
                plan::install_store(space, object, replica);
                let mut ctx = ShardCtx { node, router };
                space.start_object(object, &mut ctx);
            },
        );
        self.objects.insert(object, creation.into_record(policy));
        Ok(object)
    }

    /// The live `(is_home, epoch)` claim of the replica at `node` in the
    /// object's lane.
    fn replica_claim(&self, object: ObjectId, node: NodeId) -> Option<(bool, u64)> {
        let spaces = self.lane(object).spaces.lock();
        let store = spaces.get(&node)?.control(object)?.store()?;
        Some((store.is_home(), store.home_epoch()))
    }

    /// Refreshes the driver record from the replicas' own view of the
    /// sequencer, so operations planned after an unattended fail-over
    /// target the elected home.
    fn sync_home(&mut self, object: ObjectId) {
        let Some(record) = self.objects.get(&object) else {
            return;
        };
        let home = plan::effective_home(record, |n| self.replica_claim(object, n));
        if let Some(record) = self.objects.get_mut(&object) {
            record.adopt_home(home);
        }
    }

    /// Binds a client in `node`'s address space, mirroring
    /// [`crate::GlobeSim::bind`]. The session lives in the shard owning
    /// the object, inside that shard's copy of the client node's space.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object/node/replica is unknown.
    pub fn bind(
        &mut self,
        object: ObjectId,
        node: NodeId,
        opts: BindOptions,
    ) -> Result<ClientHandle, RuntimeError> {
        if !self.nodes.contains(&node) {
            return Err(RuntimeError::UnknownNode(node));
        }
        self.sync_home(object);
        let record = self
            .objects
            .get(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let session = plan::plan_session(object, record, opts, &self.locations, RegionId::new(0))?;
        let client = ClientId::new(self.next_client);
        self.next_client += 1;
        let session =
            session.into_session(client, object, self.history.clone(), self.metrics.clone());
        let lane = self.shard_of(object);
        let mut spaces = self.router.lanes[lane].spaces.lock();
        let space = spaces.entry(node).or_insert_with(|| {
            let mut space =
                AddressSpace::with_scope(node, self.metrics.clone(), self.detector, lane as u64);
            space.set_partitioned(self.partitioned.contains(&node));
            space
        });
        plan::install_session(space, object, session);
        Ok(ClientHandle {
            object,
            node,
            client,
        })
    }

    /// Spawns the lane workers. `client_nodes` is accepted for signature
    /// parity with the other runtimes but ignored: no node is
    /// caller-driven here. A lane's events run on its worker, except
    /// that a thread issuing a read drains the lane itself before the
    /// issue returns.
    pub fn start(&mut self, _client_nodes: &[NodeId]) {
        if self.started {
            return;
        }
        self.started = true;
        for index in 0..self.router.lanes.len() {
            let router = Arc::clone(&self.router);
            let stop = Arc::clone(&self.stop);
            match std::thread::Builder::new()
                .name(format!("globe-shard-{index}"))
                .spawn(move || shard_loop(&router, index, &stop))
            {
                Ok(handle) => self.threads.push(handle),
                Err(_) => {
                    // Degrade observably: the lane stays dark, the
                    // failure is counted, and the process survives.
                    self.metrics.lock().record_spawn_failure();
                }
            }
        }
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.start(&[]);
        }
    }

    /// Issues one client call from the caller's thread, returning its
    /// request id without waiting for the reply; see [`ShardRouter::issue`]
    /// for which calls complete before it returns.
    fn issue_call(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError> {
        // The polling contract promises progress; writes and timers
        // progress only on the workers, so make sure they run.
        self.ensure_started();
        self.router.issue(handle, inv, is_read)
    }

    fn pump_client(
        &mut self,
        handle: &ClientHandle,
        req: RequestId,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(result) = self.router.take_result(handle, req) {
                return result;
            }
            if Instant::now() > deadline {
                return Err(CallError::TimedOut);
            }
            std::thread::sleep(POLL_BACKOFF);
        }
    }

    /// Changes an object's replication policy at run time; the home
    /// store broadcasts the new policy to every replica. Works on a live
    /// deployment: the home store's state is behind the shard lock, so
    /// no event-loop thread needs to be interrupted.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for unknown objects or invalid
    /// policies.
    pub fn set_policy(
        &mut self,
        object: ObjectId,
        policy: ReplicationPolicy,
    ) -> Result<(), RuntimeError> {
        policy
            .validate()
            .map_err(|e| RuntimeError::BadPolicy(e.to_string()))?;
        self.sync_home(object);
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        record.policy = policy.clone();
        let home = record.home_node;
        let mut spaces = self.lane(object).spaces.lock();
        if let Some(store) = spaces
            .get_mut(&home)
            .and_then(|space| space.control_mut(object))
            .and_then(|control| control.store_mut())
        {
            let mut ctx = ShardCtx {
                node: home,
                router: &self.router,
            };
            store.set_policy(policy, &mut ctx);
        }
        Ok(())
    }

    /// Installs an additional store at run time — live deployments
    /// included, since every replica sits behind its shard's lock. The
    /// new replica joins via the home store's state-transfer protocol.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or node is unknown, or
    /// the node already hosts a replica.
    pub fn add_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        class: StoreClass,
        semantics: Box<dyn Semantics>,
    ) -> Result<StoreId, RuntimeError> {
        if !self.nodes.contains(&node) {
            return Err(RuntimeError::UnknownNode(node));
        }
        self.sync_home(object);
        let (store_id, replica) = plan::plan_add_store(
            self.objects
                .get_mut(&object)
                .ok_or(RuntimeError::UnknownObject(object))?,
            node,
            class,
            &mut self.next_store,
            plan::ReplicaParts {
                object,
                semantics,
                history: &self.history,
                metrics: &self.metrics,
                detector: self.detector,
                tuning: self.tuning,
                storage: self.storage.clone(),
            },
        )?;
        self.locations.register(
            object,
            ContactRecord {
                node,
                class,
                region: RegionId::new(0),
            },
        );
        let lane = self.shard_of(object);
        let mut spaces = self.router.lanes[lane].spaces.lock();
        let space = spaces.entry(node).or_insert_with(|| {
            let mut space =
                AddressSpace::with_scope(node, self.metrics.clone(), self.detector, lane as u64);
            space.set_partitioned(self.partitioned.contains(&node));
            space
        });
        plan::install_store(space, object, replica);
        let mut ctx = ShardCtx {
            node,
            router: &self.router,
        };
        space.start_object(object, &mut ctx);
        if let Some(store) = space.control_mut(object).and_then(|c| c.store_mut()) {
            store.join(&mut ctx);
        }
        Ok(store_id)
    }

    /// Points every bound session of `object` away from a failed home.
    fn reroute_sessions(
        &mut self,
        object: ObjectId,
        old_home: NodeId,
        new_home: NodeId,
        new_store: StoreId,
        reroute_reads: bool,
    ) {
        let mut spaces = self.lane(object).spaces.lock();
        for space in spaces.values_mut() {
            if let Some(control) = space.control_mut(object) {
                control.reroute_sessions(old_home, new_home, new_store, reroute_reads);
            }
        }
    }

    /// Removes the replica at `node` gracefully, telling the home store
    /// to stop propagating and heartbeating to it. Removing the *home*
    /// store elects a surviving permanent store as the new sequencer and
    /// hands it the retiring home's write log.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or replica is unknown,
    /// or the replica is the home store and no surviving permanent store
    /// can take over.
    pub fn remove_store(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError> {
        self.sync_home(object);
        let view = self.membership(object).ok();
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let home = record.home_node;
        let (_, failover) = plan::plan_remove_store(record, node, view.as_ref())?;
        self.locations.unregister(object, node);
        let store = {
            let mut spaces = self.lane(object).spaces.lock();
            spaces
                .get_mut(&node)
                .and_then(|space| space.control_mut(object))
                .and_then(|control| control.take_store())
        };
        let comm = CommObject::new(object, self.metrics.clone());
        let mut ctx = ShardCtx {
            node,
            router: &self.router,
        };
        match failover {
            None => comm.send(&mut ctx, home, &CoherenceMsg::Leave { node }),
            Some(f) => {
                let msg = f.handoff_msg(store.as_ref());
                comm.send(&mut ctx, f.new_home, &msg);
                self.reroute_sessions(object, f.old_home, f.new_home, f.new_home_store, true);
            }
        }
        Ok(())
    }

    /// Crash-and-recovers the replica at `node` through the lifecycle
    /// state-transfer protocol. Restarting the *home* store triggers a
    /// fail-over: the elected permanent store promotes itself from its
    /// own write log and the old home rejoins as an ordinary replica.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or replica is unknown,
    /// or the replica is the home store and no surviving permanent store
    /// can take over.
    pub fn restart_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        fresh_semantics: Box<dyn Semantics>,
    ) -> Result<(), RuntimeError> {
        self.sync_home(object);
        let view = self.membership(object).ok();
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let (replica, failover) = plan::plan_restart_store(
            record,
            node,
            view.as_ref(),
            plan::ReplicaParts {
                object,
                semantics: fresh_semantics,
                history: &self.history,
                metrics: &self.metrics,
                detector: self.detector,
                tuning: self.tuning,
                storage: self.storage.clone(),
            },
        )?;
        {
            let mut spaces = self.lane(object).spaces.lock();
            let control = spaces
                .get_mut(&node)
                .and_then(|space| space.control_mut(object))
                .ok_or(RuntimeError::NoSuchReplica)?;
            control.set_store(replica);
        }
        if let Some(f) = &failover {
            // Promote the winner before the fresh replica's join reaches
            // it (same lane queue, so ordering holds).
            let comm = CommObject::new(object, self.metrics.clone());
            let mut ctx = ShardCtx {
                node,
                router: &self.router,
            };
            comm.send(&mut ctx, f.new_home, &f.elect_msg());
            self.reroute_sessions(object, f.old_home, f.new_home, f.new_home_store, false);
        }
        let mut spaces = self.lane(object).spaces.lock();
        let space = spaces.get_mut(&node).ok_or(RuntimeError::NoSuchReplica)?;
        let mut ctx = ShardCtx {
            node,
            router: &self.router,
        };
        space.start_object(object, &mut ctx);
        if let Some(store) = space.control_mut(object).and_then(|c| c.store_mut()) {
            store.join(&mut ctx);
        }
        Ok(())
    }

    /// Fault injection: isolates (or heals) the node's address space in
    /// every lane that materialized a copy of it — and any copy a lane
    /// materializes later starts with the same flag — see
    /// [`GlobeRuntime::partition_node`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the node is unknown.
    pub fn partition_node(&mut self, node: NodeId, isolated: bool) -> Result<(), RuntimeError> {
        if !self.nodes.contains(&node) {
            return Err(RuntimeError::UnknownNode(node));
        }
        if isolated {
            self.partitioned.insert(node);
        } else {
            self.partitioned.remove(&node);
        }
        for lane in &self.router.lanes {
            if let Some(space) = lane.spaces.lock().get_mut(&node) {
                space.set_partitioned(isolated);
            }
        }
        Ok(())
    }

    /// A snapshot of the object's membership plus the home store's
    /// failure-detector verdicts.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object is unknown.
    pub fn membership(&self, object: ObjectId) -> Result<MembershipView, RuntimeError> {
        let record = self
            .objects
            .get(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        // The record may predate an unattended election: follow the
        // replicas' own claim of where the sequencer lives.
        let (home_node, _, _) = plan::effective_home(record, |n| self.replica_claim(object, n));
        let spaces = self.lane(object).spaces.lock();
        let home_space = spaces.get(&home_node);
        Ok(plan::membership_view(object, record, home_node, |peer| {
            home_space
                .map(|s| s.node_health(peer))
                .unwrap_or((crate::lifecycle::StoreHealth::Alive, None))
        }))
    }

    /// Injects one raw frame into the routing fabric as if `node` had
    /// sent it — the fault-injection hook the transport-hardening tests
    /// use to exercise the malformed-frame drop path.
    #[doc(hidden)]
    pub fn inject_frame(&mut self, node: NodeId, to: NodeId, payload: Bytes) {
        let mut ctx = ShardCtx {
            node,
            router: &self.router,
        };
        ctx.send(to, payload);
    }

    /// The shared execution history.
    pub fn history(&self) -> SharedHistory {
        self.history.clone()
    }

    /// The shared metrics.
    pub fn metrics(&self) -> SharedMetrics {
        self.metrics.clone()
    }

    /// Stops the workers and the timer service. Idempotent; after
    /// shutdown, writes (and reads their lane cannot finish on the
    /// caller's thread) fail with [`CallError::TimedOut`].
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.router.timer.stop();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The shard runtime's [`EnginePort`]: issuing and polling both go
/// through the owning lane's space lock, exactly like the trait-level
/// path, so N engine threads contend only when their objects share a
/// lane — objects on different lanes issue fully in parallel. A read
/// its lane can serve has its result ready when `issue` returns.
struct ShardPort {
    router: Arc<ShardRouter>,
}

impl crate::EnginePort for ShardPort {
    fn issue(
        &self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError> {
        self.router.issue(handle, inv, is_read)
    }

    fn try_result(
        &self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        self.router.take_result(handle, req)
    }
}

impl GlobeRuntime for GlobeShard {
    fn add_node(&mut self) -> Result<NodeId, RuntimeError> {
        GlobeShard::add_node(self)
    }

    fn create_object(&mut self, spec: ObjectSpec) -> Result<ObjectId, RuntimeError> {
        let (path, policy, mut factory, placement) = spec.into_parts();
        self.create_object_impl(&path, policy, &mut *factory, &placement)
    }

    fn bind(
        &mut self,
        object: ObjectId,
        node: NodeId,
        opts: BindOptions,
    ) -> Result<ClientHandle, RuntimeError> {
        GlobeShard::bind(self, object, node, opts)
    }

    fn issue_read(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError> {
        self.issue_call(handle, inv, true)
    }

    fn issue_write(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
    ) -> Result<RequestId, CallError> {
        self.issue_call(handle, inv, false)
    }

    fn result(
        &mut self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        if let Some(result) = self.router.take_result(handle, req) {
            return Some(result);
        }
        // Progress is autonomous (the shard workers run on their own
        // threads); yield the space lock briefly so a tight poll loop
        // cannot starve them, which keeps the contract's promise that a
        // plain issue/poll loop terminates.
        std::thread::sleep(POLL_BACKOFF);
        self.router.take_result(handle, req)
    }

    fn read(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError> {
        let req = self.issue_call(handle, inv, true)?;
        self.pump_client(handle, req, self.call_timeout)
    }

    fn write(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError> {
        let req = self.issue_call(handle, inv, false)?;
        self.pump_client(handle, req, self.call_timeout)
    }

    fn set_policy(
        &mut self,
        object: ObjectId,
        policy: ReplicationPolicy,
    ) -> Result<(), RuntimeError> {
        GlobeShard::set_policy(self, object, policy)
    }

    fn add_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        class: StoreClass,
        semantics: Box<dyn Semantics>,
    ) -> Result<StoreId, RuntimeError> {
        GlobeShard::add_store(self, object, node, class, semantics)
    }

    fn remove_store(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError> {
        GlobeShard::remove_store(self, object, node)
    }

    fn restart_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        fresh_semantics: Box<dyn Semantics>,
    ) -> Result<(), RuntimeError> {
        GlobeShard::restart_store(self, object, node, fresh_semantics)
    }

    fn partition_node(&mut self, node: NodeId, isolated: bool) -> Result<(), RuntimeError> {
        GlobeShard::partition_node(self, node, isolated)
    }

    fn membership(&self, object: ObjectId) -> Result<MembershipView, RuntimeError> {
        GlobeShard::membership(self, object)
    }

    fn history(&self) -> SharedHistory {
        GlobeShard::history(self)
    }

    fn metrics(&self) -> SharedMetrics {
        GlobeShard::metrics(self)
    }

    fn start(&mut self, client_nodes: &[NodeId]) {
        GlobeShard::start(self, client_nodes);
    }

    fn shutdown(&mut self) {
        GlobeShard::shutdown(self);
    }

    fn settle(&mut self, d: Duration) {
        // The workers run in real time; let the wall clock advance.
        self.ensure_started();
        std::thread::sleep(d);
    }

    fn engine_port(&mut self) -> Option<Arc<dyn crate::EnginePort>> {
        // The port issues into live machinery; make sure the workers
        // that provide progress are running.
        self.ensure_started();
        Some(Arc::new(ShardPort {
            router: Arc::clone(&self.router),
        }))
    }
}

impl Default for GlobeShard {
    fn default() -> Self {
        GlobeShard::with_config(RuntimeConfig::new())
    }
}

impl Drop for GlobeShard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for GlobeShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobeShard")
            .field("shards", &self.num_shards())
            .field("nodes", &self.nodes.len())
            .field("objects", &self.objects.len())
            .field("started", &self.started)
            .finish()
    }
}
