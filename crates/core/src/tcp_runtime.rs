//! The real-socket Globe runtime.
//!
//! [`GlobeTcp`] hosts the same address spaces, control objects, and
//! replication protocols as [`crate::GlobeSim`], but over the TCP mesh of
//! `globe-net`: after [`GlobeTcp::start`] every store node's events run to
//! completion on the mesh thread that received them (see
//! [`globe_net::tcp`]), and client nodes are driven from the caller's
//! thread. Nothing in the protocol stack changes — that is the point of
//! the sans-IO design (and of the paper's claim that the framework sits
//! on ordinary transports).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use globe_coherence::{ClientId, StoreClass, StoreId};
use globe_naming::{ContactRecord, LocationService, NameSpace, ObjectId};
use globe_net::tcp::{TcpEndpoint, TcpMesh};
use globe_net::{NodeId, RegionId};
use parking_lot::Mutex;

use crate::lifecycle::{MembershipView, StoreHealth};
use crate::plan::{self, ObjectRecord};
use crate::{
    shared_history, AddressSpace, BindOptions, CallError, ClientHandle, CoherenceMsg, CommObject,
    GlobeRuntime, InvocationMessage, ObjectSpec, ReplicationPolicy, RequestId, RuntimeConfig,
    RuntimeError, Semantics, SharedHistory, SharedMetrics,
};

/// The error for live operations attempted without a control endpoint
/// (i.e. before [`GlobeTcp::start`] on a node whose endpoint is gone —
/// which cannot normally happen — or after a failed start).
fn no_control_error() -> RuntimeError {
    RuntimeError::Unsupported(
        "the control endpoint exists only after start(); use the caller-driven \
         endpoint before start()"
            .to_string(),
    )
}

/// The Globe middleware over real TCP sockets on loopback.
///
/// Build phase: add nodes, create objects, bind clients. Then call
/// [`GlobeTcp::start`] to hand the store nodes to the mesh, and drive client
/// calls with [`GlobeTcp::read`] / [`GlobeTcp::write`] from the caller's
/// thread. Shut down with [`GlobeTcp::shutdown`].
pub struct GlobeTcp {
    mesh: TcpMesh,
    /// Caller-driven endpoints (client nodes, plus every node before
    /// `start()`), shared so the engine port can pump them from N
    /// load-generator threads. Store nodes leave this map at `start()`
    /// when the mesh takes over their dispatch.
    endpoints: HashMap<NodeId, Arc<Mutex<TcpEndpoint>>>,
    spaces: HashMap<NodeId, Arc<Mutex<AddressSpace>>>,
    names: NameSpace,
    locations: LocationService,
    objects: HashMap<ObjectId, ObjectRecord>,
    history: SharedHistory,
    metrics: SharedMetrics,
    /// A mesh endpoint that never hosts stores or clients, created by
    /// [`GlobeTcp::start`]: the caller's thread uses it to inject
    /// control-plane messages (policy changes, joins, leaves) into a
    /// live deployment whose store endpoints the mesh dispatches.
    control: Option<TcpEndpoint>,
    next_client: u32,
    next_store: u32,
    started: bool,
    seed: u64,
    call_timeout: Duration,
    detector: crate::lifecycle::DetectorConfig,
    tuning: crate::StoreTuning,
    storage: crate::storage::StorageSpec,
}

impl GlobeTcp {
    /// Creates an empty TCP runtime with the default configuration.
    pub fn new() -> Self {
        GlobeTcp::with_config(RuntimeConfig::new())
    }

    /// Creates a TCP runtime from a [`RuntimeConfig`] — the construction
    /// path symmetric with [`crate::GlobeSim::with_config`]. The seed is
    /// recorded for any future randomized behavior (retry jitter, replica
    /// choice ties) so both runtimes construct identically.
    pub fn with_config(config: RuntimeConfig) -> Self {
        GlobeTcp {
            mesh: TcpMesh::new(),
            endpoints: HashMap::new(),
            spaces: HashMap::new(),
            names: NameSpace::new(),
            locations: LocationService::new(),
            objects: HashMap::new(),
            history: shared_history(),
            metrics: config.build_metrics(),
            control: None,
            next_client: 0,
            next_store: 0,
            started: false,
            seed: config.seed,
            // Wall-clock time is real here, so the default deadline is
            // much tighter than the simulator's virtual-time budget.
            call_timeout: config.call_timeout.unwrap_or(Duration::from_secs(10)),
            detector: config.detector(),
            tuning: config.tuning(),
            storage: config.storage(),
        }
    }

    /// The determinism seed this runtime was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum wall-clock time a synchronous trait-level call may take.
    pub fn set_call_timeout(&mut self, timeout: Duration) {
        self.call_timeout = timeout;
    }

    /// Adds an address space backed by a real socket endpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the endpoint cannot be created.
    pub fn add_node(&mut self) -> Result<NodeId, RuntimeError> {
        let endpoint = self
            .mesh
            .add_node()
            .map_err(|e| RuntimeError::BadName(e.to_string()))?;
        let node = endpoint.node();
        self.endpoints.insert(node, Arc::new(Mutex::new(endpoint)));
        self.spaces.insert(
            node,
            Arc::new(Mutex::new(AddressSpace::with_scope(
                node,
                self.metrics.clone(),
                self.detector,
                0,
            ))),
        );
        Ok(node)
    }

    /// The live `(is_home, epoch)` claim of the replica at `node`
    /// (spaces sit behind locks, so this works on a live deployment).
    fn replica_claim(&self, object: ObjectId, node: NodeId) -> Option<(bool, u64)> {
        let space = self.spaces.get(&node)?;
        let space = space.lock();
        let store = space.control(object)?.store()?;
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

    /// Shared creation routine behind [`ObjectSpec`].
    fn create_object_impl(
        &mut self,
        name: &str,
        policy: ReplicationPolicy,
        semantics_factory: &mut dyn FnMut() -> Box<dyn Semantics>,
        placement: &[(NodeId, StoreClass)],
    ) -> Result<ObjectId, RuntimeError> {
        assert!(!self.started, "create objects before start()");
        let creation = plan::plan_creation(
            name,
            &policy,
            placement,
            &mut self.names,
            |node| self.spaces.contains_key(&node),
            &mut self.next_store,
        )?;
        let object = creation.object;
        creation.register_locations(&mut self.locations, |_| RegionId::new(0));
        let spaces = &self.spaces;
        let endpoints = &self.endpoints;
        creation.build_replicas(
            &policy,
            semantics_factory,
            &self.history,
            &self.metrics,
            self.detector,
            self.tuning,
            &self.storage,
            |node, replica| {
                // Endpoint before space — the declared lock order; every
                // other runtime path nests the same way. Placement is
                // validated by plan_creation, so a missing entry means
                // the node was never added: leave it dark rather than
                // aborting creation.
                let Some(shared) = endpoints.get(&node) else {
                    return;
                };
                let endpoint = shared.lock();
                let mut space = spaces[&node].lock();
                plan::install_store(&mut space, object, replica);
                let mut ctx = endpoint.ctx();
                space.start_object(object, &mut ctx);
            },
        );
        self.objects.insert(object, creation.into_record(policy));
        Ok(object)
    }

    /// Binds a client in `node`'s address space, mirroring
    /// [`crate::GlobeSim::bind`]. The node must stay client-driven (do
    /// not list it as a store placement) so the caller's thread can pump
    /// its events.
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
        let mut space = self
            .spaces
            .get(&node)
            .ok_or(RuntimeError::UnknownNode(node))?
            .lock();
        plan::install_session(&mut space, object, session);
        Ok(ClientHandle {
            object,
            node,
            client,
        })
    }

    /// Hands every node not named in `client_nodes` (those stay
    /// caller-driven) to the mesh's run-to-completion dispatch, and
    /// creates the control endpoint the caller's thread uses for live
    /// lifecycle and policy operations. Events a node received before
    /// this call are handled first, in order.
    pub fn start(&mut self, client_nodes: &[NodeId]) {
        self.started = true;
        if self.control.is_none() {
            // Without a control endpoint every live lifecycle and policy
            // operation is broken; fail loudly here (like the thread
            // spawns below) instead of surfacing a misleading error from
            // a later set_policy/add_store.
            #[allow(clippy::expect_used)]
            let control = self
                .mesh
                .add_node()
                // lint: allow(panic) — deliberate fail-loud at start(): without a control endpoint every later lifecycle call would fail confusingly
                .expect("failed to create the control endpoint");
            self.control = Some(control);
        }
        let to_spawn: Vec<NodeId> = self
            .endpoints
            .keys()
            .copied()
            .filter(|n| !client_nodes.contains(n))
            .collect();
        for node in to_spawn {
            let Some(shared) = self.endpoints.remove(&node) else {
                continue;
            };
            // Nothing else can hold a reference before start(); if an
            // engine port somehow does, the node stays caller-driven.
            let endpoint = match Arc::try_unwrap(shared) {
                Ok(mutex) => mutex.into_inner(),
                Err(shared) => {
                    self.endpoints.insert(node, shared);
                    continue;
                }
            };
            let space = Arc::clone(&self.spaces[&node]);
            // A refused node thread leaves the node dark instead of
            // crashing the deployment; the mesh counts it (`fault_stats`)
            // and the failure surfaces through the shared metrics.
            let _ = endpoint.dispatch(move |event, ctx| {
                space.lock().handle_event(event, ctx);
            });
        }
    }

    /// Sends one control-plane message from the caller's thread into the
    /// live mesh. It is handed straight to the receiver's queue, so it
    /// is queued before any client traffic the caller issues next (over
    /// a socket, a first control message would wait for the receiver to
    /// accept a fresh connection and could be overtaken).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unsupported`] when no control endpoint
    /// exists (i.e. [`GlobeTcp::start`] has not run).
    fn control_send(
        &mut self,
        object: ObjectId,
        to: NodeId,
        msg: &CoherenceMsg,
    ) -> Result<(), RuntimeError> {
        let endpoint = self.control.as_ref().ok_or_else(no_control_error)?;
        let comm = CommObject::new(object, self.metrics.clone());
        comm.send(&mut endpoint.inject_ctx(), to, msg);
        Ok(())
    }

    /// Whether a lifecycle operation targeting `node` has a way to act:
    /// either the node's endpoint is still caller-driven (direct path)
    /// or the control endpoint exists (relay path). Checked *before*
    /// mutating any record, so a refused operation leaves the runtime
    /// untouched.
    fn ensure_lifecycle_path(&self, node: NodeId) -> Result<(), RuntimeError> {
        if self.endpoints.contains_key(&node) || self.control.is_some() {
            Ok(())
        } else {
            Err(no_control_error())
        }
    }

    /// Arms a freshly installed replica and has it join the object:
    /// directly when the node is still caller-driven, or by relaying a
    /// `JoinRequest` through the control endpoint when the mesh dispatches
    /// the node (the home's `StateTransfer` reply then arms the
    /// replica's timers on the node's own dispatch).
    fn activate_replica(
        &mut self,
        object: ObjectId,
        node: NodeId,
        store_id: StoreId,
        class: StoreClass,
    ) -> Result<(), RuntimeError> {
        if let Some(endpoint) = self.endpoints.get(&node) {
            let endpoint = endpoint.lock();
            let mut ctx = endpoint.ctx();
            let mut space = self.spaces[&node].lock();
            space.start_object(object, &mut ctx);
            if let Some(store) = space.control_mut(object).and_then(|c| c.store_mut()) {
                store.join(&mut ctx);
            }
            Ok(())
        } else {
            let home = self
                .objects
                .get(&object)
                .ok_or(RuntimeError::UnknownObject(object))?
                .home_node;
            // A replica that recovered from its local WAL names its
            // applied vector in the relayed join, so the home ships
            // only the log suffix it missed.
            let version = self
                .spaces
                .get(&node)
                .and_then(|space| {
                    space
                        .lock()
                        .control(object)
                        .and_then(|c| c.store().map(|s| s.applied().clone()))
                })
                .unwrap_or_default();
            self.control_send(
                object,
                home,
                &CoherenceMsg::JoinRequest {
                    node,
                    store: store_id,
                    class,
                    version,
                },
            )
        }
    }

    /// Installs an additional store at run time — including on a live
    /// deployment, where the join is relayed through the control
    /// endpoint and the home store ships the state transfer.
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
        if !self.spaces.contains_key(&node) {
            return Err(RuntimeError::UnknownNode(node));
        }
        self.ensure_lifecycle_path(node)?;
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
        plan::install_store(&mut self.spaces[&node].lock(), object, replica);
        self.activate_replica(object, node, store_id, class)?;
        Ok(store_id)
    }

    /// Sends one coherence message to `to`, preferring `from`'s own
    /// still-caller-driven endpoint and falling back to the control
    /// endpoint on a live deployment.
    fn send_from_or_control(
        &mut self,
        object: ObjectId,
        from: NodeId,
        to: NodeId,
        msg: &CoherenceMsg,
    ) -> Result<(), RuntimeError> {
        if let Some(endpoint) = self.endpoints.get(&from) {
            let endpoint = endpoint.lock();
            let comm = CommObject::new(object, self.metrics.clone());
            let mut ctx = endpoint.ctx();
            comm.send(&mut ctx, to, msg);
            Ok(())
        } else {
            self.control_send(object, to, msg)
        }
    }

    /// Points every bound session of `object` away from a failed home.
    /// Sessions sit behind the space locks, so this works on a live
    /// deployment too.
    fn reroute_sessions(
        &mut self,
        object: ObjectId,
        old_home: NodeId,
        new_home: NodeId,
        new_store: StoreId,
        reroute_reads: bool,
    ) {
        for space in self.spaces.values() {
            if let Some(control) = space.lock().control_mut(object) {
                control.reroute_sessions(old_home, new_home, new_store, reroute_reads);
            }
        }
    }

    /// Removes the replica at `node` gracefully, telling the home store
    /// to stop propagating and heartbeating to it. Removing the *home*
    /// store elects a surviving permanent store as the new sequencer and
    /// hands it the retiring home's write log — on a live deployment the
    /// hand-off travels through the control endpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the object or replica is unknown,
    /// or the replica is the home store and no surviving permanent store
    /// can take over.
    pub fn remove_store(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError> {
        self.ensure_lifecycle_path(node)?;
        self.sync_home(object);
        let view = self.membership(object).ok();
        let record = self
            .objects
            .get_mut(&object)
            .ok_or(RuntimeError::UnknownObject(object))?;
        let home = record.home_node;
        let (_, failover) = plan::plan_remove_store(record, node, view.as_ref())?;
        self.locations.unregister(object, node);
        let store = self
            .spaces
            .get(&node)
            .ok_or(RuntimeError::UnknownNode(node))?
            .lock()
            .control_mut(object)
            .and_then(|control| control.take_store());
        match failover {
            None => self.send_from_or_control(object, node, home, &CoherenceMsg::Leave { node }),
            Some(f) => {
                // The store's state sits behind the space lock even on a
                // live deployment, so the retiring home's write log is
                // captured directly and shipped to the winner.
                let msg = f.handoff_msg(store.as_ref());
                self.send_from_or_control(object, node, f.new_home, &msg)?;
                self.reroute_sessions(object, f.old_home, f.new_home, f.new_home_store, true);
                Ok(())
            }
        }
    }

    /// Crash-and-recovers the replica at `node` through the lifecycle
    /// state-transfer protocol — live deployments included. Restarting
    /// the *home* store triggers a fail-over: the elected permanent
    /// store promotes itself from its own write log (`ElectRequest`, via
    /// the control endpoint on a live deployment) and the old home
    /// rejoins as an ordinary replica.
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
        self.ensure_lifecycle_path(node)?;
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
        let class = replica.class();
        let store_id = replica.store_id();
        self.spaces
            .get(&node)
            .ok_or(RuntimeError::UnknownNode(node))?
            .lock()
            .control_mut(object)
            .ok_or(RuntimeError::NoSuchReplica)?
            .set_store(replica);
        if let Some(f) = &failover {
            // Promote the winner before the fresh replica's join reaches
            // it (both ride the same connection, so ordering holds).
            self.send_from_or_control(object, node, f.new_home, &f.elect_msg())?;
            self.reroute_sessions(object, f.old_home, f.new_home, f.new_home_store, false);
        }
        self.activate_replica(object, node, store_id, class)
    }

    /// A snapshot of the object's membership plus the home store's
    /// failure-detector verdicts (works on a live deployment: the home
    /// replica's state sits behind the space lock, not captive on a mesh
    /// thread).
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
        let home_space = self.spaces.get(&home_node);
        Ok(plan::membership_view(object, record, home_node, |peer| {
            home_space
                .map(|s| s.lock().node_health(peer))
                .unwrap_or((StoreHealth::Alive, None))
        }))
    }

    /// Fault injection: isolates (or heals) the node's address space —
    /// see [`GlobeRuntime::partition_node`]. Works on a live deployment:
    /// the flag sits behind the space lock every handled event takes.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the node is unknown.
    pub fn partition_node(&mut self, node: NodeId, isolated: bool) -> Result<(), RuntimeError> {
        self.spaces
            .get(&node)
            .ok_or(RuntimeError::UnknownNode(node))?
            .lock()
            .set_partitioned(isolated);
        Ok(())
    }

    fn pump_client(
        &mut self,
        handle: &ClientHandle,
        req: RequestId,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut space = self.spaces[&handle.node].lock();
                if let Some(result) = space
                    .control_mut(handle.object)
                    .and_then(|c| c.take_result(handle.client, req))
                {
                    return result;
                }
            }
            if Instant::now() > deadline {
                return Err(CallError::TimedOut);
            }
            let endpoint = self
                .endpoints
                .get(&handle.node)
                .ok_or(CallError::NotBound)?;
            let endpoint = endpoint.lock();
            if let Some(event) = endpoint.recv_timeout(Duration::from_millis(20)) {
                let mut ctx = endpoint.ctx();
                self.spaces[&handle.node]
                    .lock()
                    .handle_event(event, &mut ctx);
            }
        }
    }

    /// Executes a read over real sockets, blocking up to an explicit
    /// `timeout` (the trait-level [`GlobeRuntime::read`] uses the
    /// configured default instead).
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] on failure or timeout.
    pub fn read_timeout(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        let req = self.issue_call(handle, inv, true)?;
        self.pump_client(handle, req, timeout)
    }

    /// Issues one client call on the caller-driven node, returning its
    /// request id without waiting for the reply.
    fn issue_call(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError> {
        let endpoint = self
            .endpoints
            .get(&handle.node)
            .ok_or(CallError::NotBound)?;
        let endpoint = endpoint.lock();
        let mut ctx = endpoint.ctx();
        let mut space = self.spaces[&handle.node].lock();
        let control = space
            .control_mut(handle.object)
            .ok_or(CallError::NotBound)?;
        if is_read {
            control.client_read(handle.client, inv, &mut ctx)
        } else {
            control.client_write(handle.client, inv, &mut ctx)
        }
    }

    /// Executes a write over real sockets, blocking up to an explicit
    /// `timeout` (the trait-level [`GlobeRuntime::write`] uses the
    /// configured default instead).
    ///
    /// # Errors
    ///
    /// Returns a [`CallError`] on failure or timeout.
    pub fn write_timeout(
        &mut self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        timeout: Duration,
    ) -> Result<Bytes, CallError> {
        let req = self.issue_call(handle, inv, false)?;
        self.pump_client(handle, req, timeout)
    }

    /// Changes an object's replication policy at run time, mirroring
    /// [`crate::GlobeSim::set_policy`]. The home store broadcasts the
    /// new policy to every replica. On a live deployment (after
    /// [`GlobeTcp::start`]) the change rides the control plane: a
    /// `PolicyUpdate` control message is handled by the home node's
    /// dispatch, which adopts and broadcasts it.
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
        let home = record.home_node;
        if let Some(shared) = self.endpoints.get(&home) {
            // Build phase: the home endpoint is still caller-driven, so
            // apply the change directly.
            record.policy = policy.clone();
            let endpoint = shared.lock();
            let mut ctx = endpoint.ctx();
            if let Some(store) = self.spaces[&home]
                .lock()
                .control_mut(object)
                .and_then(|c| c.store_mut())
            {
                store.set_policy(policy, &mut ctx);
            }
            Ok(())
        } else if self.control.is_some() {
            // Commit only once the delivery path is known good, so a
            // refused change leaves the record untouched.
            record.policy = policy.clone();
            self.control_send(object, home, &CoherenceMsg::PolicyUpdate { policy })
        } else {
            Err(no_control_error())
        }
    }

    /// The shared execution history.
    pub fn history(&self) -> SharedHistory {
        self.history.clone()
    }

    /// The shared metrics. Transport faults counted by the mesh on its
    /// own threads (failed sends, peer disconnects) are mirrored into
    /// the store here, so deployments observe them alongside the
    /// malformed frames dropped on the receive path.
    pub fn metrics(&self) -> SharedMetrics {
        let faults = self.mesh.fault_stats();
        self.metrics.lock().sync_transport(
            faults.send_errors,
            faults.disconnects,
            faults.rejected_frames,
            faults.spawn_failures,
        );
        self.metrics.clone()
    }

    /// Stops the mesh and joins its threads.
    pub fn shutdown(&mut self) {
        self.mesh.shutdown();
    }
}

/// The TCP runtime's [`crate::EnginePort`]: each caller-driven client
/// endpoint sits behind its own mutex, so engine threads driving
/// *different* client nodes issue and pump fully in parallel — the
/// lock order (endpoint, then space) matches every trait-level path.
struct TcpPort {
    endpoints: HashMap<NodeId, Arc<Mutex<TcpEndpoint>>>,
    spaces: HashMap<NodeId, Arc<Mutex<AddressSpace>>>,
}

impl crate::EnginePort for TcpPort {
    fn issue(
        &self,
        handle: &ClientHandle,
        inv: InvocationMessage,
        is_read: bool,
    ) -> Result<RequestId, CallError> {
        let endpoint = self
            .endpoints
            .get(&handle.node)
            .ok_or(CallError::NotBound)?;
        let endpoint = endpoint.lock();
        let mut ctx = endpoint.ctx();
        let mut space = self
            .spaces
            .get(&handle.node)
            .ok_or(CallError::NotBound)?
            .lock();
        let control = space
            .control_mut(handle.object)
            .ok_or(CallError::NotBound)?;
        if is_read {
            control.client_read(handle.client, inv, &mut ctx)
        } else {
            control.client_write(handle.client, inv, &mut ctx)
        }
    }

    fn try_result(
        &self,
        handle: &ClientHandle,
        req: RequestId,
    ) -> Option<Result<Bytes, CallError>> {
        // Client nodes are caller-driven: progress requires draining any
        // events the mesh has delivered to this node's endpoint.
        let endpoint = self.endpoints.get(&handle.node)?;
        let endpoint = endpoint.lock();
        while let Some(event) = endpoint.recv_timeout(Duration::ZERO) {
            let mut ctx = endpoint.ctx();
            self.spaces
                .get(&handle.node)?
                .lock()
                .handle_event(event, &mut ctx);
        }
        drop(endpoint);
        let mut space = self.spaces.get(&handle.node)?.lock();
        space
            .control_mut(handle.object)?
            .take_result(handle.client, req)
    }
}

impl GlobeRuntime for GlobeTcp {
    fn add_node(&mut self) -> Result<NodeId, RuntimeError> {
        GlobeTcp::add_node(self)
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
        GlobeTcp::bind(self, object, node, opts)
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
        // Pump any already-arrived events for the caller-driven node
        // before checking, so polling makes progress.
        if let Some(endpoint) = self.endpoints.get(&handle.node) {
            let endpoint = endpoint.lock();
            while let Some(event) = endpoint.recv_timeout(Duration::ZERO) {
                let mut ctx = endpoint.ctx();
                self.spaces[&handle.node]
                    .lock()
                    .handle_event(event, &mut ctx);
            }
        }
        let mut space = self.spaces.get(&handle.node)?.lock();
        space
            .control_mut(handle.object)?
            .take_result(handle.client, req)
    }

    fn read(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError> {
        self.read_timeout(handle, inv, self.call_timeout)
    }

    fn write(&mut self, handle: &ClientHandle, inv: InvocationMessage) -> Result<Bytes, CallError> {
        self.write_timeout(handle, inv, self.call_timeout)
    }

    fn set_policy(
        &mut self,
        object: ObjectId,
        policy: ReplicationPolicy,
    ) -> Result<(), RuntimeError> {
        GlobeTcp::set_policy(self, object, policy)
    }

    fn add_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        class: StoreClass,
        semantics: Box<dyn Semantics>,
    ) -> Result<StoreId, RuntimeError> {
        GlobeTcp::add_store(self, object, node, class, semantics)
    }

    fn remove_store(&mut self, object: ObjectId, node: NodeId) -> Result<(), RuntimeError> {
        GlobeTcp::remove_store(self, object, node)
    }

    fn restart_store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        fresh_semantics: Box<dyn Semantics>,
    ) -> Result<(), RuntimeError> {
        GlobeTcp::restart_store(self, object, node, fresh_semantics)
    }

    fn partition_node(&mut self, node: NodeId, isolated: bool) -> Result<(), RuntimeError> {
        GlobeTcp::partition_node(self, node, isolated)
    }

    fn membership(&self, object: ObjectId) -> Result<MembershipView, RuntimeError> {
        GlobeTcp::membership(self, object)
    }

    fn history(&self) -> SharedHistory {
        GlobeTcp::history(self)
    }

    fn metrics(&self) -> SharedMetrics {
        GlobeTcp::metrics(self)
    }

    fn start(&mut self, client_nodes: &[NodeId]) {
        GlobeTcp::start(self, client_nodes);
    }

    fn shutdown(&mut self) {
        GlobeTcp::shutdown(self);
    }

    fn settle(&mut self, d: Duration) {
        // Store threads run in real time; pump the caller-driven client
        // nodes while the wall clock advances.
        let deadline = Instant::now() + d;
        let nodes: Vec<NodeId> = self.endpoints.keys().copied().collect();
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let mut handled = false;
            for &node in &nodes {
                let Some(shared) = self.endpoints.get(&node) else {
                    continue;
                };
                let endpoint = shared.lock();
                if let Some(event) = endpoint.recv_timeout(Duration::ZERO) {
                    let mut ctx = endpoint.ctx();
                    self.spaces[&node].lock().handle_event(event, &mut ctx);
                    handled = true;
                }
            }
            if !handled {
                std::thread::sleep(
                    deadline
                        .saturating_duration_since(now)
                        .min(Duration::from_millis(5)),
                );
            }
        }
    }

    fn engine_port(&mut self) -> Option<Arc<dyn crate::EnginePort>> {
        // Only caller-driven endpoints remain in the map after start();
        // those are exactly the client nodes the engine may drive. The
        // store nodes (the source of progress) must already be
        // dispatching for the port to be useful.
        Some(Arc::new(TcpPort {
            endpoints: self.endpoints.clone(),
            spaces: self.spaces.clone(),
        }))
    }
}

impl Default for GlobeTcp {
    fn default() -> Self {
        GlobeTcp::new()
    }
}

impl std::fmt::Debug for GlobeTcp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobeTcp")
            .field("nodes", &self.spaces.len())
            .field("objects", &self.objects.len())
            .field("started", &self.started)
            .finish()
    }
}
