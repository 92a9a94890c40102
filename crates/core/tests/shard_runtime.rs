//! Shard-runtime specifics the generic matrix cannot cover: many
//! objects hash-partitioned across worker lanes making progress
//! concurrently, the live policy switch that the TCP backend still
//! refuses after `start()`, and the lane's two drainers: a read runs to
//! completion on the issuing thread while the lane worker handles
//! writes and timers.

// Test-only crate: helper fns outside #[test] bodies may unwrap/expect
// (clippy's allow-unwrap-in-tests only covers #[test] functions).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use globe_coherence::{ObjectModel, StoreClass};
use globe_core::{
    registers, BindOptions, ClientHandle, EnginePort, GlobeRuntime, GlobeShard, ObjectSpec,
    RegisterDoc, ReplicationPolicy, RequestId, RuntimeConfig, TraceChecker,
};
use globe_naming::ObjectId;
use globe_net::NodeId;

/// A fan-out across every shard lane: one object per slot, all writes
/// issued asynchronously before any result is polled, so the shard
/// workers replicate in parallel while the caller's thread only issues
/// and collects.
#[test]
fn objects_fan_out_across_shards() {
    let shards = 4;
    let mut rt = GlobeShard::with_shards(shards, RuntimeConfig::new().seed(11));
    let server = rt.add_node().expect("server node");
    let cache = rt.add_node().expect("cache node");
    let client_node = rt.add_node().expect("client node");

    let objects: Vec<_> = (0..2 * shards)
        .map(|i| {
            ObjectSpec::new(format!("/fanout/obj{i}"))
                .policy(ReplicationPolicy::personal_home_page())
                .semantics(RegisterDoc::new)
                .store(server, StoreClass::Permanent)
                .store(cache, StoreClass::ClientInitiated)
                .create(&mut rt)
                .expect("create object")
        })
        .collect();
    let handles: Vec<_> = objects
        .iter()
        .map(|&object| {
            rt.bind(object, client_node, BindOptions::new().read_node(server))
                .expect("bind client")
        })
        .collect();

    rt.start(&[client_node]);

    let pending: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(i, handle)| {
            let body = format!("body-{i}");
            let req = rt
                .handle(*handle)
                .issue_write(registers::put("page.html", body.as_bytes()))
                .expect("issue write");
            (*handle, req, body)
        })
        .collect();

    for (handle, req, _) in &pending {
        loop {
            if let Some(result) = rt.handle(*handle).result(*req) {
                result.expect("write acked");
                break;
            }
        }
    }
    for (handle, _, body) in &pending {
        let got = rt
            .handle(*handle)
            .read(registers::get("page.html"))
            .expect("read back");
        assert_eq!(&got[..], body.as_bytes());
    }

    let history = rt.history();
    let history = history.lock();
    globe_coherence::check::check_pram(&history).expect("pram holds per object");
    drop(history);

    rt.shutdown();
}

/// `set_policy` works on a live deployment: the broadcast goes out even
/// after the workers are running, which `GlobeTcp` cannot do yet.
#[test]
fn set_policy_works_while_running() {
    let mut rt = GlobeShard::new(2);
    let server = rt.add_node().expect("server node");
    let cache = rt.add_node().expect("cache node");
    let lazy = ReplicationPolicy::builder(ObjectModel::Fifo)
        .lazy(Duration::from_secs(60))
        .build()
        .expect("valid policy");
    let object = ObjectSpec::new("/live/policy")
        .policy(lazy)
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .store(cache, StoreClass::ClientInitiated)
        .create(&mut rt)
        .expect("create object");
    let client = rt
        .bind(object, server, BindOptions::new().read_node(server))
        .expect("bind client");

    rt.start(&[]);
    rt.handle(client)
        .write(registers::put("page.html", b"v1"))
        .expect("seed write");

    let immediate = ReplicationPolicy::builder(ObjectModel::Fifo)
        .immediate()
        .build()
        .expect("valid policy");
    rt.set_policy(object, immediate)
        .expect("live policy switch");
    rt.settle(Duration::from_millis(200)); // broadcast in flight

    let metrics = rt.metrics();
    assert!(
        metrics.lock().traffic.contains_key("PolicyUpdate"),
        "policy broadcast must be visible on the wire"
    );
    rt.shutdown();
}

/// The polling contract holds even if the caller forgets `start()`:
/// issuing a call spins the workers up implicitly.
#[test]
fn issue_poll_makes_progress_without_explicit_start() {
    let mut rt = GlobeShard::new(1);
    let server = rt.add_node().expect("server node");
    let object = ObjectSpec::new("/implicit/start")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .create(&mut rt)
        .expect("create object");
    let client = rt
        .bind(object, server, BindOptions::new())
        .expect("bind client");

    let req = rt
        .handle(client)
        .issue_write(registers::put("p", b"x"))
        .expect("issue");
    let ack = loop {
        if let Some(result) = rt.handle(client).result(req) {
            break result;
        }
    };
    ack.expect("write acked without an explicit start()");
    rt.shutdown();
}

/// Unknown nodes and duplicate names fail the same way as on the other
/// runtimes.
#[test]
fn creation_errors_match_the_other_backends() {
    let mut rt = GlobeShard::new(2);
    let server = rt.add_node().expect("server node");
    let bogus = globe_net::NodeId::new(999);

    let err = ObjectSpec::new("/errs/a")
        .semantics(RegisterDoc::new)
        .store(bogus, StoreClass::Permanent)
        .create(&mut rt)
        .expect_err("unknown node must fail");
    assert!(matches!(err, globe_core::RuntimeError::UnknownNode(_)));

    ObjectSpec::new("/errs/b")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .create(&mut rt)
        .expect("first create");
    let err = ObjectSpec::new("/errs/b")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::Permanent)
        .create(&mut rt)
        .expect_err("duplicate name must fail");
    assert!(matches!(err, globe_core::RuntimeError::NameTaken(_)));

    let err = ObjectSpec::new("/errs/c")
        .semantics(RegisterDoc::new)
        .store(server, StoreClass::ClientInitiated)
        .create(&mut rt)
        .expect_err("placement without a permanent store must fail");
    assert!(matches!(err, globe_core::RuntimeError::NoPermanentStore));

    rt.shutdown();
}

/// A home and a permanent mirror of one FIFO, immediate-push object,
/// plus a client node of its own. Every session of the object shares
/// the object's lane.
struct Mirrored {
    object: ObjectId,
    home: NodeId,
    mirror: NodeId,
    client: NodeId,
}

impl Mirrored {
    fn new(rt: &mut GlobeShard, name: &str) -> Mirrored {
        let home = rt.add_node().expect("home node");
        let mirror = rt.add_node().expect("mirror node");
        let client = rt.add_node().expect("client node");
        let fifo = ReplicationPolicy::builder(ObjectModel::Fifo)
            .immediate()
            .build()
            .expect("valid policy");
        let object = ObjectSpec::new(name)
            .policy(fifo)
            .semantics(RegisterDoc::new)
            .store(home, StoreClass::Permanent)
            .store(mirror, StoreClass::Permanent)
            .create(rt)
            .expect("create object");
        Mirrored {
            object,
            home,
            mirror,
            client,
        }
    }

    /// A session on the client node whose reads go to `via`.
    fn bind(&self, rt: &mut GlobeShard, via: NodeId) -> ClientHandle {
        rt.bind(self.object, self.client, BindOptions::new().read_node(via))
            .expect("bind client")
    }
}

/// Reads through `handle` until it returns `body`: the mirror has
/// applied the write (and, with leases, holds one).
fn await_body(rt: &mut GlobeShard, handle: ClientHandle, page: &str, body: &[u8]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.handle(handle).read(registers::get(page)).expect("read") != body {
        assert!(Instant::now() < deadline, "mirror never served {page}");
        rt.settle(Duration::from_millis(5));
    }
}

/// A read at a mirror in the caller's lane is complete when `issue`
/// returns, whether the mirror serves it under its lease or forwards it
/// to the home: the issuing thread drains the lane before releasing it.
#[test]
fn mirror_reads_complete_inside_issue() {
    let leased = RuntimeConfig::new().read_leases(true);
    let forwarded = RuntimeConfig::new()
        .read_leases(true)
        .lease_duration(Duration::ZERO);
    for (path, config) in [("lease", leased), ("home", forwarded)] {
        let mut rt = GlobeShard::with_shards(2, config.seed(3));
        let doc = Mirrored::new(&mut rt, &format!("/inline/{path}"));
        let writer = doc.bind(&mut rt, doc.home);
        let reader = doc.bind(&mut rt, doc.mirror);
        rt.start(&[]);
        rt.handle(writer)
            .write(registers::put("page", b"v1"))
            .expect("seed write");
        await_body(&mut rt, reader, "page", b"v1");

        let port = rt.engine_port().expect("shard engine port");
        for _ in 0..50 {
            let req = port
                .issue(&reader, registers::get("page"), true)
                .expect("issue read");
            let body = port
                .try_result(&reader, req)
                .unwrap_or_else(|| panic!("{path} read not complete when issue returned"))
                .expect("read ok");
            assert_eq!(&body[..], b"v1");
        }
        let req = rt
            .handle(reader)
            .issue_read(registers::get("page"))
            .expect("issue read");
        let body = rt
            .handle(reader)
            .result(req)
            .unwrap_or_else(|| panic!("{path} trait-level read not complete"))
            .expect("read ok");
        assert_eq!(&body[..], b"v1");

        let metrics = rt.metrics();
        let protocol = &metrics.lock().protocol;
        match path {
            "lease" => assert!(protocol.lease_served >= 51, "reads served under the lease"),
            _ => assert_eq!(protocol.lease_served, 0, "no lease is ever held"),
        }
        if path == "home" {
            assert!(
                protocol.lease_forwarded >= 51,
                "reads forwarded to the home"
            );
        }
        rt.shutdown();
    }
}

/// Two threads share one lane through one `EnginePort`, each writing
/// its own pages and reading them back at the mirror, while lease
/// renewals and group-commit batch windows fire on the timer thread.
/// Reads drain the lane on the issuing threads, the worker drains it
/// otherwise; popping only under the lane lock keeps the lane FIFO, so
/// the history passes the FIFO checker and the flight recorder's
/// invariants hold.
#[test]
fn lane_stays_fifo_across_inline_and_worker_drains() {
    const THREADS: usize = 2;
    const PAGES: usize = 4;
    const OPS: usize = 300;
    let config = RuntimeConfig::new()
        .seed(5)
        .read_leases(true)
        .lease_duration(Duration::from_millis(10))
        .batch_max(4)
        .batch_window(Duration::from_millis(1))
        .trace_capacity(1 << 16);
    let mut rt = GlobeShard::with_shards(1, config);
    let doc = Mirrored::new(&mut rt, "/fifo/lane");
    let sessions: Vec<_> = (0..THREADS)
        .map(|_| (doc.bind(&mut rt, doc.home), doc.bind(&mut rt, doc.mirror)))
        .collect();
    rt.start(&[]);
    let page = |thread: usize, p: usize| format!("t{thread}-p{p}");
    for (thread, &(writer, reader)) in sessions.iter().enumerate() {
        for p in 0..PAGES {
            let name = page(thread, p);
            rt.handle(writer)
                .write(registers::put(&name, b"v0"))
                .expect("seed write");
            await_body(&mut rt, reader, &name, b"v0");
        }
    }

    let port: Arc<dyn EnginePort> = rt.engine_port().expect("shard engine port");
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(thread, (writer, reader))| {
            let port = Arc::clone(&port);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut written: HashMap<String, HashSet<Vec<u8>>> = (0..PAGES)
                    .map(|p| (page(thread, p), HashSet::from([b"v0".to_vec()])))
                    .collect();
                let mut pending: Vec<RequestId> = Vec::new();
                start.wait();
                let deadline = Instant::now() + Duration::from_secs(30);
                for op in 0..OPS {
                    let name = page(thread, op % PAGES);
                    if op % 3 == 0 {
                        let body = format!("{name}-v{op}").into_bytes();
                        let inv = registers::put(&name, &body);
                        written.entry(name).or_default().insert(body);
                        pending.push(port.issue(&writer, inv, false).expect("issue write"));
                    } else {
                        let req = port
                            .issue(&reader, registers::get(&name), true)
                            .expect("issue read");
                        let body = loop {
                            if let Some(result) = port.try_result(&reader, req) {
                                break result.expect("read ok");
                            }
                            assert!(Instant::now() < deadline, "read never completed");
                            std::thread::yield_now();
                        };
                        assert!(
                            written[&name].contains(&body[..]),
                            "{name} returned a body never written to it"
                        );
                    }
                    pending.retain(|&req| port.try_result(&writer, req).is_none());
                }
                while !pending.is_empty() {
                    assert!(Instant::now() < deadline, "writes never acked");
                    std::thread::sleep(Duration::from_micros(200));
                    pending.retain(|&req| port.try_result(&writer, req).is_none());
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    let history = rt.history();
    globe_coherence::check_object_model(&history.lock(), ObjectModel::Fifo)
        .expect("lane history is FIFO");
    let violations = TraceChecker::check(&rt.trace());
    assert!(violations.is_empty(), "trace violations: {violations:?}");
    rt.shutdown();
}

/// With no reads nothing drains a lane inline: a batched, write-only
/// run progresses on the lane worker alone, woken by pushes and by the
/// batch-window timer, and every write is acknowledged.
#[test]
fn write_only_batched_run_completes_on_the_worker() {
    let config = RuntimeConfig::new()
        .seed(9)
        .batch_max(8)
        .batch_window(Duration::from_millis(2));
    let mut rt = GlobeShard::with_shards(1, config);
    let doc = Mirrored::new(&mut rt, "/worker/only");
    let writer = doc.bind(&mut rt, doc.home);
    let port = rt.engine_port().expect("shard engine port");
    let mut pending: Vec<RequestId> = (0..200)
        .map(|i| {
            port.issue(&writer, registers::put(&format!("p{}", i % 5), b"x"), false)
                .expect("issue write")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pending.is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} writes never acked",
            pending.len()
        );
        std::thread::sleep(Duration::from_micros(200));
        pending.retain(|&req| match port.try_result(&writer, req) {
            Some(result) => {
                result.expect("write acked");
                false
            }
            None => true,
        });
    }
    rt.shutdown();
}
