//! Transport properties of the TCP mesh's run-to-completion dispatch:
//! per-connection FIFO across the switch from caller-driven to
//! dispatched, freedom from deadlock when two dispatching nodes flood
//! each other, and a shutdown that ends every mesh thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use globe_net::tcp::TcpMesh;
use globe_net::{Event, NetCtx, NodeId, TimerToken};

fn seq(payload: &[u8]) -> u32 {
    u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]])
}

/// Frames queued while the node was caller-driven are handled first
/// and in order, ahead of frames arriving while the handler is being
/// installed and after it.
#[test]
fn fifo_holds_across_the_switch_to_dispatch() {
    const BEFORE: u32 = 200;
    const TOTAL: u32 = 2_000;
    let mesh = TcpMesh::new();
    let a = mesh.add_node().unwrap();
    let b = mesh.add_node().unwrap();
    let bn = b.node();
    let sender = a.sender();
    for i in 0..BEFORE {
        sender
            .send(bn, Bytes::from(i.to_be_bytes().to_vec()))
            .unwrap();
    }
    // The caller-driven contract: the owner takes the first frames.
    let mut seen = Vec::new();
    for _ in 0..10 {
        match b.recv_timeout(Duration::from_secs(5)) {
            Some(Event::Message { payload, .. }) => seen.push(seq(&payload)),
            other => panic!("expected a frame, got {other:?}"),
        }
    }
    // Let the rest of the first burst queue up as a backlog.
    std::thread::sleep(Duration::from_millis(50));

    let late = std::thread::spawn(move || {
        for i in BEFORE..TOTAL {
            sender
                .send(bn, Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
    });
    let got = Arc::new(Mutex::new(seen));
    let (done_tx, done_rx) = mpsc::channel();
    let sink = Arc::clone(&got);
    b.dispatch(move |event, _ctx| {
        if let Event::Message { payload, .. } = event {
            let n = seq(&payload);
            sink.lock().unwrap().push(n);
            if n == TOTAL - 1 {
                let _ = done_tx.send(());
            }
        }
    })
    .unwrap();
    late.join().unwrap();
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("every frame reaches the handler");
    assert_eq!(*got.lock().unwrap(), (0..TOTAL).collect::<Vec<u32>>());
    mesh.shutdown();
}

/// Two dispatching nodes answer every frame with a 1 MiB frame to each
/// other, far more than the loopback socket buffers hold. The frames
/// ride the two nodes' own connections, so each handler runs on the
/// reader of its peer's connection: a handler that blocked on the
/// peer's full socket would stop reading its own, and both nodes would
/// deadlock. With non-blocking sends and spill queues the run finishes.
#[test]
fn mutual_backpressure_between_dispatching_nodes_completes() {
    const SEEDS: u32 = 16;
    const HOPS: u32 = 6;
    const FRAME: usize = 1 << 20;
    let mesh = TcpMesh::new();
    let a = mesh.add_node().unwrap();
    let b = mesh.add_node().unwrap();
    let (an, bn) = (a.node(), b.node());
    let (seed_a, seed_b) = (a.sender(), b.sender());

    // Every seed is handled once per hop, HOPS + 1 times in all.
    let expected = (2 * SEEDS * (HOPS + 1)) as usize;
    let handled = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let bounce = |peer: NodeId| {
        let handled = Arc::clone(&handled);
        let done_tx = done_tx.clone();
        move |event: Event, ctx: &mut dyn NetCtx| {
            let Event::Message { payload, .. } = event else {
                return;
            };
            let hop = seq(&payload);
            if hop < HOPS {
                let mut reply = vec![0u8; FRAME];
                reply[..4].copy_from_slice(&(hop + 1).to_be_bytes());
                ctx.send(peer, Bytes::from(reply));
            }
            if handled.fetch_add(1, Ordering::SeqCst) + 1 == expected {
                let _ = done_tx.send(());
            }
        }
    };
    a.dispatch(bounce(bn)).unwrap();
    b.dispatch(bounce(an)).unwrap();
    // Seeds go out after both handlers are installed, on the a→b and
    // b→a connections, from a thread the test does not wait on (its
    // sends may block once the sockets fill).
    let seeder = std::thread::spawn(move || {
        for _ in 0..SEEDS {
            let _ = seed_a.send(bn, Bytes::from(0u32.to_be_bytes().to_vec()));
            let _ = seed_b.send(an, Bytes::from(0u32.to_be_bytes().to_vec()));
        }
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(60));
    assert!(
        finished.is_ok(),
        "handled {} of {expected} frames before the timeout",
        handled.load(Ordering::SeqCst)
    );
    assert_eq!(mesh.fault_stats().send_errors, 0);
    mesh.shutdown();
    seeder.join().unwrap();
}

/// Shutdown joins every accept, reader and node thread of the mesh —
/// including accept loops that never saw a connection — and leaves
/// caller-driven endpoints returning `None`.
#[test]
fn shutdown_ends_every_mesh_thread() {
    let mesh = TcpMesh::new();
    let a = mesh.add_node().unwrap();
    let b = mesh.add_node().unwrap();
    let _idle = mesh.add_node().unwrap();
    let an = a.node();
    let (fired_tx, fired_rx) = mpsc::channel();
    a.dispatch(move |event, ctx| match event {
        Event::Message { from, payload } => {
            // Leaves a pending timer in the heap at shutdown.
            ctx.set_timer(Duration::from_secs(60), TimerToken(1));
            ctx.send(from, payload);
        }
        Event::Timer { token } => {
            let _ = fired_tx.send(token);
        }
    })
    .unwrap();
    b.sender().send(an, Bytes::from_static(b"ping")).unwrap();
    match b.recv_timeout(Duration::from_secs(5)) {
        Some(Event::Message { from, .. }) => assert_eq!(from, an),
        other => panic!("expected the echo, got {other:?}"),
    }
    b.ctx().set_timer(Duration::from_secs(60), TimerToken(2));
    // Three accept loops, one reader per direction, one node thread.
    assert!(mesh.live_threads() >= 6, "live: {}", mesh.live_threads());

    mesh.shutdown();
    assert_eq!(mesh.live_threads(), 0);
    assert!(b.recv_timeout(Duration::from_millis(10)).is_none());
    assert!(fired_rx.try_recv().is_err());
    assert!(b.sender().send(an, Bytes::from_static(b"late")).is_err());
    assert!(mesh.add_node().is_err());
}
