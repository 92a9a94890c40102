//! The communication sub-object.
//!
//! "This is generally a system-provided local object. It is responsible
//! for handling communication between parts of the distributed object
//! that reside in different address spaces … a communication object may
//! offer primitives for point-to-point communication, multicast
//! facilities, or both" (§2).

use bytes::Bytes;
use globe_naming::ObjectId;
use globe_net::{NetCtx, NodeId};
use globe_wire::WireEncode;

use crate::{CoherenceMsg, SharedMetrics};

/// Point-to-point and multicast messaging scoped to one distributed
/// object, with per-kind traffic accounting.
#[derive(Debug, Clone)]
pub struct CommObject {
    object: ObjectId,
    metrics: SharedMetrics,
}

impl CommObject {
    /// Creates a communication object for `object`.
    pub fn new(object: ObjectId, metrics: SharedMetrics) -> Self {
        CommObject { object, metrics }
    }

    /// The distributed object this comm object serves.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Encodes `msg` in this object's [`crate::NetMsg`] envelope (the
    /// same bytes as encoding a `NetMsg`, without cloning `msg` into one).
    fn encode(&self, msg: &CoherenceMsg) -> Bytes {
        let mut buf = Vec::with_capacity(self.object.encoded_len() + msg.encoded_len());
        self.object.encode(&mut buf);
        msg.encode(&mut buf);
        Bytes::from(buf)
    }

    /// Sends one coherence message to a peer node.
    pub fn send(&self, ctx: &mut dyn NetCtx, to: NodeId, msg: &CoherenceMsg) {
        self.multicast(ctx, [to], msg);
    }

    /// Sends the same coherence message to many peers (the multicast
    /// facility of the paper's Web-server communication object). The
    /// message is encoded once; every peer gets the same shared frame,
    /// and the traffic is accounted under one metrics lock.
    pub fn multicast<I>(&self, ctx: &mut dyn NetCtx, to: I, msg: &CoherenceMsg)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut to = to.into_iter().peekable();
        if to.peek().is_none() {
            return;
        }
        let payload = self.encode(msg);
        let mut sent = 0u64;
        for node in to {
            ctx.send(node, payload.clone());
            sent += 1;
        }
        self.metrics
            .lock()
            .record_msgs(msg.kind_name(), sent, payload.len());
    }
}

#[cfg(test)]
mod tests {
    use globe_coherence::VersionVector;
    use globe_net::{Event, SimNet, TimerId, TimerToken, Topology};

    use crate::{shared_metrics, NetMsg};

    use super::*;

    /// Records every frame instead of sending it.
    struct Capture {
        sim: SimNet,
        node: NodeId,
        sent: Vec<(NodeId, Bytes)>,
    }

    impl NetCtx for Capture {
        fn node(&self) -> NodeId {
            self.node
        }
        fn now(&self) -> globe_net::SimTime {
            self.sim.now()
        }
        fn send(&mut self, to: NodeId, payload: Bytes) {
            self.sent.push((to, payload));
        }
        fn set_timer(&mut self, delay: std::time::Duration, token: TimerToken) -> TimerId {
            let node = self.node;
            self.sim.with_ctx(node, |ctx| ctx.set_timer(delay, token))
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
    }

    #[test]
    fn send_and_multicast_account_traffic() {
        let mut net = SimNet::new(Topology::lan(), 0);
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        let metrics = shared_metrics();
        let comm = CommObject::new(ObjectId::new(1), metrics.clone());
        let msg = CoherenceMsg::Notify {
            version: VersionVector::new(),
        };

        let received = std::rc::Rc::new(std::cell::Cell::new(0u32));
        for node in [b, c] {
            let received = received.clone();
            net.set_handler(node, move |event, _ctx| {
                if let Event::Message { payload, .. } = event {
                    let env: NetMsg = globe_wire::from_bytes(&payload).unwrap();
                    assert_eq!(env.object, ObjectId::new(1));
                    assert_eq!(env.msg.kind_name(), "Notify");
                    received.set(received.get() + 1);
                }
            });
        }
        net.with_ctx(a, |ctx| {
            comm.send(ctx, b, &msg);
            comm.multicast(ctx, [b, c], &msg);
        });
        net.run_until_quiescent();
        assert_eq!(received.get(), 3);
        let m = metrics.lock();
        assert_eq!(m.traffic["Notify"].count, 3);
        assert!(m.traffic["Notify"].bytes > 0);
    }

    #[test]
    fn multicast_shares_one_frame_and_accounts_like_sends() {
        let mut sim = SimNet::new(Topology::lan(), 0);
        let node = sim.add_node();
        let peers = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let object = ObjectId::new(7);
        let msg = CoherenceMsg::Notify {
            version: VersionVector::new(),
        };
        let mut ctx = Capture {
            sim,
            node,
            sent: Vec::new(),
        };

        let multicast_metrics = shared_metrics();
        CommObject::new(object, multicast_metrics.clone()).multicast(&mut ctx, peers, &msg);
        let expected = globe_wire::to_bytes(&NetMsg {
            object,
            msg: msg.clone(),
        });
        assert_eq!(
            ctx.sent.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
            peers
        );
        for (_, payload) in &ctx.sent {
            assert_eq!(payload, &expected, "every peer gets the NetMsg bytes");
        }

        // Per-kind accounting matches one send per peer.
        let send_metrics = shared_metrics();
        let comm = CommObject::new(object, send_metrics.clone());
        for peer in peers {
            comm.send(&mut ctx, peer, &msg);
        }
        assert_eq!(
            multicast_metrics.lock().traffic,
            send_metrics.lock().traffic
        );
        let m = multicast_metrics.lock();
        assert_eq!(m.traffic["Notify"].count, 3);
        assert_eq!(m.traffic["Notify"].bytes, 3 * expected.len() as u64);

        // An empty peer set sends and accounts nothing.
        CommObject::new(object, multicast_metrics.clone()).multicast(&mut ctx, [], &msg);
        assert_eq!(ctx.sent.len(), 6);
    }
}
