//! Operation-level metrics shared across the runtime.

use std::collections::BTreeMap;
use std::sync::Arc;

use globe_coherence::{ClientId, History};
use globe_net::SimTime;
use parking_lot::Mutex;

use crate::lifecycle::{LifecycleEvent, LifecycleEventKind};
use crate::trace::{ProtocolCounters, TraceEvent, TraceLog, TraceSnapshot};
use crate::MethodKind;

/// One completed client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    /// The issuing client.
    pub client: ClientId,
    /// Read or write.
    pub kind: MethodKind,
    /// When the client issued the operation.
    pub issued: SimTime,
    /// When the reply arrived back at the client.
    pub completed: SimTime,
    /// Whether the call succeeded at the semantics level.
    pub ok: bool,
}

impl OpSample {
    /// End-to-end latency of the operation.
    pub fn latency(&self) -> std::time::Duration {
        self.completed.saturating_since(self.issued)
    }
}

/// Aggregated per-message-kind traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCount {
    /// Messages sent.
    pub count: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

/// Cumulative transport-fault counters: what a deployment observes when
/// the network misbehaves instead of a crash (malformed frames dropped
/// on the receive path, failed sends, peer disconnects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportFaults {
    /// Received frames that failed to decode and were dropped.
    pub malformed_frames: u64,
    /// Sends that failed at the transport (connect refused, broken
    /// pipe); zero on the simulator, mirrored from the TCP mesh.
    pub send_errors: u64,
    /// Established connections that ended: the peer went away, or sent
    /// a garbled/oversized frame after the hello.
    pub disconnects: u64,
    /// Inbound connections the transport rejected before entering
    /// service (bad hello, reader spawn failure); mirrored from the TCP
    /// mesh, zero elsewhere.
    pub rejected_frames: u64,
    /// Service threads the OS refused to spawn (TCP node threads, shard
    /// workers, the timer thread): the runtime degrades observably
    /// instead of panicking.
    pub spawn_failures: u64,
}

/// Mutable metrics store shared by every local object in a runtime.
#[derive(Debug, Default)]
pub struct MetricsStore {
    /// Completed operations. In completion order while below
    /// `op_capacity` (or when uncapped); once the cap is reached, new
    /// samples overwrite the oldest ring-style, so position no longer
    /// implies order — aggregate consumers are unaffected.
    pub ops: Vec<OpSample>,
    /// Coherence traffic by message kind.
    pub traffic: BTreeMap<&'static str, KindCount>,
    /// Replica lifecycle transitions (joins, leaves, detector verdicts),
    /// in observation order.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Transport faults survived (and counted) instead of panicking.
    pub transport: TransportFaults,
    /// Always-on protocol counters (flush reasons, batch occupancy,
    /// lease read mix).
    pub protocol: ProtocolCounters,
    /// The flight-recorder journal (off unless given capacity).
    pub trace: TraceLog,
    /// Cap on retained [`OpSample`]s; `0` (the default) keeps every
    /// sample, preserving historical behavior for tests and short runs.
    op_capacity: usize,
    /// Ring write cursor, meaningful only once `ops` is at capacity.
    op_cursor: usize,
    /// Samples overwritten by the ring since the start of the run.
    pub ops_dropped: u64,
}

impl MetricsStore {
    /// Records a completed operation. Uncapped stores grow without
    /// bound (historical behavior); a capped store overwrites the
    /// oldest sample once full, so long open-loop runs stop measuring
    /// allocator churn.
    pub fn record_op(&mut self, sample: OpSample) {
        if self.op_capacity == 0 || self.ops.len() < self.op_capacity {
            self.ops.push(sample);
            return;
        }
        self.ops[self.op_cursor] = sample;
        self.op_cursor = (self.op_cursor + 1) % self.op_capacity;
        self.ops_dropped += 1;
    }

    /// Sets the retained-sample cap (`0` = unbounded). Shrinking an
    /// over-full store truncates to the newest samples.
    pub fn set_op_capacity(&mut self, capacity: usize) {
        self.op_capacity = capacity;
        if capacity > 0 && self.ops.len() > capacity {
            let excess = self.ops.len() - capacity;
            self.ops.drain(..excess);
            self.ops_dropped += excess as u64;
            self.op_cursor = 0;
        }
    }

    /// The retained-sample cap (`0` = unbounded).
    pub fn op_capacity(&self) -> usize {
        self.op_capacity
    }

    /// Sets the flight recorder's per-node ring capacity (`0` = off).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Records one flight-recorder event (no-op while the trace is off).
    pub fn record_trace(&mut self, event: TraceEvent) {
        self.trace.record(event);
    }

    /// Snapshots the flight recorder: the merged journal plus a copy of
    /// the always-on protocol counters.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            capacity: self.trace.capacity(),
            dropped: self.trace.dropped(),
            events: self.trace.snapshot(),
            counters: self.protocol,
        }
    }

    /// Counts one received frame that failed to decode and was dropped.
    pub fn record_malformed_frame(&mut self) {
        self.transport.malformed_frames += 1;
    }

    /// Mirrors the transport's cumulative send-error, disconnect,
    /// rejected-frame, and spawn-failure counters (the TCP mesh counts
    /// them with atomics on its own threads; the runtime syncs them
    /// into the store on read).
    pub fn sync_transport(
        &mut self,
        send_errors: u64,
        disconnects: u64,
        rejected_frames: u64,
        spawn_failures: u64,
    ) {
        self.transport.send_errors = send_errors;
        self.transport.disconnects = disconnects;
        self.transport.rejected_frames = rejected_frames;
        self.transport.spawn_failures = spawn_failures;
    }

    /// Counts one service thread the OS refused to spawn (used by
    /// runtimes that degrade in place rather than mirror a transport's
    /// counters).
    pub fn record_spawn_failure(&mut self) {
        self.transport.spawn_failures += 1;
    }

    /// Records a replica lifecycle transition.
    pub fn record_lifecycle(&mut self, event: LifecycleEvent) {
        self.lifecycle.push(event);
    }

    /// Lifecycle events of one kind, in observation order.
    pub fn lifecycle_events(
        &self,
        kind: LifecycleEventKind,
    ) -> impl Iterator<Item = &LifecycleEvent> + '_ {
        self.lifecycle.iter().filter(move |e| e.kind == kind)
    }

    /// Accounts one protocol message of `kind` and `bytes` payload.
    pub fn record_msg(&mut self, kind: &'static str, bytes: usize) {
        self.record_msgs(kind, 1, bytes);
    }

    /// Accounts `count` protocol messages of `kind`, `bytes` payload each.
    pub fn record_msgs(&mut self, kind: &'static str, count: u64, bytes: usize) {
        let entry = self.traffic.entry(kind).or_default();
        entry.count += count;
        entry.bytes += count * bytes as u64;
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.traffic.values().map(|k| k.count).sum()
    }

    /// Total bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.values().map(|k| k.bytes).sum()
    }

    /// Mean latency of completed operations of `kind`, if any completed.
    pub fn mean_latency(&self, kind: MethodKind) -> Option<std::time::Duration> {
        let samples: Vec<_> = self.ops.iter().filter(|s| s.kind == kind).collect();
        if samples.is_empty() {
            return None;
        }
        let total: std::time::Duration = samples.iter().map(|s| s.latency()).sum();
        Some(total / samples.len() as u32)
    }
}

/// Shared handle to the metrics store.
pub type SharedMetrics = Arc<Mutex<MetricsStore>>;

/// Shared handle to the recorded execution history.
pub type SharedHistory = Arc<Mutex<History>>;

/// Creates an empty shared metrics store.
pub fn shared_metrics() -> SharedMetrics {
    Arc::new(Mutex::new(MetricsStore::default()))
}

/// Creates an empty shared history.
pub fn shared_history() -> SharedHistory {
    Arc::new(Mutex::new(History::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_latency_and_means() {
        let mut m = MetricsStore::default();
        m.record_op(OpSample {
            client: ClientId::new(1),
            kind: MethodKind::Read,
            issued: SimTime::from_millis(0),
            completed: SimTime::from_millis(10),
            ok: true,
        });
        m.record_op(OpSample {
            client: ClientId::new(1),
            kind: MethodKind::Read,
            issued: SimTime::from_millis(10),
            completed: SimTime::from_millis(40),
            ok: true,
        });
        assert_eq!(
            m.mean_latency(MethodKind::Read),
            Some(std::time::Duration::from_millis(20))
        );
        assert_eq!(m.mean_latency(MethodKind::Write), None);
    }

    #[test]
    fn traffic_accumulates() {
        let mut m = MetricsStore::default();
        m.record_msg("Update", 100);
        m.record_msg("Update", 50);
        m.record_msg("Notify", 10);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_bytes(), 160);
        assert_eq!(m.traffic["Update"].count, 2);
    }

    #[test]
    fn op_ring_caps_growth_and_counts_overwrites() {
        let sample = |seq: u64| OpSample {
            client: ClientId::new(1),
            kind: MethodKind::Write,
            issued: SimTime::from_millis(seq),
            completed: SimTime::from_millis(seq + 1),
            ok: true,
        };
        let mut m = MetricsStore::default();
        m.set_op_capacity(3);
        for seq in 0..7 {
            m.record_op(sample(seq));
        }
        assert_eq!(m.ops.len(), 3);
        assert_eq!(m.ops_dropped, 4);
        // The three newest samples survive (in ring positions).
        let mut issued: Vec<u64> = m.ops.iter().map(|s| s.issued.as_millis()).collect();
        issued.sort_unstable();
        assert_eq!(issued, vec![4, 5, 6]);

        // Uncapped keeps everything — the historical default.
        let mut unbounded = MetricsStore::default();
        for seq in 0..7 {
            unbounded.record_op(sample(seq));
        }
        assert_eq!(unbounded.ops.len(), 7);
        assert_eq!(unbounded.ops_dropped, 0);
    }
}
