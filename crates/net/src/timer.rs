//! A shared wall-clock timer service for the threaded runtimes.
//!
//! The simulator schedules timers in virtual time inside its event heap;
//! runtimes that live on real threads (the TCP mesh, the in-process
//! sharded backend of `globe-core`) need the same [`crate::NetCtx`]
//! timer semantics against the wall clock. [`WallTimer`] provides it: a
//! single background thread sleeps until the earliest deadline and then
//! runs the timer's delivery closure, so each runtime decides for itself
//! what "deliver a timer event" means (push onto a socket endpoint's
//! inbox, route into a shard worker's channel, ...).
//!
//! Delivery closures run on the timer thread *with the heap lock held*.
//! A closure must therefore only hand the event off: one that arms a
//! timer on the same service (or runs a protocol handler that might)
//! deadlocks the timer thread on its own lock.

use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::TimerId;

struct TimerEntry {
    deadline: Instant,
    id: TimerId,
    deliver: Box<dyn FnOnce() + Send>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline.
        other
            .deadline
            .cmp(&self.deadline)
            .then(other.id.0.cmp(&self.id.0))
    }
}

/// A wall-clock timer wheel running on its own thread.
///
/// Arm a timer with a delivery closure; the service invokes the closure
/// on the timer thread once the deadline passes, unless the timer was
/// cancelled first. Delivery closures must only hand the event off
/// (send on a channel, push onto a queue): they run on the shared timer
/// thread under the heap lock, so a closure that arms a timer on the
/// same service deadlocks.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use globe_net::timer::WallTimer;
///
/// let timer = WallTimer::spawn();
/// let (tx, rx) = std::sync::mpsc::channel();
/// timer.arm(Duration::from_millis(10), move || {
///     let _ = tx.send("fired");
/// });
/// assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("fired"));
/// timer.stop();
/// ```
pub struct WallTimer {
    heap: Mutex<BinaryHeap<TimerEntry>>,
    cancelled: Mutex<HashSet<TimerId>>,
    cond: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// The timer thread, joined by [`WallTimer::stop`].
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl WallTimer {
    /// Creates the service and spawns its timer thread.
    ///
    /// If the OS refuses the thread (resource exhaustion), the returned
    /// service is *degraded* rather than the process panicking: it is
    /// born shut down, so armed timers never fire and their closures are
    /// dropped immediately. Callers that need to distinguish the two
    /// outcomes use [`WallTimer::try_spawn`] and count the failure.
    pub fn spawn() -> Arc<Self> {
        WallTimer::try_spawn().unwrap_or_else(|_| {
            let service = WallTimer::service();
            service.stop();
            service
        })
    }

    /// Creates the service and spawns its timer thread, surfacing the
    /// spawn failure as an [`std::io::Error`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the timer thread cannot be spawned.
    pub fn try_spawn() -> std::io::Result<Arc<Self>> {
        let service = WallTimer::service();
        let worker = Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name("globe-timer".into())
            .spawn(move || worker.run())?;
        *service.worker.lock() = Some(handle);
        Ok(service)
    }

    fn service() -> Arc<Self> {
        Arc::new(WallTimer {
            heap: Mutex::new(BinaryHeap::new()),
            cancelled: Mutex::new(HashSet::new()),
            cond: Condvar::new(),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            worker: Mutex::new(None),
        })
    }

    /// Whether the service has been stopped (or was born degraded because
    /// its thread failed to spawn): armed timers will never fire.
    pub fn is_stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Arms a timer: after `delay`, `deliver` runs on the timer thread.
    /// After [`WallTimer::stop`] the closure is dropped immediately and
    /// the returned id is inert.
    pub fn arm(&self, delay: Duration, deliver: impl FnOnce() + Send + 'static) -> TimerId {
        let id = TimerId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut heap = self.heap.lock();
        // Checked under the heap lock: stop() flips the flag and drains
        // the heap under the same lock, so an entry can never slip into
        // the heap after the drain.
        if self.shutdown.load(Ordering::SeqCst) {
            return id;
        }
        let deadline = Instant::now() + delay;
        // The timer thread sleeps until the current head's deadline; it
        // only needs waking when the new entry becomes the head.
        let earliest = heap.peek().is_none_or(|head| deadline < head.deadline);
        heap.push(TimerEntry {
            deadline,
            id,
            deliver: Box::new(deliver),
        });
        drop(heap);
        if earliest {
            self.cond.notify_one();
        }
        id
    }

    /// Cancels a pending timer; a no-op if it already fired.
    pub fn cancel(&self, id: TimerId) {
        self.cancelled.lock().insert(id);
    }

    /// Stops and joins the timer thread; pending timers never fire.
    pub fn stop(&self) {
        // Flag and drain under one heap lock, pairing with the locked
        // check in arm(): delivery closures may hold strong references
        // back into the runtime that owns this service (the shard
        // router does), and an entry left — or raced — into the heap
        // would keep that reference cycle alive forever.
        let mut heap = self.heap.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        heap.clear();
        drop(heap);
        self.cancelled.lock().clear();
        self.cond.notify_one();
        let worker = self.worker.lock().take();
        if let Some(worker) = worker {
            if worker.thread().id() != std::thread::current().id() {
                let _ = worker.join();
            }
        }
    }

    fn run(&self) {
        let mut heap = self.heap.lock();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            if let Some(head) = heap.peek() {
                if head.deadline <= now {
                    if let Some(entry) = heap.pop() {
                        let skip = self.cancelled.lock().remove(&entry.id);
                        if !skip {
                            (entry.deliver)();
                        }
                    }
                    continue;
                }
                let wait = head.deadline.saturating_duration_since(now);
                self.cond.wait_for(&mut heap, wait);
            } else {
                self.cond.wait_for(&mut heap, Duration::from_millis(100));
            }
        }
    }
}

impl std::fmt::Debug for WallTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallTimer")
            .field("pending", &self.heap.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_fire_in_deadline_order() {
        let timer = WallTimer::spawn();
        let (tx, rx) = std::sync::mpsc::channel();
        let early = tx.clone();
        timer.arm(Duration::from_millis(60), move || {
            let _ = tx.send(2u32);
        });
        timer.arm(Duration::from_millis(20), move || {
            let _ = early.send(1u32);
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
        timer.stop();
    }

    #[test]
    fn timer_armed_before_the_head_fires_on_time() {
        let timer = WallTimer::spawn();
        let (tx, rx) = std::sync::mpsc::channel();
        let late = tx.clone();
        // The timer thread now sleeps towards a head 30 s away ...
        timer.arm(Duration::from_secs(30), move || {
            let _ = late.send("late");
        });
        std::thread::sleep(Duration::from_millis(20));
        // ... so arming an earlier timer must wake it.
        let armed = Instant::now();
        timer.arm(Duration::from_millis(20), move || {
            let _ = tx.send("early");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("early"));
        assert!(
            armed.elapsed() < Duration::from_secs(2),
            "fired after {:?}",
            armed.elapsed()
        );
        timer.stop();
    }

    #[test]
    fn later_timer_still_fires_behind_the_head() {
        let timer = WallTimer::spawn();
        let (tx, rx) = std::sync::mpsc::channel();
        let first = tx.clone();
        timer.arm(Duration::from_millis(20), move || {
            let _ = first.send(1u32);
        });
        // Later than the head: armed without waking the timer thread.
        timer.arm(Duration::from_millis(40), move || {
            let _ = tx.send(2u32);
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
        timer.stop();
    }

    #[test]
    fn cancelled_timer_never_delivers() {
        let timer = WallTimer::spawn();
        let (tx, rx) = std::sync::mpsc::channel();
        let cancelled = tx.clone();
        let id = timer.arm(Duration::from_millis(20), move || {
            let _ = cancelled.send("cancelled");
        });
        timer.cancel(id);
        timer.arm(Duration::from_millis(60), move || {
            let _ = tx.send("kept");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("kept"));
        timer.stop();
    }
}
