//! A hand-rolled worker pool over `std::thread` and channels.
//!
//! The build environment is offline, so there is no tokio; the serving
//! pipeline instead uses a fixed pool of panic-isolated worker threads.
//! Dispatch is **per-worker**: every worker owns its own bounded
//! [`sync_channel`](std::sync::mpsc::sync_channel) and submissions are
//! spread round-robin across them, skipping workers whose queue is full.
//! The earlier design funnelled all workers through one shared
//! `Arc<Mutex<Receiver>>` — every dequeue serialized the whole pool on that
//! lock, so idle workers woke up just to contend for it. With per-worker
//! queues a dequeue is lock-free from the pool's point of view and workers
//! only ever touch their own channel. A worker takes one job at a time and
//! hands it to the handler.
//!
//! Workers are panic-isolated: a job whose handler panics is counted and
//! dropped (unwinding drops whatever the job owned), and the worker keeps
//! serving subsequent jobs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Error returned when submitting to a pool that has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

/// Where submitters wait while every worker queue is full.
///
/// Workers bump the generation counter under the lock after draining jobs
/// from their queue, then notify. A submitter that re-offers *while holding
/// the lock* and still finds every queue full therefore cannot miss a
/// wakeup: any slot freed after its failed pass bumps the generation only
/// once the submitter is waiting on the condvar.
struct ParkLot {
    /// Generation counter of freed queue slots.
    slots_freed: Mutex<u64>,
    freed: Condvar,
}

/// First park interval when every queue is full. Doubles per consecutive
/// failed pass up to [`MAX_PARK`]; the condvar wakes parked submitters
/// early as soon as a worker drains its queue, so the timeout only bounds
/// recovery when a wakeup races shutdown.
const MIN_PARK: Duration = Duration::from_millis(1);
const MAX_PARK: Duration = Duration::from_millis(50);

/// A fixed-size pool of panic-isolated worker threads, each draining its
/// own bounded job queue.
pub struct WorkerPool<J: Send + 'static> {
    /// One bounded sender per worker; `None` after shutdown.
    senders: Vec<SyncSender<J>>,
    /// Round-robin dispatch cursor.
    cursor: AtomicUsize,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<AtomicU64>,
    /// Jobs submitted but not yet picked up by a worker (the queue-depth
    /// gauge exposed via `/stats`).
    queued: Arc<AtomicU64>,
    /// Condvar-backed waiting room for submitters that found every queue
    /// full.
    park: Arc<ParkLot>,
    /// Times a `submit` call parked because every queue was full.
    submit_parks: Arc<AtomicU64>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads handling one job per call with `handler`.
    /// At most `queue_capacity` jobs wait per worker; submissions prefer
    /// idle workers and block only when every queue is full (backpressure).
    pub fn new(workers: usize, queue_capacity: usize, handler: impl Fn(J) + Send + Sync + 'static) -> Self {
        let workers = workers.max(1);
        let handler = Arc::new(handler);
        let panics = Arc::new(AtomicU64::new(0));
        let queued = Arc::new(AtomicU64::new(0));
        let park = Arc::new(ParkLot { slots_freed: Mutex::new(0), freed: Condvar::new() });
        let mut senders = Vec::with_capacity(workers);
        let handles = (0..workers)
            .map(|index| {
                let (sender, receiver) = sync_channel::<J>(queue_capacity.max(1));
                senders.push(sender);
                let handler = Arc::clone(&handler);
                let panics = Arc::clone(&panics);
                let queued = Arc::clone(&queued);
                let park = Arc::clone(&park);
                std::thread::Builder::new()
                    .name(format!("clara-worker-{index}"))
                    .spawn(move || worker_loop(&receiver, handler.as_ref(), &panics, &queued, &park))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool {
            senders,
            cursor: AtomicUsize::new(0),
            workers: handles,
            panics,
            queued,
            park,
            submit_parks: Arc::new(AtomicU64::new(0)),
        }
    }

    /// One round-robin pass over every queue. `Ok(Err(job))` hands the job
    /// back when all queues are full.
    fn offer(&self, mut job: J) -> Result<Result<(), J>, PoolClosed> {
        if self.senders.is_empty() {
            return Err(PoolClosed);
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for offset in 0..self.senders.len() {
            let sender = &self.senders[(start + offset) % self.senders.len()];
            match sender.try_send(job) {
                Ok(()) => {
                    self.queued.fetch_add(1, Ordering::Relaxed);
                    return Ok(Ok(()));
                }
                Err(TrySendError::Full(returned)) => job = returned,
                Err(TrySendError::Disconnected(_)) => return Err(PoolClosed),
            }
        }
        Ok(Err(job))
    }

    /// Submits a job: tries every worker queue round-robin starting at the
    /// dispatch cursor; while all are full, parks on a condvar until a
    /// worker drains its queue (with a bounded exponential timeout as a
    /// safety net) and retries across *all* queues. Committing to one
    /// specific queue would wait on one specific worker — if that worker is
    /// stuck on a slow job the submitter deadlocks against it even though
    /// its siblings drain. Parking instead of the earlier 200µs sleep loop
    /// matters when a handler wedges for seconds: a spinning submitter
    /// burned a core re-polling every queue thousands of times per second
    /// without making progress.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] when the pool has shut down.
    pub fn submit(&self, job: J) -> Result<(), PoolClosed> {
        // Fast path: lock-free round-robin pass.
        let mut job = match self.offer(job)? {
            Ok(()) => return Ok(()),
            Err(returned) => returned,
        };
        let mut backoff = MIN_PARK;
        loop {
            // Re-offer under the park lock: a slot freed after the failed
            // lock-free pass bumps the generation under this same lock, so
            // either the retry here sees the free slot or the wait below
            // observes the bump — a wakeup cannot fall between the two.
            let mut slots = self.park.slots_freed.lock().expect("park lock poisoned");
            match self.offer(job)? {
                Ok(()) => return Ok(()),
                Err(returned) => job = returned,
            }
            let generation = *slots;
            self.submit_parks.fetch_add(1, Ordering::Relaxed);
            while *slots == generation {
                let (guard, timeout) =
                    self.park.freed.wait_timeout(slots, backoff).expect("park lock poisoned");
                slots = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            drop(slots);
            backoff = (backoff * 2).min(MAX_PARK);
        }
    }

    /// Submits a job without blocking; `Ok(false)` signals that every
    /// worker queue is full (the caller can shed load instead of waiting —
    /// the job itself is dropped, so callers keep their own copy to retry).
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] when the pool has shut down.
    pub fn try_submit(&self, job: J) -> Result<bool, PoolClosed> {
        match self.offer(job)? {
            Ok(()) => Ok(true),
            Err(_dropped) => Ok(false),
        }
    }

    /// Number of jobs whose handler panicked (the jobs were dropped, the
    /// workers survived).
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Jobs currently waiting in worker queues (submitted, not yet picked
    /// up). The queue-depth gauge of the `/stats` endpoint.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Times a [`submit`](Self::submit) call parked because every worker
    /// queue was full. A backpressure gauge: parks growing much faster
    /// than submissions means the pool is chronically undersized.
    pub fn submit_park_count(&self) -> u64 {
        self.submit_parks.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queues, drains the remaining jobs and joins all workers.
    pub fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<J>(
    receiver: &Receiver<J>,
    handler: &(impl Fn(J) + ?Sized),
    panics: &AtomicU64,
    queued: &AtomicU64,
    park: &ParkLot,
) {
    // Queue closed and drained means exit.
    while let Ok(job) = receiver.recv() {
        queued.fetch_sub(1, Ordering::Relaxed);
        // The received job freed a queue slot; wake submitters parked on
        // full queues. The generation bump must happen under the lock (see
        // `ParkLot`) or a submitter between its failed pass and its wait
        // would sleep through this notification.
        {
            let mut slots = park.slots_freed.lock().expect("park lock poisoned");
            *slots += 1;
        }
        park.freed.notify_all();
        if catch_unwind(AssertUnwindSafe(|| handler(job))).is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    #[test]
    fn jobs_are_processed_by_multiple_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&counter);
        let mut pool = WorkerPool::new(4, 8, move |n: usize| {
            seen.fetch_add(n, Ordering::SeqCst);
        });
        for _ in 0..100 {
            pool.submit(1).unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.panic_count(), 0);
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn panicking_jobs_do_not_kill_the_pool() {
        let (reply, responses) = channel::<usize>();
        let mut pool = WorkerPool::new(2, 4, move |n: usize| {
            assert!(n != 13, "unlucky job");
            reply.send(n).unwrap();
        });
        for n in [1, 13, 2, 13, 3] {
            pool.submit(n).unwrap();
        }
        pool.shutdown();
        let mut survived: Vec<usize> = responses.iter().collect();
        survived.sort_unstable();
        assert_eq!(survived, vec![1, 2, 3]);
        assert_eq!(pool.panic_count(), 2);
    }

    #[test]
    fn try_submit_signals_when_every_queue_is_full() {
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let mut pool = WorkerPool::new(1, 1, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        });
        // First job occupies the worker; the queue (capacity 1) then fills.
        pool.submit(0).unwrap();
        let mut accepted = 0;
        while pool.try_submit(1).unwrap() {
            accepted += 1;
            assert!(accepted < 100, "queue never filled");
        }
        for _ in 0..=accepted {
            release.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_errors() {
        let mut pool = WorkerPool::new(1, 1, |_: usize| {});
        pool.shutdown();
        assert_eq!(pool.submit(1), Err(PoolClosed));
        assert_eq!(pool.try_submit(1), Err(PoolClosed));
    }

    #[test]
    fn full_queues_route_to_idle_workers() {
        // Per-worker queues trade the old shared queue's work-conservation
        // for contention-free dispatch; head-of-line blocking behind a slow
        // worker is bounded by its queue capacity. With capacity 1, at most
        // one quick job can sit behind the blocked worker — the rest must
        // route to the idle worker and finish while job 0 is still stuck.
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(Some(gate));
        let (reply, done) = channel::<usize>();
        let mut pool = WorkerPool::new(2, 1, move |n: usize| {
            if n == 0 {
                // Only the first job blocks (takes the gate receiver).
                if let Some(gate) = gate.lock().unwrap().take() {
                    let _ = gate.recv();
                }
            }
            reply.send(n).unwrap();
        });
        pool.submit(0).unwrap();
        for n in 1..=5 {
            pool.submit(n).unwrap();
        }
        // At least four of the five quick jobs complete while job 0 blocks.
        let quick: Vec<usize> = (0..4)
            .map(|_| {
                done.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("quick jobs must not starve behind the blocked worker")
            })
            .collect();
        assert!(!quick.contains(&0), "job 0 is still blocked: {quick:?}");
        release.send(()).unwrap();
        // The blocked job and any stragglers behind it drain on release.
        let mut all = quick;
        while all.len() < 6 {
            all.push(done.recv_timeout(std::time::Duration::from_secs(10)).unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        // The submits above may park briefly while the idle worker drains,
        // but must not degenerate into a poll loop.
        assert!(pool.submit_park_count() < 64, "submit is spinning: {} parks", pool.submit_park_count());
        pool.shutdown();
    }

    #[test]
    fn blocked_submitters_park_instead_of_spinning() {
        // Regression test: `submit` against a wedged pool used to retry
        // every 200µs — ~2000 full round-robin passes during the 400ms this
        // test holds the worker, all burning CPU without progress. The
        // condvar park reaches its 50ms timeout cap after ~6 doublings, so
        // a genuinely wedged wait accounts for at most ~a dozen wakeups.
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let pool = Arc::new(WorkerPool::new(1, 1, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        }));
        pool.submit(0).unwrap();
        // Wait until the worker picked job 0 up, then fill its queue.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.submit(1).unwrap();
        assert_eq!(pool.submit_park_count(), 0, "uncontended submits must not park");
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.submit(2))
        };
        std::thread::sleep(std::time::Duration::from_millis(400));
        let parks = pool.submit_park_count();
        assert!(parks >= 1, "the third submit must park while the pool is wedged");
        assert!(parks <= 32, "submit is spinning, not parking: {parks} parks in 400ms");
        // Unwedge: the worker drains job 0 then job 1; freeing the slot
        // must wake the parked submitter so job 2 lands and completes.
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        submitter.join().unwrap().unwrap();
        drop(release);
    }

    #[test]
    fn queue_depth_gauge_tracks_waiting_jobs() {
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let mut pool = WorkerPool::new(1, 8, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        });
        pool.submit(0).unwrap();
        // Wait until the worker picked the first job up.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        for n in 1..=3 {
            pool.submit(n).unwrap();
        }
        assert_eq!(pool.queued(), 3, "three jobs waiting behind the blocked worker");
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        pool.shutdown();
        assert_eq!(pool.queued(), 0);
    }
}
