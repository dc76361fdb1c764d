//! A hand-rolled worker pool over `std::thread`: one bounded queue, many
//! workers.
//!
//! The build environment is offline, so there is no tokio; the serving
//! pipeline instead uses a fixed pool of panic-isolated worker threads.
//! Every job waits in one bounded FIFO queue (a `Mutex<VecDeque>` with a
//! `not_empty` and a `not_full` condvar), and whichever worker is free next
//! takes it. A worker stuck on a slow job therefore holds up nothing but
//! that job while a sibling is idle. A full queue is the backpressure:
//! [`WorkerPool::submit`] waits for a slot, [`WorkerPool::try_submit`]
//! hands the job back so the caller can shed it.
//!
//! Workers are panic-isolated: a job whose handler panics is counted and
//! dropped (unwinding drops whatever the job owned), and the worker keeps
//! serving subsequent jobs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Error returned when submitting to a pool that has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

/// Why [`WorkerPool::try_submit`] handed a job back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySubmitError<J> {
    /// Every queue slot is taken.
    Full(J),
    /// The pool has shut down.
    Closed(J),
}

impl<J> TrySubmitError<J> {
    /// The same refusal of a job derived from this one's.
    pub(crate) fn map<K>(self, f: impl FnOnce(J) -> K) -> TrySubmitError<K> {
        match self {
            TrySubmitError::Full(job) => TrySubmitError::Full(f(job)),
            TrySubmitError::Closed(job) => TrySubmitError::Closed(f(job)),
        }
    }
}

/// Queue slots a serving pool keeps beyond `queue_capacity` per worker, so
/// a burst larger than the workers' share waits instead of being shed.
const BURST_SLOTS: usize = 256;

/// The queue bound of a serving pool sized by the `--workers` and
/// `--queue` options: `workers × queue_capacity + BURST_SLOTS`.
pub(crate) fn admission_bound(workers: usize, queue_capacity: usize) -> usize {
    workers.max(1) * queue_capacity.max(1) + BURST_SLOTS
}

/// The jobs waiting for a worker.
struct Jobs<J> {
    waiting: VecDeque<J>,
    /// Set by shutdown: no job is admitted, and workers exit once
    /// `waiting` is drained.
    closed: bool,
}

/// What the submitters and the workers of one pool share.
struct Queue<J> {
    jobs: Mutex<Jobs<J>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    panics: AtomicU64,
}

impl<J> Queue<J> {
    fn lock(&self) -> MutexGuard<'_, Jobs<J>> {
        // Handlers run outside the lock and every update under it is one
        // push, pop or flag store, so a poisoned lock is still consistent.
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `job` and wakes one worker.
    fn push(&self, mut jobs: MutexGuard<'_, Jobs<J>>, job: J) {
        jobs.waiting.push_back(job);
        drop(jobs);
        self.not_empty.notify_one();
    }

    /// The next job, waiting while the queue is empty; `None` once the pool
    /// is closed and drained.
    fn pop(&self) -> Option<J> {
        let mut jobs = self.lock();
        loop {
            if let Some(job) = jobs.waiting.pop_front() {
                drop(jobs);
                self.not_full.notify_one();
                return Some(job);
            }
            if jobs.closed {
                return None;
            }
            jobs = self.not_empty.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A fixed-size pool of panic-isolated worker threads draining one bounded
/// job queue.
pub struct WorkerPool<J: Send + 'static> {
    queue: Arc<Queue<J>>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads handling one job per call with `handler`.
    /// At most `capacity` jobs wait for a worker; past that, submissions
    /// block or are handed back (backpressure).
    pub fn new(workers: usize, capacity: usize, handler: impl Fn(J) + Send + Sync + 'static) -> Self {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(Jobs { waiting: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let handler = Arc::new(handler);
        let workers = (0..workers.max(1))
            .map(|index| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("clara-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            if catch_unwind(AssertUnwindSafe(|| handler(job))).is_err() {
                                queue.panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Submits a job, waiting while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] when the pool has shut down (also while
    /// waiting).
    pub fn submit(&self, job: J) -> Result<(), PoolClosed> {
        let mut jobs = self.queue.lock();
        while !jobs.closed && jobs.waiting.len() >= self.queue.capacity {
            jobs = self.queue.not_full.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
        if jobs.closed {
            return Err(PoolClosed);
        }
        self.queue.push(jobs, job);
        Ok(())
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// Hands the job back in [`TrySubmitError::Full`] when the queue is
    /// full (the caller can shed it instead of waiting), and in
    /// [`TrySubmitError::Closed`] when the pool has shut down.
    pub fn try_submit(&self, job: J) -> Result<(), TrySubmitError<J>> {
        let jobs = self.queue.lock();
        if jobs.closed {
            Err(TrySubmitError::Closed(job))
        } else if jobs.waiting.len() >= self.queue.capacity {
            Err(TrySubmitError::Full(job))
        } else {
            self.queue.push(jobs, job);
            Ok(())
        }
    }

    /// Number of jobs whose handler panicked (the jobs were dropped, the
    /// workers survived).
    pub fn panic_count(&self) -> u64 {
        self.queue.panics.load(Ordering::Relaxed)
    }

    /// Jobs currently waiting in the queue (submitted, not yet picked up).
    /// The queue-depth gauge of the `/stats` endpoint.
    pub fn queued(&self) -> u64 {
        self.queue.lock().waiting.len() as u64
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue, drains the remaining jobs and joins all workers.
    pub fn shutdown(&mut self) {
        self.queue.lock().closed = true;
        self.queue.not_empty.notify_all();
        self.queue.not_full.notify_all();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;
    use std::time::Duration;

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
        while pool.try_submit(1).is_ok() {
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
        assert_eq!(pool.try_submit(1), Err(TrySubmitError::Closed(1)));
    }

    #[test]
    fn quick_jobs_finish_while_a_sibling_worker_is_wedged() {
        // Whichever worker is free takes the next job, so a worker wedged on
        // job 0 holds up none of the quick jobs queued after it.
        // Declared before the gate's sender so it drops last: a failed
        // assertion then unwedges the worker before the pool's drop joins it.
        let mut pool;
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let (reply, done) = channel::<usize>();
        pool = WorkerPool::new(2, 8, move |n: usize| {
            if n == 0 {
                let _ = gate.lock().unwrap().recv();
            }
            reply.send(n).unwrap();
        });
        for n in 0..=8 {
            pool.submit(n).unwrap();
        }
        let mut quick: Vec<usize> = (0..8)
            .map(|_| {
                done.recv_timeout(Duration::from_secs(10))
                    .expect("a quick job is stuck behind the wedged worker")
            })
            .collect();
        quick.sort_unstable();
        assert_eq!(quick, (1..=8).collect::<Vec<_>>(), "job 0 is still wedged");
        release.send(()).unwrap();
        assert_eq!(done.recv_timeout(Duration::from_secs(10)), Ok(0));
        pool.shutdown();
    }

    #[test]
    fn a_submit_blocked_on_a_full_queue_completes_once_a_slot_frees() {
        let pool; // dropped last, as above
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        pool = Arc::new(WorkerPool::new(1, 1, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        }));
        pool.submit(0).unwrap();
        // Wait until the worker picked job 0 up, then fill the one slot.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.submit(1).unwrap();
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.submit(2))
        };
        std::thread::sleep(Duration::from_millis(100));
        assert!(!submitter.is_finished(), "the third submit must wait while the queue is full");
        // The worker finishes job 0 and takes job 1, freeing the slot.
        release.send(()).unwrap();
        submitter.join().unwrap().unwrap();
        release.send(()).unwrap();
        release.send(()).unwrap();
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
