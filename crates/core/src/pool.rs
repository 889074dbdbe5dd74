//! A persistent scatter-gather pool of OS threads for coarse jobs (one
//! cold schedule per batch-request design, one WAL replay at boot),
//! hand-rolled on `std` (the repo's shim policy: no external crates). The
//! calling thread participates in draining the queue, so a pool sized
//! `threads <= 1` degenerates to an inline serial loop with zero
//! synchronization beyond one uncontended mutex per job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
}

/// Countdown latch: one batch's jobs check in as they finish.
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Arc<Latch> {
        Arc::new(Latch {
            left: Mutex::new(n),
            done: Condvar::new(),
        })
    }

    fn count_down(&self) {
        let mut left = self.left.lock().unwrap_or_else(|e| e.into_inner());
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock().unwrap_or_else(|e| e.into_inner());
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Guard so a panicking job still checks in (the worker survives the
/// panic; the submitter decides what a missing result means).
struct LatchGuard(Arc<Latch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// A persistent scatter-gather worker pool.
///
/// Sized by the number of *participating* threads: a pool of `threads`
/// spawns `threads - 1` OS workers and the submitting thread drains the
/// queue alongside them inside [`run`](Self::run), so `threads <= 1`
/// means no workers at all and `run` is an inline serial loop — the
/// degenerate case costs nothing on a single-core host. Concurrent
/// `run` calls from different threads interleave safely: every job
/// carries its own batch latch, and a waiting submitter only blocks
/// after the shared queue is drained.
///
/// Jobs that panic are caught (the worker thread survives); the batch
/// still completes and the submitter observes the missing side effect.
pub struct WorkPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkPool {
    /// Builds a pool where `threads` threads (including each future
    /// submitter) drain jobs; clamped to ≥ 1.
    pub fn new(threads: usize) -> WorkPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of participating threads the pool was sized for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `jobs` to completion, the calling thread participating.
    /// Returns once every job in this batch has finished (even if some
    /// panicked).
    pub fn run(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        if self.handles.is_empty() {
            // Serial pool: no queue round-trip, no latch, exact
            // submission order.
            for job in jobs {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            return;
        }
        let latch = Latch::new(jobs.len());
        {
            let mut q = lock_queue(&self.shared);
            for job in jobs {
                let latch = Arc::clone(&latch);
                q.jobs.push_back(Box::new(move || {
                    let _guard = LatchGuard(latch);
                    job();
                }));
            }
        }
        self.shared.ready.notify_all();
        // Participate: drain whatever is queued (possibly other batches'
        // jobs — still useful work), then wait for this batch's latch.
        loop {
            let job = {
                let mut q = lock_queue(&self.shared);
                q.jobs.pop_front()
            };
            match job {
                Some(job) => {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
                None => break,
            }
        }
        latch.wait();
    }

    /// Convenience: run one closure per index `0..n`, each receiving its
    /// index. The closure must be cloneable into `'static` jobs.
    pub fn run_indexed<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        self.run(
            (0..n)
                .map(|i| {
                    let f = Arc::clone(&f);
                    Box::new(move || f(i)) as Job
                })
                .collect(),
        );
    }
}

fn lock_queue(shared: &PoolShared) -> std::sync::MutexGuard<'_, PoolQueue> {
    shared.queue.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = lock_queue(shared);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut q = lock_queue(&self.shared);
            q.shutdown = true;
        }
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job_and_serial_pool_is_inline() {
        for threads in [1, 2, 4] {
            let pool = WorkPool::new(threads);
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            pool.run_indexed(100, move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 100, "threads={threads}");
        }
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = WorkPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.run_indexed(8, move |i| {
            if i == 3 {
                panic!("injected");
            }
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 7);
        // The pool still works afterwards.
        let h = Arc::clone(&hits);
        pool.run_indexed(4, move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }
}
