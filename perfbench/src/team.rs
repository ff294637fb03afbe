//! The benchmark's two threads: the calling thread and one helper that
//! lives for the whole run, and a barrier for the two.
//!
//! A helper per run, not per round, keeps each thread on one telemetry
//! slot: `nbsp_telemetry` hands out slots round-robin, so spawning a
//! thread per round would eventually put two live threads on one row and
//! make their flushes publish it twice.
//!
//! Between jobs the helper sleeps, so that other tasks run on its CPU
//! while the caller sets a round up instead of preempting a timed phase.
//! Inside a job the two threads meet at a [`SpinBarrier`], which spins:
//! on a virtual machine a sleeping vCPU is halted, and waking it takes
//! from microseconds to milliseconds, so a timed phase starts only once
//! both threads are awake and past the barrier.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// How long a thread spins at a barrier before declaring the other lost,
/// so that a thread that died elsewhere cannot hang the run.
const PATIENCE: Duration = Duration::from_secs(60);

#[derive(Debug)]
pub struct Team {
    jobs: Option<Sender<Job>>,
    helper: Option<JoinHandle<()>>,
}

impl Team {
    #[must_use]
    pub fn new() -> Self {
        let (tx, rx) = channel::<Job>();
        let helper = std::thread::spawn(move || {
            for job in rx {
                job();
            }
        });
        Team {
            jobs: Some(tx),
            helper: Some(helper),
        }
    }

    /// Runs `job(0)` on the calling thread and `job(1)` on the helper at
    /// the same time, and returns both results once both have finished.
    ///
    /// # Panics
    ///
    /// Panics if the helper thread panicked.
    pub fn run<T: Send + 'static>(&self, job: Arc<dyn Fn(usize) -> T + Send + Sync>) -> [T; 2] {
        let (done_tx, done_rx) = channel();
        let theirs = Arc::clone(&job);
        self.jobs
            .as_ref()
            .expect("the helper lives as long as the team")
            .send(Box::new(move || {
                let out = theirs(1);
                // Release the job's state before reporting, so that it is
                // freed before the caller's next round allocates.
                drop(theirs);
                let _ = done_tx.send(out);
            }))
            .expect("helper thread is gone");
        let mine = job(0);
        let other = done_rx.recv().expect("helper thread panicked");
        [mine, other]
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(h) = self.helper.take() {
            // A helper panic was already reported by `run`.
            let _ = h.join();
        }
    }
}

/// A reusable barrier for the two threads of a [`Team`] that spins.
#[derive(Debug, Default)]
pub struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// Returns once both threads have called `wait` in this generation.
    pub fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) == 1 {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let start = Instant::now();
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                std::hint::spin_loop();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(1 << 20) && start.elapsed() > PATIENCE {
                    panic!("barrier: the other thread did not arrive");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_threads_run_and_meet_at_the_barrier() {
        let team = Team::new();
        let barrier = Arc::new(SpinBarrier::default());
        let b = Arc::clone(&barrier);
        let order = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&order);
        let [a, c] = team.run(Arc::new(move |tid| {
            let mut seen = Vec::new();
            for _ in 0..100 {
                o.fetch_add(1, Ordering::SeqCst);
                b.wait();
                // Both threads added before either passed.
                seen.push(o.load(Ordering::SeqCst) % 2);
                b.wait();
            }
            (tid, seen)
        }));
        assert_eq!((a.0, c.0), (0, 1));
        assert!(a.1.iter().chain(&c.1).all(|&s| s == 0));
        assert_eq!(order.load(Ordering::SeqCst), 200);
    }
}
