//! Persistent gradient lanes: the threads behind
//! [`crate::trainer::LocalGradients`].
//!
//! Crossbow runs its learners as long-lived streams under a task engine
//! (§4.2–4.5), not as threads started every iteration. [`Lanes`] is that
//! shape on the CPU. Its worker threads start once, in [`Lanes::new`], and
//! wait on a channel. Each round hands every lane one job, runs lane 0 on
//! the calling thread, and returns only when every lane has finished. A
//! job that panics is caught on its lane and re-raised on the caller once
//! all lanes are idle, so a failed learner neither hangs the round nor
//! leaves a thread running on borrowed data. Dropping [`Lanes`] closes the
//! channels and joins the threads.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One lane's work for one round. It may borrow from the caller.
pub(crate) type Job<'s> = Box<dyn FnOnce() + Send + 's>;

/// How a job ended: `Err` carries its panic payload.
type Outcome = Result<(), Box<dyn Any + Send>>;

/// The thread serving one lane past lane 0.
struct Worker {
    jobs: Sender<Job<'static>>,
    done: Receiver<Outcome>,
    thread: JoinHandle<()>,
}

/// A fixed set of lanes: lane 0 is the thread that calls [`Lanes::run`],
/// lanes `1..` are threads owned by this value.
pub(crate) struct Lanes {
    workers: Vec<Worker>,
}

impl Lanes {
    /// `n` lanes (at least one), starting `n - 1` threads.
    pub(crate) fn new(n: usize) -> Self {
        let workers = (1..n.max(1))
            .map(|lane| {
                let (jobs, inbox) = channel::<Job<'static>>();
                let (report, done) = channel();
                let thread = std::thread::Builder::new()
                    .name(format!("gradient-lane-{lane}"))
                    .spawn(move || {
                        for job in inbox {
                            if report.send(catch_unwind(AssertUnwindSafe(job))).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("start a gradient lane");
                Worker { jobs, done, thread }
            })
            .collect();
        Lanes { workers }
    }

    /// Number of lanes, the calling thread's included.
    pub(crate) fn len(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `jobs[l]` on lane `l` and returns once every job has finished.
    /// If a job panicked, re-raises the first panic in lane order, after
    /// every lane has finished.
    ///
    /// # Panics
    /// Panics if there are more jobs than lanes (before running any).
    pub(crate) fn run(&mut self, jobs: Vec<Job<'_>>) {
        assert!(jobs.len() <= self.len(), "more jobs than lanes");
        let mut jobs = jobs.into_iter();
        let Some(own) = jobs.next() else {
            return;
        };
        let mut handed = 0;
        for (worker, job) in self.workers.iter().zip(jobs) {
            // SAFETY: only the job's lifetime changes; the box layout is
            // the same. The job may borrow data the caller owns for `'_`.
            // `run` neither returns nor unwinds before it has received
            // one outcome from each worker handed a job (the loop below;
            // lane 0's panic is caught first), and a worker reports only
            // after its job has run and been dropped. So every borrow a
            // job holds ends before `run` does. A job whose send fails is
            // dropped unrun on this thread.
            let job = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
            // A worker whose thread is gone drops the job here; its
            // closed `done` channel reports that below.
            let _ = worker.jobs.send(job);
            handed += 1;
        }
        let mut panic = catch_unwind(AssertUnwindSafe(own)).err();
        for worker in &self.workers[..handed] {
            let outcome = worker
                .done
                .recv()
                .unwrap_or_else(|_| Err(Box::new("a gradient lane thread has exited")));
            if let Err(payload) = outcome {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        // Dropping every sender first ends every lane's loop; then join.
        let threads: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.thread).collect();
        for thread in threads {
            // Jobs never unwind past `catch_unwind`, so there is no panic
            // to forward here.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_job_runs_on_its_own_lane_before_run_returns() {
        let mut lanes = Lanes::new(3);
        let caller = std::thread::current().id();
        let mut seen = [None, None, None];
        let ran = AtomicUsize::new(0);
        for _ in 0..4 {
            let jobs = seen
                .iter_mut()
                .map(|slot| {
                    let ran = &ran;
                    Box::new(move || {
                        *slot = Some(std::thread::current().id());
                        ran.fetch_add(1, Ordering::SeqCst);
                    }) as Job<'_>
                })
                .collect();
            lanes.run(jobs);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 12);
        assert_eq!(seen[0], Some(caller), "lane 0 is the caller");
        assert!(seen[1].is_some() && seen[1] != seen[0] && seen[2] != seen[1]);
        assert!(seen[2].is_some() && seen[2] != seen[0]);
    }
}
