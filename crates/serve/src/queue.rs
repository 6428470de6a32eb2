//! The server's one bounded job queue.
//!
//! Every worker pops the same FIFO, so a pushed job goes to whichever worker is idle
//! first. The queue is bounded: when `capacity` jobs are waiting,
//! [`JobQueue::try_push`] hands the job back and the caller sends a typed `busy`
//! reply — backpressure instead of unbounded memory growth. [`JobQueue::close`]
//! makes pushes fail and wakes every worker; workers drain the jobs still waiting,
//! then [`JobQueue::pop`] returns `None`.
//!
//! The closed flag lives under the same mutex as the jobs, so a push either lands
//! before the close (and is drained) or sees the close and hands its job back.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`JobQueue::try_push`] handed a job back.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Rejected<T> {
    /// `capacity` jobs are already waiting.
    Full(T),
    /// The queue is closed.
    Closed(T),
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO that any number of workers pop.
pub(crate) struct JobQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled on every push and on close.
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue that holds at most `capacity` waiting jobs.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need a non-zero queue capacity");
        Self {
            state: Mutex::new(State { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("job queue poisoned")
    }

    /// Enqueues `job` and wakes one waiting worker, or hands the job back when the
    /// queue is full or closed.
    pub(crate) fn try_push(&self, job: T) -> Result<(), Rejected<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(Rejected::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            return Err(Rejected::Full(job));
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Jobs currently waiting.
    pub(crate) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// The oldest waiting job, blocking until one arrives. Returns `None` only once
    /// the queue is closed and empty, so workers drain every accepted job first.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self
            .ready
            .wait_while(self.lock(), |state| state.jobs.is_empty() && !state.closed)
            .expect("job queue poisoned");
        state.jobs.pop_front()
    }

    /// Closes the queue: pushes start failing, and every blocked
    /// [`pop`](Self::pop) wakes to drain what is left.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver};
    use std::sync::{Arc, Barrier};
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// How long a test waits for a woken worker before calling the wakeup lost.
    const WAKE_DEADLINE: Duration = Duration::from_secs(10);

    /// A worker thread that pops until `None`, reporting each pop through a channel
    /// (`Some(job)`, then one final `None`).
    struct Worker {
        reports: Receiver<Option<u32>>,
        thread: JoinHandle<()>,
    }

    impl Worker {
        /// Spawns a worker that waits at `start` before its first pop.
        fn spawn(q: &Arc<JobQueue<u32>>, start: &Arc<Barrier>) -> Self {
            let (tx, reports) = mpsc::channel();
            let (q, start) = (Arc::clone(q), Arc::clone(start));
            let thread = std::thread::spawn(move || {
                start.wait();
                loop {
                    let job = q.pop();
                    let done = job.is_none();
                    tx.send(job).expect("the test reads every report");
                    if done {
                        return;
                    }
                }
            });
            Self { reports, thread }
        }

        /// Every job the worker reports until its final `None`, then joins it. A
        /// worker that does not report within [`WAKE_DEADLINE`] fails the test
        /// instead of hanging it.
        fn finish(self) -> Vec<u32> {
            let mut jobs = Vec::new();
            loop {
                match self.reports.recv_timeout(WAKE_DEADLINE) {
                    Ok(Some(job)) => jobs.push(job),
                    Ok(None) => break,
                    Err(e) => panic!("a worker never returned from pop ({e})"),
                }
            }
            self.thread.join().expect("worker thread");
            jobs
        }
    }

    #[test]
    fn push_pop_round_trips_in_fifo_order() {
        let q = JobQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_full_queue_hands_the_job_back() {
        let q = JobQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert_eq!(q.try_push("c"), Err(Rejected::Full("c")));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_drains_remaining_jobs_then_returns_none() {
        let q = JobQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(Rejected::Closed(3)), "a closed queue rejects pushes");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_closed_full_queue_reports_closed() {
        let q = JobQueue::new(1);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(Rejected::Closed(2)));
    }

    #[test]
    fn a_blocked_pop_wakes_on_a_push_and_on_close() {
        let q = Arc::new(JobQueue::new(2));
        let worker = Worker::spawn(&q, &Arc::new(Barrier::new(1)));
        // Give the worker time to block in `pop` on the empty queue; the assertions
        // hold whether or not it has.
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7).unwrap();
        assert_eq!(worker.reports.recv_timeout(WAKE_DEADLINE), Ok(Some(7)), "woken by the push");
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(worker.finish(), Vec::<u32>::new(), "woken by the close");
    }

    #[test]
    fn close_racing_blocked_workers_wakes_every_one() {
        const WORKERS: usize = 4;
        for round in 0..200u32 {
            let q = Arc::new(JobQueue::new(WORKERS));
            let start = Arc::new(Barrier::new(WORKERS + 1));
            let workers: Vec<_> = (0..WORKERS).map(|_| Worker::spawn(&q, &start)).collect();
            start.wait();
            // Every worker is entering `pop`. Odd rounds push a job into the race;
            // rounds 2 and 3 of every four sleep first, so the close finds the
            // workers blocked.
            if round % 2 == 1 {
                q.try_push(round).unwrap();
            }
            if round % 4 >= 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.close();
            let popped: Vec<u32> = workers.into_iter().flat_map(Worker::finish).collect();
            let expected: Vec<u32> = if round % 2 == 1 { vec![round] } else { Vec::new() };
            assert_eq!(popped, expected, "round {round}: the pushed job drained exactly once");
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(JobQueue::new(16));
        let per_producer = 100u32;
        let start = Arc::new(Barrier::new(1));
        let consumers: Vec<_> = (0..4).map(|_| Worker::spawn(&q, &start)).collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..per_producer {
                        let mut job = p * 1000 + i;
                        while let Err(Rejected::Full(back)) = q.try_push(job) {
                            job = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers.into_iter().flat_map(Worker::finish).collect();
        all.sort_unstable();
        let mut expected: Vec<_> =
            (0..4).flat_map(|p| (0..per_producer).map(move |i| p * 1000 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected, "every job popped exactly once");
    }
}
