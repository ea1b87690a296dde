//! Bounded, tenant-fair admission for a multi-tenant engine.
//!
//! A server cannot hand every arriving submission straight to a
//! [`Session`](crate::Session) flush: one chatty tenant would monopolize
//! the executor, and an unbounded backlog would grow without limit.
//! [`AdmissionQueue`] sits in front of the execution workers:
//!
//! - **Bounded** — at most `capacity` queued jobs across all tenants;
//!   [`AdmissionQueue::try_submit`] rejects with
//!   [`AdmissionError::QueueFull`] instead of blocking the connection
//!   thread, and hands the job back (the server surfaces it as a typed
//!   `queue_full` wire error and keeps what the job carried).
//! - **Fair** — each tenant gets its own FIFO lane, and
//!   [`AdmissionQueue::next`] serves lanes round-robin: a tenant that
//!   queued five jobs cannot starve one that queued one.
//! - **Drainable** — [`AdmissionQueue::close`] stops new admissions but
//!   lets workers pop everything already admitted; `next` returns `None`
//!   only once the queue is both closed and empty. That is the shutdown
//!   path: SIGTERM closes the queue, in-flight flushes drain, then the
//!   workers exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue already holds `capacity` jobs across all tenants.
    QueueFull { capacity: usize },
    /// The queue was closed (server shutting down).
    Closed,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} jobs queued)")
            }
            AdmissionError::Closed => write!(f, "admission queue closed"),
        }
    }
}

impl std::error::Error for AdmissionError {}

struct Lane<T> {
    tenant: String,
    jobs: VecDeque<T>,
}

struct State<T> {
    /// One FIFO lane per tenant, in first-submission order. Lanes persist
    /// for the queue's lifetime (tenant counts are bounded by connections,
    /// not job counts).
    lanes: Vec<Lane<T>>,
    /// Next lane index to serve (round-robin cursor).
    rr: usize,
    /// Jobs queued across all lanes.
    len: usize,
    closed: bool,
}

/// A bounded multi-tenant job queue with round-robin fairness across
/// tenants. See the [module docs](self).
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity >= 1` jobs at a time.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        assert!(capacity >= 1, "admission capacity must be >= 1");
        AdmissionQueue {
            state: Mutex::new(State {
                lanes: Vec::new(),
                rr: 0,
                len: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admit `job` on `tenant`'s lane, or reject without blocking (and drop
    /// `job`; [`AdmissionQueue::try_submit`] hands it back).
    pub fn submit(&self, tenant: &str, job: T) -> Result<(), AdmissionError> {
        self.try_submit(tenant, job).map_err(|(e, _)| e)
    }

    /// Admit `job` on `tenant`'s lane, or hand it back with the reason it
    /// was refused, so whatever it carries outlives the refusal.
    pub fn try_submit(&self, tenant: &str, job: T) -> Result<(), (AdmissionError, T)> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed {
            return Err((AdmissionError::Closed, job));
        }
        if s.len >= self.capacity {
            let capacity = self.capacity;
            return Err((AdmissionError::QueueFull { capacity }, job));
        }
        match s.lanes.iter_mut().find(|l| l.tenant == tenant) {
            Some(lane) => lane.jobs.push_back(job),
            None => s.lanes.push(Lane {
                tenant: tenant.to_string(),
                jobs: VecDeque::from([job]),
            }),
        }
        s.len += 1;
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the next job round-robin across tenant lanes, blocking while
    /// the queue is open and empty. Returns `None` once the queue is
    /// closed **and** fully drained — the worker-thread exit signal.
    pub fn next(&self) -> Option<(String, T)> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(popped) = Self::pop(&mut s) {
                return Some(popped);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking [`AdmissionQueue::next`]: `None` when nothing is
    /// queued right now (whether or not the queue is closed).
    pub fn try_next(&self) -> Option<(String, T)> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Self::pop(&mut s)
    }

    fn pop(s: &mut State<T>) -> Option<(String, T)> {
        if s.len == 0 {
            return None;
        }
        let n = s.lanes.len();
        for i in 0..n {
            let idx = (s.rr + i) % n;
            if let Some(job) = s.lanes[idx].jobs.pop_front() {
                s.len -= 1;
                s.rr = (idx + 1) % n;
                return Some((s.lanes[idx].tenant.clone(), job));
            }
        }
        None
    }

    /// Stop admitting; already-queued jobs still drain through
    /// [`AdmissionQueue::next`]. Idempotent.
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently queued across all tenants.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_robin_interleaves_tenants() {
        let q = AdmissionQueue::new(16);
        for job in ["a", "b", "c"] {
            q.submit("t1", job).unwrap();
        }
        q.submit("t2", "d").unwrap();
        q.submit("t3", "e").unwrap();
        let order: Vec<(String, &str)> = std::iter::from_fn(|| q.try_next()).collect();
        let jobs: Vec<&str> = order.iter().map(|(_, j)| *j).collect();
        // t1 queued three jobs first but cannot starve t2/t3.
        assert_eq!(jobs, ["a", "d", "e", "b", "c"]);
        assert_eq!(order[1].0, "t2");
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_bounds_total_queued_jobs() {
        let q = AdmissionQueue::new(2);
        q.submit("t1", 1).unwrap();
        q.submit("t2", 2).unwrap();
        assert_eq!(
            q.submit("t3", 3),
            Err(AdmissionError::QueueFull { capacity: 2 })
        );
        // Popping frees a slot.
        q.try_next().unwrap();
        q.submit("t3", 3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn a_refused_job_is_handed_back() {
        let q = AdmissionQueue::new(1);
        q.try_submit("t1", vec![1]).unwrap();
        let full = AdmissionError::QueueFull { capacity: 1 };
        assert_eq!(q.try_submit("t2", vec![2, 3]), Err((full, vec![2, 3])));
        q.close();
        assert_eq!(
            q.try_submit("t2", vec![4]),
            Err((AdmissionError::Closed, vec![4]))
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn close_rejects_new_but_drains_queued() {
        let q = AdmissionQueue::new(4);
        q.submit("t1", "queued").unwrap();
        q.close();
        assert_eq!(q.submit("t1", "late"), Err(AdmissionError::Closed));
        assert_eq!(q.next(), Some(("t1".to_string(), "queued")));
        assert_eq!(q.next(), None, "closed + drained");
    }

    #[test]
    fn blocked_worker_wakes_on_submit_and_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((_, job)) = q.next() {
                    got.push(job);
                }
                got
            })
        };
        q.submit("t1", 7).unwrap();
        q.submit("t2", 8).unwrap();
        // Give the worker a chance to drain, then close to end it.
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        let mut got = worker.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, [7, 8]);
    }
}
