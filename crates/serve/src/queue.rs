//! A bounded MPMC job queue on `Mutex` + `Condvar` — the backpressure
//! point of the service.
//!
//! HTTP submissions use [`BoundedQueue::try_push`]: a full queue is an
//! immediate [`PushError::Full`], which the handler surfaces as 429 so
//! memory stays bounded no matter how hard clients push. The resident
//! farm generator uses [`BoundedQueue::push_blocking`] instead — it
//! *wants* to be throttled to the worker pool's pace — and blocking
//! pushes fill at most half the queue, so a farm burst leaves the other
//! half to interactive submissions. [`close`] starts the drain: pushes
//! fail, pops keep returning queued items until the queue is empty, then
//! return `None` — so every accepted job reaches a terminal status
//! before the workers exit.
//!
//! [`close`]: BoundedQueue::close

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity — retry later (HTTP 429).
    Full,
    /// Shutting down — no new work (HTTP 503).
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. All methods take `&self`; share via `Arc`.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            cap: cap.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Non-blocking push; fails fast when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut q = self.inner.lock().expect("queue lock");
        if q.closed {
            return Err(PushError::Closed);
        }
        if q.items.len() >= self.cap {
            return Err(PushError::Full);
        }
        q.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push; waits until fewer than half the capacity
    /// (minimum 1) is queued, leaving the rest to
    /// [`try_push`](Self::try_push). Returns `false` if the queue closed
    /// before the item could be enqueued.
    pub fn push_blocking(&self, item: T) -> bool {
        let limit = (self.cap / 2).max(1);
        let mut q = self.inner.lock().expect("queue lock");
        while !q.closed && q.items.len() >= limit {
            q = self.not_full.wait(q).expect("queue lock");
        }
        if q.closed {
            return false;
        }
        q.items.push_back(item);
        self.not_empty.notify_one();
        true
    }

    /// Blocking pop. `None` only once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = q.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).expect("queue lock");
        }
    }

    /// Stops accepting new items and wakes every waiter; queued items
    /// remain poppable.
    pub fn close(&self) {
        let mut q = self.inner.lock().expect("queue lock");
        q.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_try_push() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        assert!(!q.push_blocking(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push_blocking(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(pusher.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn blocking_push_leaves_half_to_try_push() {
        let q = Arc::new(BoundedQueue::new(4));
        assert!(q.push_blocking(1));
        assert!(q.push_blocking(2));
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push_blocking(3));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 2, "blocking pushes stop at half the capacity");
        assert_eq!(q.try_push(10), Ok(()));
        assert_eq!(q.try_push(11), Ok(()));
        assert_eq!(q.try_push(12), Err(PushError::Full));
        assert_eq!(q.len(), 4);
        for want in [1, 2, 10] {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(pusher.join().unwrap());
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_everything() {
        let q = Arc::new(BoundedQueue::new(4));
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    assert!(q.push_blocking(p * 1000 + i));
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 200);
        all.dedup();
        assert_eq!(all.len(), 200, "no item lost or duplicated");
    }
}
