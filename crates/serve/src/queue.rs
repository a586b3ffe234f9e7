//! Bounded MPMC work queue with non-blocking admission.
//!
//! Admission (`try_push`) never blocks: when the queue is at capacity
//! the job is handed straight back so the caller can answer with a
//! typed `overloaded` response instead of stalling the client.  Workers
//! block in `pop` until a job arrives or the queue is closed and
//! drained.  Every lock acquisition recovers from poisoning — a worker
//! panic must never wedge admission.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why `try_push` handed the item back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; shed the load.
    Full,
    /// The queue has been closed for shutdown.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempt to enqueue without blocking.  On failure the item comes
    /// back untouched together with the reason.
    pub fn try_push(&self, item: T) -> Result<usize, (T, PushError)> {
        let mut state = self.lock();
        if state.closed {
            return Err((item, PushError::Closed));
        }
        if state.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        state.high_water = state.high_water.max(depth);
        drop(state);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Block until a job is available.  Returns `None` once the queue
    /// is closed *and* fully drained, which is each worker's signal to
    /// exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Remove one queued job without blocking (used by the shutdown
    /// path to drain inline when no workers remain).
    pub fn try_pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// and workers exit once the backlog drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest backlog observed since creation.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Whether the underlying mutex was ever poisoned (the soak test
    /// asserts this stays `false` even under injected worker panics).
    pub fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_when_full_and_reports_closed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.try_push(3).unwrap_err(), (3, PushError::Full));
        assert_eq!(q.high_water(), 2);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(4).unwrap_err(), (4, PushError::Closed));
        // Backlog still drains after close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_item_or_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.try_push(42).unwrap();
        assert_eq!(popper.join().unwrap(), Some(42));

        let q2 = Arc::new(BoundedQueue::<u32>::new(4));
        let popper = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q2.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
