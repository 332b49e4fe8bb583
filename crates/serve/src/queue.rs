//! A bounded MPMC queue with priority classes, per-class admission
//! control, dead-item shedding, and drain-on-close.
//!
//! The serving layer's scheduling core: submitters push from any thread
//! (either rejecting when full — admission control — or blocking until
//! space frees up), workers pop *batches* so one dequeue hands a worker
//! several requests at once, and closing the queue wakes everyone while still
//! letting workers drain the accepted backlog — the property behind the
//! server's graceful, no-request-lost shutdown.
//!
//! Items implement [`Scheduled`]: each carries a [`Priority`] class and a
//! live/expired/abandoned [`Disposition`]. The queue keeps one FIFO lane
//! per class; consumers always drain the highest non-empty class first, and
//! each class has its own admission cap so background floods cannot evict
//! interactive work. Items whose disposition has gone non-live by dequeue
//! time (deadline expired, ticket cancelled) are *shed* at the dequeue
//! boundary — handed back separately so the consumer can account for them
//! without ever paying to execute them.
//!
//! Implemented with a `Mutex<[VecDeque; 3]>` plus two condition variables
//! (`not_empty` for workers, `not_full` for blocked submitters). The
//! workspace is dependency-free, so no crossbeam; the queue is short and
//! the critical sections are a few pointer moves, which is plenty for
//! millisecond-scale estimation work items.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::request::{Priority, NUM_PRIORITIES};

/// What a queued item is worth by the time a consumer reaches it.
///
/// Checked at the *dequeue* boundary: the queue never scans for dead items
/// proactively, it just refuses to hand them to a consumer as work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Still worth executing.
    Live,
    /// The item's deadline passed while it queued; executing it would waste
    /// a worker cycle on an answer nobody can use.
    Expired,
    /// The submitter gave up (cancelled or dropped its ticket); nobody is
    /// listening for the answer.
    Abandoned,
}

/// Scheduling metadata the queue reads from its items.
///
/// The defaults (interactive, always live) make any plain payload behave
/// exactly like the pre-priority FIFO queue.
pub trait Scheduled {
    /// The admission class and dequeue lane for this item.
    fn priority(&self) -> Priority {
        Priority::Interactive
    }

    /// Whether the item is still worth executing, re-evaluated every time
    /// the queue considers handing it out.
    fn disposition(&self) -> Disposition {
        Disposition::Live
    }
}

/// Why a non-blocking push was refused. The item is handed back so the
/// caller can report it (or retry) without cloning.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The queue (or the item's priority class) is at capacity.
    Full(T),
    /// The queue is closed to new items.
    Closed(T),
}

struct QueueState<T> {
    /// One FIFO lane per [`Priority`] class, indexed by `priority as usize`.
    lanes: [VecDeque<T>; NUM_PRIORITIES],
    len: usize,
    closed: bool,
    /// Items ever successfully pushed, counted inside the critical section
    /// so acceptance and enqueueing are one atomic step (a consumer can
    /// never observe an item whose acceptance is not yet counted).
    pushed: u64,
}

impl<T> QueueState<T> {
    // lint: allow_fn(index) - lane index comes from Priority as usize, always < NUM_PRIORITIES (the lanes array length)
    fn has_space(&self, class: usize, total_capacity: usize, class_caps: &[usize; NUM_PRIORITIES]) -> bool {
        self.len < total_capacity && self.lanes[class].len() < class_caps[class]
    }
}

/// Bounded multi-producer multi-consumer queue with priority lanes.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    class_caps: [usize; NUM_PRIORITIES],
}

impl<T: Scheduled> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items, with every
    /// priority class allowed to fill the whole queue.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_class_caps(capacity, [capacity; NUM_PRIORITIES])
    }

    /// Creates a queue holding at most `capacity` items in total, with
    /// `class_caps[p]` bounding how many items of priority class `p` may
    /// queue at once (indexed by `Priority as usize`). Caps are clamped to
    /// `1..=capacity`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_class_caps(capacity: usize, class_caps: [usize; NUM_PRIORITIES]) -> Self {
        // lint: allow(panic) - documented constructor contract ("# Panics"): a zero capacity is a caller bug
        assert!(capacity > 0, "queue capacity must be at least 1");
        let class_caps = class_caps.map(|cap| cap.clamp(1, capacity));
        Self {
            state: Mutex::new(QueueState {
                lanes: std::array::from_fn(|_| VecDeque::new()),
                len: 0,
                closed: false,
                pushed: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            class_caps,
        }
    }

    /// Total items ever accepted (successfully pushed), updated atomically
    /// with the enqueue itself.
    pub fn total_pushed(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).pushed
    }

    /// The maximum number of queued items across all classes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-class admission caps, indexed by `Priority as usize`.
    pub fn class_caps(&self) -> [usize; NUM_PRIORITIES] {
        self.class_caps
    }

    /// Current queue depth across all classes.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Admission-controlled push: never blocks, refusing with
    /// [`TryPushError::Full`] when either the queue or the item's priority
    /// class is at capacity, or [`TryPushError::Closed`] after shutdown
    /// began.
    // lint: allow_fn(index) - lane index comes from Priority as usize, always < NUM_PRIORITIES (the lanes array length)
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let class = item.priority() as usize;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if !state.has_space(class, self.capacity, &self.class_caps) {
            return Err(TryPushError::Full(item));
        }
        state.lanes[class].push_back(item);
        state.len += 1;
        state.pushed += 1;
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits until both the queue and the item's class have
    /// space. Returns the item back as `Err` if the queue closed before
    /// space opened up.
    // lint: allow_fn(index) - lane index comes from Priority as usize, always < NUM_PRIORITIES (the lanes array length)
    pub fn push(&self, item: T) -> Result<(), T> {
        let class = item.priority() as usize;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return Err(item);
            }
            if state.has_space(class, self.capacity, &self.class_caps) {
                state.lanes[class].push_back(item);
                state.len += 1;
                state.pushed += 1;
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pops up to `max` *live* items into `out`, highest priority class
    /// first (FIFO within a class), blocking until at least one item is
    /// available. Items whose [`Scheduled::disposition`] has gone non-live
    /// are shed into `dropped` instead — they do not count toward `max`, and
    /// the consumer must account for them (both vectors are cleared first).
    ///
    /// Returns `false` — with both vectors empty — only once the queue is
    /// closed *and* fully drained, so every accepted item is handed to
    /// exactly one consumer (as work or as shed) before workers stop. A
    /// `true` return can carry an empty `out` when the drain encountered
    /// only dead items; callers should account `dropped` and loop.
    // lint: allow_fn(index) - lane index comes from Priority as usize, always < NUM_PRIORITIES (the lanes array length)
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>, dropped: &mut Vec<(T, Disposition)>) -> bool {
        out.clear();
        dropped.clear();
        let max = max.max(1);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.len == 0 {
            if state.closed {
                return false;
            }
            state = self.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        for lane in 0..NUM_PRIORITIES {
            while out.len() < max {
                let Some(item) = state.lanes[lane].pop_front() else { break };
                state.len -= 1;
                match item.disposition() {
                    Disposition::Live => out.push(item),
                    disposition => dropped.push((item, disposition)),
                }
            }
        }
        let more_left = state.len > 0;
        drop(state);
        // Wake every blocked submitter (multiple slots just freed), and one
        // more worker if items remain.
        self.not_full.notify_all();
        if more_left {
            self.not_empty.notify_one();
        }
        true
    }

    /// Closes the queue: subsequent pushes fail, blocked pushers wake with
    /// their item handed back, and consumers drain the backlog before
    /// observing closure.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Plain payloads schedule as interactive and always-live, reproducing
    // the classic FIFO queue.
    impl Scheduled for i32 {}
    impl Scheduled for &str {}

    /// A test item with explicit class and disposition.
    #[derive(Debug, PartialEq)]
    struct Item(i32, Priority, Disposition);

    impl Scheduled for Item {
        fn priority(&self) -> Priority {
            self.1
        }

        fn disposition(&self) -> Disposition {
            self.2
        }
    }

    #[test]
    fn try_push_rejects_at_capacity_and_after_close() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2, "rejected pushes must not count as accepted");
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPushError::Closed(4))));
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn pop_batch_drains_in_fifo_order_up_to_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        let mut dropped = Vec::new();
        assert!(q.pop_batch(3, &mut out, &mut dropped));
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.pop_batch(3, &mut out, &mut dropped));
        assert_eq!(out, vec![3, 4]);
        assert!(q.is_empty());
        assert!(dropped.is_empty());
    }

    #[test]
    fn close_lets_consumers_drain_then_stop() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        let mut out = Vec::new();
        let mut dropped = Vec::new();
        assert!(q.pop_batch(1, &mut out, &mut dropped));
        assert_eq!(out, vec!["a"]);
        assert!(q.pop_batch(8, &mut out, &mut dropped));
        assert_eq!(out, vec!["b"]);
        assert!(!q.pop_batch(1, &mut out, &mut dropped));
        assert!(out.is_empty());
        assert!(q.is_closed());
    }

    #[test]
    fn blocking_push_waits_for_space_and_errors_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0i32).unwrap();

        // A consumer that frees one slot after a beat.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                #[allow(clippy::disallowed_methods)] // test-only beat to let the other thread block
                std::thread::sleep(std::time::Duration::from_millis(20));
                let mut out = Vec::new();
                let mut dropped = Vec::new();
                assert!(q.pop_batch(1, &mut out, &mut dropped));
                out
            })
        };
        // Blocks until the consumer drains, then succeeds.
        q.push(1i32).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![0]);

        // A pusher blocked at close time gets its item back.
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2i32))
        };
        #[allow(clippy::disallowed_methods)] // test-only beat to let the other thread block
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(2));
    }

    #[test]
    fn higher_priority_classes_drain_first_fifo_within_class() {
        let q = BoundedQueue::new(8);
        q.try_push(Item(1, Priority::BestEffort, Disposition::Live)).unwrap();
        q.try_push(Item(2, Priority::Interactive, Disposition::Live)).unwrap();
        q.try_push(Item(3, Priority::Batch, Disposition::Live)).unwrap();
        q.try_push(Item(4, Priority::Interactive, Disposition::Live)).unwrap();

        let mut out = Vec::new();
        let mut dropped = Vec::new();
        assert!(q.pop_batch(8, &mut out, &mut dropped));
        assert_eq!(out.iter().map(|item| item.0).collect::<Vec<_>>(), vec![2, 4, 3, 1]);
        assert!(dropped.is_empty());
    }

    #[test]
    fn class_caps_gate_admission_without_starving_other_classes() {
        let q = BoundedQueue::with_class_caps(4, [4, 4, 2]);
        q.try_push(Item(1, Priority::BestEffort, Disposition::Live)).unwrap();
        q.try_push(Item(2, Priority::BestEffort, Disposition::Live)).unwrap();
        // Best-effort lane is at its cap even though the queue has space.
        assert!(matches!(
            q.try_push(Item(3, Priority::BestEffort, Disposition::Live)),
            Err(TryPushError::Full(Item(3, _, _)))
        ));
        // Interactive traffic still gets the remaining total capacity.
        q.try_push(Item(4, Priority::Interactive, Disposition::Live)).unwrap();
        q.try_push(Item(5, Priority::Interactive, Disposition::Live)).unwrap();
        assert!(matches!(
            q.try_push(Item(6, Priority::Interactive, Disposition::Live)),
            Err(TryPushError::Full(Item(6, _, _)))
        ));
        assert_eq!(q.total_pushed(), 4);
    }

    #[test]
    fn dead_items_are_shed_at_dequeue_and_dont_count_toward_max() {
        let q = BoundedQueue::new(8);
        q.try_push(Item(1, Priority::Interactive, Disposition::Expired)).unwrap();
        q.try_push(Item(2, Priority::Interactive, Disposition::Live)).unwrap();
        q.try_push(Item(3, Priority::Interactive, Disposition::Abandoned)).unwrap();
        q.try_push(Item(4, Priority::Interactive, Disposition::Live)).unwrap();

        let mut out = Vec::new();
        let mut dropped = Vec::new();
        assert!(q.pop_batch(2, &mut out, &mut dropped));
        assert_eq!(out.iter().map(|item| item.0).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(
            dropped.iter().map(|(item, d)| (item.0, *d)).collect::<Vec<_>>(),
            vec![(1, Disposition::Expired), (3, Disposition::Abandoned)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn a_batch_of_only_dead_items_still_returns_true() {
        let q = BoundedQueue::new(4);
        q.try_push(Item(1, Priority::Batch, Disposition::Abandoned)).unwrap();
        let mut out = Vec::new();
        let mut dropped = Vec::new();
        assert!(q.pop_batch(4, &mut out, &mut dropped), "shed-only drains still count as progress");
        assert!(out.is_empty());
        assert_eq!(dropped.len(), 1);
        q.close();
        assert!(!q.pop_batch(4, &mut out, &mut dropped));
    }
}
