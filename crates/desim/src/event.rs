//! Future event list.
//!
//! A binary heap keyed by `(time, sequence)` so that events scheduled for the
//! same instant pop in FIFO order. Stable tie-breaking matters for
//! reproducibility: without it, two policies compared under common random
//! numbers could diverge purely from heap ordering noise.
//!
//! Beside the heap sits one *replaceable batch*: a time-sorted run of
//! events that a policy installs wholesale and later supersedes wholesale
//! (a dispatch plan rewritten every scheduling round). Replacing it drops
//! the unfired entries at once instead of leaving them in the heap to pop
//! later as no-ops.

use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// A scheduled event: fires at `time`, carrying a policy-defined payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The future event list of a simulation.
///
/// Events are popped in nondecreasing time order; ties resolve in insertion
/// order. The queue is generic over the payload type `E`, which each policy
/// crate defines as its own event enum.
///
/// Events enter one at a time ([`schedule_at`](Self::schedule_at)) or as
/// the queue's one batch ([`replace_batch`](Self::replace_batch)); both
/// share one sequence counter, so the order of what pops does not depend
/// on which way an event came in.
///
/// ```
/// use desim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_secs(5), "later");
/// q.schedule_at(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.now(), SimTime::from_secs(1));  // clock follows the pops
/// q.schedule_in(SimTime::from_secs(1), "relative");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "relative")));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// The replaceable batch, sorted by `(time, seq)`; fired entries are
    /// popped off its front.
    batch: VecDeque<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            batch: VecDeque::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a policy bug and silently reordering it would corrupt
    /// causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            payload,
        });
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        assert!(
            delay >= SimTime::ZERO,
            "negative delay {delay:?} scheduling event"
        );
        self.schedule_at(self.now + delay, payload);
    }

    /// Replace the queue's batch with `entries`, which must be sorted by
    /// time and lie no earlier than the current time. The old batch's
    /// unfired entries are dropped; the return value is the latest of
    /// their times, or `None` when every entry had fired. The new entries
    /// take the next sequence numbers in order, so they pop exactly as if
    /// each had been [`schedule_at`](Self::schedule_at)-ed now, one after
    /// another.
    ///
    /// ```
    /// use desim::{EventQueue, SimTime};
    /// let s = SimTime::from_secs;
    /// let mut q = EventQueue::new();
    /// assert_eq!(q.replace_batch([(s(2), "old plan"), (s(9), "old plan")]), None);
    /// q.schedule_at(s(2), "one-off");
    /// assert_eq!(q.pop(), Some((s(2), "old plan")));
    /// assert_eq!(q.replace_batch([(s(5), "new plan")]), Some(s(9)));
    /// assert_eq!(q.pop(), Some((s(2), "one-off")));
    /// assert_eq!(q.pop(), Some((s(5), "new plan")));
    /// assert_eq!(q.pop(), None);
    /// ```
    pub fn replace_batch(
        &mut self,
        entries: impl IntoIterator<Item = (SimTime, E)>,
    ) -> Option<SimTime> {
        let dropped = self.batch.back().map(|e| e.time);
        self.batch.clear();
        for (time, payload) in entries {
            debug_assert!(
                time >= self.now,
                "batch entry in the past: at={time:?} now={:?}",
                self.now
            );
            debug_assert!(
                self.batch.back().is_none_or(|last| last.time <= time),
                "batch not sorted by time at {time:?}"
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.batch.push_back(Scheduled { time, seq, payload });
        }
        dropped
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_batch = match (self.batch.front(), self.heap.peek()) {
            (Some(b), Some(h)) => (b.time, b.seq) < (h.time, h.seq),
            (b, _) => b.is_some(),
        };
        let ev = if from_batch {
            self.batch.pop_front()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(ev.time >= self.now, "queue returned an event in the past");
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|e| e.time);
        heap.into_iter()
            .chain(self.batch.front().map(|e| e.time))
            .min()
    }

    /// Number of pending events, the batch's unfired entries included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.batch.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.batch.is_empty()
    }

    /// Drop all pending events, the batch included (used when a run
    /// terminates early).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 0);
        q.pop();
        q.schedule_in(SimTime::from_secs(5), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(9), ());
    }

    #[test]
    fn len_empty_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Batch and heap events at one instant pop in scheduling order,
    /// whichever way round they were scheduled.
    #[test]
    fn batch_and_heap_tie_fifo_both_ways() {
        let t = SimTime::from_secs(3);
        let mut q = EventQueue::new();
        q.schedule_at(t, "heap first");
        q.replace_batch([(t, "batch a"), (t, "batch b")]);
        q.schedule_at(t, "heap last");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["heap first", "batch a", "batch b", "heap last"]);

        let mut q = EventQueue::new();
        q.replace_batch([(t, "batch first")]);
        q.schedule_at(t, "heap");
        q.replace_batch([(t, "batch again")]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["heap", "batch again"]);
    }

    #[test]
    fn replacing_drops_unfired_entries_and_returns_the_latest() {
        let s = SimTime::from_secs;
        let mut q = EventQueue::new();
        assert_eq!(q.replace_batch([(s(1), 1), (s(4), 2), (s(6), 3)]), None);
        assert_eq!(q.pop(), Some((s(1), 1)));
        assert_eq!(q.replace_batch([(s(2), 4)]), Some(s(6)));
        assert_eq!(q.pop(), Some((s(2), 4)));
        // Every entry fired: nothing is dropped.
        assert_eq!(q.replace_batch([(s(5), 5)]), None);
        assert_eq!(q.replace_batch(std::iter::empty()), Some(s(5)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), s(2));
    }

    #[test]
    fn len_peek_and_clear_cover_the_batch() {
        let s = SimTime::from_secs;
        let mut q = EventQueue::new();
        q.replace_batch([(s(2), ()), (s(8), ())]);
        assert_eq!((q.len(), q.is_empty()), (2, false));
        assert_eq!(q.peek_time(), Some(s(2)));
        q.schedule_at(s(5), ());
        assert_eq!(q.len(), 3);
        q.pop();
        // The heap's event comes before the batch's next entry.
        assert_eq!(q.peek_time(), Some(s(5)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(
            q.replace_batch([(s(9), ())]),
            None,
            "clear emptied the batch"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "batch not sorted")]
    fn unsorted_batch_panics_in_debug() {
        let mut q = EventQueue::new();
        q.replace_batch([(SimTime::from_secs(2), ()), (SimTime::from_secs(1), ())]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "batch entry in the past")]
    fn batch_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.replace_batch([(SimTime::from_secs(9), ())]);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
