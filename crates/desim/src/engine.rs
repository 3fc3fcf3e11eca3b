//! The simulation loop.
//!
//! [`Engine`] owns an [`EventQueue`] and repeatedly dispatches the earliest
//! event to a policy-defined [`Process`] handler until the queue drains or
//! the handler requests termination.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Outcome of handling one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep simulating.
    Continue,
    /// Stop immediately (e.g. the warm-up + measurement window completed).
    Halt,
}

/// A simulation process: the policy side of the kernel.
///
/// The handler receives the event time, the payload, and mutable access to
/// the queue so it can schedule follow-on events.
pub trait Process<E> {
    /// Handle one event. Returning [`Flow::Halt`] ends the run.
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>) -> Flow;
}

// Allow plain closures as processes for tests and simple drivers.
impl<E, F> Process<E> for F
where
    F: FnMut(SimTime, E, &mut EventQueue<E>) -> Flow,
{
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>) -> Flow {
        self(now, event, queue)
    }
}

/// Drives a [`Process`] over an [`EventQueue`] until completion.
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    events_dispatched: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// An engine with an empty queue.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            events_dispatched: 0,
        }
    }

    /// Mutable access to the queue for seeding initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Immutable access to the queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Run to completion: drains the queue, stopping early when the process
    /// returns [`Flow::Halt`]. Returns the final sim time.
    pub fn run<P: Process<E>>(&mut self, process: &mut P) -> SimTime {
        while let Some((now, ev)) = self.queue.pop() {
            self.events_dispatched += 1;
            if process.handle(now, ev, &mut self.queue) == Flow::Halt {
                break;
            }
        }
        self.queue.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn runs_chain_of_events() {
        let mut engine = Engine::new();
        engine
            .queue_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Tick(0));
        let mut seen = Vec::new();
        let end = engine.run(&mut |now: SimTime, ev: Ev, q: &mut EventQueue<Ev>| {
            let Ev::Tick(n) = ev;
            seen.push((now, n));
            if n < 4 {
                q.schedule_in(SimTime::from_secs(1), Ev::Tick(n + 1));
            }
            Flow::Continue
        });
        assert_eq!(seen.len(), 5);
        assert_eq!(end, SimTime::from_secs(5));
        assert_eq!(engine.events_dispatched(), 5);
    }

    #[test]
    fn halt_stops_early() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine
                .queue_mut()
                .schedule_at(SimTime::from_secs(i), Ev::Tick(i as u32));
        }
        let mut count = 0;
        engine.run(&mut |_now, _ev, _q: &mut EventQueue<Ev>| {
            count += 1;
            if count == 3 {
                Flow::Halt
            } else {
                Flow::Continue
            }
        });
        assert_eq!(count, 3);
        assert_eq!(engine.queue().len(), 7);
    }
}
