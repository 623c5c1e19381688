//! The simulation drive loop.
//!
//! A simulation is a [`Model`] (all mutable world state) plus an event
//! calendar. The model's `handle` receives one event at a time together with
//! an [`Outbox`] through which it schedules follow-up events. Components that
//! must *cancel* previously scheduled events (fair-share recomputation in the
//! network, queue changes in storage devices) use the stale-event idiom
//! instead: they stamp events with a [`Gen`] generation counter and ignore
//! events whose generation no longer matches.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Engine self-observation snapshot handed to models that opt in via
/// [`Model::wants_engine_stats`]: processed-event count and event-queue
/// occupancy (DESIGN.md §4.16). Taken after the current event's outbox has
/// been drained onto the calendar, so `queue` reflects the post-event state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed so far (monotone).
    pub steps: u64,
    /// Events buffered on the calendar.
    pub queue_len: usize,
    /// How many of them were pushed at the current instant.
    pub queue: crate::queue::QueueStats,
}

/// World state driven by the event loop.
pub trait Model {
    type Event;

    /// Process one event at instant `now`, scheduling follow-ups via `out`.
    fn handle(&mut self, now: SimTime, event: Self::Event, out: &mut Outbox<Self::Event>);

    /// Opt in to per-event [`EngineStats`] observation. Checked (one bool
    /// test) after every `handle`; the default keeps the hot loop free of
    /// any self-observation cost.
    fn wants_engine_stats(&self) -> bool {
        false
    }

    /// Receive the engine snapshot taken after the event just handled. Only
    /// called when [`Model::wants_engine_stats`] returns true.
    fn observe_engine(&mut self, _stats: EngineStats) {}
}

/// Collector for events scheduled while handling the current event.
pub struct Outbox<E> {
    now: SimTime,
    items: Vec<(SimTime, E)>,
}

impl<E> Outbox<E> {
    /// Create a standalone outbox (for drivers injecting events from outside
    /// the event loop).
    pub fn standalone(now: SimTime) -> Self {
        Outbox {
            now,
            items: Vec::new(),
        }
    }

    /// Drain the collected events (standalone use).
    pub fn into_items(self) -> Vec<(SimTime, E)> {
        self.items
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event at an absolute instant. A target before `now` is
    /// rejected outright, in every build (R5, DESIGN.md §4.10): a model whose
    /// float arithmetic can land a "due" time behind the clock says
    /// `time.max(now)` at the site. An event landed in the past fails here
    /// immediately instead of corrupting a later export.
    pub fn at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: target {time:?} precedes now {:?}",
            self.now
        );
        self.items.push((time, event));
    }

    /// Schedule an event `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.items.push((self.now + delay, event));
    }

    /// Schedule an event for immediate processing (after already-queued
    /// events at the current instant).
    pub fn immediately(&mut self, event: E) {
        self.items.push((self.now, event));
    }
}

/// A discrete-event simulation: event calendar + model + clock.
pub struct Simulation<M: Model> {
    pub model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    steps: u64,
    /// The outbox buffer, kept between events so a turn allocates nothing.
    outbox: Vec<(SimTime, M::Event)>,
    /// Hard cap on processed events; guards against runaway event storms.
    pub max_steps: u64,
}

impl<M: Model> Simulation<M> {
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
            outbox: Vec::new(),
            max_steps: u64::MAX,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Schedule an event at an absolute instant; like [`Outbox::at`], a
    /// target before `now` is rejected.
    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        assert!(
            time >= self.now,
            "event scheduled in the past: target {time:?} precedes now {:?}",
            self.now
        );
        self.queue.push(time, event);
    }

    pub fn schedule_after(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Move every event collected in a standalone [`Outbox`] onto the
    /// calendar. The outbox enforced the past-time discipline against its
    /// own clock at insertion; one built against an older clock than this
    /// simulation's is rejected here.
    pub fn drain_outbox(&mut self, out: Outbox<M::Event>) {
        for (t, e) in out.into_items() {
            self.schedule(t, e);
        }
    }

    /// Release the calendar's spare capacity (see
    /// [`EventQueue::shrink_to_fit`]); for a driver to call between jobs.
    pub fn shrink_queue(&mut self) {
        self.queue.shrink_to_fit();
    }

    /// Process a single event. Returns `false` when the calendar is empty.
    /// Panics if the `max_steps` budget is exhausted; harnesses that must
    /// survive runaway models use [`Simulation::try_step`] instead.
    pub fn step(&mut self) -> bool {
        match self.try_step() {
            Ok(progressed) => progressed,
            Err(e) => panic!(
                "simulation exceeded max_steps={} (event storm?)",
                e.max_steps
            ),
        }
    }

    /// Like [`Simulation::step`], but reports an exhausted event budget as an
    /// error instead of panicking, so a fuzz harness can turn a runaway event
    /// storm into an ordinary oracle failure (DESIGN.md §4.13).
    pub fn try_step(&mut self) -> Result<bool, BudgetExhausted> {
        let Some((time, event)) = self.queue.pop() else {
            return Ok(false);
        };
        self.now = time;
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(BudgetExhausted {
                max_steps: self.max_steps,
            });
        }
        let mut out = Outbox {
            now: self.now,
            items: std::mem::take(&mut self.outbox),
        };
        self.model.handle(self.now, event, &mut out);
        for (t, e) in out.items.drain(..) {
            self.queue.push(t, e);
        }
        self.outbox = out.items;
        if self.model.wants_engine_stats() {
            let stats = EngineStats {
                steps: self.steps,
                queue_len: self.queue.len(),
                queue: self.queue.stats(),
            };
            self.model.observe_engine(stats);
        }
        Ok(true)
    }

    /// Run until the calendar drains. Returns the final clock value.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }
}

/// The event budget (`max_steps`) was exhausted before the calendar drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted {
    pub max_steps: u64,
}

/// Generation counter for the stale-event idiom.
///
/// A component that may need to "cancel" an in-flight event bumps its
/// generation on every state change; events carry the generation current at
/// scheduling time, and the handler drops events whose generation is stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gen(pub u64);

impl Gen {
    pub fn bump(&mut self) -> Gen {
        self.0 += 1;
        *self
    }

    pub fn is_current(self, other: Gen) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that chains events: each `Tick(n)` schedules `Tick(n-1)` one
    /// second later until zero.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl Model for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
            let Ev::Tick(n) = event;
            self.fired.push((now, n));
            if n > 0 {
                out.after(SimDuration::from_secs(1), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule(SimTime::from_secs_f64(2.0), Ev::Tick(3));
        let end = sim.run();
        assert_eq!(end, SimTime::from_secs_f64(5.0));
        assert_eq!(sim.model.fired.len(), 4);
        assert_eq!(sim.model.fired[0], (SimTime::from_secs_f64(2.0), 3));
        assert_eq!(sim.model.fired[3], (SimTime::from_secs_f64(5.0), 0));
        assert_eq!(sim.steps(), 4);
    }

    /// A model that schedules one deliberately past-time event.
    struct PastScheduler {
        got: Vec<SimTime>,
    }
    impl Model for PastScheduler {
        type Event = bool;
        fn handle(&mut self, now: SimTime, first: bool, out: &mut Outbox<bool>) {
            self.got.push(now);
            if first {
                out.at(SimTime::ZERO, false);
            }
        }
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_outbox_times_are_rejected() {
        let mut sim = Simulation::new(PastScheduler { got: vec![] });
        sim.schedule(SimTime::from_secs_f64(5.0), true);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_schedule_is_rejected() {
        let mut sim = Simulation::new(PastScheduler { got: vec![] });
        sim.schedule(SimTime::from_secs_f64(5.0), true);
        assert!(sim.step());
        // The clock now sits at t=5s; direct past-time scheduling trips too.
        sim.schedule(SimTime::from_secs_f64(1.0), false);
    }

    #[test]
    fn gen_staleness() {
        let mut g = Gen::default();
        let snap = g;
        assert!(snap.is_current(g));
        g.bump();
        assert!(!snap.is_current(g));
    }

    #[test]
    #[should_panic(expected = "max_steps")]
    fn step_cap_trips() {
        struct Loopy;
        impl Model for Loopy {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), out: &mut Outbox<()>) {
                out.immediately(());
            }
        }
        let mut sim = Simulation::new(Loopy);
        sim.max_steps = 1000;
        sim.schedule(SimTime::ZERO, ());
        sim.run();
    }
}
