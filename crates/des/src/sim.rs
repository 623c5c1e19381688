//! The simulation drive loop.
//!
//! A simulation is a [`Model`] (all mutable world state) plus an event
//! calendar. The model's `handle` receives one event at a time together with
//! an [`Outbox`] through which it schedules follow-up events. A component
//! whose next completion moves (the flow network's fair shares, a mount's
//! queue, the Lustre MDS) does not cancel the wake it scheduled: it keeps a
//! [`Gen`] generation counter, stamps each wake with it and bumps it only
//! where the next completion can move, so its last wake is its one live
//! wake and the model drops any wake whose generation no longer matches.

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
///
/// An event may also be *deferred*: pushed now, at its place among the
/// turn's events, and given its instant later in the same turn by
/// [`Outbox::stamp_deferred`]. A model whose wake instant depends on the
/// whole turn's mutations (the flow network's next completion) defers each
/// wake and answers all of them with one computation at the turn's end.
/// Every path that hands the outbox to the calendar checks that nothing is
/// left unstamped.
pub struct Outbox<E> {
    now: SimTime,
    items: Vec<(SimTime, E)>,
    /// Positions in `items` of the deferred events not yet stamped.
    deferred: Vec<usize>,
}

impl<E> Outbox<E> {
    /// Create a standalone outbox (for drivers injecting events from outside
    /// the event loop).
    pub fn standalone(now: SimTime) -> Self {
        Outbox {
            now,
            items: Vec::new(),
            deferred: Vec::new(),
        }
    }

    /// Drain the collected events (standalone use). Panics if a deferred
    /// event is still unstamped.
    pub fn into_items(self) -> Vec<(SimTime, E)> {
        self.assert_stamped();
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

    /// Schedule an event whose instant is not known yet. It keeps this push
    /// position: among the events of the instant it is stamped with, it
    /// pops where one scheduled here at that instant would.
    pub fn defer(&mut self, event: E) {
        self.deferred.push(self.items.len());
        self.items.push((SimTime::FAR_FUTURE, event));
    }

    /// Deferred events not yet stamped.
    pub fn deferred(&self) -> usize {
        self.deferred.len()
    }

    /// Give every deferred event the instant `time`, which like
    /// [`Outbox::at`]'s target may not precede `now` (R5).
    pub fn stamp_deferred(&mut self, time: SimTime) {
        assert!(
            time >= self.now,
            "deferred event stamped in the past: {time:?} precedes now {:?}",
            self.now
        );
        for i in self.deferred.drain(..) {
            self.items[i].0 = time;
        }
    }

    /// A deferred event that reaches the calendar unstamped would fire at
    /// [`SimTime::FAR_FUTURE`]: the model forgot to close its turn.
    fn assert_stamped(&self) {
        assert!(
            self.deferred.is_empty(),
            "{} deferred event(s) reached the calendar unstamped",
            self.deferred.len()
        );
    }
}

/// A discrete-event simulation: event calendar + model + clock.
pub struct Simulation<M: Model> {
    pub model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    steps: u64,
    /// The outbox, kept between events so a turn allocates nothing.
    out: Outbox<M::Event>,
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
            out: Outbox::standalone(SimTime::ZERO),
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
    #[expect(
        clippy::panic,
        reason = "the documented panicking twin of `try_step`, which reports the same budget as an `Err`"
    )]
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
        self.out.now = self.now;
        self.model.handle(self.now, event, &mut self.out);
        self.out.assert_stamped();
        for (t, e) in self.out.items.drain(..) {
            self.queue.push(t, e);
        }
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
/// A component that may need to "cancel" an in-flight wake bumps its
/// generation on every change that can move its next completion, and on no
/// other; wakes carry the generation current at scheduling time, and the
/// handler drops those whose generation is stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gen(pub u64);

impl Gen {
    pub fn bump(&mut self) {
        self.0 += 1;
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

    /// The `start` event defers a `wake`, then schedules `other` at the
    /// instant the turn stamps the wake with (unless `stamp` is off).
    struct Deferring {
        stamp: bool,
        got: Vec<(SimTime, &'static str)>,
    }
    impl Model for Deferring {
        type Event = &'static str;
        fn handle(&mut self, now: SimTime, ev: &'static str, out: &mut Outbox<&'static str>) {
            self.got.push((now, ev));
            if ev == "start" {
                let due = now + SimDuration::from_secs(2);
                out.defer("wake");
                out.at(due, "other");
                assert_eq!(out.deferred(), 1);
                if self.stamp {
                    out.stamp_deferred(due);
                    assert_eq!(out.deferred(), 0);
                }
            }
        }
    }

    #[test]
    fn a_deferred_event_pops_at_its_stamp_in_push_order() {
        let mut sim = Simulation::new(Deferring {
            stamp: true,
            got: vec![],
        });
        sim.schedule(SimTime::from_secs_f64(1.0), "start");
        sim.run();
        let at = SimTime::from_secs_f64(3.0);
        assert_eq!(
            sim.model.got,
            vec![
                (SimTime::from_secs_f64(1.0), "start"),
                (at, "wake"),
                (at, "other")
            ],
            "the wake was pushed first, so it pops first at the shared instant"
        );
    }

    #[test]
    #[should_panic(expected = "reached the calendar unstamped")]
    fn an_unstamped_deferred_event_is_rejected() {
        let mut sim = Simulation::new(Deferring {
            stamp: false,
            got: vec![],
        });
        sim.schedule(SimTime::ZERO, "start");
        sim.run();
    }

    #[test]
    #[should_panic(expected = "reached the calendar unstamped")]
    fn an_unstamped_standalone_outbox_is_rejected() {
        let mut out = Outbox::standalone(SimTime::ZERO);
        out.defer(());
        let _ = out.into_items();
    }

    #[test]
    #[should_panic(expected = "deferred event stamped in the past")]
    fn a_past_stamp_is_rejected() {
        let mut out = Outbox::standalone(SimTime::from_secs_f64(1.0));
        out.defer(());
        out.stamp_deferred(SimTime::ZERO);
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
