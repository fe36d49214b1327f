//! Event timelines: the unified dynamic-environment subsystem.
//!
//! A [`Timeline`] is an ordered stream of typed [`Event`]s — demand
//! steps, population shocks, noise-regime switches — plus periodic
//! [`Cycle`] generators for standing oscillations. Engines consume the
//! one-shot stream through a monotone cursor (O(1) per round, however
//! long the script) and evaluate cycles as pure functions of the round,
//! so a timeline-driven run stays a pure function of `(config, seed)`:
//! serial, parallel and checkpoint-restored runs replay bit-identically.
//!
//! This is the one way to script changing demands, population shocks
//! and noise-regime switches. Rounds are 1-based; events fire at the
//! *start* of their round, before any ant observes feedback.

use antalloc_noise::NoiseModel;
use antalloc_rng::{reserved, StreamSeeder};

use crate::gen::TimelineGen;
use crate::perturb::Perturbation;
use crate::trigger::{ColonyView, Trigger, TriggerState};

/// One typed mid-run change to the environment.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Replace the demand vector (the paper's "changing demands").
    SetDemands(Vec<u64>),
    /// Step the demand of a single task, leaving the others untouched —
    /// the site-local demand shock of the arena experiments (a
    /// whole-vector [`Event::SetDemands`] would have to restate every
    /// unchanged demand).
    SetTaskDemand {
        /// Task whose demand changes (0-based).
        task: usize,
        /// Its new demand (must be positive).
        demand: u64,
    },
    /// Kill this many ants, chosen uniformly at random (§6 population
    /// changes). Clamped at runtime so at least one ant survives.
    Kill {
        /// Number of ants to remove.
        count: usize,
    },
    /// Spawn this many new idle ants.
    Spawn {
        /// Number of ants to add.
        count: usize,
    },
    /// Re-draw every ant's assignment uniformly over `{idle, 1..k}`,
    /// leaving controller memory untouched.
    Scramble,
    /// Force every ant onto one task (the worst overload shock).
    StampedeTo(usize),
    /// Switch the feedback generator from this round on — a noise-regime
    /// change mid-run.
    SetNoise(NoiseModel),
}

impl Event {
    /// The equivalent colony-level [`Perturbation`], if this event is a
    /// population shock (`None` for demand and noise changes).
    pub fn as_perturbation(&self) -> Option<Perturbation> {
        match self {
            Event::Kill { count } => Some(Perturbation::KillRandom { count: *count }),
            Event::Spawn { count } => Some(Perturbation::Spawn { count: *count }),
            Event::Scramble => Some(Perturbation::Scramble),
            Event::StampedeTo(j) => Some(Perturbation::StampedeTo(*j)),
            Event::SetDemands(_) | Event::SetTaskDemand { .. } | Event::SetNoise(_) => None,
        }
    }

    /// Checks the event against a colony with `num_tasks` tasks.
    pub(crate) fn validate(&self, num_tasks: usize) -> Result<(), String> {
        match self {
            Event::SetDemands(demands) => {
                if demands.len() != num_tasks {
                    return Err(format!(
                        "set-demands vector has {} tasks, colony has {num_tasks}",
                        demands.len()
                    ));
                }
                if demands.contains(&0) {
                    return Err("set-demands contains a zero demand".into());
                }
                Ok(())
            }
            Event::SetTaskDemand { task, demand } => {
                if *task >= num_tasks {
                    return Err(format!(
                        "set-task-demand references task {task}, colony has \
                         {num_tasks} tasks"
                    ));
                }
                if *demand == 0 {
                    return Err("set-task-demand sets a zero demand".into());
                }
                Ok(())
            }
            Event::StampedeTo(j) => {
                if *j >= num_tasks {
                    return Err(format!(
                        "stampede-to references task {j}, colony has {num_tasks} tasks"
                    ));
                }
                Ok(())
            }
            Event::SetNoise(model) => model.validate(num_tasks),
            Event::Kill { .. } | Event::Spawn { .. } | Event::Scramble => Ok(()),
        }
    }
}

/// A one-shot event scheduled for a specific round.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// The round at which the event fires (rounds are 1-based).
    pub at: u64,
    /// What happens.
    pub event: Event,
}

/// A repeating generator: fires at rounds `start`, `start + period`,
/// `start + 2·period`, …, cycling through `events` one per firing.
///
/// Demands alternating between `a` and `b` every `h` rounds, starting
/// on `a`, are the two-event special case
/// `every(h, h, vec![SetDemands(b), SetDemands(a)])`.
#[derive(Clone, Debug, PartialEq)]
pub struct Cycle {
    /// First firing round (must be ≥ 1).
    pub start: u64,
    /// Rounds between firings (must be ≥ 1).
    pub period: u64,
    /// Events applied cyclically, one per firing.
    pub events: Vec<Event>,
}

impl Cycle {
    /// Whether the cycle fires at `round`.
    #[inline]
    pub fn fires_at(&self, round: u64) -> bool {
        round >= self.start && (round - self.start).is_multiple_of(self.period)
    }

    /// The event fired at `round` (caller checked [`Cycle::fires_at`]).
    #[inline]
    pub fn event_at(&self, round: u64) -> &Event {
        let i = (round - self.start) / self.period;
        &self.events[(i % self.events.len() as u64) as usize]
    }

    /// The earliest firing round strictly after `after`.
    fn next_firing(&self, after: u64) -> u64 {
        if after < self.start {
            self.start
        } else {
            self.start + self.period * ((after - self.start) / self.period + 1)
        }
    }
}

/// An ordered stream of one-shot events, periodic generators,
/// state-conditional [`Trigger`]s, and seeded random shock-schedule
/// [`TimelineGen`]s.
///
/// Empty timelines (the default) describe a static environment. Before
/// stepping, engines call [`Timeline::compile`] to expand the random
/// generators into concrete one-shot events (a pure function of the
/// scenario and the master seed); triggers keep their runtime state in
/// engine-owned [`TriggerState`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// One-shot events, sorted by non-decreasing `at` (several events
    /// may share a round; they apply in list order).
    pub events: Vec<TimedEvent>,
    /// Periodic generators, evaluated after the one-shots each round.
    pub cycles: Vec<Cycle>,
    /// Conditional events, evaluated from the end-of-round
    /// [`ColonyView`] and fired (after one-shots and cycles) at the
    /// start of the next round.
    pub triggers: Vec<Trigger>,
    /// Seeded random shock schedules, expanded into one-shot events by
    /// [`Timeline::compile`].
    pub generators: Vec<TimelineGen>,
}

/// The seeder of the generators' streams (one sub-stream each), from
/// the reserved `TIMELINE` stream.
fn generator_seeder(master_seed: u64) -> StreamSeeder {
    StreamSeeder::new(
        StreamSeeder::new(master_seed)
            .stream(reserved::TIMELINE)
            .next_u64(),
    )
}

impl Timeline {
    /// An empty (static-environment) timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a one-shot event (builder style). Events must be pushed
    /// in non-decreasing round order; validation enforces it.
    pub fn at(mut self, round: u64, event: Event) -> Self {
        self.events.push(TimedEvent { at: round, event });
        self
    }

    /// Appends a periodic generator (builder style).
    pub fn every(mut self, start: u64, period: u64, events: Vec<Event>) -> Self {
        self.cycles.push(Cycle {
            start,
            period,
            events,
        });
        self
    }

    /// Appends a conditional trigger (builder style); see [`Trigger`].
    pub fn trigger(mut self, trigger: Trigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// Appends a seeded shock-schedule generator (builder style); see
    /// [`TimelineGen`].
    pub fn generate(mut self, generator: TimelineGen) -> Self {
        self.generators.push(generator);
        self
    }

    /// Whether the timeline contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.cycles.is_empty()
            && self.triggers.is_empty()
            && self.generators.is_empty()
    }

    /// Whether any entry can fire at a round not known from the config
    /// alone (engines must then evaluate state after every round).
    pub fn has_triggers(&self) -> bool {
        !self.triggers.is_empty()
    }

    /// Expands the random generators into concrete one-shot events — a
    /// pure function of `(self, master_seed, n, base_demands)`, so the
    /// compiled timeline is identical however many times it is rebuilt
    /// (engine construction, checkpoint restore, parallel workers).
    ///
    /// Generator randomness comes from the reserved `TIMELINE` stream
    /// (one sub-stream per generator), never from ant streams; the
    /// merged one-shot list is stably sorted by round, scripted events
    /// ahead of generated ones at ties.
    pub fn compile(&self, master_seed: u64, n: usize, base_demands: &[u64]) -> Timeline {
        if self.generators.is_empty() {
            return self.clone();
        }
        let sub = generator_seeder(master_seed);
        let mut events = self.events.clone();
        for (i, generator) in self.generators.iter().enumerate() {
            let mut rng = sub.stream(i as u64);
            generator.events_into(&mut rng, n, base_demands, &mut events);
        }
        events.sort_by_key(|timed| timed.at);
        Timeline {
            events,
            cycles: self.cycles.clone(),
            triggers: self.triggers.clone(),
            generators: Vec::new(),
        }
    }

    /// `compile(master_seed, _, base_demands).events.len()` for
    /// `num_tasks = base_demands.len()`, without building or sorting an
    /// event: each generator replays its draws and counts its arrivals.
    pub fn compiled_len(&self, master_seed: u64, num_tasks: usize) -> usize {
        let sub = generator_seeder(master_seed);
        let generated = self
            .generators
            .iter()
            .enumerate()
            .map(|(i, generator)| generator.count_events(&mut sub.stream(i as u64), num_tasks));
        self.events.len() + generated.sum::<usize>()
    }

    /// Fresh runtime state for every trigger, in timeline order.
    pub fn initial_trigger_states(&self) -> Vec<TriggerState> {
        self.triggers.iter().map(TriggerState::new).collect()
    }

    /// Collects the events of every trigger armed at the end of the
    /// previous round (in timeline order, after one-shots and cycles),
    /// recording the firing in its state.
    pub fn fire_triggers_into(
        &self,
        round: u64,
        states: &mut [TriggerState],
        out: &mut Vec<Event>,
    ) {
        for (trigger, state) in self.triggers.iter().zip(states) {
            if state.pending {
                trigger.fire(state, round);
                out.push(trigger.event.clone());
            }
        }
    }

    /// Feeds one end-of-round view to every trigger. Returns whether
    /// any trigger is now armed (an event fires next round).
    pub fn observe_triggers(&self, states: &mut [TriggerState], view: &ColonyView<'_>) -> bool {
        let mut armed = false;
        for (trigger, state) in self.triggers.iter().zip(states) {
            armed |= trigger.observe(state, view);
        }
        armed
    }

    /// Validates the timeline against a colony of `n` ants and
    /// `num_tasks` tasks. Returns a description of the first problem:
    /// unsorted or round-zero events, demand-length mismatches, task
    /// indices out of range, kills that would empty the colony, bad
    /// noise parameters, degenerate cycles or generators. (Triggers are
    /// checked separately by [`Timeline::validate_triggers`].)
    ///
    /// Population tracking is exact over the scripted one-shot stream;
    /// kills inside cycles, triggers and generators cannot be tracked
    /// statically and instead clamp at runtime (at least one ant always
    /// survives).
    pub fn validate(&self, num_tasks: usize, n: usize) -> Result<(), String> {
        let mut prev = 0u64;
        let mut population = n as i128;
        for (i, timed) in self.events.iter().enumerate() {
            if timed.at == 0 {
                return Err(format!(
                    "event {i} fires at round 0; events fire at the start of a \
                     round and rounds are 1-based"
                ));
            }
            if timed.at < prev {
                return Err(format!(
                    "events must be sorted by round ({prev} then {} at event {i})",
                    timed.at
                ));
            }
            prev = timed.at;
            timed
                .event
                .validate(num_tasks)
                .map_err(|e| format!("event {i} (round {}): {e}", timed.at))?;
            match &timed.event {
                Event::Kill { count } => {
                    population -= *count as i128;
                    if population < 1 {
                        return Err(format!(
                            "event {i} (round {}): kill of {count} drops the \
                             population below 1",
                            timed.at
                        ));
                    }
                }
                Event::Spawn { count } => population += *count as i128,
                _ => {}
            }
        }
        for (i, cycle) in self.cycles.iter().enumerate() {
            if cycle.start == 0 {
                return Err(format!("cycle {i}: start must be ≥ 1 (rounds are 1-based)"));
            }
            if cycle.period == 0 {
                return Err(format!("cycle {i}: period must be positive"));
            }
            if cycle.events.is_empty() {
                return Err(format!("cycle {i}: needs at least one event"));
            }
            for (j, event) in cycle.events.iter().enumerate() {
                event
                    .validate(num_tasks)
                    .map_err(|e| format!("cycle {i} event {j}: {e}"))?;
            }
        }
        for (i, generator) in self.generators.iter().enumerate() {
            generator
                .validate()
                .map_err(|e| format!("generator {i}: {e}"))?;
        }
        Ok(())
    }

    /// Validates the conditional triggers against a colony with
    /// `num_tasks` tasks (reported separately from
    /// [`Timeline::validate`] so callers can surface trigger problems
    /// as their own error class).
    pub fn validate_triggers(&self, num_tasks: usize) -> Result<(), String> {
        for (i, trigger) in self.triggers.iter().enumerate() {
            trigger
                .validate(num_tasks)
                .map_err(|e| format!("trigger {i}: {e}"))?;
        }
        Ok(())
    }

    /// The earliest round strictly after `after` at which anything
    /// fires, given the one-shot cursor (`None` if the environment is
    /// static from here on). Engines use this to split parallel runs
    /// into event-free segments.
    pub fn next_firing(&self, after: u64, cursor: usize) -> Option<u64> {
        let mut next = self.events.get(cursor).map(|timed| timed.at.max(after + 1));
        for cycle in &self.cycles {
            let r = cycle.next_firing(after);
            next = Some(next.map_or(r, |n| n.min(r)));
        }
        next
    }

    /// Collects the events firing at `round` (one-shots in list order,
    /// then cycles in list order), advancing the cursor past every
    /// one-shot with `at ≤ round`.
    pub fn fire_into(&self, round: u64, cursor: &mut usize, out: &mut Vec<Event>) {
        while let Some(timed) = self.events.get(*cursor) {
            if timed.at > round {
                break;
            }
            if timed.at == round {
                out.push(timed.event.clone());
            }
            *cursor += 1;
        }
        for cycle in &self.cycles {
            if cycle.fires_at(round) {
                out.push(cycle.event_at(round).clone());
            }
        }
    }

    /// The cursor position after all rounds `≤ round` have fired — the
    /// recomputation used to cross-check checkpointed cursors.
    pub fn cursor_at(&self, round: u64) -> usize {
        self.events.partition_point(|timed| timed.at <= round)
    }

    /// Whether running `self` through round `round` produces the same
    /// environment history an uninterrupted run of `other` would have —
    /// the precondition for grafting a prefix of one timeline onto a
    /// continuation under another (sweep warm starts). Returns the
    /// first divergence as a human-readable reason, or `None` when the
    /// prefixes agree.
    ///
    /// Scripted one-shots with `at ≤ round` and cycles with
    /// `start ≤ round` must match exactly (they already fired, or
    /// started firing, in the prefix); later ones are free to differ.
    /// Triggers and generators must match *in full*: triggers carry
    /// runtime state accumulated over every round, and generators
    /// expand from the whole-run seed, so neither can be swapped
    /// mid-run.
    pub fn prefix_divergence(&self, other: &Timeline, round: u64) -> Option<String> {
        if self.triggers != other.triggers {
            return Some("triggers differ (trigger runtime state spans the whole run)".into());
        }
        if self.generators != other.generators {
            return Some("generators differ (schedules expand from the whole-run seed)".into());
        }
        let prefix = |t: &Timeline| -> Vec<TimedEvent> {
            t.events.iter().filter(|e| e.at <= round).cloned().collect()
        };
        if prefix(self) != prefix(other) {
            return Some(format!("one-shot events at or before round {round} differ"));
        }
        let started = |t: &Timeline| -> Vec<Cycle> {
            t.cycles
                .iter()
                .filter(|c| c.start <= round)
                .cloned()
                .collect()
        };
        if started(self) != started(other) {
            return Some(format!("cycles starting at or before round {round} differ"));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(t: &Timeline, round: u64, cursor: &mut usize) -> Vec<Event> {
        let mut out = Vec::new();
        t.fire_into(round, cursor, &mut out);
        out
    }

    #[test]
    fn one_shots_fire_once_in_order() {
        let t = Timeline::new()
            .at(5, Event::SetDemands(vec![1, 1]))
            .at(5, Event::Kill { count: 2 })
            .at(9, Event::Scramble);
        let mut cursor = 0;
        assert!(fired(&t, 4, &mut cursor).is_empty());
        assert_eq!(
            fired(&t, 5, &mut cursor),
            vec![Event::SetDemands(vec![1, 1]), Event::Kill { count: 2 }]
        );
        assert!(fired(&t, 6, &mut cursor).is_empty());
        assert_eq!(fired(&t, 9, &mut cursor), vec![Event::Scramble]);
        assert!(fired(&t, 10, &mut cursor).is_empty());
        assert_eq!(cursor, 3);
    }

    #[test]
    fn cycles_repeat_and_alternate() {
        let t = Timeline::new().every(
            4,
            4,
            vec![Event::SetDemands(vec![20]), Event::SetDemands(vec![10])],
        );
        let mut cursor = 0;
        assert!(fired(&t, 1, &mut cursor).is_empty());
        assert_eq!(fired(&t, 4, &mut cursor), vec![Event::SetDemands(vec![20])]);
        assert_eq!(fired(&t, 8, &mut cursor), vec![Event::SetDemands(vec![10])]);
        assert_eq!(
            fired(&t, 12, &mut cursor),
            vec![Event::SetDemands(vec![20])]
        );
    }

    #[test]
    fn next_firing_accounts_for_cursor_and_cycles() {
        let t = Timeline::new()
            .at(5, Event::Scramble)
            .every(8, 8, vec![Event::Spawn { count: 1 }]);
        assert_eq!(t.next_firing(0, 0), Some(5));
        assert_eq!(t.next_firing(5, 1), Some(8));
        assert_eq!(t.next_firing(8, 1), Some(16));
        let static_t = Timeline::new();
        assert_eq!(static_t.next_firing(0, 0), None);
    }

    #[test]
    fn cursor_recomputation_matches_firing() {
        let t = Timeline::new()
            .at(3, Event::Scramble)
            .at(3, Event::Kill { count: 1 })
            .at(7, Event::Spawn { count: 1 });
        let mut cursor = 0;
        for round in 1..=10 {
            let mut out = Vec::new();
            t.fire_into(round, &mut cursor, &mut out);
            assert_eq!(cursor, t.cursor_at(round), "round {round}");
        }
    }

    #[test]
    fn validation_catches_each_defect() {
        let k = 2;
        let n = 100;
        let ok = Timeline::new()
            .at(5, Event::Kill { count: 99 })
            .at(6, Event::Spawn { count: 50 });
        assert_eq!(ok.validate(k, n), Ok(()));

        // Unsorted.
        let t = Timeline::new()
            .at(9, Event::Scramble)
            .at(5, Event::Scramble);
        assert!(t.validate(k, n).unwrap_err().contains("sorted"));
        // Round zero.
        let t = Timeline::new().at(0, Event::Scramble);
        assert!(t.validate(k, n).unwrap_err().contains("1-based"));
        // Demand-length mismatch and zero demand.
        let t = Timeline::new().at(5, Event::SetDemands(vec![1]));
        assert!(t.validate(k, n).unwrap_err().contains("tasks"));
        let t = Timeline::new().at(5, Event::SetDemands(vec![1, 0]));
        assert!(t.validate(k, n).unwrap_err().contains("zero"));
        // Kill below zero population (tracked through spawns).
        let t = Timeline::new().at(5, Event::Kill { count: 100 });
        assert!(t.validate(k, n).unwrap_err().contains("below 1"));
        let t = Timeline::new()
            .at(4, Event::Spawn { count: 10 })
            .at(5, Event::Kill { count: 105 });
        assert_eq!(t.validate(k, n), Ok(()));
        // Task out of range.
        let t = Timeline::new().at(5, Event::StampedeTo(2));
        assert!(t.validate(k, n).unwrap_err().contains("stampede"));
        // Single-task demand step: bad index, zero demand.
        let t = Timeline::new().at(5, Event::SetTaskDemand { task: 2, demand: 7 });
        assert!(t.validate(k, n).unwrap_err().contains("set-task-demand"));
        let t = Timeline::new().at(5, Event::SetTaskDemand { task: 0, demand: 0 });
        assert!(t.validate(k, n).unwrap_err().contains("zero"));
        let t = Timeline::new().at(5, Event::SetTaskDemand { task: 1, demand: 7 });
        assert_eq!(t.validate(k, n), Ok(()));
        // Bad noise switch.
        let t = Timeline::new().at(5, Event::SetNoise(NoiseModel::Sigmoid { lambda: -1.0 }));
        assert!(t.validate(k, n).unwrap_err().contains("λ"));
        // Degenerate cycles.
        let t = Timeline::new().every(0, 4, vec![Event::Scramble]);
        assert!(t.validate(k, n).unwrap_err().contains("start"));
        let t = Timeline::new().every(4, 0, vec![Event::Scramble]);
        assert!(t.validate(k, n).unwrap_err().contains("period"));
        let t = Timeline::new().every(4, 4, vec![]);
        assert!(t.validate(k, n).unwrap_err().contains("at least one"));
    }

    #[test]
    fn compile_merges_generated_events_stably_sorted() {
        use crate::gen::{GenShock, TimelineGen};

        let t = Timeline::new()
            .at(5, Event::SetDemands(vec![1, 1]))
            .at(900, Event::Scramble)
            .generate(TimelineGen {
                start: 1,
                until: 1000,
                mean_gap: 50.0,
                shock: GenShock::Kill {
                    min_frac: 0.05,
                    max_frac: 0.1,
                },
            });
        let compiled = t.compile(99, 400, &[1, 1]);
        assert!(compiled.generators.is_empty());
        assert!(compiled.events.len() > 2, "generator produced arrivals");
        assert!(
            compiled.events.windows(2).all(|w| w[0].at <= w[1].at),
            "merged stream is sorted"
        );
        // Deterministic in the master seed; different seeds differ.
        assert_eq!(compiled, t.compile(99, 400, &[1, 1]));
        assert_ne!(compiled, t.compile(100, 400, &[1, 1]));
        // A generator-free timeline compiles to itself.
        let static_t = Timeline::new().at(5, Event::Scramble);
        assert_eq!(static_t.compile(99, 400, &[1, 1]), static_t);
    }

    #[test]
    fn prefix_divergence_splits_past_from_future() {
        use crate::gen::{GenShock, TimelineGen};
        use crate::trigger::{Condition, Trigger};

        let base = Timeline::new()
            .at(10, Event::Kill { count: 5 })
            .at(80, Event::Scramble)
            .every(20, 40, vec![Event::Scramble]);

        // Identical timelines agree at any split.
        assert_eq!(base.prefix_divergence(&base, 50), None);

        // Differences strictly after the split round are fine…
        let later = Timeline::new()
            .at(10, Event::Kill { count: 5 })
            .at(81, Event::SetDemands(vec![9, 9]))
            .every(20, 40, vec![Event::Scramble])
            .every(60, 10, vec![Event::Scramble]);
        assert_eq!(base.prefix_divergence(&later, 50), None);

        // …but the same differences inside the prefix are not.
        assert!(base.prefix_divergence(&later, 80).is_some());
        let early_cycle =
            Timeline::new()
                .at(10, Event::Kill { count: 5 })
                .every(30, 40, vec![Event::Scramble]);
        assert!(base.prefix_divergence(&early_cycle, 50).is_some());

        // An event *at* the split round has already fired: it is part
        // of the prefix.
        let at_split = Timeline::new().at(50, Event::Scramble);
        assert!(Timeline::new().prefix_divergence(&at_split, 50).is_some());
        assert_eq!(Timeline::new().prefix_divergence(&at_split, 49), None);

        // Triggers and generators diverge regardless of position.
        let with_trigger = base.clone().trigger(Trigger::once(
            Condition::RegretBelow {
                threshold: 10,
                for_rounds: 2,
            },
            Event::Scramble,
        ));
        assert!(base.prefix_divergence(&with_trigger, 1).is_some());
        let with_gen = base.clone().generate(TimelineGen {
            start: 900,
            until: 1000,
            mean_gap: 50.0,
            shock: GenShock::Kill {
                min_frac: 0.05,
                max_frac: 0.1,
            },
        });
        assert!(base.prefix_divergence(&with_gen, 1).is_some());
    }

    #[test]
    fn triggers_arm_at_end_of_round_and_fire_next_round() {
        use crate::trigger::{ColonyView, Condition, Trigger};

        let t = Timeline::new().trigger(Trigger::once(
            Condition::RegretBelow {
                threshold: 10,
                for_rounds: 2,
            },
            Event::Scramble,
        ));
        let mut states = t.initial_trigger_states();
        let view = |round, regret| ColonyView {
            round,
            regret,
            population: 100,
            idle: 0,
            deficits: &[],
        };
        assert!(!t.observe_triggers(&mut states, &view(1, 5)));
        assert!(t.observe_triggers(&mut states, &view(2, 5)));
        let mut out = Vec::new();
        t.fire_triggers_into(3, &mut states, &mut out);
        assert_eq!(out, vec![Event::Scramble]);
        assert!(!states[0].pending);
        assert_eq!(states[0].firings, 1);
        // One-shot budget spent: it never arms again.
        assert!(!t.observe_triggers(&mut states, &view(3, 5)));
        assert!(!t.observe_triggers(&mut states, &view(4, 5)));
    }

    #[test]
    fn trigger_and_generator_validation_is_routed() {
        use crate::gen::{GenShock, TimelineGen};
        use crate::trigger::{Condition, Trigger};

        let bad_trigger = Timeline::new().trigger(Trigger::once(
            Condition::RoundReached { round: 0 },
            Event::Scramble,
        ));
        assert!(
            bad_trigger.validate(2, 100).is_ok(),
            "triggers validate separately"
        );
        assert!(bad_trigger
            .validate_triggers(2)
            .unwrap_err()
            .contains("trigger 0"));

        let bad_gen = Timeline::new().generate(TimelineGen {
            start: 1,
            until: 0,
            mean_gap: 10.0,
            shock: GenShock::Scramble,
        });
        assert!(bad_gen
            .validate(2, 100)
            .unwrap_err()
            .contains("generator 0"));
    }
}
