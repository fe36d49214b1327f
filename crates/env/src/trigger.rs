//! Triggered events: timeline entries whose firing condition is a
//! predicate over observable colony state rather than a round number.
//!
//! A [`Trigger`] pairs a [`Condition`] with an [`Event`]. At the end of
//! every round both engines summarize the colony into a [`ColonyView`]
//! and feed it to [`Trigger::observe`]; a trigger whose condition is
//! satisfied *arms* and its event fires at the start of the next round,
//! on the same reserved per-round `EVENT` stream as scripted one-shots
//! — so triggered runs keep the full bit-identity contract (serial ==
//! `run_parallel` == checkpoint-restore mid-script).
//!
//! The mutable part of a trigger (consecutive-round streaks, firing
//! count, cooldown bookkeeping, last-round deficits for the
//! rate-of-change conditions) lives in a separate [`TriggerState`] so
//! the scenario stays immutable config and checkpoints can carry the
//! runtime state verbatim.
//!
//! # Examples
//!
//! "Scramble the colony the moment it has looked settled for 16
//! consecutive rounds, at most twice, no sooner than 300 rounds apart":
//!
//! ```
//! use antalloc_env::{ColonyView, Condition, Event, Trigger, TriggerState};
//!
//! let trigger = Trigger {
//!     when: Condition::RegretBelow { threshold: 40, for_rounds: 16 },
//!     event: Event::Scramble,
//!     cooldown: 300,
//!     max_firings: 2,
//! };
//! let mut state = TriggerState::new(&trigger);
//! // 15 settled rounds: not yet.
//! for round in 1..=15 {
//!     let view = ColonyView { round, regret: 10, population: 500, idle: 3, deficits: &[5, 5] };
//!     assert!(!trigger.observe(&mut state, &view));
//! }
//! // The 16th arms it; the event fires at the start of round 17.
//! let view = ColonyView { round: 16, regret: 10, population: 500, idle: 3, deficits: &[5, 5] };
//! assert!(trigger.observe(&mut state, &view));
//! ```

use crate::timeline::Event;

/// The end-of-round colony summary a [`Condition`] is evaluated over.
///
/// Deliberately coarse: these are colony-level observables any
/// experiment harness can compute, not per-ant state — the adversary
/// reacts to what a observer of the system could see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColonyView<'a> {
    /// The round that just completed (1-based).
    pub round: u64,
    /// Instantaneous regret `r(t) = Σ|Δ(j)_t|` after this round.
    pub regret: u64,
    /// Ants alive after this round.
    pub population: usize,
    /// Idle ants after this round.
    pub idle: u64,
    /// Per-task deficits `Δ(j) = d(j) − W(j)` after this round, in task
    /// order (length `k`; the per-task conditions index into it).
    pub deficits: &'a [i64],
}

/// A predicate over a [`ColonyView`], composable with [`Condition::And`]
/// / [`Condition::Or`].
///
/// The `for_rounds` variants hold only after the inequality has held
/// for that many *consecutive* end-of-round views; the streak counters
/// live in [`TriggerState`] (one per streaked leaf, in pre-order),
/// reset whenever the inequality breaks and whenever the trigger
/// fires. The rate-of-change leaf additionally remembers the previous
/// round's deficit (also in [`TriggerState`], *not* reset on firing —
/// it is observation history, not accumulation).
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// Regret strictly above `threshold` for `for_rounds` consecutive
    /// rounds (the colony is visibly struggling).
    RegretAbove {
        /// Regret must exceed this.
        threshold: u64,
        /// ... for this many consecutive rounds (≥ 1).
        for_rounds: u32,
    },
    /// Regret strictly below `threshold` for `for_rounds` consecutive
    /// rounds (the adversarial "strike once it has settled").
    RegretBelow {
        /// Regret must stay under this.
        threshold: u64,
        /// ... for this many consecutive rounds (≥ 1).
        for_rounds: u32,
    },
    /// Population strictly below `threshold` ants.
    PopulationBelow {
        /// Ant count must be under this.
        threshold: usize,
    },
    /// The round counter has reached `round` (composes clock bounds
    /// into state predicates, e.g. "settled *and* past round 5000").
    RoundReached {
        /// Satisfied from this round on (≥ 1).
        round: u64,
    },
    /// Deficit of one task strictly above `threshold` for `for_rounds`
    /// consecutive rounds (that task is visibly starved; negative
    /// thresholds express "persistently overloaded below −t").
    DeficitAbove {
        /// Task index (0-based, must be `< k`).
        task: usize,
        /// Deficit must exceed this.
        threshold: i64,
        /// ... for this many consecutive rounds (≥ 1).
        for_rounds: u32,
    },
    /// Deficit of one task *rising* by strictly more than `min_rise`
    /// per round, for `for_rounds` consecutive rounds — a derivative
    /// condition that reacts to demand shocks before the absolute
    /// level clears any threshold. The first observed round never
    /// holds (there is no previous deficit to difference against).
    DeficitRateAbove {
        /// Task index (0-based, must be `< k`).
        task: usize,
        /// Round-over-round rise must exceed this (may be negative to
        /// mean "not falling faster than").
        min_rise: i64,
        /// ... for this many consecutive rounds (≥ 1).
        for_rounds: u32,
    },
    /// Both sub-conditions hold.
    And(Box<Condition>, Box<Condition>),
    /// Either sub-condition holds.
    Or(Box<Condition>, Box<Condition>),
}

/// Sentinel marking a rate leaf that has not yet observed a deficit
/// (checkpoints carry it verbatim, so a restored run differences
/// against exactly the rounds an uninterrupted run would have).
const PREV_UNSET: i64 = i64::MIN;

impl Condition {
    /// Number of streak counters this condition needs (one per
    /// `RegretAbove`/`RegretBelow`/`DeficitAbove`/`DeficitRateAbove`
    /// leaf, in pre-order).
    pub fn num_streaks(&self) -> usize {
        match self {
            Condition::RegretAbove { .. }
            | Condition::RegretBelow { .. }
            | Condition::DeficitAbove { .. }
            | Condition::DeficitRateAbove { .. } => 1,
            Condition::PopulationBelow { .. } | Condition::RoundReached { .. } => 0,
            Condition::And(a, b) | Condition::Or(a, b) => a.num_streaks() + b.num_streaks(),
        }
    }

    /// Number of previous-deficit slots this condition needs (one per
    /// `DeficitRateAbove` leaf, in pre-order).
    pub fn num_prevs(&self) -> usize {
        match self {
            Condition::DeficitRateAbove { .. } => 1,
            Condition::RegretAbove { .. }
            | Condition::RegretBelow { .. }
            | Condition::DeficitAbove { .. }
            | Condition::PopulationBelow { .. }
            | Condition::RoundReached { .. } => 0,
            Condition::And(a, b) | Condition::Or(a, b) => a.num_prevs() + b.num_prevs(),
        }
    }

    /// Evaluates against one view, advancing the streak counters and
    /// the previous-deficit history.
    ///
    /// Every leaf is evaluated every round — no boolean short-circuit —
    /// so streaks and histories advance identically whatever the
    /// surrounding `And`/`Or` structure evaluates to.
    fn eval(
        &self,
        view: &ColonyView<'_>,
        streaks: &mut [u32],
        next: &mut usize,
        prevs: &mut [i64],
        next_prev: &mut usize,
    ) -> bool {
        match self {
            Condition::RegretAbove {
                threshold,
                for_rounds,
            } => streak(view.regret > *threshold, *for_rounds, streaks, next),
            Condition::RegretBelow {
                threshold,
                for_rounds,
            } => streak(view.regret < *threshold, *for_rounds, streaks, next),
            Condition::PopulationBelow { threshold } => view.population < *threshold,
            Condition::RoundReached { round } => view.round >= *round,
            Condition::DeficitAbove {
                task,
                threshold,
                for_rounds,
            } => streak(
                view.deficits[*task] > *threshold,
                *for_rounds,
                streaks,
                next,
            ),
            Condition::DeficitRateAbove {
                task,
                min_rise,
                for_rounds,
            } => {
                let current = view.deficits[*task];
                let p = &mut prevs[*next_prev];
                *next_prev += 1;
                let held = *p != PREV_UNSET && current.saturating_sub(*p) > *min_rise;
                *p = current;
                streak(held, *for_rounds, streaks, next)
            }
            Condition::And(a, b) => {
                let left = a.eval(view, streaks, next, prevs, next_prev);
                let right = b.eval(view, streaks, next, prevs, next_prev);
                left && right
            }
            Condition::Or(a, b) => {
                let left = a.eval(view, streaks, next, prevs, next_prev);
                let right = b.eval(view, streaks, next, prevs, next_prev);
                left || right
            }
        }
    }

    /// Checks the condition's parameters against a colony with
    /// `num_tasks` tasks.
    ///
    /// Nesting is capped at 64 levels, well under the scenario parsers'
    /// nesting cap, so any condition that validates also round-trips
    /// through TOML, JSON and serialized checkpoints.
    pub(crate) fn validate(&self, num_tasks: usize) -> Result<(), String> {
        self.validate_at(0, num_tasks)
    }

    fn validate_at(&self, depth: u32, num_tasks: usize) -> Result<(), String> {
        if depth > 64 {
            return Err("condition nests deeper than 64 levels".into());
        }
        match self {
            Condition::RegretAbove { for_rounds, .. }
            | Condition::RegretBelow { for_rounds, .. } => {
                if *for_rounds == 0 {
                    return Err("for_rounds must be at least 1".into());
                }
                Ok(())
            }
            Condition::DeficitAbove {
                task, for_rounds, ..
            }
            | Condition::DeficitRateAbove {
                task, for_rounds, ..
            } => {
                if *task >= num_tasks {
                    return Err(format!(
                        "deficit condition references task {task}, colony has \
                         {num_tasks} tasks"
                    ));
                }
                if *for_rounds == 0 {
                    return Err("for_rounds must be at least 1".into());
                }
                Ok(())
            }
            Condition::PopulationBelow { threshold } => {
                if *threshold == 0 {
                    return Err("population-below threshold must be at least 1".into());
                }
                Ok(())
            }
            Condition::RoundReached { round } => {
                if *round == 0 {
                    return Err("round-reached round must be ≥ 1 (rounds are 1-based)".into());
                }
                Ok(())
            }
            Condition::And(a, b) | Condition::Or(a, b) => {
                a.validate_at(depth + 1, num_tasks)?;
                b.validate_at(depth + 1, num_tasks)
            }
        }
    }
}

/// Advances one streak counter and reports whether it reached
/// `for_rounds`.
fn streak(held: bool, for_rounds: u32, streaks: &mut [u32], next: &mut usize) -> bool {
    let s = &mut streaks[*next];
    *next += 1;
    if held {
        *s = s.saturating_add(1);
    } else {
        *s = 0;
    }
    *s >= for_rounds
}

/// A conditional timeline entry: `event` fires (at the start of the
/// next round) whenever `when` is satisfied by the end-of-round
/// [`ColonyView`], subject to `cooldown` and `max_firings`.
#[derive(Clone, Debug, PartialEq)]
pub struct Trigger {
    /// The firing condition.
    pub when: Condition,
    /// What happens when it fires.
    pub event: Event,
    /// Minimum rounds between firings (0 = none): after firing at
    /// round `f`, the trigger cannot re-arm before round `f + cooldown`
    /// completes. Streaks keep accumulating through the cooldown.
    pub cooldown: u64,
    /// Firing budget (0 = unlimited). An exhausted trigger stops
    /// observing entirely.
    pub max_firings: u32,
}

impl Trigger {
    /// A one-shot trigger (`max_firings = 1`, no cooldown).
    pub fn once(when: Condition, event: Event) -> Self {
        Self {
            when,
            event,
            cooldown: 0,
            max_firings: 1,
        }
    }

    /// Whether the firing budget is spent.
    pub fn exhausted(&self, state: &TriggerState) -> bool {
        self.max_firings != 0 && state.firings >= self.max_firings
    }

    /// Feeds one end-of-round view to the trigger. Returns whether the
    /// trigger is now armed (its event fires at the start of the next
    /// round).
    pub fn observe(&self, state: &mut TriggerState, view: &ColonyView<'_>) -> bool {
        if state.pending {
            return true;
        }
        if self.exhausted(state) {
            return false;
        }
        let mut next = 0;
        let mut next_prev = 0;
        let satisfied = self.when.eval(
            view,
            &mut state.streaks,
            &mut next,
            &mut state.prev_deficits,
            &mut next_prev,
        );
        debug_assert_eq!(next, state.streaks.len());
        debug_assert_eq!(next_prev, state.prev_deficits.len());
        let cooling = self.cooldown > 0
            && state.firings > 0
            && view.round < state.last_fired.saturating_add(self.cooldown);
        if satisfied && !cooling {
            state.pending = true;
        }
        state.pending
    }

    /// Records a firing at the start of `round`, disarming the trigger
    /// and resetting its streaks (so `for_rounds` re-accumulates).
    pub fn fire(&self, state: &mut TriggerState, round: u64) {
        debug_assert!(state.pending, "fire without arm");
        state.firings = state.firings.saturating_add(1);
        state.last_fired = round;
        state.pending = false;
        state.streaks.fill(0);
    }

    /// Checks the trigger against a colony with `num_tasks` tasks.
    ///
    /// Population tracking is *not* attempted for triggered kills —
    /// their firing rounds depend on the run — so, like kills inside
    /// cycles, they clamp at runtime (at least one ant survives).
    pub(crate) fn validate(&self, num_tasks: usize) -> Result<(), String> {
        self.when.validate(num_tasks)?;
        self.event.validate(num_tasks)
    }
}

/// The mutable runtime state of one [`Trigger`], carried by engines and
/// serialized into checkpoints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriggerState {
    /// Consecutive-round counters, one per streaked leaf of the
    /// condition (pre-order).
    pub streaks: Vec<u32>,
    /// Last observed deficit, one per `DeficitRateAbove` leaf of the
    /// condition (pre-order); `i64::MIN` marks "not yet observed".
    /// Unlike streaks, this is *not* cleared when the trigger fires.
    pub prev_deficits: Vec<i64>,
    /// Firings so far.
    pub firings: u32,
    /// Round of the last firing (0 = never fired).
    pub last_fired: u64,
    /// Armed at the end of the previous round: the event fires at the
    /// start of the next round.
    pub pending: bool,
}

impl TriggerState {
    /// Fresh state for `trigger` (streaks and deficit history sized to
    /// its condition).
    pub fn new(trigger: &Trigger) -> Self {
        Self {
            streaks: vec![0; trigger.when.num_streaks()],
            prev_deficits: vec![PREV_UNSET; trigger.when.num_prevs()],
            ..Self::default()
        }
    }

    /// Whether the state's shape matches `trigger` (checkpoint decode
    /// uses this to reject corrupted state sections).
    pub fn matches(&self, trigger: &Trigger) -> bool {
        self.streaks.len() == trigger.when.num_streaks()
            && self.prev_deficits.len() == trigger.when.num_prevs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(round: u64, regret: u64, population: usize) -> ColonyView<'static> {
        ColonyView {
            round,
            regret,
            population,
            idle: 0,
            deficits: &[],
        }
    }

    fn deficit_view(round: u64, deficits: &[i64]) -> ColonyView<'_> {
        ColonyView {
            round,
            regret: 0,
            population: 100,
            idle: 0,
            deficits,
        }
    }

    #[test]
    fn regret_streaks_require_consecutive_rounds() {
        let t = Trigger::once(
            Condition::RegretBelow {
                threshold: 10,
                for_rounds: 3,
            },
            Event::Scramble,
        );
        let mut s = TriggerState::new(&t);
        assert!(!t.observe(&mut s, &view(1, 5, 100)));
        assert!(!t.observe(&mut s, &view(2, 5, 100)));
        // Streak broken: restart.
        assert!(!t.observe(&mut s, &view(3, 50, 100)));
        assert!(!t.observe(&mut s, &view(4, 5, 100)));
        assert!(!t.observe(&mut s, &view(5, 5, 100)));
        assert!(t.observe(&mut s, &view(6, 5, 100)));
        assert!(s.pending);
    }

    #[test]
    fn max_firings_exhausts_the_trigger() {
        let t = Trigger {
            when: Condition::RegretAbove {
                threshold: 10,
                for_rounds: 1,
            },
            event: Event::Scramble,
            cooldown: 0,
            max_firings: 2,
        };
        let mut s = TriggerState::new(&t);
        let mut firings = 0;
        for round in 1..=10 {
            if t.observe(&mut s, &view(round, 100, 50)) {
                t.fire(&mut s, round + 1);
                firings += 1;
            }
        }
        assert_eq!(firings, 2);
        assert!(t.exhausted(&s));
    }

    #[test]
    fn cooldown_blocks_rearming_but_streaks_keep_counting() {
        let t = Trigger {
            when: Condition::RegretAbove {
                threshold: 10,
                for_rounds: 2,
            },
            event: Event::Scramble,
            cooldown: 5,
            max_firings: 0,
        };
        let mut s = TriggerState::new(&t);
        assert!(!t.observe(&mut s, &view(1, 99, 50)));
        assert!(t.observe(&mut s, &view(2, 99, 50)));
        t.fire(&mut s, 3);
        // Rounds 3..7 are inside the cooldown (3 + 5 = 8): never armed,
        // even though the streak is satisfied again from round 4 on.
        for round in 3..8 {
            assert!(!t.observe(&mut s, &view(round, 99, 50)), "round {round}");
        }
        // Round 8 is out of cooldown and the streak is long satisfied.
        assert!(t.observe(&mut s, &view(8, 99, 50)));
    }

    #[test]
    fn and_or_compose_and_update_all_streaks() {
        let c = Condition::And(
            Box::new(Condition::RegretBelow {
                threshold: 10,
                for_rounds: 2,
            }),
            Box::new(Condition::RoundReached { round: 5 }),
        );
        assert_eq!(c.num_streaks(), 1);
        let t = Trigger::once(c, Event::Scramble);
        let mut s = TriggerState::new(&t);
        // Settled well before round 5: the round gate holds it back,
        // but the streak accumulates, so round 5 arms immediately.
        for round in 1..5 {
            assert!(!t.observe(&mut s, &view(round, 0, 100)), "round {round}");
        }
        assert!(t.observe(&mut s, &view(5, 0, 100)));

        let c = Condition::Or(
            Box::new(Condition::PopulationBelow { threshold: 50 }),
            Box::new(Condition::RegretAbove {
                threshold: 1000,
                for_rounds: 1,
            }),
        );
        let t = Trigger::once(c, Event::Scramble);
        let mut s = TriggerState::new(&t);
        assert!(!t.observe(&mut s, &view(1, 0, 100)));
        assert!(t.observe(&mut s, &view(2, 0, 49)));
    }

    #[test]
    fn deficit_above_streaks_on_one_task() {
        let t = Trigger::once(
            Condition::DeficitAbove {
                task: 1,
                threshold: 10,
                for_rounds: 2,
            },
            Event::Scramble,
        );
        let mut s = TriggerState::new(&t);
        assert_eq!(s.streaks.len(), 1);
        assert!(s.prev_deficits.is_empty());
        // Task 0 starving is irrelevant; task 1 must hold for 2 rounds.
        assert!(!t.observe(&mut s, &deficit_view(1, &[99, 11])));
        assert!(!t.observe(&mut s, &deficit_view(2, &[99, 5])));
        assert!(!t.observe(&mut s, &deficit_view(3, &[0, 11])));
        assert!(t.observe(&mut s, &deficit_view(4, &[0, 12])));
    }

    #[test]
    fn deficit_rate_differences_consecutive_rounds() {
        let t = Trigger::once(
            Condition::DeficitRateAbove {
                task: 0,
                min_rise: 5,
                for_rounds: 2,
            },
            Event::Scramble,
        );
        let mut s = TriggerState::new(&t);
        assert_eq!(s.prev_deficits.len(), 1);
        // First observation can never hold: no previous deficit.
        assert!(!t.observe(&mut s, &deficit_view(1, &[100])));
        assert_eq!(s.prev_deficits, vec![100]);
        // +6 > 5 holds; a second consecutive +6 arms it.
        assert!(!t.observe(&mut s, &deficit_view(2, &[106])));
        assert!(t.observe(&mut s, &deficit_view(3, &[112])));
        t.fire(&mut s, 4);
        // Firing clears streaks but keeps the observation history.
        assert_eq!(s.streaks, vec![0]);
        assert_eq!(s.prev_deficits, vec![112]);

        // A flat or falling deficit breaks the streak.
        let t = Trigger::once(
            Condition::DeficitRateAbove {
                task: 0,
                min_rise: 0,
                for_rounds: 2,
            },
            Event::Scramble,
        );
        let mut s = TriggerState::new(&t);
        assert!(!t.observe(&mut s, &deficit_view(1, &[10])));
        assert!(!t.observe(&mut s, &deficit_view(2, &[11])));
        assert!(!t.observe(&mut s, &deficit_view(3, &[11])));
        assert!(!t.observe(&mut s, &deficit_view(4, &[12])));
        assert!(t.observe(&mut s, &deficit_view(5, &[13])));
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(Condition::RegretBelow {
            threshold: 5,
            for_rounds: 0
        }
        .validate(2)
        .is_err());
        assert!(Condition::RoundReached { round: 0 }.validate(2).is_err());
        assert!(Condition::PopulationBelow { threshold: 0 }
            .validate(2)
            .is_err());
        assert!(Condition::And(
            Box::new(Condition::RoundReached { round: 1 }),
            Box::new(Condition::RegretAbove {
                threshold: 1,
                for_rounds: 0
            }),
        )
        .validate(2)
        .is_err());
        // Deficit leaves check the task index and the streak length.
        assert!(Condition::DeficitAbove {
            task: 2,
            threshold: 0,
            for_rounds: 1
        }
        .validate(2)
        .unwrap_err()
        .contains("task 2"));
        assert!(Condition::DeficitRateAbove {
            task: 0,
            min_rise: 0,
            for_rounds: 0
        }
        .validate(2)
        .is_err());
        assert!(Condition::DeficitRateAbove {
            task: 1,
            min_rise: -3,
            for_rounds: 1
        }
        .validate(2)
        .is_ok());
        // Event payloads are validated too (task index out of range).
        let t = Trigger::once(Condition::RoundReached { round: 1 }, Event::StampedeTo(4));
        assert!(t.validate(2).is_err());
        let t = Trigger::once(Condition::RoundReached { round: 1 }, Event::Scramble);
        assert!(t.validate(2).is_ok());
        // Nesting past 64 levels is rejected up front: a condition that
        // validates must also fit under the scenario parsers' nesting
        // cap, so it round-trips through TOML, JSON and checkpoints.
        let mut deep = Condition::RoundReached { round: 1 };
        for _ in 0..70 {
            deep = Condition::And(
                Box::new(deep),
                Box::new(Condition::RoundReached { round: 1 }),
            );
        }
        assert!(deep.validate(2).unwrap_err().contains("64"));
    }

    #[test]
    fn state_shape_matches_condition() {
        let t = Trigger::once(
            Condition::And(
                Box::new(Condition::RegretAbove {
                    threshold: 1,
                    for_rounds: 2,
                }),
                Box::new(Condition::RegretBelow {
                    threshold: 9,
                    for_rounds: 3,
                }),
            ),
            Event::Scramble,
        );
        let s = TriggerState::new(&t);
        assert_eq!(s.streaks.len(), 2);
        assert!(s.matches(&t));
        let other = Trigger::once(Condition::RoundReached { round: 1 }, Event::Scramble);
        assert!(!s.matches(&other));
    }
}
