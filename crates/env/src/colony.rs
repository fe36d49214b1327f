//! Ground-truth colony bookkeeping: assignments, loads, deficits.

use crate::apply::{RoundDelta, TaskColumn};
use crate::assignment::Assignment;
use crate::demand::DemandVector;

/// The observable-by-nobody global state: who works where.
///
/// Assignments live in one packed u16 [`TaskColumn`] (idle =
/// [`Assignment::SLOT_IDLE`]), the one per-ant record of who is idle.
/// While the engine steps rounds it lends the column out
/// ([`ColonyState::take_column`]), step kernels update each ant's slot
/// in place, and each round's commutative [`RoundDelta`] folds into
/// loads and idle count via [`ColonyState::apply_round_delta`];
/// [`ColonyState::restore_column`] hands the column back. Loads are
/// maintained incrementally — applying one ant's decision is O(1) — and
/// a full recount is available as a (debug-asserted) consistency check.
#[derive(Clone, Debug)]
pub struct ColonyState {
    tasks: TaskColumn,
    loads: Vec<u32>,
    demands: DemandVector,
    idle: u32,
}

impl ColonyState {
    /// A colony of `n` ants, all initially idle.
    pub fn new(n: usize, demands: DemandVector) -> Self {
        assert!(n > 0, "empty colony");
        assert!(
            u32::try_from(n).is_ok(),
            "colony size must fit in u32 loads"
        );
        let k = demands.num_tasks();
        Self {
            tasks: TaskColumn::new(n),
            loads: vec![0; k],
            demands,
            idle: n as u32,
        }
    }

    /// Rebuilds the colony in place to `n` all-idle ants over `demands`,
    /// reusing the task column and load allocations (shrink
    /// keeps capacity, grow reallocates). The result is bit-identical to
    /// `ColonyState::new(n, DemandVector::new(demands.to_vec()))` — the
    /// contract the engine's `reset_from` reuse path rests on.
    pub fn rebuild_in(&mut self, n: usize, demands: &[u64]) {
        assert!(n > 0, "empty colony");
        assert!(
            u32::try_from(n).is_ok(),
            "colony size must fit in u32 loads"
        );
        self.tasks.reset(n);
        self.loads.clear();
        self.loads.resize(demands.len(), 0);
        self.demands.rebuild_in(demands);
        self.idle = n as u32;
        debug_assert!(self.recount_consistent());
    }

    /// Rebuilds the colony in place from a raw assignment column (one
    /// [`Assignment::to_raw`] value per ant) over `demands`, reusing the
    /// allocations, with loads and idle count recounted in one pass —
    /// the checkpoint-restore counterpart of
    /// [`ColonyState::rebuild_in`].
    ///
    /// # Panics
    /// If `raw` is empty, or holds a value that is neither
    /// [`Assignment::RAW_IDLE`] nor a task below `demands.len()`.
    pub fn restore_in(&mut self, raw: &[u32], demands: &[u64]) {
        let n = raw.len();
        assert!(n > 0, "empty colony");
        assert!(
            u32::try_from(n).is_ok(),
            "colony size must fit in u32 loads"
        );
        let k = demands.len();
        // Slot `k` counts idle ants and slot `k + 1` values out of
        // range, so the tally needs no branch.
        let mut counts = vec![0u32; k + 2];
        for &t in raw {
            let tally = match usize::try_from(t) {
                _ if t == Assignment::RAW_IDLE => k,
                Ok(j) if j < k => j,
                _ => k + 1,
            };
            counts[tally] += 1;
        }
        assert_eq!(counts.pop(), Some(0), "task index out of range");
        // Every value is now a task below `k` (so it fits) or idle.
        self.tasks.assign(
            raw.iter()
                .map(|&t| u16::try_from(t).unwrap_or(Assignment::SLOT_IDLE)),
        );
        self.idle = counts.pop().expect("k + 1 > 0");
        self.loads.clear();
        self.loads.extend_from_slice(&counts);
        self.demands.rebuild_in(demands);
        debug_assert!(self.recount_consistent());
    }

    /// Number of ants `n`.
    #[inline]
    pub fn num_ants(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks `k`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.loads.len()
    }

    /// Current load `W(j)`.
    #[inline]
    pub fn load(&self, j: usize) -> u64 {
        u64::from(self.loads[j])
    }

    /// All loads.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Number of idle ants.
    #[inline]
    pub fn idle_count(&self) -> u64 {
        u64::from(self.idle)
    }

    /// The demand vector.
    #[inline]
    pub fn demands(&self) -> &DemandVector {
        &self.demands
    }

    /// Mutable access to demands (for schedules).
    #[inline]
    pub fn demands_mut(&mut self) -> &mut DemandVector {
        &mut self.demands
    }

    /// Assignment of ant `i`.
    #[inline]
    pub fn assignment(&self, i: usize) -> Assignment {
        Assignment::from_slot(self.tasks.load(i as u32))
    }

    /// All assignments, decoded from the packed column.
    pub fn assignments(&self) -> Vec<Assignment> {
        (0..self.num_ants()).map(|i| self.assignment(i)).collect()
    }

    /// The current packed assignment column.
    #[inline]
    pub fn task_column(&self) -> &TaskColumn {
        &self.tasks
    }

    /// Takes the task column out of the colony for the duration of a
    /// stepping scope (participants share it, each updating its own
    /// ants' slots, while the coordinator keeps `&mut` access to the
    /// load/idle bookkeeping).
    /// The colony's per-ant accessors are unusable until
    /// [`ColonyState::restore_column`] puts a column back.
    pub fn take_column(&mut self) -> TaskColumn {
        core::mem::replace(&mut self.tasks, TaskColumn::new(0))
    }

    /// Restores the column after a stepping scope; the per-round deltas
    /// were already applied via [`ColonyState::apply_round_delta`].
    pub fn restore_column(&mut self, column: TaskColumn) {
        debug_assert!(self.tasks.is_empty(), "column already present");
        let mass: u64 =
            u64::from(self.idle) + self.loads.iter().map(|&w| u64::from(w)).sum::<u64>();
        assert_eq!(column.len() as u64, mass, "column length mismatch");
        self.tasks = column;
        debug_assert!(self.recount_consistent());
    }

    /// Deficit `Δ(j) = d(j) − W(j)` of task `j`.
    #[inline]
    pub fn deficit(&self, j: usize) -> i64 {
        self.demands.demand(j) as i64 - i64::from(self.loads[j])
    }

    /// Writes all deficits into `out` (resized to `k`).
    pub fn deficits_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend(
            self.demands
                .as_slice()
                .iter()
                .zip(&self.loads)
                .map(|(&d, &w)| d as i64 - i64::from(w)),
        );
    }

    /// Moves ant `i` to `next`, updating loads incrementally.
    #[inline]
    pub fn apply(&mut self, i: usize, next: Assignment) {
        let prev = self.assignment(i);
        if prev == next {
            return;
        }
        match prev {
            Assignment::Idle => self.idle -= 1,
            Assignment::Task(j) => self.loads[j as usize] -= 1,
        }
        match next {
            Assignment::Idle => self.idle += 1,
            Assignment::Task(j) => self.loads[j as usize] += 1,
        }
        self.tasks.store(i as u32, next.to_slot());
    }

    /// Folds one round delta into loads and idle count **without**
    /// touching the task column (the column is on loan via
    /// [`ColonyState::take_column`], where the kernels already updated
    /// it, until [`ColonyState::restore_column`] returns it). Mid-scope
    /// the task column is absent; loads and idle count are current.
    pub fn apply_round_delta(&mut self, delta: &RoundDelta) {
        assert_eq!(delta.load_deltas.len(), self.loads.len());
        for (load, &d) in self.loads.iter_mut().zip(&delta.load_deltas) {
            let nxt = i64::from(*load) + d;
            assert!(nxt >= 0, "load went negative");
            *load = u32::try_from(nxt).expect("load fits u32");
        }
        let idle = i64::from(self.idle) + delta.idle_delta;
        assert!(idle >= 0, "idle count went negative");
        self.idle = u32::try_from(idle).expect("idle fits u32");
    }

    /// Adds an idle ant; returns its index (self-stabilization under
    /// births).
    pub fn spawn_ant(&mut self) -> usize {
        let i = self.tasks.len();
        self.tasks.push(Assignment::SLOT_IDLE);
        self.idle += 1;
        i
    }

    /// Removes ant `i` by swap-removal; returns the index of the ant that
    /// moved into slot `i` (the previous last ant), if any. Callers must
    /// mirror the swap in any parallel per-ant arrays (controllers, arena
    /// positions).
    pub fn kill_ant(&mut self, i: usize) -> Option<usize> {
        match self.assignment(i) {
            Assignment::Idle => self.idle -= 1,
            Assignment::Task(j) => self.loads[j as usize] -= 1,
        }
        let last = self.tasks.len() - 1;
        self.tasks.swap_remove(i);
        (i < last).then_some(last)
    }

    /// Full recount of loads and idle count from the task column; true
    /// iff the incremental bookkeeping matches. Used by tests and debug
    /// asserts.
    pub fn recount_consistent(&self) -> bool {
        let mut loads = vec![0u32; self.loads.len()];
        let mut idle = 0u32;
        for i in 0..self.num_ants() {
            match self.assignment(i) {
                Assignment::Idle => idle += 1,
                Assignment::Task(j) => loads[j as usize] += 1,
            }
        }
        loads == self.loads && idle == self.idle
    }

    /// Regret of the current configuration: `r = Σ_j |Δ(j)|`.
    pub fn instant_regret(&self) -> u64 {
        self.demands
            .as_slice()
            .iter()
            .zip(&self.loads)
            .map(|(&d, &w)| (d as i64 - i64::from(w)).unsigned_abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::ColumnWriter;
    use proptest::prelude::*;

    fn colony() -> ColonyState {
        ColonyState::new(10, DemandVector::new(vec![3, 4]))
    }

    #[test]
    fn starts_all_idle() {
        let c = colony();
        assert_eq!(c.num_ants(), 10);
        assert_eq!(c.num_tasks(), 2);
        assert_eq!(c.idle_count(), 10);
        assert_eq!(c.load(0), 0);
        assert_eq!(c.deficit(0), 3);
        assert_eq!(c.instant_regret(), 7);
        assert!(c.recount_consistent());
    }

    #[test]
    #[should_panic(expected = "task index out of range")]
    fn restore_in_rejects_out_of_range_tasks() {
        colony().restore_in(&[0, 2, Assignment::RAW_IDLE], &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "task index out of range")]
    fn restore_in_rejects_tasks_past_the_u16_column() {
        colony().restore_in(&[0, 1 << 16], &[3, 4]);
    }

    #[test]
    fn apply_moves_load() {
        let mut c = colony();
        c.apply(0, Assignment::Task(1));
        c.apply(1, Assignment::Task(1));
        assert_eq!(c.load(1), 2);
        assert_eq!(c.idle_count(), 8);
        assert_eq!(c.deficit(1), 2);
        c.apply(0, Assignment::Task(0));
        assert_eq!(c.load(0), 1);
        assert_eq!(c.load(1), 1);
        c.apply(0, Assignment::Idle);
        assert_eq!(c.load(0), 0);
        assert_eq!(c.idle_count(), 9);
        assert!(c.recount_consistent());
        // No-op apply is a no-op.
        c.apply(5, Assignment::Idle);
        assert!(c.recount_consistent());
    }

    #[test]
    fn deficits_into_matches_deficit() {
        let mut c = colony();
        for i in 0..5 {
            c.apply(i, Assignment::Task(1));
        }
        let mut buf = Vec::new();
        c.deficits_into(&mut buf);
        assert_eq!(buf, vec![3, -1]);
        assert_eq!(c.deficit(1), -1);
        assert_eq!(c.instant_regret(), 4);
    }

    #[test]
    fn spawn_and_kill() {
        let mut c = colony();
        c.apply(9, Assignment::Task(0));
        let idx = c.spawn_ant();
        assert_eq!(idx, 10);
        assert_eq!(c.num_ants(), 11);
        assert_eq!(c.idle_count(), 10);
        // Kill the working ant 9: ant 10 swaps into slot 9.
        let moved = c.kill_ant(9);
        assert_eq!(moved, Some(10));
        assert_eq!(c.num_ants(), 10);
        assert_eq!(c.load(0), 0);
        assert!(c.recount_consistent());
        // Killing the last ant reports no swap.
        let last = c.num_ants() - 1;
        assert_eq!(c.kill_ant(last), None);
        assert!(c.recount_consistent());
    }

    #[test]
    fn spawn_kill_across_word_boundary() {
        let mut c = ColonyState::new(64, DemandVector::new(vec![10]));
        let idx = c.spawn_ant();
        assert_eq!(idx, 64);
        assert_eq!(c.idle_count(), 65);
        assert!(c.recount_consistent());
        c.apply(64, Assignment::Task(0));
        // Working ant 64 swaps into slot 0.
        assert_eq!(c.kill_ant(0), Some(64));
        assert_eq!(c.num_ants(), 64);
        assert_eq!(c.idle_count(), 63);
        assert_eq!(c.load(0), 1);
        assert_eq!(c.assignment(0), Assignment::Task(0));
        assert!(c.recount_consistent());
    }

    #[test]
    fn apply_round_delta_with_loaned_column() {
        let mut c = colony();
        // A stepping scope lends the one column out; two writers update
        // disjoint slots of it in place, and the colony tracks
        // loads/idle via their deltas only.
        let column = c.take_column();
        assert_eq!(c.num_ants(), 0, "column is on loan");
        let mut d0 = RoundDelta::new(2);
        let mut d1 = RoundDelta::new(2);
        for round in 0..2 {
            d0.reset(2);
            d1.reset(2);
            {
                let mut w = ColumnWriter::new(&column, &mut d0);
                for i in 0u32..5 {
                    w.write(i, round);
                }
            }
            {
                let mut w = ColumnWriter::new(&column, &mut d1);
                for i in 5u32..10 {
                    let t = if i == 5 { 1 } else { Assignment::SLOT_IDLE };
                    w.write(i, t);
                }
            }
            // Worker deltas merge in either order.
            c.apply_round_delta(&d1);
            c.apply_round_delta(&d0);
        }
        // Round 2 saw each writer's prior values in place: ants 0..5
        // moved task 0 → 1, ant 5 stayed on task 1, the rest stayed idle.
        assert_eq!((d0.switches(), d1.switches()), (5, 0));
        assert_eq!(c.load(0), 0);
        assert_eq!(c.load(1), 6);
        assert_eq!(c.idle_count(), 4);
        c.restore_column(column);
        assert_eq!(c.assignment(5), Assignment::Task(1));
        assert!(c.recount_consistent());
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn apply_round_delta_rejects_negative_load() {
        let mut c = colony();
        let mut d = RoundDelta::new(2);
        d.load_deltas[0] = -1;
        d.idle_delta = 1;
        c.apply_round_delta(&d);
    }

    proptest! {
        /// Any sequence of assignment moves keeps incremental bookkeeping
        /// (loads and idle count) consistent with a recount,
        /// and total mass conserved.
        #[test]
        fn bookkeeping_is_consistent(moves in proptest::collection::vec((0usize..10, 0u32..3), 0..200)) {
            let mut c = colony();
            for (ant, target) in moves {
                let next = if target == 2 { Assignment::Idle } else { Assignment::Task(target) };
                c.apply(ant, next);
                prop_assert!(c.recount_consistent());
                let mass = c.idle_count() + c.load(0) + c.load(1);
                prop_assert_eq!(mass, 10);
            }
        }

        /// Restoring from a raw column recounts exactly the state the
        /// per-ant `apply` calls build, whatever size the colony had.
        #[test]
        fn restore_in_matches_apply(
            targets in proptest::collection::vec(0u32..4, 1..150),
            before in 1usize..150,
        ) {
            let n = targets.len();
            let mut reference = ColonyState::new(n, DemandVector::new(vec![3, 4, 5]));
            let raw: Vec<u32> = targets
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let a = if t == 3 { Assignment::Idle } else { Assignment::Task(t) };
                    reference.apply(i, a);
                    a.to_raw()
                })
                .collect();
            let mut restored = ColonyState::new(before, DemandVector::new(vec![1, 2]));
            restored.restore_in(&raw, &[3, 4, 5]);
            prop_assert_eq!(restored.assignments(), reference.assignments());
            prop_assert_eq!(restored.loads(), reference.loads());
            prop_assert_eq!(restored.idle_count(), reference.idle_count());
            prop_assert_eq!(restored.demands(), reference.demands());
            prop_assert_eq!(restored.task_column().to_vec(), reference.task_column().to_vec());
        }

        /// Fused rounds over one column updated in place (column
        /// writes + one delta per round) end in the same state as the
        /// equivalent sequences of per-ant `apply` calls, and record the
        /// same switches.
        #[test]
        fn fused_round_matches_apply(
            rounds in proptest::collection::vec(proptest::collection::vec(0u32..4, 10), 1..5),
        ) {
            let mut fused = colony();
            let mut reference = colony();
            let column = fused.take_column();
            let mut delta = RoundDelta::new(2);
            for targets in &rounds {
                delta.reset(2);
                let mut switches = 0;
                {
                    let mut w = ColumnWriter::new(&column, &mut delta);
                    for (i, &t) in targets.iter().enumerate() {
                        let a = if t >= 2 { Assignment::Idle } else { Assignment::Task(t) };
                        w.write(i as u32, a.to_slot());
                        switches += u64::from(reference.assignment(i) != a);
                        reference.apply(i, a);
                    }
                }
                prop_assert_eq!(delta.switches(), switches);
                fused.apply_round_delta(&delta);
                prop_assert_eq!(fused.loads(), reference.loads());
                prop_assert_eq!(fused.idle_count(), reference.idle_count());
            }
            fused.restore_column(column);
            prop_assert_eq!(fused.assignments(), reference.assignments());
            prop_assert!(fused.recount_consistent());
        }
    }
}
