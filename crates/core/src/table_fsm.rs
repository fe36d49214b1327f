//! Explicit probabilistic finite-state machines (Theorem 3.3 apparatus).
//!
//! The memory lower bound quantifies over *arbitrary* algorithms with at
//! most `c·log(1/ε)` bits, modelled as probabilistic FSMs whose non-zero
//! transition probabilities are bounded below (and which satisfy the
//! Assumption 2.2 reachability requirement). [`TableFsm`] runs any such
//! machine in the simulator, so the memory-floor experiments can sweep
//! machine families — the natural one being [`FsmSpec::hysteresis`],
//! which needs `h` consecutive contrary signals before switching and
//! uses `⌈log2(2h)⌉` bits.
//!
//! Table machines observe a *single* task (the lower bound's setting,
//! `k = O(1)`, is proved with demand vectors like `d = (√n, …)`).
//!
//! Engines run a colony of one machine as an [`FsmBank`]: the shared
//! spec plus one `u16` state per ant, the assignment derived from the
//! state.

use std::sync::Arc;

use antalloc_env::Assignment;
use antalloc_noise::{FeedbackProbe, RoundView};
use antalloc_rng::AntRng;

use crate::bank::{BankError, Stepping};
use crate::columns::soa_bank;
use crate::controller::Controller;

/// One weighted transition edge.
type Edge = (u16, f64);

/// The specification of a probabilistic Moore machine over the feedback
/// alphabet `{lack, overload}` of one task.
#[derive(Clone, Debug, PartialEq)]
pub struct FsmSpec {
    /// `working[s]` — does state `s` output `Task(0)` (else `Idle`)?
    working: Vec<bool>,
    /// `transitions[s][obs]` — weighted successor states; `obs` 0 = lack,
    /// 1 = overload. Weights sum to 1 per cell.
    transitions: Vec<[Vec<Edge>; 2]>,
}

/// Why a spec violates Assumption 2.2 (mutual reachability of states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReachabilityError {
    /// This state cannot be reached from state 0.
    UnreachableFromStart(u16),
    /// This state cannot reach state 0.
    CannotReturnToStart(u16),
    /// No state outputs `working` (or none outputs `idle`): the machine
    /// cannot realize both assignments, violating the spirit of 2.2.
    MissingOutput(&'static str),
}

impl FsmSpec {
    /// Builds and validates a spec.
    ///
    /// # Panics
    /// If shapes disagree, a cell is empty, weights don't sum to ~1, or a
    /// target state is out of range.
    pub fn new(working: Vec<bool>, transitions: Vec<[Vec<Edge>; 2]>) -> Self {
        let s = working.len();
        assert!(s >= 1 && s <= usize::from(u16::MAX), "1..=65535 states");
        assert_eq!(transitions.len(), s, "one transition row per state");
        for (i, row) in transitions.iter().enumerate() {
            for (obs, cell) in row.iter().enumerate() {
                assert!(!cell.is_empty(), "state {i} obs {obs}: empty cell");
                let total: f64 = cell.iter().map(|(_, p)| p).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "state {i} obs {obs}: weights sum to {total}"
                );
                for &(target, p) in cell {
                    assert!(
                        usize::from(target) < s,
                        "state {i}: target {target} out of range"
                    );
                    assert!(p >= 0.0, "negative probability");
                }
            }
        }
        Self {
            working,
            transitions,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.working.len()
    }

    /// Persistent memory of one machine in bits: its state index, the
    /// accounting [`TableFsm`] and [`FsmBank`] share.
    pub(crate) fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.num_states())
    }

    /// Whether state `s` outputs `Task(0)`.
    pub fn is_working(&self, s: u16) -> bool {
        self.working[usize::from(s)]
    }

    /// The assignment state `s` outputs.
    #[inline(always)]
    fn output(&self, s: u16) -> Assignment {
        if self.is_working(s) {
            Assignment::Task(0)
        } else {
            Assignment::Idle
        }
    }

    /// The state a machine forced into `a` enters: the first state whose
    /// output matches (state 0 fallback).
    fn entry_state(&self, a: Assignment) -> u16 {
        let want_working = !a.is_idle();
        (0..self.num_states() as u16)
            .find(|&s| self.is_working(s) == want_working)
            .unwrap_or(0)
    }

    /// The successor of state `s` on a `lack` (or `overload`) signal:
    /// a one-edge cell draws nothing, a weighted cell one `f64`.
    #[inline(always)]
    fn next_state(&self, s: u16, lack: bool, rng: &mut AntRng) -> u16 {
        let cell = &self.transitions[usize::from(s)][usize::from(!lack)];
        if cell.len() == 1 {
            return cell[0].0;
        }
        let mut x = rng.next_f64();
        for &(target, p) in cell {
            if x < p {
                return target;
            }
            x -= p;
        }
        cell[cell.len() - 1].0
    }

    /// Checks Assumption 2.2: every state must be reachable from every
    /// other via positive-probability transitions (under some feedback
    /// sequence), and both outputs must be realizable.
    pub fn check_reachability(&self) -> Result<(), ReachabilityError> {
        if !self.working.iter().any(|&w| w) {
            return Err(ReachabilityError::MissingOutput("no working state"));
        }
        if !self.working.iter().any(|&w| !w) {
            return Err(ReachabilityError::MissingOutput("no idle state"));
        }
        let s = self.num_states();
        // Forward reachability from state 0.
        let forward = self.bfs(0, false);
        if let Some(bad) = (0..s).find(|&i| !forward[i]) {
            return Err(ReachabilityError::UnreachableFromStart(bad as u16));
        }
        // Reverse reachability to state 0.
        let backward = self.bfs(0, true);
        if let Some(bad) = (0..s).find(|&i| !backward[i]) {
            return Err(ReachabilityError::CannotReturnToStart(bad as u16));
        }
        Ok(())
    }

    fn bfs(&self, start: u16, reverse: bool) -> Vec<bool> {
        let s = self.num_states();
        let mut adj: Vec<Vec<u16>> = vec![Vec::new(); s];
        for (from, row) in self.transitions.iter().enumerate() {
            for cell in row {
                for &(to, p) in cell {
                    if p > 0.0 {
                        if reverse {
                            adj[usize::from(to)].push(from as u16);
                        } else {
                            adj[from].push(to);
                        }
                    }
                }
            }
        }
        let mut seen = vec![false; s];
        let mut queue = vec![start];
        seen[usize::from(start)] = true;
        while let Some(u) = queue.pop() {
            for &v in &adj[usize::from(u)] {
                if !seen[usize::from(v)] {
                    seen[usize::from(v)] = true;
                    queue.push(v);
                }
            }
        }
        seen
    }

    /// The natural `2h`-state hysteresis machine: working states
    /// `W_0..W_{h−1}` (leave only after `h` consecutive overloads) and
    /// idle states `I_0..I_{h−1}` (join only after `h` consecutive
    /// lacks). `h = 1` degenerates to the trivial algorithm of
    /// Appendix D restricted to one task.
    pub fn hysteresis(depth: u16) -> Self {
        assert!(depth >= 1);
        let h = usize::from(depth);
        // States 0..h are W_0..W_{h−1}; h..2h are I_0..I_{h−1}.
        let mut working = vec![true; h];
        working.extend(std::iter::repeat_n(false, h));
        let mut transitions = Vec::with_capacity(2 * h);
        for c in 0..h {
            // W_c: lack → W_0; overload → W_{c+1} (or leave to I_0).
            let on_lack = vec![(0u16, 1.0)];
            let next = if c + 1 == h { h } else { c + 1 };
            let on_overload = vec![(next as u16, 1.0)];
            transitions.push([on_lack, on_overload]);
        }
        for c in 0..h {
            // I_c: overload → I_0; lack → I_{c+1} (or join to W_0).
            let next = if c + 1 == h { 0 } else { h + c + 1 };
            let on_lack = vec![(next as u16, 1.0)];
            let on_overload = vec![(h as u16, 1.0)];
            transitions.push([on_lack, on_overload]);
        }
        Self::new(working, transitions)
    }

    /// A lazy randomized variant of hysteresis: switching edges fire with
    /// probability `p_act` and otherwise hold (self-loop), modelling the
    /// "transition probabilities are 0 or at least p" machines the lower
    /// bound quantifies over.
    pub fn lazy_hysteresis(depth: u16, p_act: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_act) && p_act > 0.0);
        let base = Self::hysteresis(depth);
        let transitions = base
            .transitions
            .iter()
            .enumerate()
            .map(|(s, row)| {
                let lazify = |cell: &Vec<Edge>| -> Vec<Edge> {
                    let (target, _) = cell[0];
                    if usize::from(target) == s {
                        vec![(target, 1.0)]
                    } else {
                        vec![(target, p_act), (s as u16, 1.0 - p_act)]
                    }
                };
                [lazify(&row[0]), lazify(&row[1])]
            })
            .collect();
        Self::new(base.working, transitions)
    }
}

/// A running table machine: shared spec + private state.
#[derive(Clone, Debug)]
pub struct TableFsm {
    spec: Arc<FsmSpec>,
    state: u16,
}

impl TableFsm {
    /// Instantiates the machine in state 0.
    pub fn new(spec: Arc<FsmSpec>) -> Self {
        Self { spec, state: 0 }
    }

    /// The machine's current state.
    pub fn state(&self) -> u16 {
        self.state
    }

    /// The spec the machine runs.
    pub fn spec(&self) -> &Arc<FsmSpec> {
        &self.spec
    }
}

impl Controller for TableFsm {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        let lack = probe.sample(0).is_lack();
        self.state = self.spec.next_state(self.state, lack, probe.rng());
        self.assignment()
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        self.spec.output(self.state)
    }

    fn reset_to(&mut self, a: Assignment) {
        self.state = self.spec.entry_state(a);
    }

    fn memory_bits(&self) -> u32 {
        self.spec.memory_bits()
    }
}

soa_bank! {
    /// A homogeneous table-machine population: one shared spec and one
    /// state per ant.
    pub struct FsmBank(spec: Arc<FsmSpec>) {
        spec: Arc<FsmSpec> = spec,
    }
    /// A disjoint mutable chunk of an [`FsmBank`].
    pub struct FsmSliceMut<'a> {
        &spec: FsmSpec,
    }
    columns {
        /// Machine state per ant (fresh machines start in state 0).
        state: [u16] = 0 => AtMost(spec.num_states() as u64 - 1),
    }
}

impl FsmBank {
    /// Appends a per-ant machine, which must run the bank's spec.
    ///
    /// # Errors
    /// [`BankError::ParamsMismatch`] if the machine runs another spec.
    pub fn push_controller(&mut self, fsm: &TableFsm) -> Result<(), BankError> {
        if fsm.spec() != &self.spec {
            return Err(BankError::ParamsMismatch);
        }
        self.push_fresh();
        let slot = self.len() - 1;
        self.state[slot] = fsm.state();
        Ok(())
    }

    /// Reconstructs the per-ant machine at `slot` (lossless: its state
    /// gives its assignment, so `_a` — the colony's copy — is not read).
    pub fn to_controller(&self, slot: usize, _a: Assignment) -> TableFsm {
        TableFsm {
            spec: self.spec.clone(),
            state: self.state[slot],
        }
    }

    /// Forces the machine at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.state[slot] = self.spec.entry_state(a);
    }

    /// Persistent memory in bits (the per-ant impl's accounting,
    /// `FsmSpec::memory_bits`).
    pub fn memory_bits(&self) -> u32 {
        self.spec.memory_bits()
    }
}

impl FsmSliceMut<'_> {
    /// Steps every machine in the chunk through `stepping`;
    /// bit-identical to per-ant [`Controller::step`] on [`TableFsm`].
    /// A machine's state gives its assignment, so the prior one is not
    /// read.
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        stepping.run(
            self.len(),
            #[inline(always)]
            |i, _, view: RoundView<'_>, rng| {
                let lack = view.sample(0, rng).is_lack();
                self.state[i] = self.spec.next_state(self.state[i], lack, rng);
                self.spec.output(self.state[i]).to_slot()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_map::SlotMap;
    use antalloc_noise::NoiseModel;
    use antalloc_rng::AntRng;

    fn probe_round(round: u64, lack: bool) -> antalloc_noise::PreparedRound {
        NoiseModel::Exact.prepare(round, &[if lack { 1 } else { -1 }], &[10])
    }

    fn step(fsm: &mut TableFsm, round: u64, lack: bool, rng: &mut AntRng) -> Assignment {
        let prep = probe_round(round, lack);
        let mut probe = FeedbackProbe::new(&prep, rng);
        fsm.step(&mut probe)
    }

    #[test]
    fn hysteresis_needs_depth_consecutive_signals() {
        let spec = Arc::new(FsmSpec::hysteresis(3));
        let mut rng = AntRng::seed_from_u64(1);
        let mut fsm = TableFsm::new(spec);
        assert_eq!(fsm.assignment(), Assignment::Task(0));
        // Two overloads then a lack: stays working.
        step(&mut fsm, 1, false, &mut rng);
        step(&mut fsm, 2, false, &mut rng);
        assert_eq!(step(&mut fsm, 3, true, &mut rng), Assignment::Task(0));
        // Three consecutive overloads: leaves.
        step(&mut fsm, 4, false, &mut rng);
        step(&mut fsm, 5, false, &mut rng);
        assert_eq!(step(&mut fsm, 6, false, &mut rng), Assignment::Idle);
        // Three consecutive lacks: rejoins.
        step(&mut fsm, 7, true, &mut rng);
        step(&mut fsm, 8, true, &mut rng);
        assert_eq!(step(&mut fsm, 9, true, &mut rng), Assignment::Task(0));
    }

    #[test]
    fn hysteresis_depth_one_is_trivial_algorithm() {
        let spec = Arc::new(FsmSpec::hysteresis(1));
        let mut rng = AntRng::seed_from_u64(2);
        let mut fsm = TableFsm::new(spec);
        assert_eq!(step(&mut fsm, 1, false, &mut rng), Assignment::Idle);
        assert_eq!(step(&mut fsm, 2, true, &mut rng), Assignment::Task(0));
        assert_eq!(step(&mut fsm, 3, false, &mut rng), Assignment::Idle);
    }

    #[test]
    fn reachability_holds_for_hysteresis_family() {
        for depth in [1u16, 2, 3, 8, 16] {
            assert_eq!(FsmSpec::hysteresis(depth).check_reachability(), Ok(()));
            assert_eq!(
                FsmSpec::lazy_hysteresis(depth, 0.25).check_reachability(),
                Ok(())
            );
        }
    }

    #[test]
    fn reachability_rejects_sink_states() {
        // Two states, state 1 is absorbing: cannot return to 0.
        let spec = FsmSpec::new(
            vec![true, false],
            vec![
                [vec![(1, 1.0)], vec![(1, 1.0)]],
                [vec![(1, 1.0)], vec![(1, 1.0)]],
            ],
        );
        assert_eq!(
            spec.check_reachability(),
            Err(ReachabilityError::CannotReturnToStart(1))
        );
    }

    #[test]
    fn reachability_rejects_unreachable_states() {
        let spec = FsmSpec::new(
            vec![true, false, false],
            vec![
                [vec![(0, 1.0)], vec![(1, 1.0)]],
                [vec![(0, 1.0)], vec![(1, 1.0)]],
                [vec![(0, 1.0)], vec![(1, 1.0)]],
            ],
        );
        assert_eq!(
            spec.check_reachability(),
            Err(ReachabilityError::UnreachableFromStart(2))
        );
    }

    #[test]
    fn reachability_requires_both_outputs() {
        let spec = FsmSpec::new(vec![true], vec![[vec![(0, 1.0)], vec![(0, 1.0)]]]);
        assert_eq!(
            spec.check_reachability(),
            Err(ReachabilityError::MissingOutput("no idle state"))
        );
    }

    #[test]
    fn lazy_transitions_hold_with_complementary_probability() {
        let spec = Arc::new(FsmSpec::lazy_hysteresis(1, 0.25));
        // W_0 on overload moves to I_0 w.p. 0.25.
        let trials = 40_000u32;
        let mut moved = 0u32;
        for seed in 0..trials {
            let mut rng = AntRng::seed_from_u64(u64::from(seed));
            let mut fsm = TableFsm::new(spec.clone());
            if step(&mut fsm, 1, false, &mut rng).is_idle() {
                moved += 1;
            }
        }
        let freq = f64::from(moved) / f64::from(trials);
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn reset_lands_on_matching_output() {
        let spec = Arc::new(FsmSpec::hysteresis(2));
        let mut fsm = TableFsm::new(spec);
        fsm.reset_to(Assignment::Idle);
        assert!(fsm.assignment().is_idle());
        fsm.reset_to(Assignment::Task(0));
        assert_eq!(fsm.assignment(), Assignment::Task(0));
    }

    /// The bank against per-ant machines, round for round, on one task
    /// (lazy edges draw, strict ones do not), through `step_batch` and,
    /// on a twin bank, `step_slot`; a mid-run reset of every ant and a
    /// spawned machine included.
    #[test]
    fn fsm_bank_matches_per_ant_stepping() {
        use crate::{AnyController, ControllerBank};
        use antalloc_rng::StreamSeeder;

        let spec = Arc::new(FsmSpec::lazy_hysteresis(3, 0.5));
        let n = 150;
        let seeder = StreamSeeder::new(31);
        let mut fsm_bank = FsmBank::new(spec.clone(), n - 1);
        fsm_bank.push_fresh();
        let mut bank = ControllerBank::Table(fsm_bank);
        let mut twin = bank.clone();
        let mut reference: Vec<TableFsm> = (0..n).map(|_| TableFsm::new(spec.clone())).collect();
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=120u64 {
            if round == 60 {
                for (i, fsm) in reference.iter_mut().enumerate() {
                    let a = [Assignment::Idle, Assignment::Task(0)][i % 2];
                    fsm.reset_to(a);
                    bank.reset_slot(i, a);
                    twin.reset_slot(i, a);
                    out[i] = a;
                }
            }
            let prepared = model.prepare(round, &[(round % 7) as i64 - 3], &[40]);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            let before = out.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, fsm) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(fsm.step(&mut probe), out[i], "machine {i} round {round}");
                let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round}");
            }
        }
        for (i, fsm) in reference.iter().enumerate() {
            let AnyController::Table(back) = bank.to_any(i, out[i]) else {
                unreachable!("a table bank rebuilds table machines");
            };
            assert_eq!(back.state(), fsm.state(), "machine {i}");
        }
    }

    #[test]
    fn fsm_bank_push_and_swap_remove_roundtrip() {
        let spec = Arc::new(FsmSpec::hysteresis(2));
        let mut bank = FsmBank::new(spec.clone(), 0);
        for state in [1u16, 3, 2] {
            let mut fsm = TableFsm::new(spec.clone());
            fsm.state = state;
            bank.push_controller(&fsm).unwrap();
        }
        let back = bank.to_controller(1, Assignment::Idle);
        assert_eq!(back.state(), 3);
        assert!(back.assignment().is_idle());
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        let states: Vec<u16> = (0..bank.len())
            .map(|s| bank.to_controller(s, Assignment::Idle).state())
            .collect();
        assert_eq!(states, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "weights sum")]
    fn spec_rejects_bad_weights() {
        FsmSpec::new(
            vec![true, false],
            vec![
                [vec![(0, 0.5)], vec![(1, 1.0)]],
                [vec![(0, 1.0)], vec![(1, 1.0)]],
            ],
        );
    }

    #[test]
    fn memory_bits_is_log_states() {
        let fsm = TableFsm::new(Arc::new(FsmSpec::hysteresis(4)));
        assert_eq!(fsm.memory_bits(), 3); // 8 states.
    }
}
