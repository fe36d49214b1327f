//! Structure-of-arrays bank for §5 Algorithm Precise Sigmoid.
//!
//! A Precise Sigmoid ant is mostly counters: two `u16` `lack` counts
//! and one frozen median bit per task, incremented every round of a
//! `2m`-round phase. The per-ant struct layout scatters those counters
//! across three heap allocations per ant; this bank transposes them
//! into flat planes — `count1`/`count2` as `n × k` `u16` arrays and the
//! frozen medians as one bit row per ant (with the phase flag past
//! them, see [`crate::bit_row`]), each ant's rows contiguous so the idle
//! path (which touches all `k` entries) streams one cache line instead
//! of chasing three pointers. The idle path's full-vector sample draws
//! through the batched [`RoundView::fill_lack`].
//!
//! **Reference semantics.** [`crate::PreciseSigmoid`] is the truth; the
//! bank consumes every ant's RNG stream in exactly the order
//! `Controller::step` would (samples in task order, then the
//! pause/leave/join coins with the same short-circuits), so bank runs
//! are bit-identical to per-ant runs — pinned by `tests/banks.rs`.
//!
//! Checkpoints store the bank's columns as they are (the colony's task
//! column holds the assignment), so a capture *between* phase
//! boundaries — phases are `2m = O(1/ε)` rounds long — resumes
//! mid-phase bit-identically.

use antalloc_env::Assignment;
use antalloc_noise::RoundView;
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::nth_where;
use crate::bank::{fits, BankError, Stepping};
use crate::bit_row;
use crate::cast::{dec, enc, task_ix, IDLE};
use crate::columns::{self, soa_bank};
use crate::controller::Controller;
use crate::params::PreciseSigmoidParams;
use crate::precise_sigmoid::{PreciseSigmoid, SigmoidScratch};

soa_bank! {
    /// A homogeneous Precise Sigmoid population in structure-of-arrays
    /// layout.
    pub struct PreciseSigmoidBank(num_tasks: usize, params: PreciseSigmoidParams) {
        params: PreciseSigmoidParams = params,
    }
    /// A disjoint mutable chunk of a [`PreciseSigmoidBank`].
    pub struct SigmoidSliceMut<'a> {
        m: u64 = counter_m(&params),
        pause: Bernoulli = Bernoulli::new(params.pause_probability()),
        leave: Bernoulli = Bernoulli::new(params.leave_probability()),
        num_tasks: usize = columns::tasks(num_tasks),
        /// Bytes per bit row.
        width: usize = bit_row::width(num_tasks + 1),
    }
    columns {
        /// `currentTask` per ant (`IDLE` when idle).
        current: [u16] = IDLE => Task(num_tasks),
        /// First-half `lack` counts, ant-major `num_tasks` entries per ant.
        count1: [u16; num_tasks] = 0 => AtMost(m),
        /// Second-half `lack` counts, same shape.
        count2: [u16; num_tasks] = 0 => AtMost(m),
        /// One bit row per ant: the frozen first-half medians in bits
        /// `0..k` (1 = lack), then the phase-observed-from-start flag
        /// ([`HAVE_PHASE`]).
        bits: [u8; width] = 0 => Row(num_tasks + 1),
    }
}

/// Bit of a Precise Sigmoid row past the `k` medians: the ant observed
/// its phase from the start.
const HAVE_PHASE: usize = 0;

/// The half-phase length `m` of `params`, checked to fit the `u16`
/// counters.
fn counter_m(params: &PreciseSigmoidParams) -> u64 {
    let m = params.m();
    assert!(m <= u64::from(u16::MAX), "m too large for u16 counters");
    m
}

impl PreciseSigmoidBank {
    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &PreciseSigmoidParams {
        &self.params
    }

    /// Appends a per-ant controller, transposing its state in (all but
    /// its assignment, which the colony's task column holds).
    ///
    /// # Errors
    /// If the ant runs other parameters or observes another number of
    /// tasks (see [`crate::ControllerBank::push`]).
    pub fn push_controller(&mut self, ant: &PreciseSigmoid) -> Result<(), BankError> {
        fits(
            (self.num_tasks, &self.params),
            (ant.num_tasks(), ant.params()),
        )?;
        self.push_fresh();
        self.apply_scratch(self.len() - 1, &ant.scratch());
        Ok(())
    }

    /// Reconstructs the per-ant controller at `slot`, whose assignment
    /// is `a` (reference extraction; lossless for the whole state,
    /// counters included).
    pub fn to_controller(&self, slot: usize, a: Assignment) -> PreciseSigmoid {
        let mut ant = PreciseSigmoid::new(self.num_tasks, self.params);
        ant.reset_to(a);
        ant.apply_scratch(&self.scratch(slot));
        ant
    }

    /// The mid-phase counter state of the ant at `slot` (see
    /// [`SigmoidScratch`]).
    fn scratch(&self, slot: usize) -> SigmoidScratch {
        let (k, w) = (self.num_tasks, self.width);
        let counts = slot * k..slot * k + k;
        let row = &self.bits[slot * w..slot * w + w];
        SigmoidScratch {
            current_task: dec(self.current[slot]),
            have_phase: bit_row::get(row, k + HAVE_PHASE),
            count1: self.count1[counts.clone()].to_vec(),
            count2: self.count2[counts].to_vec(),
            shat1_lack: (0..k).map(|j| bit_row::get(row, j)).collect(),
        }
    }

    /// Overwrites the counter state of the ant at `slot`.
    ///
    /// # Panics
    /// If the scratch's task count disagrees with the bank's.
    fn apply_scratch(&mut self, slot: usize, s: &SigmoidScratch) {
        let k = self.num_tasks;
        assert_eq!(s.shat1_lack.len(), k, "task count mismatch");
        let counts = slot * k..slot * k + k;
        self.current[slot] = enc(s.current_task);
        self.count1[counts.clone()].copy_from_slice(&s.count1);
        self.count2[counts].copy_from_slice(&s.count2);
        let w = self.width;
        // The medians, then the HAVE_PHASE flag.
        let row = &mut self.bits[slot * w..slot * w + w];
        bit_row::pack(row, s.shat1_lack.iter().copied().chain([s.have_phase]));
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.current[slot] = enc(a);
        let (k, w) = (self.num_tasks, self.width);
        bit_row::set(
            &mut self.bits[slot * w..slot * w + w],
            k + HAVE_PHASE,
            false,
        );
    }

    /// Persistent memory in bits (the shared accounting — identical to
    /// the per-ant impl by construction).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::sigmoid_memory_bits(self.num_tasks, self.m)
    }
}

impl SigmoidSliceMut<'_> {
    /// Steps every ant in the chunk through `stepping`; bit-identical to
    /// per-ant [`Controller::step`] on [`PreciseSigmoid`]. The phase
    /// position is computed once for the whole chunk (all ants share
    /// the global clock).
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let r = stepping.round() % (2 * self.m);
        // Stack scratch for the common ≤ 64-task case; one heap buffer
        // per chunk beyond that.
        let mut stack = [0u8; 64];
        let mut heap = Vec::new();
        let row: &mut [u8] = if self.num_tasks <= 64 {
            &mut stack[..self.num_tasks]
        } else {
            heap.resize(self.num_tasks, 0);
            &mut heap
        };
        stepping.run(
            n,
            #[inline(always)]
            |i, prev, view, rng| self.step_one(i, prev, r, view, rng, row),
        );
    }

    /// One ant's round from assignment `prev` at phase position
    /// `r = round mod 2m`, mirroring [`PreciseSigmoid::step`] clause for
    /// clause.
    #[inline(always)]
    fn step_one(
        &mut self,
        i: usize,
        prev: u16,
        r: u64,
        view: RoundView<'_>,
        rng: &mut AntRng,
        row: &mut [u8],
    ) -> u16 {
        let (k, w) = (self.num_tasks, self.width);
        let bits = &mut self.bits[i * w..i * w + w];
        let count1 = &mut self.count1[i * k..i * k + k];
        let count2 = &mut self.count2[i * k..i * k + k];
        if r == 1 {
            // Phase start: adopt a_{t−1} as currentTask, reset counters.
            self.current[i] = prev;
            count1.fill(0);
            count2.fill(0);
            bit_row::set(bits, k + HAVE_PHASE, true);
        }
        if !bit_row::get(bits, k + HAVE_PHASE) {
            // Joined mid-phase (reset); idle out the remainder.
            return prev;
        }
        let first_half = (1..=self.m).contains(&r);
        let cur = self.current[i];
        {
            // sample_into: one draw for the current task, or the batched
            // full-vector draw on the idle path.
            let counts = if first_half {
                &mut *count1
            } else {
                &mut *count2
            };
            if cur != IDLE {
                let t = task_ix(cur);
                counts[t] += u16::from(view.sample(t, rng).is_lack());
            } else {
                view.fill_lack(rng, row);
                for (c, &lack) in counts.iter_mut().zip(row.iter()) {
                    *c += u16::from(lack);
                }
            }
        }
        let m = self.m;
        let median_is_lack = move |count: u16| u64::from(count) * 2 > m;
        if r == self.m {
            // Freeze ŝ1 and take the temporary pause.
            for (j, &c) in count1.iter().enumerate() {
                bit_row::set(bits, j, median_is_lack(c));
            }
            if cur != IDLE {
                return if self.pause.sample(rng) { IDLE } else { cur };
            }
        } else if r == 0 {
            // Phase end: compute ŝ2 and decide, exactly as Algorithm Ant.
            bit_row::set(bits, k + HAVE_PHASE, false);
            return if cur == IDLE {
                let joinable = |j: usize| bit_row::get(bits, j) && median_is_lack(count2[j]);
                match (0..k).filter(|&j| joinable(j)).count() {
                    0 => IDLE,
                    count => nth_where(k, uniform_index(rng, count), joinable),
                }
            } else {
                let t = task_ix(cur);
                let both_overload = !bit_row::get(bits, t) && !median_is_lack(count2[t]);
                if both_overload && self.leave.sample(rng) {
                    IDLE
                } else {
                    cur
                }
            };
        }
        // All other rounds: keep the current assignment (a_t ← a_{t−1}).
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_map::SlotMap;
    use crate::{AnyController, ControllerBank};
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    /// The SoA bank against the per-ant reference, round for round,
    /// across several full phases (joins, leaves, pauses, mid-phase
    /// resets) — including reconstruction losslessness mid-phase —
    /// through the chunk loop (`step_batch`) and, on a twin bank, one
    /// slot at a time (`step_slot`, the sequential model's path), at 2
    /// tasks and at 65 (past the 64-entry stack row).
    #[test]
    fn soa_bank_matches_per_ant_stepping() {
        for k in [2, 65] {
            soa_bank_matches_per_ant_stepping_at(k);
        }
    }

    fn soa_bank_matches_per_ant_stepping_at(k: usize) {
        let n = 80;
        let params = PreciseSigmoidParams::new(0.05, 0.5); // phase 82
        let seeder = StreamSeeder::new(23);
        let mut bank = ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(k, params, n));
        let mut twin = bank.clone();
        let mut reference: Vec<PreciseSigmoid> =
            (0..n).map(|_| PreciseSigmoid::new(k, params)).collect();
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let deficits: Vec<i64> = (0..k).map(|j| [5, -5][j % 2]).collect();
        let loads = vec![25; k];
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=200u64 {
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            let before = out.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
            if round == 137 {
                // Mid-phase reconstruction: counters must come out
                // losslessly, so a rebuilt ant continues in lockstep.
                for (i, ant) in reference.iter().enumerate() {
                    let AnyController::PreciseSigmoid(rebuilt) = bank.to_any(i, out[i]) else {
                        unreachable!("a Precise Sigmoid bank rebuilds Precise Sigmoid ants");
                    };
                    assert_eq!(rebuilt.scratch(), ant.scratch(), "ant {i}");
                    assert_eq!(rebuilt.assignment(), ant.assignment());
                    let AnyController::PreciseSigmoid(twin) = twin.to_any(i, out[i]) else {
                        unreachable!("a Precise Sigmoid bank rebuilds Precise Sigmoid ants");
                    };
                    assert_eq!(twin.scratch(), ant.scratch(), "slot {i}");
                }
            }
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip_mid_phase() {
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut ant = PreciseSigmoid::new(2, params);
        let mut rng = StreamSeeder::new(3).ant(0);
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        for round in 1..=37 {
            let prepared = model.prepare(round, &[3, -3], &[10, 10]);
            let mut probe = FeedbackProbe::new(&prepared, &mut rng);
            ant.step(&mut probe);
        }
        let mut bank = PreciseSigmoidBank::new(2, params, 0);
        bank.push_controller(&ant).unwrap();
        let back = bank.to_controller(0, ant.assignment());
        assert_eq!(back.scratch(), ant.scratch());
        assert_eq!(back.assignment(), ant.assignment());
    }

    #[test]
    fn swap_remove_moves_all_planes() {
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut bank = PreciseSigmoidBank::new(2, params, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Task(1));
        bank.count1[2 * 2] = 7; // slot 2, task 0
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.current, [1, IDLE]); // old slots 2 and 1
        assert_eq!(bank.count1[0], 7, "slot 2's counter row moved into slot 0");
    }
}
