//! The banked ant population shared by both engines.
//!
//! A [`Population`] owns one [`ControllerBank`] per controller kind
//! plus a **membership column**: the bank of every global ant id. All
//! engine operations — stepping, perturbations, checkpointing, parallel
//! partitioning — are bank-wise; the membership column is the only
//! piece that thinks in global ant ids.
//!
//! ## Membership invariants
//!
//! For every global ant id `i` and every bank `b` with slot `s`:
//!
//! * the banks' lengths sum to the colony population `n`;
//! * with two or more banks, `members.len() == n` and
//!   `members[i] == b`  ⇔  `i` is one of `banks[b].ants`; a one-bank
//!   colony keeps `members` empty;
//! * within a bank, `controllers` and `ants` share one length;
//! * within a bank, `ants` ascends strictly by slot — so ant `i`'s slot
//!   is its rank among its bank's ids, a one-bank colony has
//!   `ants[s] == s`, and every kernel walks the colony's per-ant
//!   columns front to back;
//! * banks may be empty (a mix fraction can be killed off entirely) but
//!   are never dropped, so spawns can always rejoin their sub-spec.
//!
//! Kills mirror the colony's swap-removal in global ids: each victim's
//! id is taken over by the *global* last ant. A kill event applies all
//! its removals in the colony's kill order, O(1) each, and then repairs
//! each bank in one streaming pass (see [`Population::remove_batch`]).
//! Spawns append the largest id, and builds and restores fill slots in
//! id order, so the order holds through every operation.
//!
//! No ant carries generator state: ant `i`'s draws in a round are
//! `AntRng::keyed(round_key, i)`, built inside the kernels, so kills,
//! spawns, resets and restores move no randomness around.
//!
//! ## Mixed-colony membership
//!
//! `ControllerSpec::Mix` assigns ants to sub-specs deterministically
//! from the master seed: exact largest-remainder quotas of the weights,
//! interleaved by a seeded Fisher–Yates shuffle (the dedicated
//! [`reserved::MIX`] stream). Spawned ants draw their sub-spec from a
//! stream keyed by their spawn stream id (the engine's checkpointed
//! `next_stream` counter), so checkpoint + spawn replays bit-identically
//! to an uninterrupted run.

use antalloc_core::{
    AdversarialScratch, AnyController, BankSliceMut, ControllerBank, SigmoidRows, SlotMap,
};
use antalloc_env::{Assignment, ColonyState};
use antalloc_noise::PreparedRound;
use antalloc_rng::{reserved, uniform_index, AntRng, StreamSeeder};

use crate::config::ControllerSpec;

/// One worker's share of the colony: disjoint (controller chunk,
/// global-id chunk) pairs (see [`Population::partition_mut`]).
pub(crate) type WorkerPart<'a> = Vec<(BankSliceMut<'a>, &'a [u32])>;

/// The population's checkpointed state as columns in ascending global
/// ant id — what a checkpoint copies out of the banks and back in. The
/// per-kind scratch columns hold only ants of kinds that carry
/// mid-phase state.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct AntColumns {
    /// Bank (sub-spec) index per ant for mixed colonies; empty
    /// otherwise.
    pub members: Vec<u16>,
    /// Precise Sigmoid counters, one row per ant of that kind.
    pub sigmoid: SigmoidColumns,
    /// Ids of the Precise Adversarial ants, one per `adversarial` entry.
    pub adversarial_ids: Vec<u32>,
    /// Precise Adversarial phase trackers.
    pub adversarial: Vec<AdversarialScratch>,
    /// Ids of the Proportional ants with a non-zero streak.
    pub streak_ids: Vec<u32>,
    /// Their deadband streaks.
    pub streaks: Vec<u16>,
}

impl AntColumns {
    /// Appends the scratch of ant `id`, slot `s` of `bank`.
    fn capture_row(&mut self, bank: &Bank, id: u32, s: usize) {
        match &bank.controllers {
            ControllerBank::PreciseSigmoid(b) => {
                self.sigmoid.ids.push(id);
                b.capture_rows(s..s + 1, &mut self.sigmoid.rows);
            }
            ControllerBank::PreciseAdversarial(b) => {
                self.adversarial_ids.push(id);
                self.adversarial.push(b.scratch(s));
            }
            // Zero streaks are the reset state; omitting them keeps
            // checkpoints of settled colonies scratch-free.
            ControllerBank::Proportional(b) if b.streak(s) != 0 => {
                self.streak_ids.push(id);
                self.streaks.push(b.streak(s));
            }
            _ => {}
        }
    }

    /// Appends the scratch of every ant of `bank`, whose ants ascend.
    fn capture_bank(&mut self, bank: &Bank) {
        match &bank.controllers {
            ControllerBank::PreciseSigmoid(b) => {
                self.sigmoid.ids.extend_from_slice(&bank.ants);
                b.capture_rows(0..b.len(), &mut self.sigmoid.rows);
            }
            ControllerBank::PreciseAdversarial(b) => {
                self.adversarial_ids.extend_from_slice(&bank.ants);
                self.adversarial.extend((0..b.len()).map(|s| b.scratch(s)));
            }
            ControllerBank::Proportional(b) => {
                // Branch-free compaction of the non-zero streaks.
                let at = self.streaks.len();
                self.streak_ids.resize(at + bank.len(), 0);
                self.streaks.resize(at + bank.len(), 0);
                let mut end = at;
                for (&id, &streak) in bank.ants.iter().zip(b.streaks()) {
                    self.streak_ids[end] = id;
                    self.streaks[end] = streak;
                    end += usize::from(streak != 0);
                }
                self.streak_ids.truncate(end);
                self.streaks.truncate(end);
            }
            _ => {}
        }
    }
}

/// The checkpoint scratch tags of the kinds that carry mid-phase state
/// (see `docs/CHECKPOINTS.md`).
pub(crate) const TAG_SIGMOID: u8 = 0;
pub(crate) const TAG_ADVERSARIAL: u8 = 1;
pub(crate) const TAG_STREAK: u8 = 2;

/// The scratch tag of a bank, if its controllers carry mid-phase state.
fn scratch_kind(bank: &ControllerBank) -> Option<u8> {
    match bank {
        ControllerBank::PreciseSigmoid(_) => Some(TAG_SIGMOID),
        ControllerBank::PreciseAdversarial(_) => Some(TAG_ADVERSARIAL),
        ControllerBank::Proportional(_) => Some(TAG_STREAK),
        _ => None,
    }
}

/// Precise Sigmoid scratch as fixed-stride checkpoint rows
/// ([`SigmoidRows`]): entry `e` belongs to ant `ids[e]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SigmoidColumns {
    pub ids: Vec<u32>,
    pub rows: SigmoidRows,
}

impl SigmoidColumns {
    /// Reserves room for `entries` more rows over `k` tasks.
    pub fn reserve(&mut self, entries: usize, k: usize) {
        self.ids.reserve_exact(entries);
        self.rows.reserve(entries, k);
    }
}

/// One homogeneous sub-population: controllers plus their ant ids.
pub(crate) struct Bank {
    /// The (non-`Mix`) spec this bank runs; used for the census.
    pub spec: ControllerSpec,
    /// The controllers, in slot order.
    pub controllers: ControllerBank,
    /// Slot → global ant id, ascending.
    pub ants: Vec<u32>,
}

impl Bank {
    pub fn len(&self) -> usize {
        self.ants.len()
    }
}

/// The banked population: banks plus the membership column.
#[derive(Default)]
pub(crate) struct Population {
    banks: Vec<Bank>,
    /// Global ant id → bank; empty for one bank, whose slots are the ids.
    /// `u16` matches the mix-part cap and the checkpoint column.
    members: Vec<u16>,
    /// Mixed-colony membership machinery (`None` for homogeneous).
    mix: Option<MixMembership>,
}

/// Deterministic sub-spec assignment for `ControllerSpec::Mix`.
struct MixMembership {
    weights: Vec<f64>,
    /// Sub-seeder derived from the master seed's `MIX` stream.
    seeder: StreamSeeder,
}

impl MixMembership {
    fn new(seed: u64, weights: Vec<f64>) -> Self {
        Self {
            weights,
            seeder: mix_seeder(seed),
        }
    }

    /// The sub-spec a *spawned* ant with spawn stream id `stream` joins:
    /// one weighted draw from a stream keyed by `(master seed, stream)`,
    /// so the pick depends on nothing but checkpointed state.
    fn pick_spawn(&self, stream: u64) -> usize {
        let total: f64 = self.weights.iter().sum();
        let x = self.seeder.stream(stream).next_f64() * total;
        let mut acc = 0.0;
        for (b, &w) in self.weights.iter().enumerate() {
            acc += w;
            if x < acc {
                return b;
            }
        }
        self.weights.len() - 1
    }
}

/// The sub-seeder every mixed-membership draw derives from.
fn mix_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::MIX).next_u64())
}

/// Exact largest-remainder quotas: `quotas[i]` ants for weight
/// `weights[i]`, summing to `n`. Ties go to the lower index.
pub(crate) fn mix_quotas(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|&x| x.floor() as usize).collect();
    let assigned: usize = quotas.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for i in 0..n.saturating_sub(assigned) {
        quotas[order[i % order.len()]] += 1;
    }
    quotas
}

/// The set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                64 * w + b
            })
        })
    })
}

/// Where participant `p` of `workers` starts its share of a bank of
/// `len` ants: the equal split `p · len / workers` rounded up to a
/// multiple of 16 (a 64-byte line of the `u32` id lists, half a line of
/// the `u16` task columns, so a seam shares at most one line per column
/// with its neighbour), capped at `len`. `part_boundary(len, 1, workers)` is
/// `len.div_ceil(workers).next_multiple_of(16)`, so two participants
/// split a bank at that chunk.
fn part_boundary(len: usize, p: usize, workers: usize) -> usize {
    ((p * len).div_ceil(16 * workers) * 16).min(len)
}

/// The bank participant `p` of `workers` steps first: the banks are
/// dealt out evenly as starting points.
fn first_bank(p: usize, num_banks: usize, workers: usize) -> usize {
    p * num_banks / workers
}

/// Deterministic initial membership: bank index per global ant id.
///
/// Quotas first, then a Fisher–Yates shuffle driven by the dedicated
/// mix sub-seeder — a pure function of `(seed, weights, n)`.
pub(crate) fn mix_members(seed: u64, weights: &[f64], n: usize) -> Vec<u16> {
    let quotas = mix_quotas(weights, n);
    let mut members = Vec::with_capacity(n);
    for (b, &q) in quotas.iter().enumerate() {
        members.extend(std::iter::repeat_n(b as u16, q));
    }
    let mut rng = mix_seeder(seed).stream(reserved::INIT);
    for i in (1..members.len()).rev() {
        members.swap(i, uniform_index(&mut rng, i + 1));
    }
    members
}

impl Population {
    /// Builds the population for `spec` with ants `0..n` (tests; engines
    /// rebuild theirs in place).
    #[cfg(test)]
    pub fn build(spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) -> Self {
        let mut population = Self::default();
        population.rebuild_in(spec, seed, num_tasks, n);
        population
    }

    /// Rebuilds this population in place for `spec` with ants `0..n` —
    /// the same state whatever it held before — reusing bank and
    /// membership allocations (the engine-reuse fast path for sweeps; shrink keeps
    /// capacity, grow reallocates, a changed bank kind is rebuilt).
    pub fn rebuild_in(&mut self, spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) {
        // Membership is a pure function of (seed, weights, n).
        self.members = spec.mix_parts().map_or_else(Vec::new, |parts| {
            let weights: Vec<f64> = parts.iter().map(|(w, _)| *w).collect();
            mix_members(seed, &weights, n)
        });
        self.regroup(spec, seed, num_tasks, n);
        debug_assert!(self.check_invariants());
    }

    /// Rebuilds this population in place from checkpointed columns:
    /// membership regroups the banks, every controller is reset to its
    /// ant's assignment in `colony` (already restored), and the scratch
    /// columns are scattered back. Reuses allocations like
    /// [`Population::rebuild_in`].
    pub fn restore_in(
        &mut self,
        spec: &ControllerSpec,
        seed: u64,
        colony: &ColonyState,
        cols: &AntColumns,
    ) {
        let n = colony.num_ants();
        self.members.clone_from(&cols.members);
        self.regroup(spec, seed, colony.num_tasks(), n);
        self.reset_to_colony(colony);
        let sigmoid = &cols.sigmoid;
        let sole_bank = self.banks.iter_mut().find(|bank| bank.ants == sigmoid.ids);
        if let Some(Bank {
            controllers: ControllerBank::PreciseSigmoid(bank),
            ..
        }) = sole_bank
        {
            // One bank holds exactly the captured ants, in order: copy
            // the counter planes whole.
            bank.restore_rows(&sigmoid.rows);
        } else {
            self.scatter(&sigmoid.ids, |bank, s, e| match bank {
                ControllerBank::PreciseSigmoid(b) => b.restore_row(s, &sigmoid.rows, e),
                // audit:allow(panic-path): the checkpoint decoder matches every scratch entry to a bank of its kind.
                _ => unreachable!("Precise Sigmoid scratch for another kind"),
            });
        }
        self.scatter(&cols.adversarial_ids, |bank, s, e| match bank {
            ControllerBank::PreciseAdversarial(bank) => bank.apply_scratch(s, &cols.adversarial[e]),
            // audit:allow(panic-path): the checkpoint decoder matches every scratch entry to a bank of its kind.
            _ => unreachable!("Precise Adversarial scratch for another kind"),
        });
        self.scatter(&cols.streak_ids, |bank, s, e| match bank {
            ControllerBank::Proportional(bank) => bank.set_streak(s, cols.streaks[e]),
            // audit:allow(panic-path): the checkpoint decoder matches every scratch entry to a bank of its kind.
            _ => unreachable!("Proportional scratch for another kind"),
        });
        debug_assert!(self.check_invariants());
    }

    /// Ant `id`'s bank (0 in a one-bank colony, which keeps no members).
    fn bank_of(&self, id: usize) -> usize {
        self.members.get(id).map_or(0, |&b| b.into())
    }

    /// Ant `id`'s bank and slot, its rank among the bank's ids (binary
    /// search).
    fn locate(&self, id: usize) -> (usize, usize) {
        let b = self.bank_of(id);
        let s = self.banks[b].ants.partition_point(|&a| (a as usize) < id);
        (b, s)
    }

    /// Calls `apply(controllers, slot, e)` for each entry `e` of the
    /// ascending `ids`, walking each bank forward 8 ids at a time with
    /// no branch per id: at most one pass over each bank's ids.
    fn scatter(&mut self, ids: &[u32], mut apply: impl FnMut(&mut ControllerBank, usize, usize)) {
        let mut cursor = vec![0; self.banks.len()];
        for (e, &id) in ids.iter().enumerate() {
            let b = self.bank_of(id as usize);
            let (bank, at) = (&mut self.banks[b], &mut cursor[b]);
            // `id` is in the bank, so a window short of 8 holds it.
            let mut below = 8;
            while below == 8 {
                below = bank.ants[*at..].iter().take(8).filter(|&&a| a < id).count();
                *at += below;
            }
            debug_assert_eq!(bank.ants.get(*at), Some(&id));
            apply(&mut bank.controllers, *at, e);
        }
    }

    /// Every ant's (bank, slot) in global id order: one pass over the
    /// membership column with a running slot counter per bank.
    fn slots_in_id_order(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut next = vec![0; self.banks.len()];
        (0..self.len()).map(move |id| {
            let b = self.bank_of(id);
            next[b] += 1;
            (b, next[b] - 1)
        })
    }

    /// Regroups ants `0..n` into one bank per (sub-)spec — ant `i` of a
    /// mix of two or more parts joins bank `members[i]` (set by the
    /// caller), a one-bank colony's ants all join bank 0 — and rebuilds
    /// every bank's controllers fresh for its ants, reusing allocations.
    fn regroup(&mut self, spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) {
        let parts = spec.mix_parts();
        let sub = |b: usize| parts.map_or(spec, |parts| &parts[b].1);
        let num_banks = parts.map_or(1, <[_]>::len);
        self.banks.truncate(num_banks);
        for bank in &mut self.banks {
            bank.ants.clear();
        }
        while self.banks.len() < num_banks {
            let spec = sub(self.banks.len()).clone();
            self.banks.push(Bank {
                controllers: spec.build_bank(num_tasks, &[]),
                spec,
                ants: Vec::new(),
            });
        }
        if num_banks == 1 {
            self.members.clear();
            self.banks[0].ants.extend(0..n as u32);
        } else {
            assert_eq!(self.members.len(), n, "one membership per ant");
            let mut lens = vec![0usize; num_banks];
            for &b in &self.members {
                lens[usize::from(b)] += 1;
            }
            for (bank, &len) in self.banks.iter_mut().zip(&lens) {
                bank.ants.reserve_exact(len);
            }
            // Slots fill in global ant order, so each bank's ids ascend.
            for (id, &b) in (0..).zip(&self.members) {
                self.banks[usize::from(b)].ants.push(id);
            }
        }
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let sub = sub(b);
            if bank.spec != *sub {
                bank.spec = sub.clone();
            }
            sub.rebuild_bank(num_tasks, &bank.ants, &mut bank.controllers);
        }
        self.mix =
            parts.map(|parts| MixMembership::new(seed, parts.iter().map(|(w, _)| *w).collect()));
    }

    /// Number of ants.
    pub fn len(&self) -> usize {
        self.banks.iter().map(Bank::len).sum()
    }

    /// The banks (census, diagnostics).
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// The bank index of every ant, in global ant order — the
    /// checkpointed representation of mixed membership.
    pub fn members(&self) -> Vec<u16> {
        let mut members = self.members.clone();
        members.resize(self.len(), 0);
        members
    }

    /// Steps the single ant `i` (the sequential model's round), drawing
    /// from its stream for the round keyed `round_key`.
    pub fn step_one(&mut self, i: usize, prepared: &PreparedRound, round_key: u64) -> Assignment {
        let (b, s) = self.locate(i);
        let rng = &mut AntRng::keyed(round_key, i as u64);
        self.banks[b].controllers.step_slot(s, prepared.view(), rng)
    }

    /// Forces every controller to its colony assignment (initial
    /// configurations, scramble/stampede perturbations).
    pub fn reset_to_colony(&mut self, colony: &ColonyState) {
        for bank in &mut self.banks {
            bank.controllers
                .reset_to_column(&bank.ants, colony.task_column());
        }
    }

    /// Persistent memory of ant `i`'s controller, in bits.
    pub fn memory_bits(&self, i: usize) -> u32 {
        self.banks[self.bank_of(i)].controllers.memory_bits()
    }

    /// Removes a kill event's victims in the colony's kill order: each
    /// `victims` entry is removed in turn at the id it names at that
    /// moment, the global last ant taking over its id (unless it is the
    /// last ant), as per-ant swap-removals would — but every bank keeps
    /// its ids ascending.
    ///
    /// Each bank's ids below the final length `len` fill its slots
    /// `[0, tail)` and are never relabelled; only the `victims.len()`
    /// tail ants, with ids at or past `len`, take over ids. So each
    /// removal is O(1), and the victims below `len` are the dead prefix
    /// ids — exactly the tail survivors' final ids. One ascending pass
    /// over them, counting each bank's ids below with a sweep over
    /// `members`, finds every dead slot and relocated ant's new slot.
    /// One [`SlotMap`] per bank then keeps the live prefix slots in
    /// order and drops each relocated ant in at its new slot (into a
    /// dead slot when one is there), at about one `memmove` of the bank.
    pub fn remove_batch(&mut self, victims: &[usize]) {
        if victims.is_empty() {
            return;
        }
        let (n, num_banks) = (self.len(), self.banks.len());
        let len = n - victims.len();
        let tails: Vec<usize> = (self.banks.iter())
            .map(|bank| bank.ants.partition_point(|&id| (id as usize) < len))
            .collect();
        // (bank, old slot) of the tail ant holding each id at or past
        // `len`, and the ids below `len` tail ants take, in kill order.
        let mut high = vec![(0, 0); victims.len()];
        for (b, (bank, &tail)) in self.banks.iter().zip(&tails).enumerate() {
            for (s, &id) in bank.ants.iter().enumerate().skip(tail) {
                high[id as usize - len] = (b, s);
            }
        }
        let (mut taken, mut dead_ids) = (Vec::new(), vec![0u64; len.div_ceil(64)]);
        for (last, &victim) in (len..n).rev().zip(victims) {
            let taker = high[last - len];
            if victim >= len {
                high[victim - len] = taker;
            } else {
                dead_ids[victim / 64] |= 1 << (victim % 64);
                taken.push((victim, taker));
            }
        }
        // The tail ant holding each dead id, in id order: the last one
        // to take it, filed at the id's rank among the dead ids.
        let mut ranks = vec![0; dead_ids.len() + 1];
        for (w, word) in dead_ids.iter().enumerate() {
            ranks[w + 1] = ranks[w] + word.count_ones() as usize;
        }
        let mut holders = vec![(0, 0); taken.len()];
        for &(v, taker) in &taken {
            let below = dead_ids[v / 64] & ((1 << (v % 64)) - 1);
            holders[ranks[v / 64] + below.count_ones() as usize] = taker;
        }
        // Per bank: the dead slots before its tail, and the (new slot,
        // old slot) of its relocated ants, ascending. Id `v` dies in bank
        // `d` and goes to a relocated ant of bank `b`; `below` counts each
        // bank's ids below `v`: the dead slot in `d`, the slots before
        // the new one in `b`.
        let mut dead: Vec<Vec<u64>> = tails.iter().map(|&t| vec![0; t.div_ceil(64)]).collect();
        let mut lifted: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_banks];
        let (mut below, mut dead_before) = (vec![0; num_banks], vec![0; num_banks]);
        let mut swept = 0;
        for (v, &(b, from)) in set_bits(&dead_ids).zip(&holders) {
            let d = if num_banks == 1 {
                below[0] = v;
                0
            } else {
                for &m in &self.members[swept..v] {
                    below[usize::from(m)] += 1;
                }
                swept = v + 1;
                usize::from(core::mem::replace(&mut self.members[v], b as u16))
            };
            let to = below[b] - dead_before[b] + lifted[b].len();
            lifted[b].push((to, from));
            self.banks[b].ants[from] = v as u32;
            let s = below[d];
            dead[d][s / 64] |= 1 << (s % 64);
            (below[d], dead_before[d]) = (s + 1, dead_before[d] + 1);
        }
        self.members.truncate(len);
        let mut map = SlotMap::default();
        let banks = self.banks.iter_mut().zip(tails).zip(&dead);
        for (((bank, tail), dead), lifted) in banks.zip(&lifted) {
            map.clear();
            let mut dead_slots = set_bits(dead);
            let mut next_dead = || dead_slots.next().unwrap_or(tail);
            // Old slot, new slot, and the first dead slot at or past `at`.
            let (mut at, mut next, mut dead) = (0, 0, next_dead());
            for &(to, from) in lifted {
                while next < to {
                    let n = (dead - at).min(to - next);
                    map.keep(at, n);
                    (at, next) = (at + n, next + n);
                    if at == dead && next < to {
                        at += 1;
                        dead = next_dead();
                    }
                }
                if at == dead && dead < tail {
                    map.fill(at, from);
                    at += 1;
                    dead = next_dead();
                } else {
                    map.lift(from);
                }
                next += 1;
            }
            loop {
                map.keep(at, dead - at);
                if dead == tail {
                    break;
                }
                at = dead + 1;
                dead = next_dead();
            }
            map.finish();
            bank.controllers.apply_slot_map(&map);
            map.apply(&mut bank.ants);
        }
        debug_assert!(self.check_invariants());
    }

    /// Removes the ant with global id `victim` by swap-removal in its
    /// bank and in global ids — the per-kill removal
    /// [`Population::remove_batch`] replaced, kept as its reference. It
    /// leaves the bank out of id order, so it finds slots by linear
    /// search.
    #[cfg(test)]
    fn remove(&mut self, victim: usize) {
        let last = self.len() - 1;
        let slot_of = |p: &Self, id: usize| {
            let b = p.bank_of(id);
            (
                b,
                p.banks[b]
                    .ants
                    .iter()
                    .position(|&a| a as usize == id)
                    .unwrap(),
            )
        };
        let (b, s) = slot_of(self, victim);
        let bank = &mut self.banks[b];
        let map = SlotMap::swap_remove(bank.len(), s);
        bank.controllers.apply_slot_map(&map);
        bank.ants.swap_remove(s);
        if victim != last {
            let (b, s) = slot_of(self, last);
            self.banks[b].ants[s] = victim as u32;
            if !self.members.is_empty() {
                self.members[victim] = self.members[last];
            }
        }
        self.members.truncate(last);
    }

    /// Appends a freshly spawned ant (global id `len()`) with spawn
    /// stream id `stream`. Homogeneous colonies spawn into their single
    /// bank; mixes draw the sub-spec deterministically from `stream`.
    pub fn spawn(&mut self, stream: u64) {
        let b = match &self.mix {
            None => 0,
            Some(mix) => mix.pick_spawn(stream),
        };
        let id = self.len() as u32;
        if self.banks.len() > 1 {
            self.members.push(b as u16);
        }
        let bank = &mut self.banks[b];
        // A fresh slot in the bank's columns (desync spawns get offset
        // 0, matching the pre-bank engines).
        bank.controllers.push_fresh();
        bank.ants.push(id);
        debug_assert!(self.check_invariants());
    }

    /// The population's checkpointed columns over `num_tasks` tasks
    /// (see [`AntColumns`]).
    pub fn capture(&self, num_tasks: usize) -> AntColumns {
        let mut cols = AntColumns::default();
        if self.mix.is_some() {
            cols.members = self.members();
        }
        // Each kind's rows ascend by ant id. A kind living in one bank
        // copies that bank's planes whole, since its ants ascend; a kind
        // spread over several banks takes one branch-free pass over the
        // membership column that picks its ants in id order, and their
        // rows are gathered. The pass compares plain bytes: comparing `Option`s
        // branched, and mispredicted, once per ant.
        let kinds: Vec<u8> = self
            .banks
            .iter()
            .map(|bank| scratch_kind(&bank.controllers).unwrap_or(u8::MAX))
            .collect();
        for kind in [TAG_SIGMOID, TAG_ADVERSARIAL, TAG_STREAK] {
            let banks: Vec<&Bank> = (self.banks.iter().zip(&kinds))
                .filter(|&(_, &of)| of == kind)
                .map(|(bank, _)| bank)
                .collect();
            match banks[..] {
                [] => continue,
                [bank] => {
                    debug_assert!(bank.ants.is_sorted());
                    cols.capture_bank(bank);
                    continue;
                }
                _ => {}
            }
            let len: usize = banks.iter().map(|bank| bank.len()).sum();
            if kind == TAG_SIGMOID {
                cols.sigmoid.reserve(len, num_tasks);
            }
            // Every ant is written at the cursor, which moves past picks
            // only, so one spare slot suffices.
            let mut picks = vec![(0, 0, 0); len + 1];
            let mut end = 0;
            for (id, (b, s)) in (0..).zip(self.slots_in_id_order()) {
                picks[end] = (id, b, s);
                end += usize::from(kinds[b] == kind);
            }
            for &(id, b, s) in &picks[..end] {
                cols.capture_row(&self.banks[b], id, s);
            }
        }
        cols
    }

    /// Every ant's mid-phase scratch through the per-slot accessor, in
    /// global ant order (the reference the columnar capture is tested
    /// against).
    #[cfg(test)]
    pub fn scratches(&self) -> Vec<(u32, antalloc_core::ControllerScratch)> {
        (0..)
            .zip(self.slots_in_id_order())
            .filter_map(|(i, (b, s))| Some((i, self.banks[b].controllers.scratch(s)?)))
            .collect()
    }

    /// Clones every controller into the per-ant dispatch enum, in
    /// global ant order — the reference representation the bank
    /// equivalence tests and the pre-bank baseline replay use.
    pub fn reference_controllers(&self) -> Vec<AnyController> {
        self.slots_in_id_order()
            .map(|(b, s)| self.banks[b].controllers.to_any(s))
            .collect()
    }

    /// Splits the whole population into `workers` disjoint parts, each
    /// holding an equal share of *every* bank: participant `p` takes
    /// slots `[b(p), b(p + 1))` of a bank of `len` ants, where `b(p)`
    /// is `p · len / workers` rounded up to a 16-ant block and capped at
    /// `len` (see [`part_boundary`]). Each part is a list of
    /// (controller chunk, global-id chunk) pairs; the round driver hands
    /// one part to each participant for a whole scope.
    ///
    /// Each part lists its pairs starting from a different bank
    /// (participant `p` from bank `⌊p · banks / workers⌋`, wrapping
    /// around), so participants step different kinds at the same
    /// moment: on a 2-vCPU host, two participants stepping the same
    /// kind in lockstep each ran ~20% slower per round.
    ///
    /// Per-bank shares keep every participant's mix of kinds — and so
    /// its per-round cost — equal, and each share is within one block
    /// of `len / workers`. Every bank's slots ascend by id, so a
    /// homogeneous colony's participants write contiguous stretches of
    /// the task column, and a mix's participants, whose banks
    /// interleave over shuffled members, write mostly, not strictly,
    /// separate stretches — before and after any number of kills.
    /// Parts of a bank smaller than `16 · workers` may be empty.
    pub fn partition_mut(&mut self, workers: usize) -> Vec<WorkerPart<'_>> {
        assert!(workers >= 1);
        let num_banks = self.banks.len();
        let mut parts: Vec<WorkerPart<'_>> = (0..workers)
            .map(|_| Vec::with_capacity(num_banks))
            .collect();
        // Pairs of banks before participant `p`'s first bank, rotated to
        // the back of its list below.
        let mut lead = vec![0usize; workers];
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let len = bank.len();
            let mut slice = bank.controllers.as_slice_mut();
            let mut ids: &[u32] = &bank.ants;
            let mut from = 0;
            for (p, part) in parts.iter_mut().enumerate() {
                let to = part_boundary(len, p + 1, workers);
                if to == from {
                    continue;
                }
                let (head, tail) = slice.split_at_mut(to - from);
                let (id_head, id_tail) = ids.split_at(to - from);
                part.push((head, id_head));
                lead[p] += usize::from(b < first_bank(p, num_banks, workers));
                slice = tail;
                ids = id_tail;
                from = to;
            }
        }
        for (part, lead) in parts.iter_mut().zip(lead) {
            part.rotate_left(lead);
        }
        parts
    }

    /// Full invariant check (debug asserts and tests). With the lengths
    /// summing to `n`, strictly ascending ids and each id's membership
    /// naming the bank that holds it, the banks hold `0..n` once each.
    pub fn check_invariants(&self) -> bool {
        let (n, one_bank) = (self.len(), self.banks.len() == 1);
        self.members.len() == if one_bank { 0 } else { n }
            && self.banks.iter().enumerate().all(|(b, bank)| {
                bank.controllers.len() == bank.ants.len()
                    && bank.ants.is_sorted_by(|x, y| x < y)
                    && bank.ants.iter().all(|&id| match one_bank {
                        true => (id as usize) < n,
                        false => self.members.get(id as usize) == Some(&(b as u16)),
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_core::{AntParams, ControllerScratch, PreciseSigmoidParams, ProportionalParams};
    use antalloc_env::{DemandVector, Perturbation};
    use antalloc_noise::NoiseModel;

    /// A population over an explicit membership vector.
    fn from_members(spec: &ControllerSpec, seed: u64, k: usize, members: &[u16]) -> Population {
        let mut p = Population::build(spec, seed, k, 0);
        p.members = members.to_vec();
        p.regroup(spec, seed, k, members.len());
        p
    }

    fn mix_spec() -> ControllerSpec {
        ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::default())),
            (1.0, ControllerSpec::Trivial),
            (1.0, ControllerSpec::ExactGreedy(Default::default())),
        ])
    }

    #[test]
    fn quotas_are_exact_largest_remainder() {
        assert_eq!(mix_quotas(&[2.0, 1.0, 1.0], 100), vec![50, 25, 25]);
        assert_eq!(mix_quotas(&[1.0, 1.0, 1.0], 10), vec![4, 3, 3]);
        assert_eq!(mix_quotas(&[1.0], 7), vec![7]);
        let q = mix_quotas(&[0.7, 0.2, 0.1], 9);
        assert_eq!(q.iter().sum::<usize>(), 9);
    }

    #[test]
    fn membership_is_deterministic_and_matches_quotas() {
        let a = mix_members(7, &[2.0, 1.0, 1.0], 200);
        let b = mix_members(7, &[2.0, 1.0, 1.0], 200);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&m| m == 0).count(), 100);
        assert_eq!(a.iter().filter(|&&m| m == 1).count(), 50);
        // A different seed shuffles differently.
        assert_ne!(a, mix_members(8, &[2.0, 1.0, 1.0], 200));
        // ... but not sorted: the shuffle interleaves.
        assert!(a.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn build_upholds_invariants_through_kill_and_spawn() {
        let spec = mix_spec();
        let mut p = Population::build(&spec, 3, 2, 40);
        assert!(p.check_invariants());
        assert_eq!(p.banks().len(), 3);
        assert_eq!(p.len(), 40);
        // Kill a few ants from the middle and the end.
        p.remove_batch(&[5, 30, 37]);
        assert_eq!(p.len(), 37);
        assert!(p.check_invariants());
        // Spawn back; membership picks stay in range.
        for stream in 40..45u64 {
            p.spawn(stream);
        }
        assert_eq!(p.len(), 42);
        assert!(p.check_invariants());
    }

    #[test]
    fn invariants_reject_a_bank_out_of_id_order() {
        let mut p = Population::build(&ControllerSpec::Trivial, 1, 2, 4);
        assert!(p.check_invariants());
        // The bank still holds every id once; only the order breaks.
        p.banks[0].ants.swap(1, 2);
        assert!(!p.check_invariants());
        p.banks[0].ants.swap(1, 2);
        assert!(p.check_invariants());
        // A mix whose membership names the wrong bank for one ant.
        let mut q = from_members(&mix_spec(), 1, 2, &[0, 1, 2, 0]);
        assert!(q.check_invariants());
        q.members[3] = 1;
        assert!(!q.check_invariants());
    }

    /// Partitions a population whose bank `b` holds `sizes[b]` ants
    /// into `workers` parts and checks that every ant lands in exactly
    /// one part and that each part's share of every bank is within one
    /// 16-ant block of `sizes[b] / workers`.
    fn check_partition(sizes: &[usize], workers: usize) {
        let spec = ControllerSpec::Mix(
            sizes
                .iter()
                .map(|_| (1.0, ControllerSpec::Ant(AntParams::default())))
                .collect(),
        );
        let mut members: Vec<u16> = Vec::new();
        for (b, &len) in sizes.iter().enumerate() {
            members.extend(std::iter::repeat_n(b as u16, len));
        }
        // Interleave the banks like a real mix.
        let mut rng = StreamSeeder::new(9).stream(0);
        for i in (1..members.len()).rev() {
            members.swap(i, uniform_index(&mut rng, i + 1));
        }
        let n = members.len();
        let mut p = from_members(&spec, 1, 2, &members);
        let parts = p.partition_mut(workers);
        assert_eq!(parts.len(), workers);
        let mut seen = vec![0u32; n];
        for (w, part) in parts.iter().enumerate() {
            // Participants start on different banks where they can.
            let first = first_bank(w, sizes.len(), workers);
            if let Some((_, ids)) = part.first() {
                let bank = members[ids[0] as usize] as usize;
                assert!(
                    bank == first
                        || part_boundary(sizes[first], w + 1, workers)
                            == part_boundary(sizes[first], w, workers)
                );
            }
            let mut share = vec![0usize; sizes.len()];
            for (slice, ids) in part {
                assert!(!ids.is_empty(), "empty pair in part {w}");
                assert_eq!(slice.len(), ids.len());
                for &id in *ids {
                    seen[id as usize] += 1;
                    share[members[id as usize] as usize] += 1;
                }
            }
            for (b, (&got, &len)) in share.iter().zip(sizes).enumerate() {
                let equal = len as f64 / workers as f64;
                assert!(
                    (got as f64 - equal).abs() < 16.0,
                    "sizes {sizes:?}, {workers} parts: part {w} got {got} of bank {b}"
                );
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "sizes {sizes:?}, {workers} parts"
        );
    }

    #[test]
    fn partition_edge_cases() {
        check_partition(&[0, 0, 0], 3); // no ants at all
        check_partition(&[0, 500, 0, 77], 4); // empty banks
        check_partition(&[5, 17, 31, 40], 4); // every bank < 16 · P
        check_partition(&[1, 2], 8); // P > n
        check_partition(&[1000], 8); // one 16-ant block of drift per part
    }

    #[test]
    fn homogeneous_two_way_split_is_one_rounded_half() {
        for n in [0, 1, 15, 16, 17, 33, 1000, 200_001] {
            let mut p = Population::build(&ControllerSpec::Trivial, 1, 2, n);
            let parts = p.partition_mut(2);
            let first: usize = parts[0].iter().map(|(_, ids)| ids.len()).sum();
            assert_eq!(first, n.div_ceil(2).next_multiple_of(16).min(n), "n = {n}");
            // A homogeneous colony's slots are its ids: contiguous halves.
            let ids: Vec<u32> = parts
                .iter()
                .flat_map(|part| part.iter().flat_map(|(_, ids)| ids.iter().copied()))
                .collect();
            assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        }
    }

    proptest::proptest! {
        #[test]
        fn partition_covers_every_ant_once_with_balanced_bank_shares(
            sizes in proptest::collection::vec(0usize..700, 1..5),
            workers in 1usize..10,
        ) {
            check_partition(&sizes, workers);
        }
    }

    /// Global id → (bank, controller scratch, assignment).
    type AntMap = Vec<(u32, Option<ControllerScratch>, Assignment)>;

    fn ant_map(p: &Population) -> AntMap {
        (p.slots_in_id_order())
            .map(|(b, s)| {
                let controllers = &p.banks[b].controllers;
                (b as u32, controllers.scratch(s), controllers.assignment(s))
            })
            .collect()
    }

    /// Puts every bank of `p` back in id order by a plain gather through
    /// the per-ant controllers, leaving the id → ant map as it was.
    fn sort_banks(p: &mut Population) {
        for bank in &mut p.banks {
            if bank.ants.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..bank.len()).collect();
            order.sort_by_key(|&s| bank.ants[s]);
            bank.controllers = order.iter().map(|&s| bank.controllers.to_any(s)).collect();
            bank.ants = order.iter().map(|&s| bank.ants[s]).collect();
        }
    }

    /// A homogeneous colony, the benchmark's four-kind mix, and a mix
    /// with two banks of one kind.
    fn kill_spec(which: usize) -> ControllerSpec {
        let sigmoid = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5));
        let proportional = ControllerSpec::Proportional(ProportionalParams::default());
        match which {
            0 => sigmoid,
            1 => ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, sigmoid),
                (1.0, proportional),
                (1.0, ControllerSpec::ExactGreedy(Default::default())),
            ]),
            _ => ControllerSpec::Mix(vec![
                (1.0, sigmoid.clone()),
                (1.0, proportional),
                (1.0, sigmoid),
            ]),
        }
    }

    proptest::proptest! {
        /// Over random kill, spawn, scramble and step sequences, one
        /// `remove_batch` per kill event leaves every global id with the
        /// bank, scratch and assignment that the per-kill swap-removals
        /// give, and keeps every bank in id order.
        #[test]
        fn remove_batch_matches_sequential_swap_removal(
            which in 0usize..3,
            n in 2usize..300,
            seed: u64,
            events in proptest::collection::vec((0usize..4, 0usize..1000), 1..12),
        ) {
            let (spec, k) = (kill_spec(which), 3);
            let mut batch = Population::build(&spec, seed, k, n);
            let mut reference = Population::build(&spec, seed, k, n);
            let demands = DemandVector::new(vec![(n / 6) as u64 + 1; k]);
            let mut colony = ColonyState::new(n, demands);
            let seeder = StreamSeeder::new(seed);
            let mut rng = seeder.stream(reserved::EVENT);
            let mut next_stream = n as u64;
            let noise = NoiseModel::Sigmoid { lambda: 0.5 };
            let mut deficits = Vec::new();
            for (round, &(kind, size)) in events.iter().enumerate() {
                match kind {
                    0 => {
                        let count = size % colony.num_ants();
                        let victims = Perturbation::KillRandom { count }.apply(&mut colony, &mut rng);
                        batch.remove_batch(&victims);
                        for &victim in &victims {
                            reference.remove(victim);
                        }
                        sort_banks(&mut reference);
                    }
                    1 => {
                        let count = size % 64;
                        Perturbation::Spawn { count }.apply(&mut colony, &mut rng);
                        for _ in 0..count {
                            batch.spawn(next_stream);
                            reference.spawn(next_stream);
                            next_stream += 1;
                        }
                    }
                    2 => {
                        Perturbation::Scramble.apply(&mut colony, &mut rng);
                        batch.reset_to_colony(&colony);
                        reference.reset_to_colony(&colony);
                    }
                    _ => {
                        colony.deficits_into(&mut deficits);
                        let prepared =
                            noise.prepare(round as u64, &deficits, colony.demands().as_slice());
                        let key = seeder.round_key(round as u64);
                        for i in 0..colony.num_ants() {
                            let a = batch.step_one(i, &prepared, key);
                            proptest::prop_assert_eq!(a, reference.step_one(i, &prepared, key));
                            colony.apply(i, a);
                        }
                    }
                }
                proptest::prop_assert!(batch.check_invariants(), "event {}", round);
                proptest::prop_assert_eq!(ant_map(&batch), ant_map(&reference), "event {}", round);
            }
        }
    }

    /// A colony of `banks` banks cycling through five kinds: a
    /// homogeneous colony or a one-part mix for one bank.
    fn banked_spec(banks: usize, one_part_mix: bool) -> ControllerSpec {
        let kinds = [
            ControllerSpec::Ant(AntParams::default()),
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ControllerSpec::Proportional(ProportionalParams::default()),
            ControllerSpec::ExactGreedy(Default::default()),
            ControllerSpec::Trivial,
        ];
        if banks == 1 && !one_part_mix {
            return kinds[0].clone();
        }
        ControllerSpec::Mix(
            (0..banks)
                .map(|b| (1.0 + b as f64, kinds[b % 5].clone()))
                .collect(),
        )
    }

    proptest::proptest! {
        /// Over random kill, spawn and scramble sequences on colonies of
        /// one to five banks, the membership invariants hold, every id's
        /// binary-searched slot is its linear position in its bank, and
        /// the membership column rebuilds the same banks.
        #[test]
        fn membership_locates_every_ant_through_kills_and_spawns(
            banks in 1usize..6,
            one_part_mix: bool,
            n in 1usize..300,
            seed: u64,
            events in proptest::collection::vec((0usize..3, 0usize..1000), 1..12),
        ) {
            let (spec, k) = (banked_spec(banks, one_part_mix), 3);
            let mut p = Population::build(&spec, seed, k, n);
            let mut colony = ColonyState::new(n, DemandVector::new(vec![(n / 6) as u64 + 1; k]));
            let mut rng = StreamSeeder::new(seed).stream(reserved::EVENT);
            let mut next_stream = n as u64;
            for (event, &(kind, size)) in events.iter().enumerate() {
                match kind {
                    0 => {
                        let count = size % colony.num_ants();
                        let victims = Perturbation::KillRandom { count }.apply(&mut colony, &mut rng);
                        p.remove_batch(&victims);
                    }
                    1 => {
                        let count = size % 64;
                        Perturbation::Spawn { count }.apply(&mut colony, &mut rng);
                        for _ in 0..count {
                            p.spawn(next_stream);
                            next_stream += 1;
                        }
                    }
                    _ => {
                        Perturbation::Scramble.apply(&mut colony, &mut rng);
                        p.reset_to_colony(&colony);
                    }
                }
                proptest::prop_assert!(p.check_invariants(), "event {}", event);
                proptest::prop_assert_eq!(p.len(), colony.num_ants());
                for id in 0..p.len() {
                    let linear = (p.banks.iter().enumerate())
                        .find_map(|(b, bank)| Some((b, bank.ants.iter().position(|&a| a as usize == id)?)));
                    proptest::prop_assert_eq!(Some(p.locate(id)), linear, "id {}", id);
                }
                let members = p.members();
                let q = from_members(&spec, seed, k, &members);
                proptest::prop_assert!(q.check_invariants());
                proptest::prop_assert_eq!(q.members(), members);
                for (a, b) in p.banks.iter().zip(&q.banks) {
                    proptest::prop_assert_eq!(&a.ants, &b.ants);
                }
            }
        }
    }

    #[test]
    fn members_roundtrip_through_from_members() {
        let spec = mix_spec();
        let p = Population::build(&spec, 11, 2, 30);
        let members = p.members();
        let q = from_members(&spec, 11, 2, &members);
        assert_eq!(q.members(), members);
        assert!(q.check_invariants());
    }
}
