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
//!   columns front to back. The id list's type, [`AntIds`], checks the
//!   order wherever the list changes;
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

use antalloc_core::{AnyController, BankSliceMut, ControllerBank, SlotMap};
use antalloc_env::{AntIdSlice, AntIds, Assignment, ColonyState};
use antalloc_noise::PreparedRound;
use antalloc_rng::{reserved, uniform_index, AntRng, StreamSeeder};

use crate::config::ControllerSpec;

/// One worker's share of the colony: disjoint (controller chunk,
/// global-id chunk) pairs (see [`Population::partition_mut`]).
pub(crate) type WorkerPart<'a> = Vec<(BankSliceMut<'a>, AntIdSlice<'a>)>;

/// One homogeneous sub-population: controllers plus their ant ids.
pub(crate) struct Bank {
    /// The (non-`Mix`) spec this bank runs; used for the census.
    pub spec: ControllerSpec,
    /// The controllers, in slot order.
    pub controllers: ControllerBank,
    /// Slot → global ant id, ascending.
    pub ants: AntIds,
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

    /// Rebuilds this population in place from checkpointed columns
    /// ([`Population::capture`]): membership regroups the banks, and
    /// every bank copies its stored columns back (the assignments live
    /// in `colony`'s task column, already restored). Reuses allocations
    /// like [`Population::rebuild_in`]; a population that already holds
    /// `members` keeps its banks' id lists.
    ///
    /// `state` must hold each bank's columns as the checkpoint decoder
    /// checked them (`ControllerBank::check_state`).
    pub fn restore_in(
        &mut self,
        spec: &ControllerSpec,
        seed: u64,
        colony: &ColonyState,
        members: &[u16],
        mut state: &[u8],
    ) {
        let n = colony.num_ants();
        let num_banks = spec.mix_parts().map_or(1, <[_]>::len);
        // The id lists are a function of the membership alone.
        let same_ids = self.banks.len() == num_banks
            && self.len() == n
            && (num_banks == 1 || self.members == members);
        let k = colony.num_tasks();
        self.set_specs(spec, seed, k);
        if !same_ids {
            self.members.clear();
            self.members.extend_from_slice(members);
            self.fill_ids(n);
        }
        for bank in &mut self.banks {
            bank.spec.rebuild_bank(k, &[], &mut bank.controllers);
            let (head, rest) = state.split_at(bank.controllers.state_len(bank.len()));
            bank.controllers.read_state(bank.len(), head);
            state = rest;
        }
        debug_assert!(state.is_empty() && self.check_invariants());
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

    /// Regroups ants `0..n` into one bank per (sub-)spec (see
    /// [`Population::fill_ids`]) and rebuilds every bank's controllers
    /// fresh for its ants, reusing allocations.
    fn regroup(&mut self, spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) {
        self.set_specs(spec, seed, num_tasks);
        self.fill_ids(n);
        for bank in &mut self.banks {
            bank.spec
                .rebuild_bank(num_tasks, &bank.ants, &mut bank.controllers);
        }
    }

    /// Sizes the bank list to one bank per (sub-)spec of `spec`, names
    /// each bank's spec and reseeds the mixed membership; the banks'
    /// ids and controllers are left to the caller.
    fn set_specs(&mut self, spec: &ControllerSpec, seed: u64, num_tasks: usize) {
        let parts = spec.mix_parts();
        let sub = |b: usize| parts.map_or(spec, |parts| &parts[b].1);
        let num_banks = parts.map_or(1, <[_]>::len);
        self.banks.truncate(num_banks);
        while self.banks.len() < num_banks {
            let spec = sub(self.banks.len()).clone();
            self.banks.push(Bank {
                controllers: spec.build_bank(num_tasks, &[]),
                spec,
                ants: AntIds::default(),
            });
        }
        for (b, bank) in self.banks.iter_mut().enumerate() {
            if bank.spec != *sub(b) {
                bank.spec = sub(b).clone();
            }
        }
        self.mix =
            parts.map(|parts| MixMembership::new(seed, parts.iter().map(|(w, _)| *w).collect()));
    }

    /// Refills every bank's id list for ants `0..n`: ant `i` of a mix
    /// of two or more parts joins bank `members[i]` (set by the
    /// caller), a one-bank colony's ants all join bank 0.
    fn fill_ids(&mut self, n: usize) {
        let num_banks = self.banks.len();
        let mut ids: Vec<Vec<u32>> = (self.banks.iter_mut())
            .map(|bank| core::mem::take(&mut bank.ants).into_vec())
            .collect();
        ids.iter_mut().for_each(Vec::clear);
        if num_banks == 1 {
            self.members.clear();
            ids[0].extend(0..n as u32);
        } else {
            assert_eq!(self.members.len(), n, "one membership per ant");
            let mut lens = vec![0usize; num_banks];
            for &b in &self.members {
                lens[usize::from(b)] += 1;
            }
            for (ids, &len) in ids.iter_mut().zip(&lens) {
                ids.reserve_exact(len);
            }
            // Slots fill in global ant order, so each bank's ids ascend.
            for (id, &b) in (0..).zip(&self.members) {
                ids[usize::from(b)].push(id);
            }
        }
        for (bank, ids) in self.banks.iter_mut().zip(ids) {
            // audit:allow(panic-path): each list was filled in ascending id order just above.
            bank.ants = AntIds::try_from(ids).expect("ids filled in ascending order");
        }
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

    /// Steps the single ant `i`, whose assignment `colony` holds (the
    /// sequential model's round), drawing from its stream for the round
    /// keyed `round_key`.
    pub fn step_one(
        &mut self,
        i: usize,
        colony: &ColonyState,
        prepared: &PreparedRound,
        round_key: u64,
    ) -> Assignment {
        let (b, s) = self.locate(i);
        let rng = &mut AntRng::keyed(round_key, i as u64);
        let prior = colony.assignment(i);
        self.banks[b]
            .controllers
            .step_slot(s, prior, prepared.view(), rng)
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
        // Per bank: (new slot, old slot, new id) of each relocated ant.
        let mut lifted: Vec<Vec<(usize, usize, u32)>> = vec![Vec::new(); num_banks];
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
            lifted[b].push((to, from, v as u32));
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
            for &(to, from, _) in lifted {
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
            let mut ants = core::mem::take(&mut bank.ants).into_vec();
            map.apply(&mut ants);
            for &(to, _, id) in lifted {
                ants[to] = id;
            }
            // audit:allow(panic-path): the map keeps the ids below `len` in order and drops each relocated ant in at its new id's rank.
            bank.ants = AntIds::try_from(ants).expect("a repaired bank's ids ascend");
        }
        debug_assert!(self.check_invariants());
    }

    /// Removes the ant with global id `victim`, the global last ant
    /// taking over its id — the per-kill removal
    /// [`Population::remove_batch`] replaced, kept as its reference. It
    /// drops the victim's slot, then moves the relabelled ant to its new
    /// id's rank, each bank through its own one-step slot map, and finds
    /// slots by linear search.
    #[cfg(test)]
    fn remove(&mut self, victim: usize) {
        let last = self.len() - 1;
        // Bank `b`'s ids after `edit`, and the map taking its slots there.
        let rebuild = |bank: &mut Bank, edit: &dyn Fn(&mut Vec<u32>) -> SlotMap| {
            let mut ids = core::mem::take(&mut bank.ants).into_vec();
            let mut map = edit(&mut ids);
            map.finish();
            bank.controllers.apply_slot_map(&map);
            bank.ants = AntIds::try_from(ids).unwrap();
        };
        let b = self.bank_of(victim);
        let s = self.banks[b]
            .ants
            .iter()
            .position(|&a| a as usize == victim)
            .unwrap();
        rebuild(&mut self.banks[b], &|ids| {
            ids.remove(s);
            let mut map = SlotMap::default();
            map.keep(0, s);
            map.keep(s + 1, ids.len() - s);
            map
        });
        if victim != last {
            let b = self.bank_of(last);
            rebuild(&mut self.banks[b], &|ids| {
                // The largest id holds its bank's last slot.
                let s = ids.len() - 1;
                let to = ids.partition_point(|&a| (a as usize) < victim);
                ids.pop();
                ids.insert(to, victim as u32);
                let mut map = SlotMap::default();
                map.keep(0, to);
                map.lift(s);
                map.keep(to, s - to);
                map
            });
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

    /// The population's checkpointed columns: the membership (one bank
    /// index per ant for a mix, else empty) and every bank's stored
    /// columns, bank after bank, in slot order (see
    /// [`ControllerBank::write_state`]).
    pub fn capture(&self) -> (Vec<u16>, Vec<u8>) {
        let members = match self.mix {
            Some(_) => self.members(),
            None => Vec::new(),
        };
        let len = self
            .banks
            .iter()
            .map(|bank| bank.controllers.state_len(bank.len()));
        let mut state = Vec::with_capacity(len.sum());
        for bank in &self.banks {
            bank.controllers.write_state(&mut state);
        }
        (members, state)
    }

    /// Clones every controller into the per-ant dispatch enum, in
    /// global ant order, each with its assignment from `colony` — the
    /// reference representation the bank equivalence tests and the
    /// pre-bank baseline replay use.
    pub fn reference_controllers(&self, colony: &ColonyState) -> Vec<AnyController> {
        (self.slots_in_id_order().enumerate())
            .map(|(id, (b, s))| self.banks[b].controllers.to_any(s, colony.assignment(id)))
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
            let mut ids = bank.ants.as_ids();
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
    /// summing to `n`, strictly ascending ids (which [`AntIds`] keeps)
    /// and each id's membership naming the bank that holds it, the
    /// banks hold `0..n` once each.
    pub fn check_invariants(&self) -> bool {
        let (n, one_bank) = (self.len(), self.banks.len() == 1);
        self.members.len() == if one_bank { 0 } else { n }
            && self.banks.iter().enumerate().all(|(b, bank)| {
                bank.controllers.len() == bank.ants.len()
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
    use antalloc_core::{AntParams, PreciseSigmoidParams, ProportionalParams};
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
        let p = Population::build(&ControllerSpec::Trivial, 1, 2, 4);
        assert!(p.check_invariants());
        // The bank would still hold every id once; only the order
        // breaks, and the id list refuses it.
        let mut ids = p.banks[0].ants.to_vec();
        ids.swap(1, 2);
        assert!(AntIds::try_from(ids).is_err());
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
                for &id in ids.iter() {
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
                .flat_map(|part| part.iter().flat_map(|(_, ids)| ids.to_vec()))
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

    /// Global id → (bank, per-ant controller as text, its assignment
    /// from `colony` included).
    fn ant_map(p: &Population, colony: &ColonyState) -> Vec<(u32, String)> {
        let controllers = p.reference_controllers(colony);
        (p.slots_in_id_order().zip(controllers))
            .map(|((b, _), c)| (b as u32, format!("{c:?}")))
            .collect()
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
                            let a = batch.step_one(i, &colony, &prepared, key);
                            proptest::prop_assert_eq!(a, reference.step_one(i, &colony, &prepared, key));
                            colony.apply(i, a);
                        }
                    }
                }
                proptest::prop_assert!(batch.check_invariants(), "event {}", round);
                proptest::prop_assert_eq!(ant_map(&batch, &colony), ant_map(&reference, &colony), "event {}", round);
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
