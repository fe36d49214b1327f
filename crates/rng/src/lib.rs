//! Deterministic pseudo-randomness substrate for the `antalloc` simulator.
//!
//! The simulator needs randomness with three properties that `rand`'s
//! default generators do not provide out of the box:
//!
//! 1. **Per-agent streams without per-agent state.** In the paper's
//!    model each ant's feedback is an independent coin per (ant, round),
//!    so an ant needs no generator state that survives a round. Its
//!    draws in round `t` are the stream [`AntRng::keyed`] builds on the
//!    stack from the round's key ([`StreamSeeder::round_key`]) and the
//!    ant's id: a pure function of `(master seed, round, ant id)`. The
//!    simulation is therefore bit-reproducible however ants are
//!    partitioned across threads, and nothing about randomness has to
//!    follow an ant through kills, spawns, resets or checkpoints.
//! 2. **Cheap seeding.** A stream start is one 128-bit multiply
//!    ([`AntRng::keyed`]); subsystem streams ([`StreamSeeder::stream`])
//!    are two SplitMix64 mixes, not a cryptographic expansion.
//! 3. **Branch-light sampling.** The hot loop draws one Bernoulli variate
//!    per (ant, task) pair per round; [`Bernoulli`] reduces that to a
//!    64-bit compare against a precomputed threshold, quantized
//!    round-to-nearest onto the `2^-64` grid (realized probability within
//!    `2^-65` of the request). [`Bernoulli::fill`] is the batched form —
//!    N draws against one threshold in one monomorphic loop, bit-identical
//!    to repeated `sample` calls — which the structure-of-arrays bank
//!    loops in `antalloc-core` build their full-vector sampling step on.
//!
//! The generators are public-domain reference designs: [`AntRng`] is
//! wyrand (8 bytes of state, one multiply per draw), the one generator
//! every stream runs on, and [`SplitMix64`] mixes seeds and stream ids
//! into starting states.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod splitmix;
mod stream;
mod uniform;
mod wyrand;

pub use bernoulli::Bernoulli;
pub use splitmix::SplitMix64;
pub use stream::{reserved, StreamSeeder};
pub use uniform::{uniform_f64, uniform_index, UniformRange};
pub use wyrand::AntRng;
