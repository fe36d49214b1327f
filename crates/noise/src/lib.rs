//! Noisy feedback models from §2.2 of *Self-Stabilizing Task Allocation
//! In Spite of Noise* (SPAA 2020).
//!
//! Every round, each ant receives — independently, per task — a binary
//! signal [`Feedback::Lack`] or [`Feedback::Overload`] about the task's
//! deficit `Δ = d − W`. This crate implements all the feedback generators
//! the paper uses:
//!
//! * [`NoiseModel::Sigmoid`] — `P[lack] = s(Δ) = 1/(1+e^{−λΔ})`, the
//!   paper's primary stochastic model.
//! * [`NoiseModel::Adversarial`] — deterministic truth outside the grey
//!   zone `[−γ_ad·d, γ_ad·d]`, an arbitrary [`GreyZonePolicy`] inside it;
//!   includes the Theorem 3.5 load-threshold (Yao) adversary.
//! * [`NoiseModel::CorrelatedSigmoid`] — Remark 3.4: feedback whose
//!   marginals match the sigmoid but which is correlated across ants.
//! * [`NoiseModel::Exact`] — the noise-free binary feedback of Cornejo
//!   et al. \[11\], used by the baseline experiments.
//!
//! The sampling path is allocation-free: [`NoiseModel::prepare`] folds a
//! round's deficits into per-task sampling state ([`PreparedRound`]), and
//! each draw is one generator call plus a compare.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod critical;
mod feedback;
mod model;
mod policy;
mod probe;
mod sigmoid;

pub use critical::{
    critical_value_adversarial, critical_value_sigmoid, CriticalValue, GreyZone,
    PAPER_RELIABILITY_EXPONENT,
};
pub use feedback::Feedback;
pub use model::{NoiseModel, PreparedRound, RoundView, TaskFeedback};
pub use policy::{yao_demand_pair, GreyZonePolicy};
pub use probe::FeedbackProbe;
pub use sigmoid::{lack_probability, logistic, logit};
