//! # naru-core
//!
//! The paper's primary contribution: selectivity estimation with deep
//! autoregressive likelihood models and progressive sampling.
//!
//! The crate is organized exactly along the paper's sections:
//!
//! * [`encoding`] — per-column input encodings and the small/large-domain
//!   policy (§4.2),
//! * [`model`] — the MADE-style masked autoregressive network
//!   ("architecture B") with optional embedding-reuse output decoding,
//! * [`columnwise`] — the per-column-net architecture ("architecture A",
//!   §3.2), kept for the §4.3 ablation,
//! * [`train`] — unsupervised maximum-likelihood training and fine-tuning
//!   (Eq. 2, §6.7.3),
//! * [`density`] — the [`ConditionalDensity`] abstraction plus the
//!   entropy-gap goodness-of-fit (§3.3),
//! * [`sampler`] — progressive sampling, Algorithm 1 (§5.1), plus the naive
//!   uniform sampler it replaces,
//! * [`enumeration`] — exact summation over small query regions (§5),
//! * [`oracle`] — oracle and noisy-oracle densities for the §6.7
//!   microbenchmarks,
//! * [`estimator`] — the [`NaruEstimator`] facade implementing the
//!   workspace-wide `SelectivityEstimator` trait,
//! * [`engine`] — the serving-oriented [`Engine`]/[`Session`] split: one
//!   shared immutable artifact, one lock-free mutable scratch per thread,
//! * [`stats`] — exact per-column summaries, MCV/equi-depth histograms, HLL
//!   NDV sketches, and uniform row samples shared by the tiered router and
//!   the baseline estimators,
//! * [`tiered`] — the tiered estimation pipeline: exact statistics (tier
//!   0), sketches under a q-error budget (tier 1), then the model (tier 2),
//!   with per-answer [`Provenance`](naru_query::Provenance) tags.

#![forbid(unsafe_code)]

pub mod columnwise;
pub mod density;
pub mod encoding;
pub mod engine;
pub mod enumeration;
pub mod estimator;
pub mod model;
pub mod oracle;
pub mod sampler;
pub mod stats;
pub mod tiered;
pub mod train;

pub use columnwise::{ColumnwiseConfig, ColumnwiseModel};
pub use density::{average_nll_bits, entropy_gap_bits, ConditionalDensity, IndependentDensity, InferenceScratch};
pub use encoding::{ColumnEncoding, EncodingPolicy};
pub use engine::{Engine, Session, SharedDensity};
pub use enumeration::{enumerate_exact, EnumerationResult};
pub use estimator::{NaruConfig, NaruConfigBuilder, NaruEstimator, SamplingEstimator};
pub use model::{MadeModel, ModelConfig};
pub use oracle::{calibrate_epsilon, NoisyOracle, OracleDensity};
pub use sampler::{uniform_sampling_estimate, ProgressiveSampler, SampleEstimate, SamplerConfig};
pub use stats::{ColumnHistogram, ColumnSummary, NdvSketch, StatsConfig, TableSample, TableStats};
pub use tiered::{DegradedMode, TierConfig, TieredSession};
pub use train::{
    fine_tune, table_tuples, train_model, EpochStats, TrainConfig, TrainReport, TrainWorkspace, TrainableDensity,
};
