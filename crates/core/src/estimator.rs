//! The user-facing Naru estimator.
//!
//! [`NaruEstimator`] bundles a trained autoregressive density model with a
//! progressive sampler behind the workspace-wide
//! [`SelectivityEstimator`] trait, so it can be dropped into the same
//! harness as every baseline. [`SamplingEstimator`] is the same wrapper
//! over an arbitrary [`ConditionalDensity`] — it is how the §6.7
//! microbenchmarks run the sampler against oracle and noisy-oracle models.
//!
//! For serving, convert a trained estimator into the lock-free
//! [`Engine`]/[`Session`](crate::engine::Session) API with
//! [`NaruEstimator::into_engine`]; the trait wrappers here keep a single
//! scratch behind a `Mutex` so they can stay `&self` for the experiment
//! harness.

use std::sync::Mutex;

use naru_data::Table;
use naru_query::{ColumnConstraint, Estimate, EstimateError, Query, SelectivityEstimator};

use crate::density::ConditionalDensity;
use crate::encoding::EncodingPolicy;
use crate::engine::{estimate_with_scratch, Engine};
use crate::model::{MadeModel, ModelConfig};
use crate::sampler::SamplerScratch;
use crate::stats::TableStats;
use crate::train::{train_model, TrainConfig, TrainReport};

/// Configuration for building a Naru estimator end-to-end.
#[derive(Debug, Clone)]
pub struct NaruConfig {
    /// Network architecture and encodings.
    pub model: ModelConfig,
    /// Training schedule.
    pub train: TrainConfig,
    /// Progressive-sampling paths per query.
    pub num_samples: usize,
}

impl Default for NaruConfig {
    fn default() -> Self {
        Self { model: ModelConfig::default(), train: TrainConfig::default(), num_samples: 2000 }
    }
}

impl NaruConfig {
    /// Starts a fluent [`NaruConfigBuilder`] from the default configuration.
    pub fn builder() -> NaruConfigBuilder {
        NaruConfigBuilder { config: Self::default() }
    }

    /// A small configuration (tiny network, few epochs, few samples) suited
    /// to unit tests, examples, and the `--quick` experiment scale.
    pub fn small() -> Self {
        Self {
            model: ModelConfig {
                hidden_sizes: vec![64, 64],
                encoding: crate::encoding::EncodingPolicy::compact(16),
                embedding_reuse: true,
                seed: 0,
            },
            train: TrainConfig::quick(4),
            num_samples: 500,
        }
    }

    /// Overrides the number of progressive samples.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        self.num_samples = num_samples;
        self
    }

    /// Overrides the RNG seeds used by the model and trainer.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.model.seed = seed;
        self.train.seed = seed;
        self
    }
}

/// Fluent builder for [`NaruConfig`] — the knobs most callers reach for,
/// without spelling out the nested `ModelConfig`/`TrainConfig` structs.
///
/// ```
/// use naru_core::NaruConfig;
///
/// let config = NaruConfig::builder()
///     .hidden_sizes(&[128, 128])
///     .epochs(6)
///     .batch_size(256)
///     .num_samples(1000)
///     .seed(7)
///     .build();
/// assert_eq!(config.model.hidden_sizes, vec![128, 128]);
/// assert_eq!(config.train.epochs, 6);
/// assert_eq!(config.num_samples, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct NaruConfigBuilder {
    config: NaruConfig,
}

impl NaruConfigBuilder {
    /// Hidden layer widths of the MADE network.
    pub fn hidden_sizes(mut self, sizes: &[usize]) -> Self {
        self.config.model.hidden_sizes = sizes.to_vec();
        self
    }

    /// Input-encoding policy (one-hot / binary / embedding thresholds).
    pub fn encoding(mut self, policy: EncodingPolicy) -> Self {
        self.config.model.encoding = policy;
        self
    }

    /// Whether large-domain columns decode logits through embedding reuse.
    pub fn embedding_reuse(mut self, reuse: bool) -> Self {
        self.config.model.embedding_reuse = reuse;
        self
    }

    /// Number of training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.train.epochs = epochs;
        self
    }

    /// Training minibatch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.train.batch_size = batch_size;
        self
    }

    /// Adam learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.config.train.adam.lr = lr;
        self
    }

    /// Progressive-sampling paths per query.
    pub fn num_samples(mut self, num_samples: usize) -> Self {
        self.config.num_samples = num_samples;
        self
    }

    /// Seed shared by weight init, training shuffles, and evaluation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.model.seed = seed;
        self.config.train.seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> NaruConfig {
        self.config
    }
}

/// Per-estimator mutable state: the sampling scratch plus the reused
/// constraint-compilation buffer, guarded together so the trait's `&self`
/// entry points stay `Sync`.
#[derive(Default)]
struct EstimatorScratch {
    sampler: SamplerScratch,
    constraints: Vec<ColumnConstraint>,
}

/// A trained Naru model plus its progressive-sampling state.
///
/// Estimation through the [`SelectivityEstimator`] trait reuses one
/// internal scratch behind a `Mutex` (uncontended in single-threaded
/// harnesses). For concurrent serving, convert into an [`Engine`] and give
/// each thread its own `Session` instead.
pub struct NaruEstimator {
    model: MadeModel,
    num_rows: u64,
    num_samples: usize,
    seed: u64,
    table_stats: Option<TableStats>,
    scratch: Mutex<EstimatorScratch>,
}

impl NaruEstimator {
    /// Trains a model on `table` and wraps it as an estimator. Also returns
    /// the per-epoch training report (Figure 5's raw data).
    pub fn train(table: &Table, config: &NaruConfig) -> (Self, TrainReport) {
        let mut model = MadeModel::new(table.schema().domain_sizes(), &config.model);
        let report = train_model(&mut model, table, &config.train);
        // Training is the one place with the raw table in hand, so build the
        // exact-statistics sidecar here; `into_engine` carries it into the
        // tiered serving path.
        let estimator = Self::from_model(model, config.num_samples, table.num_rows() as u64)
            .with_table_stats(TableStats::build(table));
        (estimator, report)
    }

    /// Wraps an already-trained model. `num_rows` is the modeled table's row
    /// count, used to report estimated cardinalities.
    pub fn from_model(model: MadeModel, num_samples: usize, num_rows: u64) -> Self {
        Self {
            model,
            num_rows,
            num_samples,
            seed: 0,
            table_stats: None,
            scratch: Mutex::new(EstimatorScratch::default()),
        }
    }

    /// Attaches (or replaces) the exact-statistics sidecar used by the
    /// tiered serving path. `train` does this automatically; `from_model`
    /// callers who have the table can opt in here.
    pub fn with_table_stats(mut self, stats: TableStats) -> Self {
        self.table_stats = Some(stats);
        self
    }

    /// The exact-statistics sidecar, if one was built or attached.
    pub fn table_stats(&self) -> Option<&TableStats> {
        self.table_stats.as_ref()
    }

    /// Changes the number of progressive samples (Naru-1000 vs Naru-2000 …).
    /// A pure knob: no sampler or scratch is rebuilt — buffers resize lazily
    /// on the next estimate.
    pub fn set_num_samples(&mut self, num_samples: usize) {
        self.num_samples = num_samples;
    }

    /// The configured number of progressive samples.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// The underlying density model.
    pub fn model(&self) -> &MadeModel {
        &self.model
    }

    /// Mutable access to the model, for fine-tuning on new data. Forgets
    /// the memoized walk prefixes, which the changed weights invalidate.
    pub fn model_mut(&mut self) -> &mut MadeModel {
        self.scratch.get_mut().unwrap_or_else(|e| e.into_inner()).sampler.clear_memo();
        &mut self.model
    }

    /// Row count of the table the model was trained on.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Estimates a query with an explicit sample count, reusing the
    /// estimator's scratch (no per-call sampler construction).
    pub fn try_estimate_with_samples(&self, query: &Query, num_samples: usize) -> Result<Estimate, EstimateError> {
        let scratch = &mut *self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        estimate_with_scratch(
            &self.model,
            self.num_rows,
            query,
            num_samples,
            self.seed,
            &mut scratch.sampler,
            &mut scratch.constraints,
        )
    }

    /// Converts the estimator into a shareable [`Engine`] (consuming it;
    /// the model moves into an `Arc`). The engine inherits the estimator's
    /// sample count and seed as session defaults.
    pub fn into_engine(self) -> Engine {
        let engine = Engine::new(self.model, self.num_rows).with_samples(self.num_samples).with_seed(self.seed);
        match self.table_stats {
            Some(stats) => engine.with_table_stats(stats),
            None => engine,
        }
    }
}

impl SelectivityEstimator for NaruEstimator {
    fn name(&self) -> String {
        format!("Naru-{}", self.num_samples)
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        self.try_estimate_with_samples(query, self.num_samples)
    }

    fn try_estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        // Lock once for the whole batch instead of per query.
        let scratch = &mut *self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        queries
            .iter()
            .map(|query| {
                estimate_with_scratch(
                    &self.model,
                    self.num_rows,
                    query,
                    self.num_samples,
                    self.seed,
                    &mut scratch.sampler,
                    &mut scratch.constraints,
                )
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.model.size_bytes()
    }
}

/// Progressive sampling over an arbitrary density (oracle, noisy oracle, or
/// a column-wise model), exposed as a [`SelectivityEstimator`].
pub struct SamplingEstimator<D: ConditionalDensity> {
    density: D,
    num_samples: usize,
    seed: u64,
    label: String,
    size_bytes: usize,
    num_rows: u64,
    scratch: Mutex<EstimatorScratch>,
}

impl<D: ConditionalDensity> SamplingEstimator<D> {
    /// Wraps `density` with `num_samples` progressive-sampling paths.
    pub fn new(density: D, num_samples: usize, label: impl Into<String>) -> Self {
        Self {
            density,
            num_samples,
            seed: 0,
            label: label.into(),
            size_bytes: 0,
            num_rows: 0,
            scratch: Mutex::new(EstimatorScratch::default()),
        }
    }

    /// Records a nominal summary size (oracles have no meaningful size; a
    /// trained model passes its parameter bytes).
    pub fn with_size_bytes(mut self, size: usize) -> Self {
        self.size_bytes = size;
        self
    }

    /// Records the modeled table's row count so estimates report
    /// cardinalities. Without it, `Estimate::estimated_rows` is `0` (the
    /// selectivity is still exact).
    pub fn with_num_rows(mut self, num_rows: u64) -> Self {
        self.num_rows = num_rows;
        self
    }

    /// The wrapped density.
    pub fn density(&self) -> &D {
        &self.density
    }
}

impl<D: ConditionalDensity> SelectivityEstimator for SamplingEstimator<D> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        let scratch = &mut *self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        estimate_with_scratch(
            &self.density,
            self.num_rows,
            query,
            self.num_samples,
            self.seed,
            &mut scratch.sampler,
            &mut scratch.constraints,
        )
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::oracle::OracleDensity;
    use crate::sampler::{ProgressiveSampler, SamplerConfig};
    use naru_data::synthetic::correlated_pair;
    use naru_query::{q_error_from_selectivity, true_selectivity, Predicate, WorkloadConfig};

    fn sel(est: &dyn SelectivityEstimator, q: &Query) -> f64 {
        est.try_estimate(q).expect("valid query").selectivity
    }

    #[test]
    fn trained_estimator_beats_independence_on_correlated_data() {
        // The core claim of the paper in miniature: on correlated data the
        // learned joint beats the independence assumption.
        let table = correlated_pair(3000, 6, 0.95, 9);
        let config = NaruConfig {
            model: ModelConfig {
                hidden_sizes: vec![32, 32],
                encoding: crate::encoding::EncodingPolicy::compact(8),
                embedding_reuse: true,
                seed: 2,
            },
            train: TrainConfig { epochs: 6, batch_size: 128, eval_tuples: 0, ..Default::default() },
            num_samples: 300,
        };
        let (estimator, _) = NaruEstimator::train(&table, &config);

        // Independence baseline computed from exact marginals.
        let indep = crate::density::IndependentDensity::from_table(&table);

        let queries = vec![
            Query::new(vec![Predicate::eq(0, 0), Predicate::eq(1, 0)]),
            Query::new(vec![Predicate::eq(0, 1), Predicate::eq(1, 1)]),
            Query::new(vec![Predicate::le(0, 1), Predicate::le(1, 1)]),
        ];
        let mut naru_worse = 0;
        for q in &queries {
            let truth = true_selectivity(&table, q);
            let naru_est = sel(&estimator, q);
            let indep_est: f64 = {
                // Closed-form product of marginal selectivities.
                let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 200, seed: 1 });
                sampler.estimate(&indep, &q.constraints(2))
            };
            let naru_err = q_error_from_selectivity(naru_est, truth, table.num_rows());
            let indep_err = q_error_from_selectivity(indep_est, truth, table.num_rows());
            if naru_err > indep_err * 1.05 {
                naru_worse += 1;
            }
        }
        assert!(naru_worse <= 1, "Naru lost to independence on {naru_worse}/3 correlated queries");
    }

    #[test]
    fn fine_tuning_through_model_mut_invalidates_the_walk_memo() {
        let table = correlated_pair(300, 4, 0.8, 1);
        let (mut est, _) = NaruEstimator::train(&table, &NaruConfig::small().with_samples(64));
        let q = Query::new(vec![Predicate::le(0, 1), Predicate::ge(1, 2)]);
        let before = sel(&est, &q);
        est.model_mut().train_step(&[vec![3, 0], vec![3, 1]], &naru_nn::optimizer::AdamConfig::default());
        // A fresh walk over the changed weights, not a resumption of the
        // memoized walk over the old ones.
        let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 64, seed: 0 });
        let expected = sampler.estimate(est.model(), &q.constraints(2));
        assert_ne!(expected, before, "the training step must move this estimate");
        assert_eq!(sel(&est, &q), expected);
    }

    #[test]
    fn estimator_name_and_size() {
        let table = correlated_pair(300, 4, 0.8, 1);
        let config = NaruConfig::small().with_samples(123);
        let (est, _) = NaruEstimator::train(&table, &config);
        assert_eq!(est.name(), "Naru-123");
        assert!(est.size_bytes() > 0);
        assert_eq!(est.num_rows(), 300);
    }

    #[test]
    fn builder_covers_the_common_knobs() {
        let config = NaruConfig::builder()
            .hidden_sizes(&[16, 16])
            .epochs(2)
            .batch_size(64)
            .learning_rate(1e-3)
            .num_samples(77)
            .embedding_reuse(false)
            .encoding(EncodingPolicy::compact(8))
            .seed(5)
            .build();
        assert_eq!(config.model.hidden_sizes, vec![16, 16]);
        assert!(!config.model.embedding_reuse);
        assert_eq!(config.train.epochs, 2);
        assert_eq!(config.train.batch_size, 64);
        assert_eq!(config.train.seed, 5);
        assert_eq!(config.model.seed, 5);
        assert_eq!(config.num_samples, 77);
    }

    #[test]
    fn set_num_samples_is_a_pure_knob() {
        let table = correlated_pair(400, 4, 0.8, 2);
        let (mut est, _) = NaruEstimator::train(&table, &NaruConfig::small().with_samples(100));
        let q = Query::new(vec![Predicate::le(0, 2)]);
        let at_100 = sel(&est, &q);
        // Explicit-count estimation through the same scratch matches the
        // estimator reconfigured to that count.
        let explicit = est.try_estimate_with_samples(&q, 40).unwrap().selectivity;
        est.set_num_samples(40);
        assert_eq!(est.name(), "Naru-40");
        assert_eq!(sel(&est, &q), explicit);
        est.set_num_samples(100);
        assert_eq!(sel(&est, &q), at_100);
    }

    #[test]
    fn sampling_estimator_wraps_oracle() {
        let table = correlated_pair(1000, 6, 0.9, 4);
        let oracle = OracleDensity::new(&table);
        let est = SamplingEstimator::new(oracle, 400, "Oracle-400").with_num_rows(table.num_rows() as u64);
        let q = Query::new(vec![Predicate::le(0, 2), Predicate::ge(1, 1)]);
        let truth = true_selectivity(&table, &q);
        let estimate = est.try_estimate(&q).unwrap();
        assert!(q_error_from_selectivity(estimate.selectivity, truth, table.num_rows()) < 1.5);
        assert!(estimate.live_paths.unwrap() <= 400);
        assert_eq!(est.name(), "Oracle-400");
        assert_eq!(est.size_bytes(), 0);
    }

    #[test]
    fn estimates_stay_in_unit_interval_across_a_workload() {
        let table = correlated_pair(800, 8, 0.7, 5);
        let (est, _) = NaruEstimator::train(&table, &NaruConfig::small().with_samples(100));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let workload = naru_query::generate_workload(
            &table,
            &WorkloadConfig { min_filters: 1, max_filters: 2, ..Default::default() },
            20,
            &mut rng,
        );
        for lq in &workload {
            let s = sel(&est, &lq.query);
            assert!((0.0..=1.0).contains(&s), "selectivity {s} out of range");
        }
    }

    #[test]
    fn into_engine_preserves_estimates() {
        let table = correlated_pair(600, 5, 0.85, 6);
        let (est, _) = NaruEstimator::train(&table, &NaruConfig::small().with_samples(150));
        let q = Query::new(vec![Predicate::le(0, 2), Predicate::ge(1, 1)]);
        let direct = est.try_estimate(&q).unwrap();
        let engine = est.into_engine();
        let via_session = engine.session().estimate(&q).unwrap();
        assert_eq!(direct.selectivity, via_session.selectivity);
        assert_eq!(direct.live_paths, via_session.live_paths);
        assert_eq!(engine.num_rows(), 600);
    }
}
