//! The MADE-style masked autoregressive model ("architecture B", §4.3).
//!
//! One network models the whole relation. Each column's dictionary id is
//! encoded (one-hot / binary / embedding per [`crate::encoding`]), the
//! encodings are concatenated and pushed through a stack of *masked* linear
//! layers whose connectivity enforces the autoregressive property, and the
//! output is partitioned into per-column blocks that decode into logits
//! over each column's domain — either directly or through the
//! "embedding reuse" trick for large domains (§4.2).
//!
//! Training maximizes the likelihood of the data (Eq. 2): the per-tuple
//! negative log-likelihood decomposes into one softmax cross-entropy term
//! per column.

use naru_nn::linear::Linear;
use naru_nn::loss::cross_entropy_grad_into;
use naru_nn::made::{build_made_masks, GroupSpec};
use naru_nn::optimizer::AdamConfig;
use naru_nn::{Embedding, Relu};
use naru_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::density::{ConditionalDensity, InferenceScratch};
use crate::encoding::{encode_binary, ColumnEncoding, EncodingPolicy};

/// Hyper-parameters of the MADE model.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Hidden layer widths, e.g. `[256, 256, 256, 256]`.
    pub hidden_sizes: Vec<usize>,
    /// Input-encoding policy.
    pub encoding: EncodingPolicy,
    /// Use the embedding-reuse output decoding for embedding-encoded
    /// columns (§4.2). When false, every column gets a direct output head.
    pub embedding_reuse: bool,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden_sizes: vec![128, 128, 128, 128],
            encoding: EncodingPolicy::default(),
            embedding_reuse: true,
            seed: 0,
        }
    }
}

impl ModelConfig {
    /// A small configuration suited to unit tests and quick experiments.
    pub fn tiny() -> Self {
        Self { hidden_sizes: vec![32, 32], encoding: EncodingPolicy::compact(8), embedding_reuse: true, seed: 0 }
    }
}

/// How one column's output block turns into logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputKind {
    /// The block *is* the logits (width `|A_i|`).
    Direct,
    /// The block is an `h`-dim feature multiplied with the column's
    /// embedding table (width `h`, logits width `|A_i|`).
    EmbeddingReuse,
}

/// The masked autoregressive density model.
pub struct MadeModel {
    domain_sizes: Vec<usize>,
    encodings: Vec<ColumnEncoding>,
    output_kinds: Vec<OutputKind>,
    embeddings: Vec<Option<Embedding>>,
    spec: GroupSpec,
    input_offsets: Vec<usize>,
    output_offsets: Vec<usize>,
    hidden: Vec<Linear>,
    output: Linear,
    relu: Relu,
}

impl MadeModel {
    /// Builds an untrained model for a table with the given domain sizes.
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    pub fn new(domain_sizes: &[usize], config: &ModelConfig) -> Self {
        // lint: allow(panic) - documented constructor contract: a table with no columns is a caller bug
        assert!(!domain_sizes.is_empty(), "model needs at least one column");
        // lint: allow(panic) - documented constructor contract: an MLP needs at least one hidden layer
        assert!(!config.hidden_sizes.is_empty(), "model needs at least one hidden layer");
        let mut rng = StdRng::seed_from_u64(config.seed);

        let encodings = config.encoding.choose_all(domain_sizes);
        let mut embeddings: Vec<Option<Embedding>> = Vec::with_capacity(domain_sizes.len());
        let mut output_kinds = Vec::with_capacity(domain_sizes.len());
        let mut input_widths = Vec::with_capacity(domain_sizes.len());
        let mut output_widths = Vec::with_capacity(domain_sizes.len());

        for (col, (&domain, encoding)) in domain_sizes.iter().zip(encodings.iter()).enumerate() {
            let _ = col;
            input_widths.push(encoding.width(domain));
            match encoding {
                ColumnEncoding::Embedding { dim } => {
                    embeddings.push(Some(Embedding::new(&mut rng, domain, *dim)));
                    if config.embedding_reuse {
                        output_kinds.push(OutputKind::EmbeddingReuse);
                        output_widths.push(*dim);
                    } else {
                        output_kinds.push(OutputKind::Direct);
                        output_widths.push(domain);
                    }
                }
                _ => {
                    embeddings.push(None);
                    output_kinds.push(OutputKind::Direct);
                    output_widths.push(domain);
                }
            }
        }

        let spec = GroupSpec::new(input_widths, output_widths);
        let masks = build_made_masks(&spec, &config.hidden_sizes);
        let mut hidden = Vec::with_capacity(config.hidden_sizes.len());
        let mut in_dim = spec.total_input();
        for (i, &h) in config.hidden_sizes.iter().enumerate() {
            hidden.push(Linear::new_masked(&mut rng, in_dim, h, masks[i].clone()));
            in_dim = h;
        }
        let output =
            Linear::new_masked(&mut rng, in_dim, spec.total_output(), masks[config.hidden_sizes.len()].clone());

        let input_offsets = spec.input_offsets();
        let output_offsets = spec.output_offsets();
        Self {
            domain_sizes: domain_sizes.to_vec(),
            encodings,
            output_kinds,
            embeddings,
            spec,
            input_offsets,
            output_offsets,
            hidden,
            output,
            relu: Relu,
        }
    }

    /// Number of trainable parameters (masked weights excluded).
    pub fn param_count(&self) -> usize {
        let net: usize = self.hidden.iter().map(Linear::param_count).sum::<usize>() + self.output.param_count();
        let emb: usize = self.embeddings.iter().flatten().map(Embedding::param_count).sum();
        net + emb
    }

    /// Model size in bytes (f32 parameters), the quantity the paper's
    /// storage budgets constrain.
    pub fn size_bytes(&self) -> usize {
        naru_nn::params_size_bytes(self.param_count())
    }

    /// The encoding chosen for each column.
    pub fn encodings(&self) -> &[ColumnEncoding] {
        &self.encodings
    }

    /// Encodes one id into column `col`'s input block of a row slice.
    #[inline]
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    fn encode_slot(&self, col: usize, id: u32, row: &mut [f32]) {
        let off = self.input_offsets[col];
        let width = self.spec.input_widths[col];
        let slot = &mut row[off..off + width];
        match &self.encodings[col] {
            ColumnEncoding::OneHot => slot[id as usize] = 1.0,
            ColumnEncoding::Binary => encode_binary(id, width, slot),
            ColumnEncoding::Embedding { .. } => {
                // lint: allow(panic) - embeddings[col] is Some for every Embedding column by construction in new()
                let emb = self.embeddings[col].as_ref().expect("embedding present");
                slot.copy_from_slice(emb.table().row(id as usize));
            }
        }
    }

    /// Encodes a batch of id tuples into the network input matrix.
    fn encode_input(&self, tuples: &[Vec<u32>]) -> Matrix {
        let mut x = Matrix::zeros(tuples.len(), self.spec.total_input());
        for (r, tuple) in tuples.iter().enumerate() {
            debug_assert_eq!(tuple.len(), self.domain_sizes.len(), "tuple width mismatch");
            let row = x.row_mut(r);
            for (col, &id) in tuple.iter().enumerate() {
                self.encode_slot(col, id, row);
            }
        }
        x
    }

    /// Incrementally maintains the encoded batch in `scratch.enc` so that
    /// the leading `col` column blocks are valid for the flat `tuples`
    /// batch. Blocks already encoded on a previous step are left untouched —
    /// the sampler's prefixes never change once sampled (only compact) —
    /// so each step encodes exactly one new block instead of re-encoding
    /// the whole prefix.
    ///
    /// Blocks `>= col` stay zero; the MADE masks hold the weights out of
    /// those blocks at exactly 0, so this is equivalent to encoding the
    /// full tuple as the allocating path does.
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    fn encode_prefix_into(&self, tuples: &[u32], rows: usize, col: usize, scratch: &mut InferenceScratch) {
        let total = self.spec.total_input();
        let n = self.domain_sizes.len();
        let fresh = !scratch.enc_valid || scratch.enc.shape() != (rows, total);
        if fresh {
            // lint: allow(no_alloc) - resize on a caller-retained buffer: allocates only on first use or growth, amortized to zero in the steady state
            scratch.enc.resize(rows, total);
            scratch.enc.fill_zero();
            scratch.enc_cols = 0;
            scratch.enc_valid = true;
        }
        for c in scratch.enc_cols..col {
            for r in 0..rows {
                let id = tuples[r * n + c];
                self.encode_slot(c, id, scratch.enc.row_mut(r));
            }
        }
        scratch.enc_cols = scratch.enc_cols.max(col);
    }

    /// Runs the hidden stack over `input` using workspace buffers 0 and 1
    /// (ping-pong), returning the buffer index holding the final hidden
    /// activation. Allocation-free once the buffers are warm.
    fn forward_hidden_ws(&self, input: &Matrix, ws: &mut naru_nn::Workspace) -> usize {
        let mut cur = 0usize;
        for (i, layer) in self.hidden.iter().enumerate() {
            if i == 0 {
                layer.forward_into(input, ws.buf_mut(0));
            } else {
                let next = 1 - cur;
                let (read, write) = ws.pair_mut(cur, next);
                layer.forward_into(read, write);
                cur = next;
            }
            self.relu.forward_inplace(ws.buf_mut(cur));
        }
        cur
    }

    /// Runs the trunk (hidden stack + output layer) without retaining
    /// activations — the inference path.
    fn forward_trunk(&self, input: &Matrix) -> Matrix {
        let mut h = input.clone();
        for layer in &self.hidden {
            let pre = layer.forward(&h);
            h = self.relu.forward(&pre);
        }
        self.output.forward(&h)
    }

    /// Extracts column `col`'s block from the trunk output.
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    fn output_block(&self, trunk_out: &Matrix, col: usize) -> Matrix {
        let lo = self.output_offsets[col];
        let hi = self.output_offsets[col + 1];
        let mut block = Matrix::zeros(trunk_out.rows(), hi - lo);
        for r in 0..trunk_out.rows() {
            block.row_mut(r).copy_from_slice(&trunk_out.row(r)[lo..hi]);
        }
        block
    }

    /// Logits over column `col`'s domain for a batch (applies embedding
    /// reuse decoding when configured).
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    fn logits_for_column(&self, trunk_out: &Matrix, col: usize) -> Matrix {
        let block = self.output_block(trunk_out, col);
        match self.output_kinds[col] {
            OutputKind::Direct => block,
            OutputKind::EmbeddingReuse => {
                // lint: allow(panic) - embeddings[col] is Some for every EmbeddingReuse output by construction in new()
                let emb = self.embeddings[col].as_ref().expect("embedding present");
                emb.decode_logits(&block)
            }
        }
    }

    /// One maximum-likelihood gradient step on a batch of tuples.
    ///
    /// Returns the mean negative log-likelihood of the batch in nats per
    /// tuple (the training loss). Convenience wrapper over
    /// [`MadeModel::train_step_with`] with a transient workspace; training
    /// loops should hold one [`TrainWorkspace`](crate::train::TrainWorkspace)
    /// and reuse it so every batch after the first allocates nothing.
    pub fn train_step(&mut self, tuples: &[Vec<u32>], adam: &AdamConfig) -> f64 {
        let mut ws = crate::train::TrainWorkspace::default();
        self.train_step_with(tuples, adam, &mut ws)
    }

    /// Workspace-reusing gradient step: encoding, retained activations, the
    /// per-column loss buffers, and the backward ping-pong gradients all
    /// live in `ws`, so a training loop that reuses one workspace runs the
    /// whole step allocation-free at steady state (mirroring what
    /// `InferenceScratch` does for the sampling hot path).
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    pub fn train_step_with(
        &mut self,
        tuples: &[Vec<u32>],
        adam: &AdamConfig,
        ws: &mut crate::train::TrainWorkspace,
    ) -> f64 {
        // lint: allow(panic) - documented train_step contract: an empty batch has no gradient
        assert!(!tuples.is_empty(), "empty batch");
        let rows = tuples.len();
        let n = self.num_columns();
        let depth = self.hidden.len();

        // Encode the batch into the reused input buffer.
        ws.input.resize(rows, self.spec.total_input());
        ws.input.fill_zero();
        for (r, tuple) in tuples.iter().enumerate() {
            debug_assert_eq!(tuple.len(), n, "tuple width mismatch");
            let row = ws.input.row_mut(r);
            for (col, &id) in tuple.iter().enumerate() {
                self.encode_slot(col, id, row);
            }
        }

        // Forward pass, retaining pre- and post-activations per layer.
        ws.pre_acts.resize_with(depth, || Matrix::zeros(0, 0));
        ws.acts.resize_with(depth, || Matrix::zeros(0, 0));
        for i in 0..depth {
            if i == 0 {
                self.hidden[i].forward_into(&ws.input, &mut ws.pre_acts[i]);
            } else {
                let (acts, pre_acts) = (&ws.acts, &mut ws.pre_acts);
                self.hidden[i].forward_into(&acts[i - 1], &mut pre_acts[i]);
            }
            let pre = &ws.pre_acts[i];
            ws.acts[i].resize(pre.rows(), pre.cols());
            ws.acts[i].data_mut().copy_from_slice(pre.data());
            self.relu.forward_inplace(&mut ws.acts[i]);
        }
        self.output.forward_into(&ws.acts[depth - 1], &mut ws.trunk_out);

        // Per-column losses and the gradient w.r.t. the trunk output.
        let mut total_loss = 0.0f64;
        ws.d_trunk.resize(rows, self.spec.total_output());
        ws.d_trunk.fill_zero();
        for col in 0..n {
            ws.targets.clear();
            ws.targets.extend(tuples.iter().map(|t| t[col] as usize));
            let lo = self.output_offsets[col];
            let hi = self.output_offsets[col + 1];
            ws.block.resize(rows, hi - lo);
            for r in 0..rows {
                ws.block.row_mut(r).copy_from_slice(&ws.trunk_out.row(r)[lo..hi]);
            }
            match self.output_kinds[col] {
                OutputKind::Direct => {
                    total_loss += cross_entropy_grad_into(&ws.block, &ws.targets, &mut ws.grad_logits);
                    for r in 0..rows {
                        ws.d_trunk.row_mut(r)[lo..hi].copy_from_slice(ws.grad_logits.row(r));
                    }
                }
                OutputKind::EmbeddingReuse => {
                    // lint: allow(panic) - embeddings[col] is Some for every EmbeddingReuse output by construction in new()
                    let emb = self.embeddings[col].as_mut().expect("embedding present");
                    emb.decode_logits_into(&ws.block, &mut ws.logits);
                    total_loss += cross_entropy_grad_into(&ws.logits, &ws.targets, &mut ws.grad_logits);
                    emb.backward_decode_into(&ws.block, &ws.grad_logits, &mut ws.d_block, &mut ws.d_table);
                    for r in 0..rows {
                        ws.d_trunk.row_mut(r)[lo..hi].copy_from_slice(ws.d_block.row(r));
                    }
                }
            }
        }

        // Back-propagate through the trunk, ping-ponging between the two
        // reused gradient buffers.
        self.output.backward_into(&ws.acts[depth - 1], &ws.d_trunk, &mut ws.grad_a, &mut ws.dw);
        let mut current_is_a = true;
        for i in (0..depth).rev() {
            let (cur, next) =
                if current_is_a { (&mut ws.grad_a, &mut ws.grad_b) } else { (&mut ws.grad_b, &mut ws.grad_a) };
            self.relu.backward_inplace(&ws.pre_acts[i], cur);
            if i == 0 {
                self.hidden[i].backward_into(&ws.input, cur, next, &mut ws.dw);
            } else {
                self.hidden[i].backward_into(&ws.acts[i - 1], cur, next, &mut ws.dw);
            }
            current_is_a = !current_is_a;
        }
        let input_grad = if current_is_a { &ws.grad_a } else { &ws.grad_b };

        // Input-encoding gradients only exist for embedding-encoded columns.
        for col in 0..n {
            if let ColumnEncoding::Embedding { .. } = self.encodings[col] {
                let off = self.input_offsets[col];
                let width = self.spec.input_widths[col];
                ws.targets.clear();
                ws.targets.extend(tuples.iter().map(|t| t[col] as usize));
                ws.block_grad.resize(rows, width);
                for r in 0..rows {
                    ws.block_grad.row_mut(r).copy_from_slice(&input_grad.row(r)[off..off + width]);
                }
                // lint: allow(panic) - embeddings[col] is Some for every Embedding column by construction in new()
                let emb = self.embeddings[col].as_mut().expect("embedding present");
                emb.backward(&ws.targets, &ws.block_grad);
            }
        }

        // Parameter update.
        for layer in &mut self.hidden {
            layer.adam_step(adam);
            layer.zero_grad();
        }
        self.output.adam_step(adam);
        self.output.zero_grad();
        for emb in self.embeddings.iter_mut().flatten() {
            emb.adam_step(adam);
            emb.zero_grad();
        }

        total_loss
    }

    /// Per-tuple log-likelihood in nats, computed in a single forward pass.
    ///
    /// Runs through a local workspace: one trunk pass, then one output
    /// *block* per column (log-softmaxed in place), so no per-column
    /// matrices are allocated.
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    pub fn log_likelihood_batch(&self, tuples: &[Vec<u32>]) -> Vec<f64> {
        if tuples.is_empty() {
            return Vec::new();
        }
        let input = self.encode_input(tuples);
        let mut ws = naru_nn::Workspace::new();
        let h = self.forward_hidden_ws(&input, &mut ws);
        let mut ll = vec![0.0f64; tuples.len()];
        for col in 0..self.num_columns() {
            let lo = self.output_offsets[col];
            let hi = self.output_offsets[col + 1];
            {
                let (hidden, block) = ws.pair_mut(h, 2);
                self.output.forward_block_into(hidden, lo..hi, block);
            }
            let logit_buf = match self.output_kinds[col] {
                OutputKind::Direct => 2,
                OutputKind::EmbeddingReuse => {
                    // lint: allow(panic) - embeddings[col] is Some for every EmbeddingReuse output by construction in new()
                    let emb = self.embeddings[col].as_ref().expect("embedding present");
                    let (block, logits) = ws.pair_mut(2, 3);
                    emb.decode_logits_into(block, logits);
                    3
                }
            };
            let log_probs = ws.buf_mut(logit_buf);
            naru_tensor::log_softmax_rows_inplace(log_probs);
            for (t, tuple) in tuples.iter().enumerate() {
                ll[t] += log_probs.get(t, tuple[col] as usize) as f64;
            }
        }
        ll
    }
}

impl ConditionalDensity for MadeModel {
    fn num_columns(&self) -> usize {
        self.domain_sizes.len()
    }

    fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    fn conditionals(&self, tuples: &[Vec<u32>], col: usize) -> Matrix {
        let input = self.encode_input(tuples);
        let trunk_out = self.forward_trunk(&input);
        let logits = self.logits_for_column(&trunk_out, col);
        naru_tensor::softmax_rows(&logits)
    }

    /// The zero-allocation hot path behind progressive sampling: reuses the
    /// incrementally-encoded input batch and the workspace activation
    /// buffers, and computes only column `col`'s output block instead of the
    /// whole output layer.
    // lint: allow_fn(index) - indices are bounded by the model shape fixed in new(); the autoregressive kernels keep direct indexing
    fn conditionals_into(
        &self,
        tuples: &[u32],
        num_cols: usize,
        col: usize,
        out: &mut Matrix,
        scratch: &mut InferenceScratch,
    ) {
        // lint: allow(panic) - shape contract shared with the sampler: callers pass width-checked tuples
        assert_eq!(num_cols, self.num_columns(), "tuple width mismatch");
        let rows = tuples.len().checked_div(num_cols).unwrap_or(0);
        self.encode_prefix_into(tuples, rows, col, scratch);
        let h = self.forward_hidden_ws(&scratch.enc, &mut scratch.nn);
        let lo = self.output_offsets[col];
        let hi = self.output_offsets[col + 1];
        match self.output_kinds[col] {
            OutputKind::Direct => {
                self.output.forward_block_into(scratch.nn.buf(h), lo..hi, out);
            }
            OutputKind::EmbeddingReuse => {
                // lint: allow(panic) - embeddings[col] is Some for every EmbeddingReuse output by construction in new()
                let emb = self.embeddings[col].as_ref().expect("embedding present");
                {
                    let (hidden, block) = scratch.nn.pair_mut(h, 2);
                    self.output.forward_block_into(hidden, lo..hi, block);
                }
                emb.decode_logits_into(scratch.nn.buf(2), out);
            }
        }
        naru_tensor::softmax_rows_inplace(out);
    }

    fn log_likelihood(&self, tuples: &[Vec<u32>]) -> Vec<f64> {
        self.log_likelihood_batch(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples_from(table: &[[u32; 3]]) -> Vec<Vec<u32>> {
        table.iter().map(|row| row.to_vec()).collect()
    }

    #[test]
    fn model_builds_with_mixed_encodings() {
        let config = ModelConfig {
            hidden_sizes: vec![32, 16],
            encoding: EncodingPolicy { one_hot_threshold: 8, embedding_dim: 4, prefer_binary_for_large: false },
            embedding_reuse: true,
            seed: 1,
        };
        let model = MadeModel::new(&[4, 100, 2], &config);
        assert_eq!(model.encodings()[0], ColumnEncoding::OneHot);
        assert_eq!(model.encodings()[1], ColumnEncoding::Embedding { dim: 4 });
        assert_eq!(model.output_kinds[1], OutputKind::EmbeddingReuse);
        assert!(model.param_count() > 0);
        assert_eq!(model.size_bytes(), model.param_count() * 4);
    }

    #[test]
    fn conditionals_are_distributions() {
        let model = MadeModel::new(&[3, 5, 4], &ModelConfig::tiny());
        let tuples = tuples_from(&[[0, 1, 2], [2, 4, 0]]);
        for col in 0..3 {
            let probs = model.conditionals(&tuples, col);
            assert_eq!(probs.shape(), (2, [3, 5, 4][col]));
            for r in 0..2 {
                let s: f32 = probs.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "row {r} of col {col} sums to {s}");
                assert!(probs.row(r).iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn autoregressive_property_first_column_ignores_inputs() {
        // P(X_0) must be identical regardless of the values of other columns
        // *and* of column 0 itself (it is unconditional).
        let model = MadeModel::new(&[3, 5, 4], &ModelConfig::tiny());
        let a = model.conditionals(&[vec![0, 0, 0]], 0);
        let b = model.conditionals(&[vec![2, 4, 3]], 0);
        for i in 0..3 {
            assert!((a.get(0, i) - b.get(0, i)).abs() < 1e-6);
        }
    }

    #[test]
    fn autoregressive_property_later_columns_ignore_future_inputs() {
        // P(X_1 | x_0) must not change when columns 2+ change.
        let model = MadeModel::new(&[3, 5, 4], &ModelConfig::tiny());
        let a = model.conditionals(&[vec![1, 0, 0]], 1);
        let b = model.conditionals(&[vec![1, 4, 3]], 1);
        for i in 0..5 {
            assert!((a.get(0, i) - b.get(0, i)).abs() < 1e-6);
        }
        // ... but it must (generally) change when column 0 changes; with an
        // untrained random network the distributions differ almost surely.
        let c = model.conditionals(&[vec![2, 0, 0]], 1);
        let differs = (0..5).any(|i| (a.get(0, i) - c.get(0, i)).abs() > 1e-7);
        assert!(differs, "conditional does not depend on earlier column at all");
    }

    #[test]
    fn training_reduces_nll_on_skewed_data() {
        // A tiny, strongly-structured dataset: column 1 always equals
        // column 0, column 2 is constant. The model should learn this and
        // the NLL should drop well below the independent-uniform baseline.
        let mut data = Vec::new();
        for i in 0..4u32 {
            for _ in 0..8 {
                data.push(vec![i, i, 0]);
            }
        }
        let config = ModelConfig {
            hidden_sizes: vec![32, 32],
            encoding: EncodingPolicy::compact(8),
            embedding_reuse: true,
            seed: 3,
        };
        let mut model = MadeModel::new(&[4, 4, 3], &config);
        let adam = AdamConfig { lr: 5e-3, ..Default::default() };
        let first = model.train_step(&data, &adam);
        let mut last = first;
        for _ in 0..200 {
            last = model.train_step(&data, &adam);
        }
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
        // The learned conditional P(X1 | X0=2) should concentrate on 2.
        let probs = model.conditionals(&[vec![2, 0, 0]], 1);
        assert!(probs.get(0, 2) > 0.7, "P(X1=2 | X0=2) = {}", probs.get(0, 2));
    }

    #[test]
    fn conditionals_into_matches_allocating_path() {
        // The workspace hot path (incremental prefix encoding + per-block
        // output) must agree with the reference allocating path for every
        // column, including after simulated dead-path compaction.
        let model = MadeModel::new(&[3, 70, 4], &ModelConfig::tiny());
        let mut tuples = tuples_from3(&[[1, 30, 2], [2, 69, 0], [0, 5, 3]]);
        let mut flat: Vec<u32> = tuples.iter().flatten().copied().collect();
        let mut scratch = InferenceScratch::new();
        let mut out = Matrix::zeros(0, 0);
        for col in 0..3 {
            let expected = model.conditionals(&tuples, col);
            model.conditionals_into(&flat, 3, col, &mut out, &mut scratch);
            assert_eq!(out.shape(), expected.shape());
            for i in 0..out.len() {
                assert!(
                    (out.data()[i] - expected.data()[i]).abs() < 1e-5,
                    "col {col} elem {i}: {} vs {}",
                    out.data()[i],
                    expected.data()[i]
                );
            }
            if col == 0 {
                // Drop the middle path, as the sampler does after a column:
                // the cached encodings must follow the compaction.
                scratch.compact_rows(&[0, 2]);
                tuples.remove(1);
                flat = tuples.iter().flatten().copied().collect();
            }
        }
    }

    fn tuples_from3(table: &[[u32; 3]]) -> Vec<Vec<u32>> {
        table.iter().map(|row| row.to_vec()).collect()
    }

    #[test]
    fn log_likelihood_matches_chain_rule_product() {
        let model = MadeModel::new(&[3, 4, 2], &ModelConfig::tiny());
        let tuples = tuples_from(&[[1, 3, 0], [2, 0, 1]]);
        let fast = model.log_likelihood_batch(&tuples);
        // Reference: multiply conditionals column by column.
        let mut reference = vec![0.0f64; tuples.len()];
        for col in 0..3 {
            let probs = model.conditionals(&tuples, col);
            for (t, tuple) in tuples.iter().enumerate() {
                reference[t] += (probs.get(t, tuple[col] as usize) as f64).ln();
            }
        }
        for (f, r) in fast.iter().zip(reference.iter()) {
            assert!((f - r).abs() < 1e-4, "{f} vs {r}");
        }
    }

    #[test]
    fn embedding_reuse_shrinks_model() {
        let domains = [4usize, 2000, 2];
        let mut config = ModelConfig::tiny();
        config.encoding = EncodingPolicy { one_hot_threshold: 8, embedding_dim: 16, prefer_binary_for_large: false };
        config.embedding_reuse = true;
        let with_reuse = MadeModel::new(&domains, &config);
        config.embedding_reuse = false;
        let without = MadeModel::new(&domains, &config);
        assert!(
            with_reuse.param_count() < without.param_count(),
            "embedding reuse should reduce parameters: {} vs {}",
            with_reuse.param_count(),
            without.param_count()
        );
    }
}
