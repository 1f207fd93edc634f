//! Accuracy evaluators: end-to-end network inference for the trainable
//! stand-ins, and a weight-corruption sensitivity proxy for the
//! ImageNet-scale specs.
//!
//! [`AccuracyEval`] has two granularities. [`AccuracyEval::eval`] takes
//! fully materialized weight matrices — the reference everything is
//! checked against. [`AccuracyEval::eval_deltas_sparse`] is the one
//! trial entry point: it takes the *clean* decoded model (a
//! [`SparseModel`]) plus a per-layer sparse list of [`WeightDelta`]s,
//! which is what the sparse fault sampler produces (chip instances
//! reduce to the same deltas via `StoredLayer::sample_chip_flips`), and
//! the implementations here never materialize the faulty matrices:
//!
//! - [`NetworkEval`] reads a clean-prefix cache of the clean batch
//!   forward pass (one per configuration key per run, shared by every
//!   scratch of the run) and per trial only patches the dirty rows of the
//!   first fault-touched layer and re-runs the suffix — bit-identical to
//!   materializing the faults and running [`Network::error_rate`] (see
//!   [`maxnvm_dnn::prefix`]).
//! - [`ProxyEval`] caches the clean relative-MSE denominator and adjusts
//!   the numerator per delta in O(deltas) — bit-identical to the full
//!   scan whenever the clean decode equals the proxy reference bitwise
//!   (the only configuration the shortcut is enabled for).
//!
//! Both fall back to materializing (a clean copy in the scratch, delta
//! overwrite, evaluate, revert) when their preconditions fail (residual
//! networks; a lossy clean decode), so a trial is total for every
//! evaluator.

use maxnvm_dnn::layer::ForwardScratch;
use maxnvm_dnn::network::{misclassified, LayerMatrix, Network, WeightDelta, EVAL_BATCH};
use maxnvm_dnn::prefix::PrefixCache;
use maxnvm_dnn::sparse::SparseMatrix;
use maxnvm_dnn::tensor::Tensor;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// The clean model handed to [`AccuracyEval::eval_deltas_sparse`]: the
/// decoded weight matrices, and their nonzeros. Evaluators compute on
/// `dense`; `sparse[i]` is `SparseMatrix::from_dense` of `dense[i]` and
/// feeds the per-layer nonzero and density counters results carry.
#[derive(Debug, Clone, Copy)]
pub struct SparseModel<'a> {
    /// Clean decoded weight matrices, materialized.
    pub dense: &'a [LayerMatrix],
    /// The nonzeros of each matrix.
    pub sparse: &'a [Arc<SparseMatrix>],
}

impl SparseModel<'_> {
    /// Non-zero weights per layer.
    pub fn layer_nnz(&self) -> Vec<u64> {
        self.sparse.iter().map(|s| s.nnz() as u64).collect()
    }

    /// Achieved model density: total non-zeros over total weights
    /// (`0.0` for an empty model).
    pub fn density(&self) -> f64 {
        let total: usize = self.sparse.iter().map(|s| s.rows() * s.cols()).sum();
        if total == 0 {
            0.0
        } else {
            self.sparse.iter().map(|s| s.nnz()).sum::<usize>() as f64 / total as f64
        }
    }
}

/// Relative weight-MSE at which the sensitivity proxy has risen to
/// `1 - 1/e` of its saturation error. Chosen so that (a) sub-0.1% relative
/// perturbations (adjacent-cluster flips at realistic fault rates) stay
/// within even LeNet5's 0.05% ITN bound and (b) wholesale misalignment
/// (m_rel near 1) saturates toward random-guess error — consistent with
/// the DNN perturbation-tolerance literature the paper builds on
/// [44, 57, 58].
pub const PROXY_M0: f64 = 0.05;

/// One chunk of a key's clean prefix: the [`PrefixCache`] of the clean
/// forward pass over [`EVAL_BATCH`] consecutive test samples, and how
/// many of those samples the clean model misclassifies.
#[derive(Debug)]
struct PrefixChunk {
    cache: PrefixCache,
    wrong: usize,
}

/// One configuration key's clean prefix over a [`NetworkEval`]'s whole
/// test set, in chunks of [`EVAL_BATCH`] samples. Each chunk is built at
/// most once and only read afterwards; a chunk holds `None` when the
/// network has no prefix cache (residual blocks).
#[derive(Debug)]
struct SharedPrefix {
    /// The next chunk nobody has claimed to build yet.
    next: AtomicUsize,
    chunks: Vec<OnceLock<Option<PrefixChunk>>>,
}

impl SharedPrefix {
    fn new(chunks: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Makes sure every chunk is built, with `build(i)` building chunk
    /// `i`: claims unbuilt chunks from `next` and builds them, then waits
    /// for the chunks other threads claimed (or builds one whose builder
    /// panicked). So every thread that needs the prefix at once helps to
    /// build it, and none builds a chunk another has built. `build` must
    /// be a pure function of `i`. Returns whether every chunk has a cache.
    fn build(&self, mut build: impl FnMut(usize) -> Option<PrefixChunk>) -> bool {
        loop {
            // The counter only hands out indices: the chunks themselves
            // are published through their `OnceLock`s.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = self.chunks.get(i) else {
                break;
            };
            if chunk.get_or_init(|| build(i)).is_none() {
                return false;
            }
        }
        self.chunks
            .iter()
            .enumerate()
            .all(|(i, chunk)| chunk.get_or_init(|| build(i)).is_some())
    }

    /// The built chunks, in test-set order: all of them once
    /// [`Self::build`] has returned `true`.
    fn chunks(&self) -> impl Iterator<Item = &PrefixChunk> {
        self.chunks.iter().filter_map(|c| c.get()?.as_ref())
    }
}

/// The clean prefixes of one run, shared read-only by every scratch the
/// run creates: at most one [`SharedPrefix`] per key. The scratches that
/// use a prefix hold it by `Arc` and the registry by `Weak`, so a prefix
/// no scratch holds is freed, and a run never holds more prefixes than
/// it has scratches — one per compute thread — however many keys its
/// groups decode to.
#[derive(Default)]
pub(crate) struct PrefixRegistry {
    prefixes: Mutex<Vec<(u64, Weak<SharedPrefix>)>>,
}

impl std::fmt::Debug for PrefixRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The vendored parking_lot Mutex has no Debug impl.
        f.debug_struct("PrefixRegistry").finish_non_exhaustive()
    }
}

impl PrefixRegistry {
    /// `key`'s prefix if a scratch holds it, else a new, unbuilt one of
    /// `chunks` chunks. The lock covers this lookup only: chunks are
    /// built outside it.
    fn prefix(&self, key: u64, chunks: usize) -> Arc<SharedPrefix> {
        let mut prefixes = self.prefixes.lock();
        prefixes.retain(|(_, p)| p.strong_count() > 0);
        let live = prefixes
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, p)| p.upgrade());
        live.unwrap_or_else(|| {
            let prefix = Arc::new(SharedPrefix::new(chunks));
            prefixes.push((key, Arc::downgrade(&prefix)));
            prefix
        })
    }
}

/// A scratch's hold on one key's shared prefix, with the network copy a
/// trial applies its deltas to: it holds the key's clean weights between
/// trials (deltas are applied and reverted in place).
#[derive(Debug, Clone)]
struct HeldPrefix {
    key: u64,
    shared: Arc<SharedPrefix>,
    net: Network,
}

/// Reusable per-thread evaluation state: what one trial changes (the
/// network copy with the current key's clean weights, staging buffers),
/// a hold on the current key's clean prefix, and the clean-MSE and
/// materializing-fallback caches behind
/// [`AccuracyEval::eval_deltas_sparse`] — so a Monte-Carlo campaign pays
/// each allocation once per thread instead of once per trial.
///
/// The clean prefixes themselves live in a registry shared by every
/// scratch of an engine run: one prefix per key, built once (its chunks
/// spread over the threads that need it first) and then only read. A
/// scratch holds one key at a time, and a key switch takes the new
/// key's prefix from the registry or builds it — a pure function of the
/// key's clean matrices, so results are identical at any worker count
/// and scratch-reuse pattern. `EvalScratch::default()` starts a registry
/// of its own.
///
/// A scratch value is tied to the first evaluator that uses it (the lazily
/// built caches keep that evaluator's architecture); do not share one
/// scratch, or one registry, across different evaluators.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    prefixes: Arc<PrefixRegistry>,
    prefix: Option<HeldPrefix>,
    net: Option<Network>,
    forward: ForwardScratch,
    row_buf: Vec<f32>,
    dirty_rows: Vec<usize>,
    undo: Vec<(usize, u32, f32)>,
    materialized: Option<(u64, Vec<LayerMatrix>)>,
    proxy: Option<(u64, Option<f64>)>,
}

impl EvalScratch {
    /// A fresh scratch that shares `prefixes` with the other scratches
    /// of its run.
    pub(crate) fn sharing(prefixes: &Arc<PrefixRegistry>) -> Self {
        Self {
            prefixes: Arc::clone(prefixes),
            ..Self::default()
        }
    }
}

/// Maps decoded weight matrices to a classification error estimate.
pub trait AccuracyEval {
    /// Error of the unperturbed model.
    fn baseline_error(&self) -> f64;
    /// Error with the given (possibly corrupted) weights in place — the
    /// materialized reference trials are checked against.
    fn eval(&self, mats: &[LayerMatrix]) -> f64;
    /// One trial: the error with the faults given as sparse deltas
    /// against the `clean` decoded model. `deltas[i]` lists the faulty
    /// slots of matrix `i` in slot-ascending order, deduped (missing
    /// trailing entries mean "no faults"). `key` identifies the
    /// configuration `clean` belongs to — calls with the same key
    /// **must** pass bitwise-identical clean matrices, on this scratch
    /// and on every scratch sharing its prefix registry, which lets
    /// implementations cache per-key state in the scratch and share it
    /// across the scratches of a run.
    ///
    /// Must return [`AccuracyEval::eval`] of the materialized faulty
    /// matrices bit for bit. Every engine entry point evaluates trials
    /// here and only here, so a wrapping evaluator forwards this method
    /// to see the trials production runs.
    fn eval_deltas_sparse(
        &self,
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64;
}

/// The materializing trial path, which the fast evaluators fall back to:
/// copy the clean matrices once per key into the scratch, overwrite the
/// delta slots, evaluate them with `eval` (which may reuse the rest of
/// the scratch, e.g. its network), and restore.
fn eval_deltas_materialized(
    key: u64,
    clean: &[LayerMatrix],
    deltas: &[Vec<WeightDelta>],
    scratch: &mut EvalScratch,
    eval: impl FnOnce(&[LayerMatrix], &mut EvalScratch) -> f64,
) -> f64 {
    // Take the cached copy out of the scratch so `eval` below can borrow
    // the scratch mutably; reverting the deltas (rather than re-cloning
    // `clean`) keeps steady-state trials allocation-free.
    let cached = scratch
        .materialized
        .take()
        .filter(|(k, m)| *k == key && m.len() == clean.len());
    let mut mats = match cached {
        Some((_, m)) => m,
        None => clean.to_vec(),
    };
    for (i, ds) in deltas.iter().enumerate() {
        for d in ds {
            mats[i].data[d.slot as usize] = d.value;
        }
    }
    let error = eval(&mats, scratch);
    for (i, ds) in deltas.iter().enumerate() {
        for d in ds {
            mats[i].data[d.slot as usize] = clean[i].data[d.slot as usize];
        }
    }
    scratch.materialized = Some((key, mats));
    error
}

/// End-to-end evaluator: writes the matrices into a real network and
/// measures classification error on a held-out test set.
#[derive(Debug, Clone)]
pub struct NetworkEval {
    net: Network,
    test: Vec<(Tensor, usize)>,
    baseline: f64,
}

impl NetworkEval {
    /// Creates an evaluator; measures the baseline error immediately.
    pub fn new(net: Network, test: Vec<(Tensor, usize)>) -> Self {
        let baseline = net.error_rate(&test);
        Self {
            net,
            test,
            baseline,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Error with `mats` written into `net`, a copy of the wrapped
    /// network (every weight is overwritten, so a reused copy cannot
    /// leak a previous trial's state).
    fn error_with(&self, net: &mut Network, mats: &[LayerMatrix]) -> f64 {
        net.set_weight_matrices(mats);
        net.error_rate(&self.test)
    }

    /// The clean prefix of test chunk `i` (samples `i·EVAL_BATCH..`) on
    /// `net`, which holds the key's clean weights: `None` past the last
    /// chunk and for residual networks.
    fn clean_chunk(
        &self,
        net: &Network,
        i: usize,
        forward: &mut ForwardScratch,
    ) -> Option<PrefixChunk> {
        let samples = self.test.chunks(EVAL_BATCH).nth(i)?;
        let xs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
        let cache = PrefixCache::build(net, &xs, forward)?;
        let wrong = misclassified(cache.clean_logits(), samples);
        Some(PrefixChunk { cache, wrong })
    }
}

impl AccuracyEval for NetworkEval {
    fn baseline_error(&self) -> f64 {
        self.baseline
    }

    fn eval(&self, mats: &[LayerMatrix]) -> f64 {
        self.error_with(&mut self.net.clone(), mats)
    }

    /// Clean-prefix trial path: the clean batch forward pass is built
    /// once per key per run, in chunks of [`EVAL_BATCH`] test samples,
    /// and shared by every scratch of the run; a trial recomputes, chunk
    /// by chunk, only the dirty rows of the first fault-touched layer and
    /// the layer suffix behind it, and adds up the misclassifications —
    /// bit-identical to materializing the faults (see
    /// [`maxnvm_dnn::prefix`]). Residual networks materialize into the
    /// scratch network instead.
    fn eval_deltas_sparse(
        &self,
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        let clean = clean.dense;
        if self.test.is_empty() {
            return 0.0; // matches `Network::error_rate` on an empty set
        }
        if !matches!(&scratch.prefix, Some(held) if held.key == key) {
            // Let go of the previous key's prefix before taking this one,
            // so the registry frees it once no scratch holds it.
            let mut net = match scratch.prefix.take() {
                Some(held) => held.net,
                None => self.net.clone(),
            };
            net.set_weight_matrices(clean);
            let chunks = self.test.len().div_ceil(EVAL_BATCH);
            let shared = scratch.prefixes.prefix(key, chunks);
            scratch.prefix = Some(HeldPrefix { key, shared, net });
        }
        // Destructure so the prefix and the staging buffers can be
        // borrowed simultaneously; anything else materializes.
        if let EvalScratch {
            prefix: Some(HeldPrefix { shared, net, .. }),
            forward,
            row_buf,
            dirty_rows,
            undo,
            ..
        } = scratch
        {
            if shared.build(|i| self.clean_chunk(net, i, forward)) {
                let Some(first) = deltas.iter().position(|d| !d.is_empty()) else {
                    let wrong: usize = shared.chunks().map(|c| c.wrong).sum();
                    return wrong as f64 / self.test.len() as f64;
                };
                dirty_rows.clear();
                dirty_rows.extend(
                    deltas[first]
                        .iter()
                        .map(|d| d.slot as usize / clean[first].cols),
                );
                dirty_rows.sort_unstable();
                dirty_rows.dedup();
                net.apply_weight_deltas(deltas, undo);
                let mut wrong = 0;
                for (chunk, samples) in shared.chunks().zip(self.test.chunks(EVAL_BATCH)) {
                    let pos = chunk.cache.site_layer(first);
                    let logits = match net.layers()[pos].weight_bias() {
                        Some((w, b)) => {
                            let patched = chunk
                                .cache
                                .patched_outputs(first, w, b, dirty_rows, row_buf);
                            net.forward_suffix(pos + 1, patched, forward)
                        }
                        // Sites address weight layers by construction; stay
                        // total with a (still exact) full faulty forward.
                        None => net.forward_batch_scratch(chunk.cache.input_batch(), forward),
                    };
                    wrong += misclassified(&logits, samples);
                }
                net.revert_weight_deltas(undo);
                return wrong as f64 / self.test.len() as f64;
            }
        }
        eval_deltas_materialized(key, clean, deltas, scratch, |mats, scratch| {
            self.error_with(scratch.net.get_or_insert_with(|| self.net.clone()), mats)
        })
    }
}

/// Sensitivity-proxy evaluator for models too large to train in this
/// substrate: classification error is estimated from the relative
/// weight-MSE between the decoded matrices and a clean reference,
///
/// `err = base + (sat - base) · (1 - exp(-m_rel / M0))`,
///
/// where `m_rel = Σ (w' - w)² / Σ w²` aggregated over layers. The shape —
/// tiny perturbations harmless, misalignment catastrophic — is what the
/// paper's Fig. 5 measures end-to-end; the constant is documented at
/// [`PROXY_M0`].
#[derive(Debug, Clone)]
pub struct ProxyEval {
    reference: Vec<LayerMatrix>,
    baseline: f64,
    saturation: f64,
}

impl ProxyEval {
    /// Creates a proxy against clean reference matrices.
    ///
    /// `baseline` is the model's reported clean error; `saturation` the
    /// error of random guessing (e.g. `0.999` for ImageNet top-1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= baseline < saturation <= 1`.
    pub fn new(reference: Vec<LayerMatrix>, baseline: f64, saturation: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&baseline) && baseline < saturation && saturation <= 1.0,
            "invalid error bounds {baseline}, {saturation}"
        );
        Self {
            reference,
            baseline,
            saturation,
        }
    }

    /// The aggregated relative weight-MSE of `mats` against the reference.
    pub fn relative_mse(&self, mats: &[LayerMatrix]) -> f64 {
        assert_eq!(mats.len(), self.reference.len(), "layer count mismatch");
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (m, r) in mats.iter().zip(&self.reference) {
            assert_eq!(
                (m.rows, m.cols),
                (r.rows, r.cols),
                "layer shape mismatch for {}",
                r.name
            );
            for (a, b) in m.data.iter().zip(&r.data) {
                num += ((a - b) as f64).powi(2);
                den += (*b as f64).powi(2);
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Maps a relative MSE to an error estimate (the curve above).
    pub fn error_from_mse(&self, m_rel: f64) -> f64 {
        self.baseline + (self.saturation - self.baseline) * (1.0 - (-m_rel / PROXY_M0).exp())
    }

    /// The cached denominator for the incremental delta path: `Σ ref²`
    /// (accumulated in the same layer-then-cell order as
    /// [`ProxyEval::relative_mse`]), but only when `clean` equals the
    /// reference bitwise. That equality is what makes the incremental
    /// numerator exact: every non-delta cell of a trial then contributes
    /// exactly `0.0` to the full scan, so summing the delta terms alone
    /// (in slot order) reproduces it bit for bit. A lossy clean decode
    /// returns `None` and the evaluator materializes instead.
    fn incremental_den(&self, clean: &[LayerMatrix]) -> Option<f64> {
        if clean.len() != self.reference.len() {
            return None;
        }
        let mut den = 0.0f64;
        for (c, r) in clean.iter().zip(&self.reference) {
            if (c.rows, c.cols) != (r.rows, r.cols) {
                return None;
            }
            for (a, b) in c.data.iter().zip(&r.data) {
                if a.to_bits() != b.to_bits() {
                    return None;
                }
                den += (*b as f64).powi(2);
            }
        }
        Some(den)
    }
}

impl AccuracyEval for ProxyEval {
    fn baseline_error(&self) -> f64 {
        self.baseline
    }

    fn eval(&self, mats: &[LayerMatrix]) -> f64 {
        self.error_from_mse(self.relative_mse(mats))
    }

    /// Incremental fast path: with the denominator cached (see
    /// [`ProxyEval::incremental_den`]) the numerator is just the
    /// slot-ordered sum of `(value − ref)²` over the deltas — O(deltas)
    /// and bit-identical to the full scan. Materializes when the clean
    /// decode differs from the reference.
    fn eval_deltas_sparse(
        &self,
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        let clean = clean.dense;
        if !matches!(&scratch.proxy, Some((k, _)) if *k == key) {
            scratch.proxy = Some((key, self.incremental_den(clean)));
        }
        match &scratch.proxy {
            Some((k, Some(den))) if *k == key => {
                let den = *den;
                let mut num = 0.0f64;
                for (i, ds) in deltas.iter().enumerate() {
                    let r = &self.reference[i];
                    for d in ds {
                        // f32 subtraction then the f64 square, exactly as
                        // in `relative_mse`.
                        num += ((d.value - r.data[d.slot as usize]) as f64).powi(2);
                    }
                }
                let m_rel = if den == 0.0 { 0.0 } else { num / den };
                self.error_from_mse(m_rel)
            }
            _ => eval_deltas_materialized(key, clean, deltas, scratch, |mats, _| self.eval(mats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_dnn::data::gaussian_clusters;
    use maxnvm_dnn::train::{sgd_train, TrainConfig};
    use maxnvm_dnn::zoo::mlp_mini;

    fn trained_eval() -> NetworkEval {
        let all = gaussian_clusters(8, 3, 400, 2.5, 7);
        let (train, test) = all.split_at(300);
        let mut net = mlp_mini(8, 3, 16, 1);
        sgd_train(
            &mut net,
            train,
            &TrainConfig {
                epochs: 15,
                lr: 0.02,
                momentum: 0.9,
                seed: 2,
            },
        )
        .unwrap();
        NetworkEval::new(net, test.to_vec())
    }

    #[test]
    fn network_eval_baseline_is_learned() {
        let eval = trained_eval();
        assert!(eval.baseline_error() < 0.15, "{}", eval.baseline_error());
    }

    #[test]
    fn network_eval_clean_weights_reproduce_baseline() {
        let eval = trained_eval();
        let mats = eval.network().weight_matrices();
        assert_eq!(eval.eval(&mats), eval.baseline_error());
    }

    #[test]
    fn network_eval_scrambled_weights_destroy_accuracy() {
        let eval = trained_eval();
        let mut mats = eval.network().weight_matrices();
        for m in &mut mats {
            for (i, v) in m.data.iter_mut().enumerate() {
                *v = ((i * 2654435761) % 17) as f32 / 17.0 - 0.5;
            }
        }
        let err = eval.eval(&mats);
        assert!(
            err > eval.baseline_error() + 0.2,
            "scrambled error {err} vs baseline {}",
            eval.baseline_error()
        );
    }

    #[test]
    fn proxy_is_monotone_in_corruption() {
        let refm = vec![LayerMatrix::new(
            "l",
            4,
            4,
            (0..16).map(|i| i as f32).collect(),
        )];
        let proxy = ProxyEval::new(refm.clone(), 0.1, 0.9);
        assert_eq!(proxy.eval(&refm), 0.1);
        let mut light = refm.clone();
        light[0].data[3] += 0.5;
        let mut heavy = refm.clone();
        for v in &mut heavy[0].data {
            *v = -*v;
        }
        let e_light = proxy.eval(&light);
        let e_heavy = proxy.eval(&heavy);
        assert!(0.1 < e_light && e_light < e_heavy);
        assert!(e_heavy > 0.85, "wholesale corruption saturates: {e_heavy}");
    }

    #[test]
    fn proxy_tiny_perturbations_stay_within_tight_bounds() {
        // A 2e-5 relative MSE (value faults at realistic rates: LeNet5 has
        // ~80k value cells at ~9e-6 mean rate, so ~0.7 corrupted weights of
        // 60k non-zeros) must stay within LeNet5's 0.05% ITN bound.
        let refm = vec![LayerMatrix::new("l", 1, 1, vec![1.0])];
        let proxy = ProxyEval::new(refm, 0.0083, 0.9);
        let bumped = proxy.error_from_mse(2e-5);
        assert!(bumped - 0.0083 < 0.0005, "delta {}", bumped - 0.0083);
    }

    #[test]
    #[should_panic(expected = "layer shape mismatch")]
    fn proxy_rejects_mismatched_shapes() {
        let refm = vec![LayerMatrix::new("l", 2, 2, vec![1.0; 4])];
        let proxy = ProxyEval::new(refm, 0.1, 0.9);
        proxy.eval(&[LayerMatrix::new("l", 1, 4, vec![1.0; 4])]);
    }

    /// Applies the sparse deltas onto a copy of `clean` — the
    /// materialized reference every trial result is compared to.
    fn materialize(clean: &[LayerMatrix], deltas: &[Vec<WeightDelta>]) -> Vec<LayerMatrix> {
        let mut mats = clean.to_vec();
        for (i, ds) in deltas.iter().enumerate() {
            for d in ds {
                mats[i].data[d.slot as usize] = d.value;
            }
        }
        mats
    }

    /// One trial through [`AccuracyEval::eval_deltas_sparse`] against
    /// `clean`, with the nonzeros the engine would pass alongside.
    fn trial(
        eval: &dyn AccuracyEval,
        key: u64,
        clean: &[LayerMatrix],
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        let sparse: Vec<Arc<SparseMatrix>> = clean
            .iter()
            .map(|m| Arc::new(SparseMatrix::from_dense(m)))
            .collect();
        let model = SparseModel {
            dense: clean,
            sparse: &sparse,
        };
        eval.eval_deltas_sparse(key, &model, deltas, scratch)
    }

    fn delta_cases() -> Vec<Vec<Vec<WeightDelta>>> {
        let d = |slot: u32, value: f32| WeightDelta { slot, value };
        vec![
            vec![Vec::new(), Vec::new()],
            vec![vec![d(5, 2.0)], Vec::new()],
            vec![Vec::new(), vec![d(1, -4.0)]],
            vec![vec![d(0, 9.0), d(17, -9.0)], vec![d(3, 0.25)]],
        ]
    }

    /// The clean-prefix fast path must be bit-identical to materializing
    /// the faults, across fault positions, reused scratch state, and key
    /// switches.
    #[test]
    fn network_eval_deltas_is_bit_exact_with_materialized() {
        let eval = trained_eval();
        let clean = eval.network().weight_matrices();
        let mut scratch = EvalScratch::default();
        for deltas in &delta_cases() {
            assert_eq!(
                trial(&eval, 7, &clean, deltas, &mut scratch),
                eval.eval(&materialize(&clean, deltas)),
                "prefix path must match the materialized evaluation"
            );
        }
        // No faults on a reused (previously corrupted) scratch: the exact
        // clean baseline, no residue.
        assert_eq!(
            trial(&eval, 7, &clean, &[Vec::new(), Vec::new()], &mut scratch),
            eval.baseline_error()
        );
        // A key switch rebuilds the cache for the new clean matrices and
        // back again.
        let mut other = clean.clone();
        for v in &mut other[0].data {
            *v = -*v;
        }
        assert_eq!(
            trial(&eval, 8, &other, &[Vec::new(), Vec::new()], &mut scratch),
            eval.eval(&other)
        );
        assert_eq!(
            trial(&eval, 7, &clean, &[Vec::new(), Vec::new()], &mut scratch),
            eval.baseline_error()
        );
    }

    /// `lenet_mini` over `n` random 1×16×16 images with cycling labels.
    fn lenet_eval(n: usize) -> NetworkEval {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let test = (0..n)
            .map(|i| {
                let pixels = (0..256).map(|_| rng.gen::<f32>()).collect();
                (Tensor::from_vec(&[1, 16, 16], pixels), i % 10)
            })
            .collect();
        NetworkEval::new(maxnvm_dnn::zoo::lenet_mini(5), test)
    }

    /// A trial must equal the materialized evaluation bit for bit when
    /// the test set ends inside, at or just past a prefix chunk — for
    /// faults in the first, a middle, the last and several layers — on a
    /// fresh scratch, on a reused one, and on a second scratch of the
    /// same registry, which reads the prefix the first one built.
    #[test]
    fn network_eval_trials_are_bit_exact_across_chunk_boundaries() {
        let d = |slot: u32, value: f32| WeightDelta { slot, value };
        let none = Vec::new;
        let cases = [
            vec![none(), none(), none(), none()],
            vec![vec![d(3, 2.5), d(190, -4.0)], none(), none(), none()],
            vec![none(), vec![d(11, -1.75), d(95, 6.0)], none(), none()],
            vec![none(), none(), none(), vec![d(1, 9.0)]],
            vec![
                none(),
                vec![d(40, -3.0)],
                vec![d(7, 5.25)],
                vec![d(0, -0.5)],
            ],
        ];
        let mut moved = false;
        for n in [1, 63, 64, 65, 131] {
            let eval = lenet_eval(n);
            let clean = eval.network().weight_matrices();
            let mut reused = EvalScratch::default();
            let mut second = EvalScratch::sharing(&reused.prefixes);
            for deltas in &cases {
                let want = eval.eval(&materialize(&clean, deltas)).to_bits();
                moved |= want != eval.baseline_error().to_bits();
                let fresh = trial(&eval, 1, &clean, deltas, &mut EvalScratch::default());
                assert_eq!(fresh.to_bits(), want, "fresh scratch, {n} samples");
                let got = trial(&eval, 1, &clean, deltas, &mut reused);
                assert_eq!(got.to_bits(), want, "reused scratch, {n} samples");
                let got = trial(&eval, 1, &clean, deltas, &mut second);
                assert_eq!(got.to_bits(), want, "second scratch, {n} samples");
            }
        }
        assert!(moved, "no fault changed a prediction: the test is vacuous");
    }

    /// Two scratches of one registry read one prefix per key, and a
    /// prefix is freed once no scratch holds it.
    #[test]
    fn scratches_of_one_registry_share_a_prefix_and_free_it() {
        let eval = lenet_eval(65);
        let clean = eval.network().weight_matrices();
        let mut other = clean.clone();
        for v in &mut other[0].data {
            *v = -*v;
        }
        let none = vec![Vec::new(); clean.len()];
        let mut a = EvalScratch::default();
        let mut b = EvalScratch::sharing(&a.prefixes);
        let held = |s: &EvalScratch| Arc::clone(&s.prefix.as_ref().unwrap().shared);
        trial(&eval, 1, &clean, &none, &mut a);
        trial(&eval, 1, &clean, &none, &mut b);
        assert!(Arc::ptr_eq(&held(&a), &held(&b)), "one prefix per key");
        let old = Arc::downgrade(&held(&a));
        assert_eq!(
            trial(&eval, 2, &other, &none, &mut a),
            eval.eval(&other),
            "a key switch reads the new key's weights"
        );
        assert!(old.upgrade().is_some(), "b still holds key 1");
        trial(&eval, 2, &other, &none, &mut b);
        assert!(
            old.upgrade().is_none(),
            "key 1 is freed once no scratch holds it"
        );
        assert!(Arc::ptr_eq(&held(&a), &held(&b)));
        assert_eq!(a.prefixes.prefixes.lock().len(), 1, "only key 2 is alive");
    }

    /// Magnitude-prunes every matrix to roughly the given sparsity (the
    /// same rule `zoo::prune_to_sparsity` uses).
    fn prune(mats: &[LayerMatrix], sparsity: f64) -> Vec<LayerMatrix> {
        mats.iter()
            .map(|m| {
                let mut out = m.clone();
                if sparsity >= 1.0 {
                    out.data.iter_mut().for_each(|v| *v = 0.0);
                } else if sparsity > 0.0 {
                    let mut mags: Vec<f32> = out.data.iter().map(|v| v.abs()).collect();
                    mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let t = mags[((mags.len() - 1) as f64 * sparsity) as usize];
                    for v in &mut out.data {
                        if v.abs() <= t {
                            *v = 0.0;
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// The trial path must be bit-identical to materializing the faults —
    /// at 0% (dense), the Table-2 VGG12 (0.409) and LeNet5 (0.9)
    /// sparsities, and 100%, including multi-layer fault deltas through
    /// the prefix cache.
    #[test]
    fn network_eval_deltas_sparse_is_bit_exact_across_sparsities() {
        let eval = trained_eval();
        let base = eval.network().weight_matrices();
        for (ki, sparsity) in [0.0, 0.409, 0.9, 1.0].into_iter().enumerate() {
            let clean = prune(&base, sparsity);
            let mut scratch = EvalScratch::default();
            for deltas in &delta_cases() {
                assert_eq!(
                    trial(&eval, 20 + ki as u64, &clean, deltas, &mut scratch),
                    eval.eval(&materialize(&clean, deltas)),
                    "sparsity {sparsity}: trial path drifted"
                );
            }
            // And a reused scratch agrees with a fresh one, multi-layer
            // case included.
            let multi = &delta_cases()[3];
            assert_eq!(
                trial(&eval, 20 + ki as u64, &clean, multi, &mut scratch),
                trial(
                    &eval,
                    30 + ki as u64,
                    &clean,
                    multi,
                    &mut EvalScratch::default()
                ),
                "sparsity {sparsity}: reused vs fresh scratch drifted"
            );
        }
    }

    /// Residual networks have no prefix cache; a trial must fall back to
    /// the materializing path and still agree exactly.
    #[test]
    fn network_eval_deltas_falls_back_on_residual_networks() {
        use maxnvm_dnn::layer::Layer;
        let net = maxnvm_dnn::network::Network::new(
            "res",
            vec![Layer::Residual {
                body: vec![Layer::linear("b", 4, 4)],
                shortcut: vec![],
            }],
        );
        let test: Vec<(Tensor, usize)> = (0..6)
            .map(|i| {
                let data = (0..4).map(|j| ((i * 3 + j) % 5) as f32 - 2.0).collect();
                (Tensor::from_vec(&[4], data), i % 4)
            })
            .collect();
        let eval = NetworkEval::new(net, test);
        let clean = eval.network().weight_matrices();
        let deltas = vec![vec![WeightDelta {
            slot: 2,
            value: 30.0,
        }]];
        let mut scratch = EvalScratch::default();
        assert_eq!(
            trial(&eval, 0, &clean, &deltas, &mut scratch),
            eval.eval(&materialize(&clean, &deltas))
        );
        assert_eq!(
            trial(&eval, 0, &clean, &[Vec::new()], &mut scratch),
            eval.baseline_error()
        );
    }

    /// With the reference equal to the clean decode (the DSE
    /// configuration), the incremental numerator must reproduce the full
    /// scan bit for bit.
    #[test]
    fn proxy_eval_deltas_is_bit_exact_when_reference_is_clean() {
        let refm = vec![
            LayerMatrix::new("a", 4, 6, (0..24).map(|i| i as f32 * 0.3 - 2.0).collect()),
            LayerMatrix::new("b", 2, 5, (0..10).map(|i| (i as f32).sin()).collect()),
        ];
        let proxy = ProxyEval::new(refm.clone(), 0.1, 0.9);
        let mut scratch = EvalScratch::default();
        for deltas in &delta_cases() {
            assert_eq!(
                trial(&proxy, 3, &refm, deltas, &mut scratch),
                proxy.eval(&materialize(&refm, deltas)),
                "incremental proxy must match the full scan"
            );
        }
    }

    /// A clean decode that differs from the reference (lossy clustering)
    /// disables the shortcut; the fallback still agrees with `eval`.
    #[test]
    fn proxy_eval_deltas_falls_back_on_lossy_clean_decodes() {
        let refm = vec![LayerMatrix::new(
            "l",
            3,
            3,
            (0..9).map(|i| i as f32).collect(),
        )];
        let proxy = ProxyEval::new(refm.clone(), 0.1, 0.9);
        let mut clean = refm.clone();
        clean[0].data[4] += 0.125;
        let deltas = vec![vec![WeightDelta {
            slot: 7,
            value: -3.0,
        }]];
        let mut scratch = EvalScratch::default();
        assert_eq!(
            trial(&proxy, 1, &clean, &deltas, &mut scratch),
            proxy.eval(&materialize(&clean, &deltas))
        );
        // And with no faults, exactly the clean evaluation.
        assert_eq!(
            trial(&proxy, 1, &clean, &[Vec::new()], &mut scratch),
            proxy.eval(&clean)
        );
    }
}
