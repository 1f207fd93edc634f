//! Trial throughput: per-cell injection with a full decode (the
//! pre-`PreparedLayer` path, still used by the reference arms) vs sparse
//! fault sampling with dirty-region incremental decode, on LeNet5-scale
//! layers at physical (~1e-5) MLC-CTT fault rates.
//!
//! Run with `cargo bench -p maxnvm-bench --bench trial_throughput`.
//! Besides the stdout summary, emits `BENCH_trial_throughput.json` at
//! the workspace root with before/after trials-per-second and the
//! speedup, for CI and regression tracking.

use maxnvm_dnn::gemm::{self, gemm_into, sparse_gemm_into, GemmScratch};
use maxnvm_dnn::layer::Layer;
use maxnvm_dnn::network::{LayerMatrix, Network, WeightDelta};
use maxnvm_dnn::sparse::SparseMatrix;
use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{
    EncodeCache, EncodeDiskCache, PreparedLayer, StorageScheme, StoredLayer,
};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::fault_maps;
use maxnvm_faultsim::dse::{minimal_cells, DseConfig, DsePoint};
use maxnvm_faultsim::evaluate::{EvalScratch, SparseModel};
use maxnvm_faultsim::{
    AccuracyEval, Campaign, CheckpointConfig, EarlyStop, EvalContext, NetworkEval, ProxyEval,
    RunControl, ShardSpec,
};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Trials per second of `trial` over a ~2 s measurement window (one
/// untimed warmup call first).
fn throughput(mut trial: impl FnMut(u64)) -> f64 {
    trial(u64::MAX);
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed().as_secs_f64() < 2.0 {
        trial(n);
        n += 1;
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    // Re-executed as a shard worker by the sharded-DSE arm: run this
    // process's slice of the sweep and exit (server kill-resume tests
    // use the same self-re-exec pattern).
    if let Ok(layout) = std::env::var(SHARD_CHILD_ENV) {
        run_shard_child(&layout);
        return;
    }
    let spec = zoo::lenet5();
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let stored: Vec<StoredLayer> = spec
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let m = l.sample_matrix(spec.paper.sparsity, 40 + i as u64, 1024, 1024);
            StoredLayer::store(
                &ClusteredLayer::from_matrix(&m, spec.paper.cluster_index_bits, 2),
                &scheme,
            )
        })
        .collect();
    let cells: u64 = stored.iter().map(StoredLayer::total_cells).sum();
    let sa = SenseAmp::paper_default();
    let fault_for = fault_maps(CellTechnology::MlcCtt, &sa);

    let prepared: Vec<PreparedLayer> = stored.iter().map(PreparedLayer::prepare).collect();
    let expected: f64 = prepared
        .iter()
        .map(|p| p.expected_faults(None, &fault_for))
        .sum();

    let before = throughput(|t| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(t);
        for layer in &stored {
            let _ = layer.decode_with_faults(&fault_for, &mut rng);
        }
    });
    let after = throughput(|t| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(t);
        for layer in &prepared {
            let _ = layer.decode_with_faults(&fault_for, &mut rng);
        }
    });
    let speedup = after / before;

    // Full sparse trials, end to end: sample fault deltas against the
    // shared clean decodes and evaluate them through the incremental
    // `eval_deltas` path — the engine's actual per-trial work since the
    // fault-delta forward landed (no faulty matrix is ever materialized).
    let clean: Vec<LayerMatrix> = prepared.iter().map(|p| p.clean().matrix.clone()).collect();
    let eval = ProxyEval::new(clean.clone(), 0.1, 0.9);
    let mut scratch = EvalScratch::default();
    let trials_per_sec = throughput(|t| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(t);
        let deltas: Vec<Vec<WeightDelta>> = prepared
            .iter()
            .map(|layer| layer.deltas_with_faults(&fault_for, &mut rng).0)
            .collect();
        std::hint::black_box(eval.eval_deltas(0, &clean, &deltas, &mut scratch));
    });

    // How much of the forward pass the clean-prefix cache skips: the mean
    // (over sampled trials) of the fraction of layers strictly before the
    // first fault-touched one (1.0 for an entirely clean trial).
    let prefix_skip_rate = {
        const SKIP_TRIALS: usize = 2000;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut sum = 0.0f64;
        for _ in 0..SKIP_TRIALS {
            let deltas: Vec<Vec<WeightDelta>> = prepared
                .iter()
                .map(|layer| layer.deltas_with_faults(&fault_for, &mut rng).0)
                .collect();
            sum += match deltas.iter().position(|d| !d.is_empty()) {
                Some(first) => first as f64 / prepared.len() as f64,
                None => 1.0,
            };
        }
        sum / SKIP_TRIALS as f64
    };

    // Kernel arms: the headline numbers run on whatever tier runtime
    // dispatch selected for this host (`simd_tier`); the per-tier table
    // pins each supported tier in turn so the cost of every rung is on
    // record alongside the bit-identity the tests lock.
    let simd_tier = gemm::active_tier().name();
    let gemm_gflops = gemm_gflops(1.0);
    let sparse_gemm_gflops = sparse_gemm_gflops(zoo::vgg12().paper.sparsity, 1.0);
    let tier_table = per_tier_gflops();
    let (crossover_sweep, crossover_density) = density_crossover(gemm_gflops);
    let vgg = vgg12_scale_arm();

    println!(
        "trial_throughput: {} / {}, {cells} cells, {expected:.3} expected faults/trial",
        spec.name,
        scheme.label()
    );
    println!("  before (per-cell inject + full decode):   {before:>10.1} trials/s");
    println!("  after  (sparse sample + dirty re-decode): {after:>10.1} trials/s");
    println!("  speedup: {speedup:.1}x");
    println!("  full trial (deltas + incremental eval):   {trials_per_sec:>10.1} trials/s");
    println!("  prefix skip rate: {prefix_skip_rate:.4} of layers clean before first fault");
    println!("  simd tier: {simd_tier}");
    println!("  gemm: {gemm_gflops:.2} GFLOP/s (256x256x256 blocked kernel)");
    println!(
        "  sparse gemm: {sparse_gemm_gflops:.2} dense-equivalent GFLOP/s \
         (256x256x256, {:.1}% pruned lhs)",
        zoo::vgg12().paper.sparsity * 100.0
    );
    for (name, dense, sparse) in &tier_table {
        println!("  tier {name:<7} gemm {dense:>8.2} GFLOP/s   sparse gemm {sparse:>8.2} GFLOP/s");
    }
    println!(
        "  sparse/dense crossover: sparse walk wins up to density {crossover_density:.2} \
         (routing cutover fixed at {:.2})",
        gemm::SPARSE_DENSE_CUTOVER
    );
    for (d, ratio) in &crossover_sweep {
        println!("    density {d:.2}: sparse/dense throughput ratio {ratio:.2}");
    }
    println!(
        "vgg12_scale: {} weights, {:.3} density, {:.3} expected faults/trial",
        vgg.weights, vgg.density, vgg.expected_faults
    );
    println!(
        "  dense (materialize + full dense forward):  {:>10.1} trials/s",
        vgg.dense_trials_per_sec
    );
    println!(
        "  sparse (deltas + prefix + sparse suffix):  {:>10.1} trials/s",
        vgg.sparse_trials_per_sec
    );
    println!("  sparse speedup: {:.1}x", vgg.speedup);

    let es = early_stopping_arm();
    let shard = shard_arm();
    let srv = server_arm();

    // Provenance: which revision produced the row, which lint-pass rule
    // set it was checked under (the `version` in lint-allow.toml), and
    // the per-rule violation/allow counts of the last lint report — so
    // regression rows stay attributable after the rules evolve.
    let git_sha = git_sha().unwrap_or_else(|| "unknown".to_string());
    let lint_pass_version = lint_pass_version().unwrap_or(0);
    let lint_rule_counts = lint_rule_counts();

    // Hand-rolled nested objects for the per-tier table and the
    // crossover sweep (the bench stays dependency-free).
    let gemm_by_tier = tier_table
        .iter()
        .map(|(name, dense, _)| format!("\"{name}\": {dense:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    let sparse_by_tier = tier_table
        .iter()
        .map(|(name, _, sparse)| format!("\"{name}\": {sparse:.2}"))
        .collect::<Vec<_>>()
        .join(", ");
    let sweep_json = crossover_sweep
        .iter()
        .map(|(d, ratio)| format!("\"{d:.2}\": {ratio:.3}"))
        .collect::<Vec<_>>()
        .join(", ");

    let json = format!(
        "{{\n  \"benchmark\": \"trial_throughput\",\n  \"git_sha\": \"{git_sha}\",\n  \"lint_pass_version\": {lint_pass_version},\n  \"lint_rule_counts\": {lint_rule_counts},\n  \"model\": \"{}\",\n  \"scheme\": \"{}\",\n  \"total_cells\": {cells},\n  \"expected_faults_per_trial\": {expected:.6},\n  \"before_trials_per_sec\": {before:.3},\n  \"after_trials_per_sec\": {after:.3},\n  \"speedup\": {speedup:.3},\n  \"trials_per_sec\": {trials_per_sec:.3},\n  \"prefix_skip_rate\": {prefix_skip_rate:.4},\n  \"simd_tier\": \"{simd_tier}\",\n  \"gemm_gflops\": {gemm_gflops:.2},\n  \"sparse_gemm_gflops\": {sparse_gemm_gflops:.2},\n  \"gemm_gflops_by_tier\": {{{gemm_by_tier}}},\n  \"sparse_gemm_gflops_by_tier\": {{{sparse_by_tier}}},\n  \"sparse_dense_cutover_density\": {:.2},\n  \"sparse_dense_crossover_density\": {crossover_density:.2},\n  \"sparse_dense_crossover_sweep\": {{{sweep_json}}},\n  \"vgg12_weights\": {},\n  \"vgg12_density\": {:.4},\n  \"vgg12_expected_faults_per_trial\": {:.3},\n  \"vgg12_dense_trials_per_sec\": {:.3},\n  \"vgg12_sparse_trials_per_sec\": {:.3},\n  \"vgg12_sparse_speedup\": {:.3},\n  \"dse_fixed_trials\": {},\n  \"dse_early_stop_trials\": {},\n  \"dse_trial_savings\": {:.3},\n  \"dse_same_optimal\": {},\n  \"dse_shard_speedup_2\": {:.3},\n  \"dse_shard_speedup_4\": {:.3},\n  \"dse_shard_same_optimal\": {},\n  \"encode_cache_hit_rate\": {:.3},\n  \"server_streams\": {},\n  \"server_p99_ms\": {:.3},\n  \"server_trials_per_sec\": {:.3}\n}}\n",
        spec.name,
        scheme.label(),
        gemm::SPARSE_DENSE_CUTOVER,
        vgg.weights,
        vgg.density,
        vgg.expected_faults,
        vgg.dense_trials_per_sec,
        vgg.sparse_trials_per_sec,
        vgg.speedup,
        es.fixed_trials,
        es.early_trials,
        es.savings,
        es.same_optimal,
        shard.speedup_2,
        shard.speedup_4,
        shard.same_optimal,
        shard.cache_hit_rate,
        srv.streams,
        srv.p99_ms,
        srv.trials_per_sec,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trial_throughput.json"
    );
    std::fs::write(path, &json).expect("write benchmark JSON");
    println!("wrote {path}");
}

/// Sustained arithmetic throughput of the blocked GEMM microkernel on a
/// square 256×256×256 multiply (~33 MFLOP per call) over a ~`secs`
/// window, on whichever dispatch tier is currently active.
fn gemm_gflops(secs: f64) -> f64 {
    const N: usize = 256;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
    let mut c = vec![0.0f32; N * N];
    let mut scratch = GemmScratch::default();
    gemm_into(&mut c, &a, &b, N, N, N, &mut scratch); // warmup
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        gemm_into(&mut c, &a, &b, N, N, N, &mut scratch);
        std::hint::black_box(&mut c);
        reps += 1;
    }
    2.0 * (N as f64).powi(3) * reps as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// Dense-equivalent arithmetic throughput of the sparse GEMM on the same
/// 256×256×256 multiply with the left operand magnitude-pruned to
/// `sparsity`. FLOPs are counted as if the skipped zero terms were
/// performed (2N³ per call), so this number is directly comparable to
/// `gemm_gflops`: the ratio is the effective speedup the compute format
/// buys at that density. Above `SPARSE_DENSE_CUTOVER` the kernel routes
/// through the dense path (materializing into scratch), which this arm
/// measures as-is — that *is* the shipped behavior.
fn sparse_gemm_gflops(sparsity: f64, secs: f64) -> f64 {
    const N: usize = 256;
    // Continuous random magnitudes: the periodic pattern the dense arm
    // uses has only 17 distinct |values|, so magnitude pruning it to a
    // target sparsity collapses onto whole residue classes and the
    // realized density bears no relation to the request.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let mut a: Vec<f32> = (0..N * N)
        .map(|_| rand::Rng::gen::<f32>(&mut rng) * 2.0 - 1.0)
        .collect();
    zoo::prune_to_sparsity(&mut a, sparsity);
    let sa = SparseMatrix::from_dense(N, N, &a);
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
    let mut c = vec![0.0f32; N * N];
    let mut scratch = GemmScratch::default();
    sparse_gemm_into(&mut c, &sa, &b, N, &mut scratch); // warmup
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        sparse_gemm_into(&mut c, &sa, &b, N, &mut scratch);
        std::hint::black_box(&mut c);
        reps += 1;
    }
    2.0 * (N as f64).powi(3) * reps as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// Per-tier kernel throughput: `(tier name, dense GFLOP/s, sparse
/// dense-equivalent GFLOP/s at the VGG12 Table-2 sparsity)` for every
/// tier this host supports, measured by pinning the dispatch override.
/// All tiers produce identical bits (DESIGN.md §14); this records what
/// each one costs.
fn per_tier_gflops() -> Vec<(&'static str, f64, f64)> {
    let vgg_sparsity = zoo::vgg12().paper.sparsity;
    let out = gemm::supported_tiers()
        .into_iter()
        .map(|tier| {
            gemm::force_tier_for_tests(Some(tier));
            let dense = gemm_gflops(1.0);
            let sparse = sparse_gemm_gflops(vgg_sparsity, 1.0);
            (tier.name(), dense, sparse)
        })
        .collect();
    gemm::force_tier_for_tests(None);
    out
}

/// The sparse/dense crossover on the active tier: sweeps stored density
/// and reports each density's sparse-to-dense throughput ratio plus the
/// highest swept density at which the sparse walk still wins — the
/// empirical justification for the fixed `SPARSE_DENSE_CUTOVER` routing
/// constant (densities above it run the dense kernel on a materialized
/// copy, so their ratio reads ≈ 1).
fn density_crossover(dense_gflops: f64) -> (Vec<(f64, f64)>, f64) {
    let densities = [0.05, 0.1, 0.2, 0.3, 0.35, 0.45, 0.6];
    let sweep: Vec<(f64, f64)> = densities
        .iter()
        .map(|&d| (d, sparse_gemm_gflops(1.0 - d, 0.4) / dense_gflops))
        .collect();
    let crossover = sweep
        .iter()
        .filter(|&&(d, ratio)| d <= gemm::SPARSE_DENSE_CUTOVER && ratio >= 1.0)
        .map(|&(d, _)| d)
        .fold(0.0f64, f64::max);
    (sweep, crossover)
}

struct Vgg12ScaleArm {
    weights: u64,
    density: f64,
    expected_faults: f64,
    dense_trials_per_sec: f64,
    sparse_trials_per_sec: f64,
    speedup: f64,
}

/// VGG12-scale end-to-end trials at the Table-2 sparsity (0.409): a
/// ~2.2M-weight fully-connected stack, magnitude-pruned, clustered and
/// stored under the paper scheme. The dense arm is the fully
/// materializing reference path (per-cell fault injection, full decode
/// of every layer, full dense forward over the test batch — what
/// `run_reference` does and `run_chips` used to do); the sparse arm is
/// the engine's actual trial since this refactor (sparse-sampled fault
/// deltas against the shared clean decode, clean-prefix reuse, sparse
/// suffix forward). Both draw the identical fault stream per trial, and
/// the evaluator parity tests pin their results bit-for-bit equal — the
/// speedup is pure storage-format-as-compute-format.
fn vgg12_scale_arm() -> Vgg12ScaleArm {
    let paper = zoo::vgg12().paper;
    let mut net = Network::new(
        "vgg12-scale",
        vec![
            Layer::linear("fc1", 1024, 512),
            Layer::ReLU,
            Layer::linear("fc2", 1024, 1024),
            Layer::ReLU,
            Layer::linear("fc3", 512, 1024),
            Layer::ReLU,
            Layer::linear("fc4", 256, 512),
            Layer::ReLU,
            Layer::linear("fc5", 10, 256),
        ],
    );
    maxnvm_dnn::train::he_init(&mut net, 17);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let stored: Vec<StoredLayer> = net
        .weight_matrices()
        .iter()
        .map(|m| {
            let mut pruned = m.clone();
            zoo::prune_to_sparsity(&mut pruned.data, paper.sparsity);
            StoredLayer::store(
                &ClusteredLayer::from_matrix(&pruned, paper.cluster_index_bits, 21),
                &scheme,
            )
        })
        .collect();
    let sa = SenseAmp::paper_default();
    let fault_for = fault_maps(CellTechnology::MlcCtt, &sa);
    let prepared: Vec<PreparedLayer> = stored.iter().map(PreparedLayer::prepare).collect();
    let expected_faults: f64 = prepared
        .iter()
        .map(|p| p.expected_faults(None, &fault_for))
        .sum();
    let clean: Vec<LayerMatrix> = prepared.iter().map(|p| p.clean().matrix.clone()).collect();
    let sparse: Vec<Arc<SparseMatrix>> = prepared
        .iter()
        .map(|p| Arc::new(p.clean().sparse.clone()))
        .collect();
    let weights: u64 = clean.iter().map(|m| (m.rows * m.cols) as u64).sum();
    let model = SparseModel {
        dense: &clean,
        sparse: &sparse,
    };
    let density = model.density();
    let eval = NetworkEval::new(
        net,
        maxnvm_dnn::data::gaussian_clusters(512, 10, 16, 2.5, 9),
    );

    let dense_trials_per_sec = throughput(|t| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(t);
        let mats: Vec<LayerMatrix> = stored
            .iter()
            .map(|l| l.decode_with_faults(&fault_for, &mut rng).0)
            .collect();
        std::hint::black_box(eval.eval(&mats));
    });
    let mut scratch = EvalScratch::default();
    let sparse_trials_per_sec = throughput(|t| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(t);
        let deltas: Vec<Vec<WeightDelta>> = prepared
            .iter()
            .map(|layer| layer.deltas_with_faults(&fault_for, &mut rng).0)
            .collect();
        std::hint::black_box(eval.eval_deltas_sparse(0, &model, &deltas, &mut scratch));
    });
    let speedup = sparse_trials_per_sec / dense_trials_per_sec;
    assert!(
        speedup >= 2.0,
        "sparse trials under 2x the materializing path: {speedup:.2}"
    );
    Vgg12ScaleArm {
        weights,
        density,
        expected_faults,
        dense_trials_per_sec,
        sparse_trials_per_sec,
        speedup,
    }
}

/// Short revision hash of the workspace, if `git` is available and the
/// bench runs inside a checkout (a tarball build reports "unknown").
fn git_sha() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!sha.is_empty()).then_some(sha)
}

/// The `version = N` line of the workspace's `lint-allow.toml` — the
/// lint-pass version this build was checked against (DESIGN.md §11).
fn lint_pass_version() -> Option<u64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint-allow.toml");
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let rest = line.trim().strip_prefix("version")?.trim_start();
        rest.strip_prefix('=')?.trim().parse().ok()
    })
}

/// Per-rule violation/allow counts compacted out of the last
/// `cargo xtask lint --json` report at the workspace root, or `{}` when
/// no report has been generated in this checkout. The report writes the
/// `rule_counts` object one entry per line with the closing brace on its
/// own line, so a line-wise scan recovers it without a JSON parser.
fn lint_rule_counts() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../maxnvm-lint-report.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return "{}".to_string();
    };
    let mut out = String::from("{");
    let mut in_counts = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"rule_counts\"") {
            in_counts = true;
            continue;
        }
        if in_counts {
            if t == "}," || t == "}" {
                break;
            }
            out.push_str(t);
        }
    }
    out.push('}');
    out
}

struct EarlyStoppingArm {
    fixed_trials: usize,
    early_trials: usize,
    savings: f64,
    same_optimal: bool,
}

/// The adaptive early-stopping arm: the same LeNet5-scale concrete DSE
/// sweep run twice — once with the fixed per-scheme trial budget, once
/// with the Wilson-interval stopping rule — comparing the trial spend
/// and checking both sweeps crown the same minimal-cell design.
fn early_stopping_arm() -> EarlyStoppingArm {
    let spec = zoo::lenet5();
    let m = spec.layers[2].sample_matrix(spec.paper.sparsity, 40, 64, 256);
    let layer = ClusteredLayer::from_matrix(&m, spec.paper.cluster_index_bits, 5);
    let eval = ProxyEval::new(vec![layer.reconstruct()], 0.1, 0.9);
    let cfg = DseConfig {
        campaign: Campaign {
            trials: 48,
            seed: 40,
            rate_scale: 120.0,
        },
        itn_bound: spec.paper.itn_bound,
    };
    let ctx = EvalContext::new(CellTechnology::MlcCtt, &SenseAmp::paper_default(), 120.0)
        .expect("context");
    let layers = [layer];

    let start = Instant::now();
    let fixed = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &RunControl::default())
        .expect("fixed-budget sweep");
    let fixed_secs = start.elapsed().as_secs_f64();

    let control = RunControl {
        early_stop: Some(EarlyStop::new(eval.baseline_error(), cfg.itn_bound)),
        ..RunControl::default()
    };
    let start = Instant::now();
    let early = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &control)
        .expect("early-stopping sweep");
    let early_secs = start.elapsed().as_secs_f64();

    let fixed_trials: usize = fixed.iter().map(|p| p.trials_run).sum();
    let early_trials: usize = early.iter().map(|p| p.trials_run).sum();
    let savings = 1.0 - early_trials as f64 / fixed_trials as f64;
    let best_fixed = minimal_cells(&fixed).expect("fixed sweep has a winner");
    let best_early = minimal_cells(&early).expect("early sweep has a winner");
    let same_optimal = best_fixed.scheme == best_early.scheme;
    assert!(
        same_optimal,
        "early stopping changed the optimal design: {} vs {}",
        best_fixed.scheme.label(),
        best_early.scheme.label()
    );

    println!(
        "early_stopping_dse: {} schemes, {} winner",
        fixed.len(),
        best_fixed.scheme.label()
    );
    println!("  fixed budget:   {fixed_trials:>6} trials in {fixed_secs:>6.2} s");
    println!("  early stopping: {early_trials:>6} trials in {early_secs:>6.2} s");
    println!("  trials saved: {:.0}%", savings * 100.0);

    EarlyStoppingArm {
        fixed_trials,
        early_trials,
        savings,
        same_optimal,
    }
}

const SHARD_CHILD_ENV: &str = "MAXNVM_BENCH_SHARD_CHILD";
const SHARD_DIR_ENV: &str = "MAXNVM_BENCH_SHARD_DIR";

/// The sweep the sharded arm measures, reconstructed identically by the
/// parent and every worker process: the early-stopping arm's LeNet5
/// layer, full MLC-CTT candidate space, fixed budget.
fn shard_fixture() -> (Vec<ClusteredLayer>, ProxyEval, DseConfig) {
    let spec = zoo::lenet5();
    let m = spec.layers[2].sample_matrix(spec.paper.sparsity, 40, 64, 256);
    let layer = ClusteredLayer::from_matrix(&m, spec.paper.cluster_index_bits, 5);
    let eval = ProxyEval::new(vec![layer.reconstruct()], 0.1, 0.9);
    let cfg = DseConfig {
        campaign: Campaign {
            trials: 24,
            seed: 40,
            rate_scale: 120.0,
        },
        itn_bound: spec.paper.itn_bound,
    };
    (vec![layer], eval, cfg)
}

fn shard_ckpt(dir: &std::path::Path, index: usize, count: usize) -> PathBuf {
    dir.join(format!("shard-{index}-of-{count}.ckpt"))
}

/// Worker half of the sharded arm: run shard `index` of `count` with a
/// checkpoint and the shared disk-backed encode cache, then exit.
fn run_shard_child(layout: &str) {
    let (index, count) = layout.split_once(':').expect("layout index:count");
    let index: usize = index.parse().expect("shard index");
    let count: usize = count.parse().expect("shard count");
    let dir = PathBuf::from(std::env::var(SHARD_DIR_ENV).expect("shard dir env"));
    let (layers, eval, cfg) = shard_fixture();
    let ctx = EvalContext::new(CellTechnology::MlcCtt, &SenseAmp::paper_default(), 120.0)
        .expect("context");
    let control = RunControl {
        shard: ShardSpec::of(index, count),
        checkpoint: Some(CheckpointConfig::new(shard_ckpt(&dir, index, count)).keep_on_success()),
        encode_cache: Some(Arc::new(
            EncodeCache::new().with_disk(EncodeDiskCache::new(dir.join("cache"))),
        )),
        ..RunControl::default()
    };
    ctx.run_dse_controlled(&layers, &eval, &cfg, &control)
        .expect("shard worker sweep");
}

/// One full N-process sharded sweep from a cold cache: spawn the worker
/// fleet (self-re-exec), wait, merge the shard checkpoints. Returns the
/// end-to-end wall time and the merged points.
fn sharded_sweep_secs(count: usize) -> (f64, Vec<DsePoint>) {
    let dir =
        std::env::temp_dir().join(format!("maxnvm-bench-shard-{count}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("shard workdir");
    let exe = std::env::current_exe().expect("bench binary path");
    let start = Instant::now();
    let children: Vec<_> = (0..count)
        .map(|i| {
            std::process::Command::new(&exe)
                .env(SHARD_CHILD_ENV, format!("{i}:{count}"))
                .env(SHARD_DIR_ENV, &dir)
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn shard worker")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait shard worker");
        assert!(status.success(), "shard worker failed: {status}");
    }
    let (layers, eval, cfg) = shard_fixture();
    let ctx = EvalContext::new(CellTechnology::MlcCtt, &SenseAmp::paper_default(), 120.0)
        .expect("context");
    let control = RunControl {
        merge_sources: (0..count).map(|i| shard_ckpt(&dir, i, count)).collect(),
        encode_cache: Some(Arc::new(
            EncodeCache::new().with_disk(EncodeDiskCache::new(dir.join("cache"))),
        )),
        ..RunControl::default()
    };
    let merged = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &control)
        .expect("merge");
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    (secs, merged)
}

struct ShardArm {
    speedup_2: f64,
    speedup_4: f64,
    same_optimal: bool,
    cache_hit_rate: f64,
}

/// The sharded-DSE arm: the identical sweep run as 1, 2, and 4 real
/// worker processes (cold shared cache each time, merge included in the
/// wall clock), asserting all three merges agree byte-for-byte on trial
/// results and on the optimal design. Speedups are recorded as
/// measured: on a box with fewer cores than workers they dip below the
/// process count (workers time-slice), which is the honest number.
/// The cache hit rate is the cold-then-warm single-process observation.
fn shard_arm() -> ShardArm {
    let (t1, p1) = sharded_sweep_secs(1);
    let (t2, p2) = sharded_sweep_secs(2);
    let (t4, p4) = sharded_sweep_secs(4);
    let strip = |points: &[DsePoint]| -> Vec<DsePoint> {
        points
            .iter()
            .cloned()
            .map(|mut p| {
                p.encode_cache = Default::default();
                p
            })
            .collect()
    };
    assert!(
        strip(&p1) == strip(&p2) && strip(&p1) == strip(&p4),
        "sharded merges must be byte-identical to the 1-process run"
    );
    let best = minimal_cells(&p1).expect("sweep has a winner");
    let same_optimal = [&p2, &p4]
        .iter()
        .all(|p| minimal_cells(p).expect("sweep has a winner").scheme == best.scheme);
    assert!(same_optimal, "sharding changed the optimal design");

    // Cold-then-warm against one disk cache: the warm run's hit rate is
    // what a worker joining an already-swept design space observes.
    let dir = std::env::temp_dir().join(format!("maxnvm-bench-cachewarm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (layers, eval, cfg) = shard_fixture();
    let ctx = EvalContext::new(CellTechnology::MlcCtt, &SenseAmp::paper_default(), 120.0)
        .expect("context");
    let mut warm_rate = 0.0;
    for round in 0..2 {
        let control = RunControl {
            encode_cache: Some(Arc::new(
                EncodeCache::new().with_disk(EncodeDiskCache::new(&dir)),
            )),
            ..RunControl::default()
        };
        let points = ctx
            .run_dse_controlled(&layers, &eval, &cfg, &control)
            .expect("cache-warm sweep");
        let stats = points.first().map(|p| p.encode_cache).unwrap_or_default();
        if round == 1 {
            warm_rate = stats.hit_rate();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "sharded_dse: {} schemes x {} trials, winner {}",
        p1.len(),
        24,
        best.scheme.label()
    );
    println!("  1 process:  {t1:>6.2} s");
    println!("  2 processes: {t2:>6.2} s ({:.2}x)", t1 / t2);
    println!("  4 processes: {t4:>6.2} s ({:.2}x)", t1 / t4);
    println!("  warm encode-cache hit rate: {warm_rate:.3}");

    ShardArm {
        speedup_2: t1 / t2,
        speedup_4: t1 / t4,
        same_optimal,
        cache_hit_rate: warm_rate,
    }
}

struct ServerArm {
    streams: usize,
    p99_ms: f64,
    trials_per_sec: f64,
}

/// The supervisor under a burst load: 100 concurrent small campaign
/// streams submitted at once against the service's default concurrency,
/// each spooling per-trial checkpoints through the real filesystem
/// store. Reports the p99 submit-to-terminal stream latency and the
/// aggregate trial throughput the multiplexed service sustains — the
/// serving-path numbers the robustness layer must not regress.
fn server_arm() -> ServerArm {
    use maxnvm_server::{Supervisor, SupervisorConfig};

    const STREAMS: usize = 100;
    let spec = zoo::lenet5();
    let m = spec.layers[2].sample_matrix(spec.paper.sparsity, 40, 64, 256);
    let layer = ClusteredLayer::from_matrix(&m, spec.paper.cluster_index_bits, 5);
    let stored = vec![StoredLayer::store(
        &layer,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
    )];
    let eval: Arc<ProxyEval> = Arc::new(ProxyEval::new(vec![layer.reconstruct()], 0.1, 0.9));
    let spool = std::env::temp_dir().join(format!("maxnvm-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let sup = Supervisor::start(
        SupervisorConfig::new(&spool)
            .max_running(workers)
            .max_inflight(STREAMS)
            .checkpoint_every(1)
            .watchdog(std::time::Duration::from_secs(120)),
    )
    .expect("bench supervisor");
    let trials_per_stream = 16usize;
    let start = Instant::now();
    let ids: Vec<_> = (0..STREAMS)
        .map(|i| {
            let job = maxnvm_server::CampaignJob {
                campaign: Campaign {
                    trials: trials_per_stream,
                    seed: 1000 + i as u64,
                    rate_scale: 120.0,
                },
                stored: stored.clone(),
                tech: CellTechnology::MlcCtt,
                sa: SenseAmp::paper_default(),
                eval: eval.clone(),
            };
            let submitted = Instant::now();
            let id = sup.submit(format!("bench-{i}"), job).expect("bench submit");
            (id, submitted)
        })
        .collect();
    let mut latencies_ms: Vec<f64> = ids
        .iter()
        .map(|(id, submitted)| {
            let status = sup.wait(id).expect("bench stream");
            assert!(
                status.state == maxnvm_server::StreamState::Done,
                "bench stream failed: {:?}",
                status.error
            );
            submitted.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let p99_ms = latencies_ms[(STREAMS * 99).div_ceil(100).min(STREAMS) - 1];
    let trials_per_sec = (STREAMS * trials_per_stream) as f64 / wall;

    println!("server: {STREAMS} concurrent streams x {trials_per_stream} trials");
    println!("  p99 stream latency: {p99_ms:>8.1} ms");
    println!("  aggregate:          {trials_per_sec:>8.1} trials/s");

    ServerArm {
        streams: STREAMS,
        p99_ms,
        trials_per_sec,
    }
}
