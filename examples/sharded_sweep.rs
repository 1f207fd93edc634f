//! `maxnvm-shard`: deterministic sharded design-space exploration
//! across worker processes (paper §4.4 at fleet scale).
//!
//! The parent splits the DSE sweep into N disjoint shards, spawns one
//! worker process per shard, supervises them (a killed worker is
//! respawned and resumes from its own checkpoint), and finally merges
//! the shard checkpoints into a result that is byte-identical to the
//! unsharded single-process run — same trial outcomes, same
//! early-stopping decisions, same optimal configuration. Each worker
//! encodes the layers itself. On one host the fleet is slower than a
//! single process; sharding is for byte-identical merges and resumable
//! workers.
//!
//! ```sh
//! cargo run --release --example sharded_sweep -- --shards 4
//! cargo run --release --example sharded_sweep -- --shards 2 --verify
//! ```
//!
//! `--verify` additionally runs the sweep unsharded in this process and
//! asserts the merged result is identical, printing the measured
//! speedup and `dse_same_optimal`.

use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_envm::{CellTechnology, SenseAmp};
use maxnvm_faultsim::dse::minimal_cells;
use maxnvm_faultsim::{
    AccuracyEval, Campaign, CheckpointConfig, DseConfig, EarlyStop, EvalContext, ProxyEval,
    RunControl, ShardSpec,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const TECH: CellTechnology = CellTechnology::MlcCtt;
const RATE_SCALE: f64 = 120.0;
/// Respawn budget per shard before the supervisor gives up.
const MAX_RESPAWNS: usize = 3;

struct Args {
    shards: usize,
    trials: usize,
    verify: bool,
    /// Set when this process is a shard worker: (index, count, dir).
    child: Option<(usize, usize, PathBuf)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: 2,
        trials: 48,
        verify: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        match arg.as_str() {
            "--shards" => args.shards = value("--shards").parse().expect("--shards: integer"),
            "--trials" => args.trials = value("--trials").parse().expect("--trials: integer"),
            "--verify" => args.verify = true,
            "--child" => {
                let index = value("--child index").parse().expect("index: integer");
                let count = value("--child count").parse().expect("count: integer");
                let dir = PathBuf::from(value("--child dir"));
                args.child = Some((index, count, dir));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// The deterministic stand-in sweep every process reconstructs
/// identically: a VGG12-scale sampled layer, proxy evaluation,
/// exaggerated rates so faults land within the trial budget.
fn fixture() -> (Vec<ClusteredLayer>, ProxyEval) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 160);
    let layer = ClusteredLayer::from_matrix(&m, 4, 5);
    let eval = ProxyEval::new(vec![layer.reconstruct()], 0.1, 0.9);
    (vec![layer], eval)
}

fn dse_config(trials: usize) -> DseConfig {
    DseConfig {
        campaign: Campaign {
            trials,
            seed: 13,
            rate_scale: RATE_SCALE,
        },
        itn_bound: 0.02,
    }
}

fn shard_ckpt(dir: &Path, index: usize, count: usize) -> PathBuf {
    dir.join(format!("shard-{index}-of-{count}.ckpt"))
}

/// The control every process uses, differing only in shard layout and
/// checkpoint path. Early stopping is configured identically everywhere
/// — shard workers fold it into their fingerprints but never stop early
/// (a shard sees only a subset of each scheme's trials); the merge
/// replays the decisions the single-process run would have made.
fn control_for(
    shard: ShardSpec,
    ckpt: Option<PathBuf>,
    eval: &ProxyEval,
    cfg: &DseConfig,
) -> RunControl {
    RunControl {
        shard,
        checkpoint: ckpt.map(|p| CheckpointConfig::new(p).every(64).keep_on_success()),
        early_stop: Some(EarlyStop::new(eval.baseline_error(), cfg.itn_bound)),
        ..RunControl::default()
    }
}

/// Shard-worker entry point: run this process's slice of the sweep,
/// checkpointing so a kill at any moment is resumable.
fn run_child(index: usize, count: usize, dir: &Path, trials: usize) {
    let (layers, eval) = fixture();
    let cfg = dse_config(trials);
    let ctx = EvalContext::new(TECH, &SenseAmp::paper_default(), RATE_SCALE).expect("context");
    let control = control_for(
        ShardSpec::of(index, count),
        Some(shard_ckpt(dir, index, count)),
        &eval,
        &cfg,
    );
    let points = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &control)
        .expect("shard sweep");
    eprintln!("[shard {index}/{count}] done: {} schemes", points.len());
}

fn spawn_shard(dir: &Path, index: usize, count: usize, args: &Args) -> std::process::Child {
    let exe = std::env::current_exe().expect("runner path");
    Command::new(exe)
        .args(["--child", &index.to_string(), &count.to_string()])
        .arg(dir)
        .args(["--trials", &args.trials.to_string()])
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn shard worker")
}

/// Supervises the worker fleet: respawn any shard that dies (it resumes
/// from its checkpoint), give up only after `MAX_RESPAWNS` per shard.
fn supervise(dir: &Path, args: &Args) {
    let mut fleet: Vec<(usize, std::process::Child, usize)> = (0..args.shards)
        .map(|i| (i, spawn_shard(dir, i, args.shards, args), 0))
        .collect();
    while !fleet.is_empty() {
        std::thread::sleep(Duration::from_millis(20));
        let mut still_running = Vec::new();
        for (index, mut child, respawns) in fleet {
            match child.try_wait().expect("try_wait") {
                None => still_running.push((index, child, respawns)),
                Some(status) if status.success() => {}
                Some(status) => {
                    assert!(
                        respawns < MAX_RESPAWNS,
                        "shard {index} failed {MAX_RESPAWNS} times (last: {status})"
                    );
                    eprintln!("[supervisor] shard {index} died ({status}); respawning to resume");
                    still_running.push((
                        index,
                        spawn_shard(dir, index, args.shards, args),
                        respawns + 1,
                    ));
                }
            }
        }
        fleet = still_running;
    }
}

fn main() {
    let args = parse_args();
    if let Some((index, count, dir)) = &args.child {
        run_child(*index, *count, dir, args.trials);
        return;
    }
    assert!(args.shards >= 1, "--shards must be at least 1");
    let dir = std::env::temp_dir().join(format!("maxnvm-sharded-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    println!(
        "Sharded DSE sweep: {} shards, {} trials/scheme, workdir {}",
        args.shards,
        args.trials,
        dir.display()
    );

    let sharded_start = Instant::now();
    supervise(&dir, &args);
    // Merge: an unsharded run preseeded from every shard's checkpoint.
    // Nothing re-executes — the merge replays early-stopping decisions
    // over the complete outcome set and assembles the final result.
    let (layers, eval) = fixture();
    let cfg = dse_config(args.trials);
    let ctx = EvalContext::new(TECH, &SenseAmp::paper_default(), RATE_SCALE).expect("context");
    let mut control = control_for(ShardSpec::unsharded(), None, &eval, &cfg);
    control.merge_sources = (0..args.shards)
        .map(|i| shard_ckpt(&dir, i, args.shards))
        .collect();
    let merged = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &control)
        .expect("merge");
    let sharded_time = sharded_start.elapsed();

    let best = minimal_cells(&merged).expect("something passes");
    println!(
        "Merged {} schemes in {:.2?}; winner {} ({} cells, {:.2}% error).",
        merged.len(),
        sharded_time,
        best.scheme.label(),
        best.cells,
        best.mean_error * 100.0
    );

    if args.verify {
        println!("\nVerifying against the unsharded single-process run...");
        let single_start = Instant::now();
        let control = control_for(ShardSpec::unsharded(), None, &eval, &cfg);
        let single = ctx
            .run_dse_controlled(&layers, &eval, &cfg, &control)
            .expect("unsharded run");
        let single_time = single_start.elapsed();
        let same = merged == single;
        let single_best = minimal_cells(&single).expect("something passes");
        let same_optimal = single_best.scheme.label() == best.scheme.label();
        println!(
            "dse_shard_speedup: {:.2} ({:.2?} single / {:.2?} sharded across {} procs)",
            single_time.as_secs_f64() / sharded_time.as_secs_f64(),
            single_time,
            sharded_time,
            args.shards
        );
        println!("dse_same_optimal: {same_optimal}");
        println!("merge_byte_identical: {same}");
        assert!(same, "merged result must equal the unsharded run");
        assert!(same_optimal, "sharding must not change the optimum");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
