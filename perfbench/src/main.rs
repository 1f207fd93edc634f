//! One workload process of the benchmark. `perfbench/run.py` builds and
//! spawns it; it can also be run by hand:
//!
//! ```sh
//! maxnvm-perfbench --workload fig5_lenet --seed 1 --mode timed --budget 20
//! maxnvm-perfbench --workload dse_lenet --seed 1 --mode traced --budget 20 --trace-out t.json
//! ```
//!
//! It generates the workload's inputs from the seed (several times, to
//! time set-up), runs one untimed warm-up study, then measures studies
//! through the public engine entry points for `--budget` seconds. Every
//! study is printed as one JSON line as soon as it ends, so a crash loses
//! nothing already measured; the last line is the process summary.
//!
//! In `--mode traced` the studies alternate between untraced and traced
//! (spans around each entry-point call), then the last study is replayed
//! serially through the public stage functions with a span per stage and
//! each DNN layer's forward pass is timed; the spans are written to
//! `--trace-out` when the run ends.

mod probe;
mod replay;
mod workloads;

use probe::{median, peak_rss_mb, process_cpu_s, Json, Tracer};
use std::io::Write as _;
use std::time::Instant;
use workloads::{Inputs, Kind, StudyOut};

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    traced: bool,
    budget_s: f64,
    setups: usize,
    min_studies: usize,
    dse_samples: usize,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let num = |flag: &str, default: f64| -> Result<f64, String> {
        get(flag).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        })
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let traced = match get("--mode").as_deref() {
        None | Some("timed") => false,
        Some("traced") => true,
        Some(m) => return Err(format!("unknown mode {m}")),
    };
    Ok(Args {
        workload,
        kind,
        seed: num("--seed", 1.0)? as u64,
        traced,
        budget_s: num("--budget", 10.0)?,
        setups: num("--setups", 3.0)?.max(1.0) as usize,
        min_studies: num("--min-studies", 3.0)?.max(1.0) as usize,
        dse_samples: num("--dse-samples", workloads::DSE_SAMPLES as f64)? as usize,
        trace_out: get("--trace-out"),
    })
}

fn emit(j: Json) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", j.render());
    let _ = out.flush();
}

/// A measured study: host wall and process CPU seconds around the call.
struct Timed {
    out: StudyOut,
    wall_s: f64,
    cpu_s: f64,
    /// Host-speed gauge (`probe::reference_s`) around the study.
    ref_s: f64,
}

fn timed_study(inp: &Inputs, tr: &mut Tracer, label: &str) -> Result<Timed, String> {
    let ref_before = probe::reference_s();
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let out = tr.span(label, |tr| workloads::run_study(inp, tr))?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let ref_s = (ref_before + probe::reference_s()) / 2.0;
    emit(Json::obj(vec![
        ("event", Json::Str("study".into())),
        ("kind", Json::Str(label.trim_start_matches("study.").into())),
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::Num(cpu_s)),
        ("ref_s", Json::Num(ref_s)),
        ("trials", Json::Num(out.trials as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("digest", Json::Str(out.digest.clone())),
    ]));
    Ok(Timed {
        out,
        wall_s,
        cpu_s,
        ref_s,
    })
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let mut tr = Tracer::new(args.traced);
    let mut failures: Vec<String> = Vec::new();
    // Set-up, repeated: the first is timed from process start.
    let mut setup_s = Vec::new();
    let mut setup_ref_s = Vec::new();
    let mut inputs = None;
    for i in 0..args.setups {
        let t = if i == 0 { started } else { Instant::now() };
        let inp = tr.span("setup", |tr| {
            workloads::setup(args.kind, args.seed, args.dse_samples, tr)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_ref_s.push(probe::reference_s());
        inputs = Some(inp);
    }
    let inp = inputs.ok_or("no set-up ran")?;
    failures.extend(inp.failures.iter().cloned());
    emit(Json::obj(vec![
        ("event", Json::Str("setup".into())),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "ref_s",
            Json::Arr(setup_ref_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ]));

    // The untimed first study of the process.
    let enabled = args.traced;
    tr.set_enabled(false);
    let warmup = timed_study(&inp, &mut tr, "study.warmup")?;
    let digest = warmup.out.digest.clone();
    let mut studies: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let t_measure = Instant::now();
    if !enabled {
        while studies.len() < args.min_studies
            || t_measure.elapsed().as_secs_f64()
                + median(&studies.iter().map(|s| s.wall_s).collect::<Vec<_>>())
                <= args.budget_s
        {
            studies.push(timed_study(&inp, &mut tr, "study.timed")?);
        }
    } else {
        // Untraced and traced studies alternate, so both see the same
        // machine; half the budget goes to them, the rest to the replay.
        while traced.is_empty()
            || t_measure.elapsed().as_secs_f64()
                + 2.0 * median(&studies.iter().map(|s| s.wall_s).collect::<Vec<_>>())
                <= args.budget_s / 2.0
        {
            tr.set_enabled(false);
            studies.push(timed_study(&inp, &mut tr, "study.untraced")?);
            tr.set_enabled(true);
            traced.push(timed_study(&inp, &mut tr, "study.traced")?);
        }
    }
    for s in studies.iter().chain(&traced) {
        if s.out.digest != digest {
            failures.push(format!(
                "digest changed between repeats: {} vs {digest}",
                s.out.digest
            ));
        }
        failures.extend(s.out.failures.iter().cloned());
    }
    failures.extend(warmup.out.failures.iter().cloned());

    let mut summary = vec![
        ("event", Json::Str("result".into())),
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("digest", Json::Str(digest)),
        ("workers", Json::Num(inp.ctx.workers() as f64)),
        (
            "simd_tier",
            Json::Str(maxnvm_dnn::active_tier().name().into()),
        ),
        (
            "trial_semantics_version",
            Json::Num(maxnvm_faultsim::checkpoint::TRIAL_SEMANTICS_VERSION as f64),
        ),
        ("warmup_study_s", Json::Num(warmup.wall_s)),
    ];
    if enabled {
        let last = traced.last().ok_or("no traced study")?;
        let mut rt = Tracer::new(true);
        let ref_before = probe::reference_s();
        let cpu0 = process_cpu_s();
        let counts = replay::replay(&inp, &last.out, &mut rt);
        let replay_cpu_s = process_cpu_s() - cpu0;
        // Both CPU times are taken at nominal host speed before comparing.
        let replay_cpu_s = replay_cpu_s / ((ref_before + probe::reference_s()) / 2.0);
        failures.extend(counts.mismatches.iter().cloned());
        let profile = replay::profile_layers(&inp.net, &inp.images, 5, &mut rt);
        let per_layer = per_layer_metrics(
            args,
            &tr,
            &rt,
            &counts,
            &profile,
            &studies,
            &warmup,
            replay_cpu_s,
        );
        summary.push(("replay_ok", Json::Bool(counts.mismatches.is_empty())));
        summary.push(("per_layer", per_layer));
        if let Some(path) = &args.trace_out {
            let doc = Json::obj(vec![
                ("workload", Json::Str(args.workload.clone())),
                ("seed", Json::Num(args.seed as f64)),
                ("study_spans", tr.to_json()),
                ("replay_spans", rt.to_json()),
            ]);
            std::fs::write(path, doc.render()).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    summary.push(("peak_rss_mb", Json::Num(peak_rss_mb())));
    summary.push((
        "failures",
        Json::Arr(failures.into_iter().map(Json::Str).collect()),
    ));
    emit(Json::obj(summary));
    Ok(())
}

/// The per-layer metrics of a traced run, except the two that compare
/// timed studies (`tracing_overhead_frac`, and `pool_scaling`, which
/// needs a second process at one worker): `run.py` derives those.
#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    args: &Args,
    tr: &Tracer,
    rt: &Tracer,
    c: &replay::Counts,
    profile: &[replay::LayerProfile],
    untraced: &[Timed],
    warmup: &Timed,
    replay_cpu_s: f64,
) -> Json {
    // `0.0 +` keeps an empty sum at +0.0.
    let sum = |t: &Tracer, name: &str| 0.0 + t.durations(name).iter().sum::<f64>();
    let trials = c.trials.max(1) as f64;
    let study = &warmup.out;
    let budget = (105 * workloads::DSE_TRIALS) as f64;
    let mut m: Vec<(String, f64)> = vec![
        (
            "dnn.train_s".into(),
            sum(tr, "dnn.train") / 1e3 / args.setups as f64,
        ),
        (
            "dnn.prefix_build_ms".into(),
            median(&rt.durations("dnn.prefix_build")),
        ),
        ("dnn.eval_ms".into(), median(&rt.durations("dnn.eval"))),
        (
            "dnn.prefix_skip_frac".into(),
            c.skipped_layers / c.layers.max(1.0),
        ),
        (
            "dnn.flops_elided_frac".into(),
            1.0 - c.recomputed_macs / c.full_macs.max(1.0),
        ),
        ("encoding.store_ms".into(), sum(rt, "encoding.store")),
        (
            "encoding.store_calls".into(),
            rt.durations("encoding.store").len() as f64,
        ),
        ("encoding.prepare_ms".into(), sum(rt, "encoding.prepare")),
        (
            "encoding.deltas_ms".into(),
            sum(rt, "encoding.deltas") / trials,
        ),
        ("encoding.deltas_per_trial".into(), c.deltas as f64 / trials),
        ("encoding.cells".into(), c.cells as f64),
        (
            "envm.chip_program_ms".into(),
            sum(rt, "envm.chip_program") / trials,
        ),
        (
            "envm.faults_per_trial".into(),
            c.stats.cell_faults as f64 / trials,
        ),
        (
            "ecc.corrected_per_trial".into(),
            c.stats.ecc_corrected as f64 / trials,
        ),
        (
            "ecc.uncorrectable_per_trial".into(),
            c.stats.ecc_uncorrectable as f64 / trials,
        ),
        ("faultsim.calls".into(), study.calls as f64),
        ("faultsim.trials_run".into(), study.trials as f64),
        (
            "faultsim.early_stop_saved_frac".into(),
            if args.kind == Kind::Dse {
                1.0 - study.trials as f64 / budget
            } else {
                0.0
            },
        ),
        (
            "faultsim.replica_trial_ms".into(),
            median(&rt.durations("replay.trial")),
        ),
        (
            "faultsim.engine_overhead_frac".into(),
            1.0 - replay_cpu_s
                / median(
                    &untraced
                        .iter()
                        .map(|s| s.cpu_s / s.ref_s)
                        .collect::<Vec<_>>(),
                ),
        ),
        ("faultsim.warmup_study_s".into(), warmup.wall_s),
        (
            "nvsim.characterize_ms".into(),
            median(&rt.durations("nvsim.characterize")),
        ),
        (
            "nvdla.evaluate_ms".into(),
            median(&rt.durations("nvdla.evaluate")),
        ),
    ];
    for p in profile {
        m.push((format!("dnn.layer.{}.forward_ms", p.name), p.forward_ms));
        m.push((format!("dnn.layer.{}.gflops", p.name), p.gflops));
        m.push((format!("dnn.layer.{}.density", p.name), p.density));
    }
    Json::Obj(m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
}

fn main() {
    let started = Instant::now();
    let result = parse_args().and_then(|args| run(&args, started));
    if let Err(e) = result {
        eprintln!("maxnvm-perfbench: {e}");
        std::process::exit(2);
    }
}
