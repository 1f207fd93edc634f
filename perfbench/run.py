#!/usr/bin/env python3
"""Benchmark of the MaxNVM fault-injection engine, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5_lenet --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (a cargo package of its own, depending on the
repository's crates by path) into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the workload in child processes, so an abort, a signal or an OOM
kill becomes a failed run instead of taking the benchmark down.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced process
(spans, serial replay, per-layer forward timing) plus a one-worker process,
and prints the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the provenance stamp and the sample counts. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
TIME_LIMIT_S = 170.0
# Trials a study of each workload attempts (for DSE: the budget before
# early stopping); charged as failed when a process dies mid-study.
NOMINAL_TRIALS = {"fig5_lenet": 720, "dse_lenet": 105 * 64, "chips_vgg12": 48}
# Set-ups per untraced process: LeNet training takes ~1 s; the VGG set-up
# takes ~0.2 s, so it is repeated more for a steady median.
SETUPS = {"fig5_lenet": 3, "dse_lenet": 3, "chips_vgg12": 7}
# The host-speed gauge's wall time at nominal speed. On a shared host the
# same work swings by up to 1.7x within seconds (see README.md), so every
# timing is scaled by REF_NOMINAL_S / (gauge time measured around it).
REF_NOMINAL_S = 0.04


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir, "release", "maxnvm-perfbench")


def source_stamp():
    """The git sha when the tree is a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def child(binary, workload, args, threads, timeout):
    """Runs one workload process; returns its events and how it ended."""
    cmd = [binary, "--workload", workload] + [str(a) for a in args]
    env = dict(os.environ, MAXNVM_THREADS=str(threads))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        cause = None
        if proc.returncode < 0:
            cause = f"killed by {signal.Signals(-proc.returncode).name}"
        elif proc.returncode != 0:
            cause = f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        cause = f"timed out after {timeout:.0f} s"
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass
    result = next((e for e in events if e.get("event") == "result"), None)
    if cause is None and result is None:
        cause = "no result line"
    if cause:
        # The first line that says why (a panic, an allocation failure, a
        # stack overflow, the runner's own error), else the last line.
        lines = [l.strip() for l in err.splitlines() if l.strip()]
        why = next((l for l in lines if any(k in l for k in (
            "panicked", "memory allocation", "overflow", "maxnvm-perfbench:"))),
            lines[-1] if lines else "")
        cause = f"{cause}: {why}" if why else cause
        log(f"{workload} child ({threads} workers) failed: {cause}")
    return {"events": events, "result": result, "cause": cause}


def studies(run, *kinds):
    return [e for e in run["events"] if e.get("event") == "study" and e["kind"] in kinds]


def account(run, workload):
    """(attempted, failed, failure messages) for one child process. A
    process that died or failed a check fails every trial it ran."""
    ran = studies(run, "warmup", "timed", "untraced", "traced")
    attempted = sum(int(s["trials"]) for s in ran)
    failed = sum(int(s["failed"]) for s in ran)
    msgs = list(run["result"]["failures"]) if run["result"] else []
    if run["cause"]:
        attempted += NOMINAL_TRIALS[workload]
        msgs.append(f"process {run['cause']}")
    if msgs:
        failed = attempted
    return attempted, failed, msgs


def med(values):
    return statistics.median(values) if values else None


def scaled(seconds, ref_s):
    """A host time scaled to the nominal host speed."""
    return seconds * REF_NOMINAL_S / ref_s


def study_s(run, *kinds):
    return [scaled(s["wall_s"], s["ref_s"]) for s in studies(run, *kinds)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--dse-samples", type=int, default=None,
                    help="override dse_lenet's test batch (fan-out repro only)")
    a = ap.parse_args()
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    if a.workload not in names:
        log(f"unknown workload {a.workload}; expected one of {sorted(names)}")
        return 2
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(target)
    if binary is None:
        return 1
    nproc = len(os.sched_getaffinity(0))
    common = ["--seed", a.seed]
    if a.dse_samples is not None:
        common += ["--dse-samples", a.dse_samples]
    remaining = lambda: TIME_LIMIT_S - (time.monotonic() - started)

    runs, metrics, samples = [], {}, {}
    if a.trace == 0:
        r = child(binary, a.workload, common + ["--mode", "timed", "--budget", a.seconds,
                                                "--setups", SETUPS[a.workload],
                                                "--min-studies", 3],
                  nproc, remaining())
        runs.append(r)
        timed = studies(r, "timed")
        if r["result"] and timed:
            walls = study_s(r, "timed")
            setup = next(e for e in r["events"] if e.get("event") == "setup")
            setups = [scaled(t, g) for t, g in zip(setup["setup_s"], setup["ref_s"])]
            values = {
                "study_s": med(walls),
                "trials_per_s": med([s["trials"] / w for s, w in zip(timed, walls)]),
                "study_cpu_s": med([scaled(s["cpu_s"], s["ref_s"]) for s in timed]),
                "setup_s": med(setups),
                "peak_rss_mb": r["result"]["peak_rss_mb"],
            }
            samples = {"studies": len(timed), "setups": len(setups), "processes": 1,
                       "raw_study_s": med([s["wall_s"] for s in timed]),
                       "raw_setup_s": med(setup["setup_s"]),
                       "gauge_s": med([s["ref_s"] for s in timed])}
            for m in spec["end_to_end"]:
                if values.get(m["name"]) is not None:
                    metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        trace_dir = os.path.join(target, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{a.workload}-seed{a.seed}.json")
        traced = child(binary, a.workload, common + ["--mode", "traced", "--budget", a.seconds,
                                                     "--setups", 3, "--trace-out", trace_path],
                       nproc, remaining() - 40)
        single = child(binary, a.workload, common + ["--mode", "timed", "--budget", 0,
                                                     "--setups", 1, "--min-studies", 1],
                       1, remaining())
        runs += [traced, single]
        res = traced["result"]
        if res and "per_layer" in res:
            values = dict(res["per_layer"])
            untraced = study_s(traced, "untraced")
            with_spans = study_s(traced, "traced")
            one = study_s(single, "timed")
            values["faultsim.tracing_overhead_frac"] = med(with_spans) / med(untraced) - 1.0
            if one:
                values["faultsim.pool_scaling"] = med(one) / med(untraced)
            samples = {"untraced_studies": len(untraced), "traced_studies": len(with_spans),
                       "one_worker_studies": len(one), "trace_file": trace_path}
            for m in spec["per_layer"]:
                # Layers a workload's network lacks, and stages it never
                # runs, read 0.
                metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            if not res.get("replay_ok"):
                log("replay did not reproduce the engine's mean errors")

    attempted = failed = 0
    failures = []
    for r in runs:
        at, fa, msgs = account(r, a.workload)
        attempted, failed = attempted + at, failed + fa
        failures += msgs
    digests = {r["result"]["digest"] for r in runs if r["result"]}
    if len(digests) > 1:
        failures.append(f"digest differs between processes: {sorted(digests)}")
        failed = attempted
    if not metrics:
        failures.append("no metrics were measured")
    res0 = next((r["result"] for r in runs if r["result"]), {})
    stamp = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "git_sha": source_stamp(), "nproc": nproc, "pool_workers": res0.get("workers"),
        "simd_tier": res0.get("simd_tier"),
        "trial_semantics_version": res0.get("trial_semantics_version"),
        "digest": sorted(digests), "samples": samples, "failures": failures,
    }
    print(json.dumps({"provenance": stamp}), flush=True)
    print(json.dumps({"correct": not failures and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
