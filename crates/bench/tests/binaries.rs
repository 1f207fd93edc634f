//! Smoke test of the figure and table binaries: each runs to exit 0, and
//! `fig5` prints a trained baseline and the paper's MLC3 ordering rather
//! than chance-level numbers.

use std::process::Command;

/// Runs `exe` with no arguments; returns its stdout after asserting exit 0.
fn run(exe: &str) -> String {
    let out = Command::new(exe).output().expect("spawn bench binary");
    assert!(
        out.status.success(),
        "{exe} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The first `%` figure after `prefix` on the line starting with it.
fn percent_after(stdout: &str, prefix: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting {prefix:?} in:\n{stdout}"));
    line[prefix.len()..]
        .trim()
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|e| panic!("{line:?}: {e}"))
}

/// The MLC3 column of the Fig. 5 row labelled exactly `label`.
fn mlc3(stdout: &str, label: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.get(..28).is_some_and(|head| head.trim_end() == label))
        .unwrap_or_else(|| panic!("no Fig. 5 row {label:?} in:\n{stdout}"));
    let last = line.split_whitespace().last().expect("MLC3 column");
    last.trim_end_matches('%')
        .parse()
        .unwrap_or_else(|e| panic!("{line:?}: {e}"))
}

#[test]
fn every_other_bench_binary_exits_zero() {
    for exe in [
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_fig1"),
        env!("CARGO_BIN_EXE_fig2"),
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_fig8"),
        env!("CARGO_BIN_EXE_fig9"),
        env!("CARGO_BIN_EXE_fig10"),
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_table5"),
    ] {
        run(exe);
    }
}

#[test]
fn fig5_prints_a_trained_baseline_and_the_mlc3_ordering() {
    let out = run(env!("CARGO_BIN_EXE_fig5"));
    let baseline = percent_after(&out, "Pruned+retrained baseline error:");
    assert!(
        baseline < 5.0,
        "baseline {baseline}% is not trained:\n{out}"
    );
    let plain = mlc3(&out, "bitmask");
    let ecc = mlc3(&out, "bitmask +ECC");
    let sync = mlc3(&out, "bitmask +IdxSync");
    assert!(
        plain > ecc && plain > sync,
        "MLC3 bitmask {plain}% must exceed +ECC {ecc}% and +IdxSync {sync}%:\n{out}"
    );
}
