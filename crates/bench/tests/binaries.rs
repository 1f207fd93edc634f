//! Smoke test of the figure and table binaries: each runs to exit 0, also
//! when its reader goes away early, and `fig5` prints a trained baseline
//! and the paper's MLC3 ordering rather than chance-level numbers.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Every figure and table binary but `fig5`, which has its own test.
const OTHERS: [&str; 13] = [
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
];

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
    for exe in OTHERS {
        run(exe);
    }
}

#[test]
fn a_closed_stdout_is_not_a_crash() {
    // `<binary> | head -1`: read one line, then drop the pipe. `fig5`
    // trains for a while after its first line, so its later writes are
    // sure to meet the closed pipe.
    for exe in OTHERS.into_iter().chain([env!("CARGO_BIN_EXE_fig5")]) {
        let mut child = Command::new(exe)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn bench binary");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("first line");
        assert!(!line.is_empty(), "{exe} printed nothing");
        let out = child.wait_with_output().expect("wait for bench binary");
        assert!(
            out.status.success(),
            "{exe} | head -1 exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
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
