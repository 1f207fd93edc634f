//! Smoke test of the `examples/`: each runs with default arguments to
//! exit 0, and `embedded_inference` prints a trained baseline rather than
//! chance-level numbers.
//!
//! `cargo test` builds the examples into `examples/` beside the directory
//! holding this test's executable; a test-target-only run (`--test
//! examples`) does not, so build them first with `cargo build --examples`.

use std::path::PathBuf;
use std::process::Command;

const EXAMPLES: [&str; 7] = [
    "design_space_exploration",
    "embedded_inference",
    "hybrid_memory",
    "keyword_spotting",
    "model_update",
    "quickstart",
    "sharded_sweep",
];

/// Where cargo put example `name` for this test's profile.
fn example_path(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test executable sits in <target>/<profile>/deps");
    profile_dir
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
}

/// Runs example `name` with no arguments; returns its stdout after
/// asserting exit 0.
fn run(name: &str) -> String {
    let path = example_path(name);
    assert!(
        path.is_file(),
        "{} is missing: `cargo test` builds the examples, a test-target-only run does not \
         (run `cargo build --examples` first)",
        path.display()
    );
    let out = Command::new(&path).output().expect("spawn example");
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn every_example_exits_zero_and_embedded_inference_trains() {
    for name in EXAMPLES {
        let out = run(name);
        if name == "embedded_inference" {
            let line = out
                .lines()
                .find_map(|l| l.trim_start().strip_prefix("pruned test error "))
                .unwrap_or_else(|| panic!("no baseline line in:\n{out}"));
            let baseline: f64 = line
                .split('%')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("unparsable baseline {line:?}"));
            assert!(
                baseline < 5.0,
                "baseline {baseline}% is not trained:\n{out}"
            );
        }
    }
}

#[test]
fn the_list_covers_every_example_source() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut sources: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .filter_map(|e| {
            let path = e.expect("directory entry").path();
            (path.extension()? == "rs").then(|| path.file_stem()?.to_str().map(str::to_owned))?
        })
        .collect();
    sources.sort();
    assert_eq!(sources, EXAMPLES, "add new examples to EXAMPLES");
}
