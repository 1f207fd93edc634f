//! Workspace automation entry point (`cargo xtask <command>`).
//!
//! Commands (the lint rules are clippy's; see DESIGN.md §11):
//! - `miri [--strict]` — run the sanctioned Miri suite (`bits`, `ecc`
//!   and the `envm` Gray-code unit tests). Skips with a warning when the
//!   Miri component is not installed, unless `--strict`.
//! - `deny [--strict]` — run `cargo deny check` if cargo-deny is
//!   installed; otherwise skip with a warning, unless `--strict`.

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cargo xtask <miri [--strict] | deny [--strict]>";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("miri") => cmd_miri(&root, args.iter().any(|a| a == "--strict")),
        Some("deny") => cmd_deny(&root, args.iter().any(|a| a == "--strict")),
        Some(other) => {
            eprintln!("unknown xtask command {other:?}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn cmd_miri(root: &Path, strict: bool) -> ExitCode {
    let available = Command::new("cargo")
        .args(["miri", "--version"])
        .current_dir(root)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !available {
        let msg = "miri is not installed (rustup component add miri)";
        if strict {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("warning: SKIPPED miri suite — {msg}");
        return ExitCode::SUCCESS;
    }
    // The sanctioned suite: pure bit-level crates end to end. Kept
    // small: Miri runs ~100x slower than native.
    run_all(
        root,
        &[
            &["miri", "test", "-p", "maxnvm-bits"],
            &["miri", "test", "-p", "maxnvm-ecc"],
            &["miri", "test", "-p", "maxnvm-envm", "--lib", "gray"],
        ],
    )
}

fn cmd_deny(root: &Path, strict: bool) -> ExitCode {
    let available = Command::new("cargo")
        .args(["deny", "--version"])
        .current_dir(root)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !available {
        let msg = "cargo-deny is not installed (cargo install cargo-deny)";
        if strict {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        eprintln!("warning: SKIPPED cargo-deny — {msg}");
        return ExitCode::SUCCESS;
    }
    let status = Command::new("cargo")
        .args(["deny", "check"])
        .current_dir(root)
        .status();
    exit_of(status)
}

fn run_all(root: &Path, commands: &[&[&str]]) -> ExitCode {
    for cmd in commands {
        let status = Command::new("cargo").args(*cmd).current_dir(root).status();
        match status {
            Ok(s) if s.success() => {}
            other => return exit_of(other),
        }
    }
    ExitCode::SUCCESS
}

fn exit_of(status: std::io::Result<std::process::ExitStatus>) -> ExitCode {
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: failed to launch cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
