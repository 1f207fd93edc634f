//! Regenerates paper Fig. 5: impact of lightweight error correction (ECC)
//! or mitigation (IdxSync) on classification error for the MNIST-LeNet5
//! stand-in, with each data structure isolated (all others stored
//! perfectly) and stored as CTT SLC / MLC2 / MLC3.
//!
//! The stand-in is a *real trained network* on the synthetic-digit task;
//! errors are measured end-to-end through encode → store → inject →
//! decode → inference (the `VulnerabilityStudy` API). A training run that
//! diverges is reported as a typed error with a non-zero exit, never as
//! a chance-level figure.

use maxnvm_bench::println;
use std::error::Error;
use std::process::ExitCode;

use maxnvm_bench::{fig5_stand_in, fig5_study};
use maxnvm_faultsim::evaluate::AccuracyEval;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig5: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    println!("Training the LeNet5 stand-in on synthetic digits...");
    let (eval, clustered) = fig5_stand_in()?;
    println!(
        "Pruned+retrained baseline error: {:.2}%",
        eval.baseline_error() * 100.0
    );
    let study = fig5_study(30);
    println!(
        "\nFig. 5: isolated-structure classification error (%), CTT, {} trials",
        study.campaign.trials
    );
    println!(
        "{:<28} {:>8} {:>8} {:>8}",
        "structure [+protection]", "SLC", "MLC2", "MLC3"
    );
    for row in study.run_fig5(&clustered, &eval)? {
        println!(
            "{:<28} {:>7.2}% {:>7.2}% {:>7.2}%",
            row.label(),
            row.mean_error[0] * 100.0,
            row.mean_error[1] * 100.0,
            row.mean_error[2] * 100.0
        );
    }
    println!();
    println!("Expected shape (paper): sparse metadata is far more vulnerable than");
    println!("values; the bitmask is worst; ECC and IdxSync both rescue MLC3.");
    Ok(())
}
