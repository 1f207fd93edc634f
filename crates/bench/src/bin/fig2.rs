//! Regenerates paper Fig. 2b: read-signal distributions of an 8-level
//! (3-bit) programmed CTT cell — level means/sigmas and the measured
//! histogram of 128 sampled devices per level, plus the derived
//! adjacent-level fault rates.

use maxnvm_bench::println;
use maxnvm_envm::{CellTechnology, MlcConfig};
use rand::SeedableRng;

fn main() {
    let cell = CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3);
    println!("Fig. 2b: MLC3-programmed CTT level distributions (normalized signal)");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12}",
        "Level", "mean", "sigma", "P(up)", "P(down)"
    );
    let fm = cell.fault_map();
    for (i, l) in cell.levels().iter().enumerate() {
        println!(
            "{:<8} {:>10.4} {:>10.4} {:>12.3e} {:>12.3e}",
            i,
            l.mean,
            l.sigma,
            fm.p_up(i),
            fm.p_down(i)
        );
    }
    println!();
    println!("Current histogram at nominal read voltage (128 cells/level, 40 bins):");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2019);
    let bins = 40usize;
    let (lo, hi) = (-0.2f64, 1.1f64);
    let mut hist = vec![[0u32; 8]; bins];
    for (lvl, l) in cell.levels().iter().enumerate() {
        for _ in 0..128 {
            let x = maxnvm_envm::math::sample_normal(&mut rng, l.mean, l.sigma);
            let b = (((x - lo) / (hi - lo)) * bins as f64).clamp(0.0, bins as f64 - 1.0) as usize;
            hist[b][lvl] += 1;
        }
    }
    for (b, row) in hist.iter().enumerate() {
        let x = lo + (b as f64 + 0.5) / bins as f64 * (hi - lo);
        let total: u32 = row.iter().sum();
        if total == 0 {
            continue;
        }
        let dominant = row.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        println!(
            "{x:>7.3} | {:<60} L{dominant}",
            "#".repeat((total as usize).min(60))
        );
    }
    println!();
    println!(
        "Worst adjacent misread rate: {:.2e} (paper band 1e-3..1e-5 for MLC3)",
        fm.worst_adjacent_rate()
    );
    println!(
        "Non-adjacent misread bound:  {:.2e} (paper: <= 1.5e-10)",
        cell.non_adjacent_bound()
    );
}
