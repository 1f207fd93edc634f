//! Regenerates paper Fig. 1: area vs read latency for the evaluated eNVM
//! proposals, each characterized as a fixed-capacity 4MB array
//! (read-latency-optimized, as the paper's NVSim runs were).

use maxnvm_bench::println;
use maxnvm_envm::CellTechnology;
use maxnvm_nvsim::extrapolate::fig1_points;
use maxnvm_nvsim::{characterize, ArrayRequest, OptTarget};

fn main() {
    let capacity = 4u64 * 1024 * 1024 * 8;
    println!("Fig. 1 (top): published chips extrapolated to 4MB");
    println!("{:<8} {:>12} {:>14}", "Ref", "Area(mm2)", "Read");
    for p in fig1_points(capacity) {
        let lat = p.read_latency_ns.map_or("-".into(), |l| {
            if l >= 1000.0 {
                format!("{:.0}us", l / 1000.0)
            } else {
                format!("{l:.1}ns")
            }
        });
        println!(
            "{:<8} {:>12} {:>14}",
            p.reference,
            p.area_mm2.map_or("-".into(), |a| format!("{a:.2}")),
            lat
        );
    }
    println!();
    println!("Fig. 1 (bottom): this reproduction's 4MB arrays per technology");
    println!(
        "{:<16} {:>4} {:>12} {:>12} {:>14} {:>10}",
        "Technology", "BPC", "Area(mm2)", "Read(ns)", "Energy(pJ)", "BW(GB/s)"
    );
    let capacity_bits = 4u64 * 1024 * 1024 * 8;
    for tech in CellTechnology::ALL {
        for bpc in [1u8, tech.max_bits_per_cell()] {
            if bpc > tech.max_bits_per_cell() {
                continue;
            }
            let req = ArrayRequest::with_capacity_bits(tech, capacity_bits, bpc);
            let d = characterize(&req, OptTarget::ReadLatency).expect("feasible organization");
            println!(
                "{:<16} {:>4} {:>12.3} {:>12.2} {:>14.2} {:>10.2}",
                tech.name(),
                bpc,
                d.area_mm2,
                d.read_latency_ns,
                d.read_energy_pj,
                d.read_bandwidth_gbps
            );
            if tech.max_bits_per_cell() == 1 {
                break;
            }
        }
    }
    println!();
    println!("Shape checks vs paper: CMOS-access arrays land at ns-scale reads;");
    println!("MLC packing shrinks area at a sensing-latency cost.");
}
