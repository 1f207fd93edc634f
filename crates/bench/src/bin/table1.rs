//! Regenerates paper Table 1: characterization of published non-volatile
//! memory chips.

use maxnvm_bench::println;
use maxnvm_envm::reference::table1_chips;

fn main() {
    println!("Table 1: Characterization of different non-volatile memory chips");
    println!(
        "{:<6} {:<8} {:<8} {:<10} {:>10} {:>10} {:>12} {:>12} {:>20}",
        "Ref", "Type", "Node", "Access", "Cell(F2)", "Capacity", "Area(mm2)", "Read", "Write"
    );
    for c in table1_chips() {
        let cap = {
            let bits = c.capacity_bits as f64;
            if bits >= 8.0 * 1024.0 * 1024.0 * 1024.0 {
                format!("{:.0}Gb", bits / (1024.0 * 1024.0 * 1024.0))
            } else {
                format!("{:.1}Mb", bits / (1024.0 * 1024.0))
            }
        };
        let fmt_ns = |ns: f64| {
            if ns >= 1000.0 {
                format!("{:.0}us", ns / 1000.0)
            } else {
                format!("{ns:.1}ns")
            }
        };
        println!(
            "{:<6} {:<8} {:<8} {:<10} {:>10} {:>10} {:>12} {:>12} {:>20}",
            c.reference,
            format!("{:?}", c.kind),
            format!("{:.0}nm", c.node_nm),
            format!("{:?}", c.access),
            c.cell_area_f2.map_or("-".into(), |a| format!("{a:.0}")),
            cap,
            c.macro_area_mm2.map_or("-".into(), |a| format!("{a:.3}")),
            c.read_latency_ns.map_or("-".into(), fmt_ns),
            c.write_latency_ns.map_or("-".into(), |(lo, hi)| {
                if lo == hi {
                    fmt_ns(lo)
                } else {
                    format!("{} - {}", fmt_ns(lo), fmt_ns(hi))
                }
            }),
        );
    }
}
