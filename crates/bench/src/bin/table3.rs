//! Regenerates paper Table 3: the NVSim sweep parameters and NVDLA
//! baseline configurations this reproduction uses.

use maxnvm_bench::println;
use maxnvm_nvdla::NvdlaConfig;
use maxnvm_nvsim::OptTarget;

fn main() {
    println!("Table 3 (left): NVSim-style sweep parameters");
    println!("  Data width        8 - 128 bits");
    println!("  Subarray rows     64 - 2048");
    println!("  Subarray columns  64 - 1024");
    println!("  Column mux        1 - 32");
    let targets: Vec<String> = OptTarget::ALL.iter().map(|t| format!("{t:?}")).collect();
    println!("  Optimization targets: {}\n", targets.join(", "));
    println!("Table 3 (right): NVDLA baselines");
    println!("{:<28} {:>12} {:>12}", "", "NVDLA-64", "NVDLA-1024");
    let a = NvdlaConfig::nvdla_64();
    let b = NvdlaConfig::nvdla_1024();
    let row = |label: &str, va: String, vb: String| {
        println!("{label:<28} {va:>12} {vb:>12}");
    };
    row(
        "Conv buffer",
        format!("{}KB", a.conv_buffer_kb),
        format!("{}KB", b.conv_buffer_kb),
    );
    row("Number of MACs", a.macs.to_string(), b.macs.to_string());
    row(
        "SRAM capacity",
        format!("{}KB", a.sram_kb),
        format!("{}KB", b.sram_kb),
    );
    row(
        "Frequency",
        format!("{}GHz", a.freq_ghz),
        format!("{}GHz", b.freq_ghz),
    );
    row(
        "Datapath area",
        format!("{}mm2", a.datapath_area_mm2),
        format!("{}mm2", b.datapath_area_mm2),
    );
    row(
        "Datapath power (calib.)",
        format!("{}mW", a.datapath_power_mw),
        format!("{}mW", b.datapath_power_mw),
    );
    row(
        "SRAM BW",
        format!("{}GB/s", a.sram_bw_gbps),
        format!("{}GB/s", b.sram_bw_gbps),
    );
    row(
        "DRAM read BW",
        format!("{}GB/s", a.dram_bw_gbps),
        format!("{}GB/s", b.dram_bw_gbps),
    );
    row(
        "LPDDR4 DRAM power",
        format!("{}mW", a.dram_power_mw),
        format!("{}mW", b.dram_power_mw),
    );
}
