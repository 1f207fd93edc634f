//! NVSim-style analytical characterization of eNVM memory arrays
//! (paper §3.4).
//!
//! The paper feeds its measured cell definitions into NVSim \[20\] to obtain
//! area, read latency, read energy and bandwidth for every candidate bank
//! organization, then picks Pareto-optimal points per optimization target.
//! This crate reimplements that flow with a calibrated analytical model:
//!
//! - an array is a grid of identical subarrays (`rows × cols` cells each)
//!   with per-subarray row decoders/drivers, column mux, and a flash-ADC
//!   sensing stage of `levels - 1` sense amps per active bitline (§2.3);
//! - [`sweep`] enumerates subarray geometries and mux factors;
//!   [`characterize`] picks the best feasible design for an
//!   [`OptTarget`];
//! - [`sram`] provides the SRAM macro model used for NVDLA's buffers and
//!   the hybrid-memory study (§6).
//!
//! Peripheral constants are calibrated against the paper's Table 4 /
//! Fig. 8 design points; `EXPERIMENTS.md` records measured-vs-paper for
//! every point. Absolute numbers are approximate, orderings and ratios are
//! the contract (see the calibration tests).
//!
//! # Example
//!
//! ```
//! use maxnvm_envm::CellTechnology;
//! use maxnvm_nvsim::{characterize, ArrayRequest, OptTarget};
//!
//! // VGG16's sparse-encoded weights in MLC3 CTT: ~90M cells.
//! let req = ArrayRequest::new(CellTechnology::MlcCtt, 90_000_000, 3);
//! let design = characterize(&req, OptTarget::ReadEdp).expect("feasible organization");
//! assert!(design.area_mm2 > 0.5 && design.area_mm2 < 8.0);
//! ```

// Lint rules D2 (no panics in library code) and D3 (unsafe hygiene,
// reasoned exceptions): DESIGN.md §11.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod extrapolate;
pub mod sram;

use maxnvm_envm::{CellTechnology, DeviceParams};

/// What to build: a number of cells of one technology at a bits-per-cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayRequest {
    /// Storage technology.
    pub tech: CellTechnology,
    /// Total memory cells.
    pub cells: u64,
    /// Bits per cell (1–3).
    pub bits_per_cell: u8,
}

impl ArrayRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0` or `bits_per_cell` is out of range for the
    /// technology.
    pub fn new(tech: CellTechnology, cells: u64, bits_per_cell: u8) -> Self {
        assert!(cells > 0, "empty array");
        assert!(
            bits_per_cell >= 1 && bits_per_cell <= tech.max_bits_per_cell(),
            "{} supports 1..={} bits per cell",
            tech.name(),
            tech.max_bits_per_cell()
        );
        Self {
            tech,
            cells,
            bits_per_cell,
        }
    }

    /// Request sized by capacity in bits.
    pub fn with_capacity_bits(tech: CellTechnology, bits: u64, bits_per_cell: u8) -> Self {
        Self::new(tech, bits.div_ceil(bits_per_cell as u64), bits_per_cell)
    }

    /// Usable capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.cells * self.bits_per_cell as u64
    }
}

/// NVSim optimization targets (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptTarget {
    /// Minimize total area.
    Area,
    /// Minimize read latency.
    ReadLatency,
    /// Minimize read energy × delay.
    ReadEdp,
    /// Minimize read energy per access.
    ReadEnergy,
    /// Minimize leakage power.
    Leakage,
}

impl OptTarget {
    /// All targets, as the paper's Table 3 lists them.
    pub const ALL: [OptTarget; 5] = [
        OptTarget::Area,
        OptTarget::ReadLatency,
        OptTarget::ReadEdp,
        OptTarget::ReadEnergy,
        OptTarget::Leakage,
    ];
}

/// One subarray organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayConfig {
    /// Rows per subarray.
    pub rows: u32,
    /// Columns (bitlines) per subarray.
    pub cols: u32,
    /// Column multiplexing factor (bitlines per sense amp group).
    pub mux: u32,
    /// Number of subarrays.
    pub subarrays: u32,
}

/// A fully characterized array design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayDesign {
    /// The request this design satisfies.
    pub request: ArrayRequest,
    /// Chosen organization.
    pub config: ArrayConfig,
    /// Total macro area (mm²).
    pub area_mm2: f64,
    /// Random read access latency (ns).
    pub read_latency_ns: f64,
    /// Dynamic energy per read access (pJ).
    pub read_energy_pj: f64,
    /// Useful data bits delivered per access.
    pub access_bits: u32,
    /// Leakage power (mW).
    pub leakage_mw: f64,
    /// Sequential read bandwidth (GB/s).
    pub read_bandwidth_gbps: f64,
    /// Energy to program one cell (pJ) — program current × voltage ×
    /// pulse time (iterative verify folded into the pulse duration).
    pub write_energy_per_cell_pj: f64,
}

impl ArrayDesign {
    /// Read energy-delay product (pJ·ns), the paper's default target.
    pub fn read_edp(&self) -> f64 {
        self.read_energy_pj * self.read_latency_ns
    }

    /// Energy to stream `bytes` of data out of the array (pJ).
    pub fn read_energy_for_bytes(&self, bytes: u64) -> f64 {
        let accesses = (bytes * 8).div_ceil(self.access_bits as u64);
        accesses as f64 * self.read_energy_pj
    }
}

// ---------------------------------------------------------------------------
// Calibrated peripheral constants (in F² and ns), shared across technologies;
// per-technology behaviour enters through DeviceParams (cell size, node,
// currents) and the sensing base times below.
// ---------------------------------------------------------------------------

/// Sense-amp footprint (F²) per technology: the CTT's current-mode latch
/// with per-level references is larger than the RRAM resistive-divider
/// sensing stage.
fn sa_area_f2(tech: CellTechnology) -> f64 {
    match tech {
        CellTechnology::MlcCtt => 1360.0,
        CellTechnology::MlcRram | CellTechnology::SlcRram => 960.0,
        CellTechnology::OptMlcRram => 560.0,
    }
}
/// Row driver + decoder slice per row (F²).
const ROW_PERIPH_F2: f64 = 70.0;
/// Per-column precharge/mux area (F²).
const COL_PERIPH_F2: f64 = 35.0;
/// Fixed control logic per subarray (F²).
const SUBARRAY_FIXED_F2: f64 = 150_000.0;
/// Global routing/bank overhead factor.
const GLOBAL_FACTOR: f64 = 1.12;

fn sense_base_ns(tech: CellTechnology) -> f64 {
    match tech {
        // High on-current transistor cell senses fast.
        CellTechnology::MlcCtt => 0.18,
        CellTechnology::MlcRram | CellTechnology::SlcRram => 0.55,
        // The aggressively scaled 10F² cell trades read current for
        // density: slowest sensing of the four (Table 4: 4.2–5.1ns).
        CellTechnology::OptMlcRram => 1.25,
    }
}

/// Peripheral devices (drivers, sense amps) stop scaling with the cell at
/// advanced nodes; penalize periphery area below 28nm.
fn periphery_scaling(node_nm: f64) -> f64 {
    (28.0 / node_nm).max(1.0).powf(0.75)
}

fn sa_energy_fj(tech: CellTechnology) -> f64 {
    match tech {
        CellTechnology::MlcCtt => 1.0,
        CellTechnology::MlcRram | CellTechnology::SlcRram => 8.0,
        CellTechnology::OptMlcRram => 14.0,
    }
}

/// Characterizes one specific organization. Returns `None` for infeasible
/// combinations (output width out of the 8–128-bit NVSim range, Table 3).
pub fn characterize_config(
    req: &ArrayRequest,
    rows: u32,
    cols: u32,
    mux: u32,
) -> Option<ArrayDesign> {
    let params: DeviceParams = req.tech.device_params();
    let levels = (1u32 << req.bits_per_cell) as f64;
    let access_bits = (cols / mux) * req.bits_per_cell as u32;
    if !(8..=128).contains(&access_bits) {
        return None;
    }
    let per_sub = rows as u64 * cols as u64;
    let subarrays = req.cells.div_ceil(per_sub).max(1);
    if subarrays > 1 << 20 {
        return None; // absurd organization
    }

    let f2_mm2 = (params.node_nm * 1e-6) * (params.node_nm * 1e-6);
    let cell_mm2 = params.cell_area_f2 * f2_mm2;
    let sa_per_sub = (cols / mux) as f64 * (levels - 1.0);
    let periph_f2 = (sa_per_sub * sa_area_f2(req.tech)
        + rows as f64 * ROW_PERIPH_F2
        + cols as f64 * COL_PERIPH_F2
        + SUBARRAY_FIXED_F2)
        * periphery_scaling(params.node_nm);
    let area_sub = per_sub as f64 * cell_mm2 + periph_f2 * f2_mm2;
    let area_mm2 = area_sub * subarrays as f64 * GLOBAL_FACTOR;

    // Latency: global decode + wordline RC + bitline RC + MLC sensing.
    // Wire RC grows quadratically with line length, which is what bounds
    // eNVM mats to modest sizes in latency-optimized NVSim solutions.
    let t_dec = 0.2 + 0.04 * (subarrays as f64).log2().max(0.0);
    let t_wl = 0.0011 * cols as f64 * (cols as f64 / 32.0);
    let bl_factor = match req.tech {
        CellTechnology::MlcCtt => 0.0008,
        CellTechnology::MlcRram | CellTechnology::SlcRram => 0.0016,
        CellTechnology::OptMlcRram => 0.0017,
    };
    let t_bl = bl_factor * rows as f64 * (rows as f64 / 16.0);
    let t_sense = sense_base_ns(req.tech) * (1.0 + 0.45 * (req.bits_per_cell as f64 - 1.0));
    let read_latency_ns = t_dec + t_wl + t_bl + t_sense;

    // Energy per access (pJ): bitline charging of one row's active columns,
    // flash-ADC sensing, wordline + decode.
    let e_bl =
        (cols / mux) as f64 * params.cell_read_current_ua * params.read_voltage * t_sense * 1e-3; // µA·V·ns = fJ -> pJ via 1e-3
    let e_sa = sa_per_sub * sa_energy_fj(req.tech) * 1e-3;
    let e_wl = cols as f64 * 0.05 * 1e-3;
    let e_dec = 0.08 + 0.01 * (subarrays as f64).log2().max(0.0);
    let read_energy_pj = e_bl + e_sa + e_wl + e_dec;

    // Leakage: sense amps and decoders idle (nW each), scaled by count.
    let leakage_mw = subarrays as f64 * (sa_per_sub * 2.0 + rows as f64 * 0.1) * 1e-6;

    // Write energy per cell: program current (~10x read) x write voltage
    // (~2x read) x pulse time. CTT's long HCI pulse makes each of its
    // cell-writes energetically expensive — another reason weights are
    // written rarely (§7.1).
    let write_energy_per_cell_pj = params.cell_read_current_ua
        * 10.0
        * params.read_voltage
        * 2.0
        * (params.program_pulse_s * 1e9)
        * 1e-3; // µA·V·ns = fJ -> pJ

    // Bandwidth: one access in flight (the NVDLA interface streams from a
    // single bank at a time).
    let read_bandwidth_gbps = access_bits as f64 / 8.0 / read_latency_ns;

    Some(ArrayDesign {
        request: *req,
        config: ArrayConfig {
            rows,
            cols,
            mux,
            subarrays: subarrays as u32,
        },
        area_mm2,
        read_latency_ns,
        read_energy_pj,
        access_bits,
        leakage_mw,
        read_bandwidth_gbps,
        write_energy_per_cell_pj,
    })
}

/// Energy (mJ) to program an entire weight set of `cells` cells into a
/// characterized design.
pub fn write_energy_mj(design: &ArrayDesign, cells: u64) -> f64 {
    design.write_energy_per_cell_pj * cells as f64 * 1e-9
}

/// Derives a write-time model from the characterized organization: one
/// program operation covers a wordline group per subarray, and program
/// current limits how many subarrays write simultaneously. This is why
/// the paper's Table 5 per-model write times do not scale linearly with
/// cell count — each model's array organization sets its own
/// parallelism.
pub fn write_model_for_design(design: &ArrayDesign) -> maxnvm_envm::WriteModel {
    let params = design.request.tech.device_params();
    // Cells programmed per operation: one wordline (cols) per subarray,
    // with simultaneously-active subarrays bounded by program power.
    let active_subarrays = (design.config.subarrays as usize).min(64);
    let parallelism = (design.config.cols as usize * active_subarrays).max(1);
    maxnvm_envm::WriteModel::new(design.request.tech, params.program_pulse_s, parallelism)
}

/// Enumerates all feasible organizations for a request (the NVSim sweep of
/// Table 3: data widths 8–128, bank/mat grids).
pub fn sweep(req: &ArrayRequest) -> Vec<ArrayDesign> {
    let mut out = Vec::new();
    for rows in [64u32, 128, 256, 512, 1024, 2048] {
        for cols in [64u32, 128, 256, 512, 1024] {
            for mux in [1u32, 2, 4, 8, 16, 32] {
                if mux > cols {
                    continue;
                }
                if let Some(d) = characterize_config(req, rows, cols, mux) {
                    out.push(d);
                }
            }
        }
    }
    out
}

/// Everything that can go wrong when characterizing an array: the sweep
/// found no feasible organization, or none meets a width requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvsimError {
    /// The organization sweep produced no feasible design for the request
    /// (cannot happen for the supported request range).
    NoFeasibleOrganization,
    /// No feasible organization delivers the requested access width.
    NoWideOrganization {
        /// The unmet minimum access width, in bits.
        min_access_bits: u32,
    },
}

impl std::fmt::Display for NvsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoFeasibleOrganization => {
                write!(f, "no feasible array organization for this request")
            }
            Self::NoWideOrganization { min_access_bits } => write!(
                f,
                "no feasible organization delivers {min_access_bits}-bit accesses"
            ),
        }
    }
}

impl std::error::Error for NvsimError {}

/// Picks the best design for an optimization target from the full sweep.
///
/// # Errors
///
/// Returns [`NvsimError::NoFeasibleOrganization`] if the sweep is empty
/// (cannot happen for the supported request range).
pub fn characterize(req: &ArrayRequest, target: OptTarget) -> Result<ArrayDesign, NvsimError> {
    let mut designs = sweep(req);
    // The paper's selected points stay performance-competitive ("within
    // 10% of the NVDLA baseline", §5.1): for the energy-oriented targets,
    // restrict candidates to within 1.5x of the minimum achievable read
    // latency before optimizing.
    if matches!(target, OptTarget::ReadEdp | OptTarget::ReadEnergy) {
        let min_lat = designs
            .iter()
            .map(|d| d.read_latency_ns)
            .fold(f64::INFINITY, f64::min);
        designs.retain(|d| d.read_latency_ns <= 1.5 * min_lat);
    }
    // Energy metrics are normalized per delivered bit, so the optimizer
    // does not degenerate to 8-bit outputs that starve the accelerator.
    let key = |d: &ArrayDesign| -> f64 {
        match target {
            OptTarget::Area => d.area_mm2,
            OptTarget::ReadLatency => d.read_latency_ns,
            // Fig. 8's points minimize "read energy-delay-product and
            // area": weight EDP by the macro area.
            OptTarget::ReadEdp => d.read_edp() / d.access_bits as f64 * d.area_mm2,
            OptTarget::ReadEnergy => d.read_energy_pj / d.access_bits as f64,
            OptTarget::Leakage => d.leakage_mw,
        }
    };
    designs
        .into_iter()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .ok_or(NvsimError::NoFeasibleOrganization)
}

/// Like [`characterize`], but only considers organizations delivering at
/// least `min_access_bits` per access — the system studies require a wide
/// streaming interface to the accelerator (the NVDLA side reads 128-bit
/// beats), which a mux-heavy energy-optimal point cannot feed.
///
/// # Errors
///
/// Returns [`NvsimError::NoWideOrganization`] if no feasible organization
/// meets the width requirement.
pub fn characterize_min_width(
    req: &ArrayRequest,
    target: OptTarget,
    min_access_bits: u32,
) -> Result<ArrayDesign, NvsimError> {
    let mut designs = sweep(req);
    designs.retain(|d| d.access_bits >= min_access_bits);
    if designs.is_empty() {
        return Err(NvsimError::NoWideOrganization { min_access_bits });
    }
    if matches!(target, OptTarget::ReadEdp | OptTarget::ReadEnergy) {
        let min_lat = designs
            .iter()
            .map(|d| d.read_latency_ns)
            .fold(f64::INFINITY, f64::min);
        designs.retain(|d| d.read_latency_ns <= 1.5 * min_lat);
    }
    let key = |d: &ArrayDesign| -> f64 {
        match target {
            OptTarget::Area => d.area_mm2,
            OptTarget::ReadLatency => d.read_latency_ns,
            OptTarget::ReadEdp => d.read_edp() / d.access_bits as f64 * d.area_mm2,
            OptTarget::ReadEnergy => d.read_energy_pj / d.access_bits as f64,
            OptTarget::Leakage => d.leakage_mw,
        }
    };
    designs
        .into_iter()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .ok_or(NvsimError::NoFeasibleOrganization)
}

/// Pareto front over (area, latency, energy): designs not dominated on all
/// three axes — what the paper selects its final points from.
pub fn pareto_front(designs: &[ArrayDesign]) -> Vec<ArrayDesign> {
    let dominated = |a: &ArrayDesign, b: &ArrayDesign| {
        b.area_mm2 <= a.area_mm2
            && b.read_latency_ns <= a.read_latency_ns
            && b.read_energy_pj <= a.read_energy_pj
            && (b.area_mm2 < a.area_mm2
                || b.read_latency_ns < a.read_latency_ns
                || b.read_energy_pj < a.read_energy_pj)
    };
    designs
        .iter()
        .filter(|a| !designs.iter().any(|b| dominated(a, b)))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb_cells(mb: u64, bpc: u8) -> u64 {
        mb * 1024 * 1024 * 8 / bpc as u64
    }

    #[test]
    fn request_capacity_round_trip() {
        let r = ArrayRequest::with_capacity_bits(CellTechnology::MlcCtt, 3000, 3);
        assert_eq!(r.cells, 1000);
        assert_eq!(r.capacity_bits(), 3000);
    }

    #[test]
    #[should_panic(expected = "supports 1..=1")]
    fn slc_rram_rejects_mlc_request() {
        ArrayRequest::new(CellTechnology::SlcRram, 100, 2);
    }

    #[test]
    fn table4_vgg16_areas_land_in_band() {
        // Paper Table 4, VGG16 (32MB): Opt 1.3mm², CTT 2.0, RRAM 5.7,
        // SLC 19.2. Require each within 2x and the exact ordering.
        let opt = characterize(
            &ArrayRequest::new(CellTechnology::OptMlcRram, mb_cells(32, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let ctt = characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(32, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let rram = characterize(
            &ArrayRequest::new(CellTechnology::MlcRram, mb_cells(32, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let slc = characterize(
            &ArrayRequest::new(CellTechnology::SlcRram, mb_cells(32, 1), 1),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        for (d, want, name) in [
            (&opt, 1.3, "opt"),
            (&ctt, 2.0, "ctt"),
            (&rram, 5.7, "rram"),
            (&slc, 19.2, "slc"),
        ] {
            let ratio = d.area_mm2 / want;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{name}: {} mm² vs paper {want} (ratio {ratio})",
                d.area_mm2
            );
        }
        assert!(opt.area_mm2 < ctt.area_mm2);
        assert!(ctt.area_mm2 < rram.area_mm2);
        assert!(rram.area_mm2 < slc.area_mm2);
    }

    #[test]
    fn mlc_ctt_is_about_an_order_denser_than_slc_rram() {
        // §5.1: "the MLC-CTT array requires an average of 9.6x less area"
        // than SLC-RRAM for the same payload.
        let mut ratios = Vec::new();
        for (mlc_mb, slc_mb) in [(32u64, 32u64), (12, 12), (4, 4)] {
            let ctt = characterize(
                &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(mlc_mb, 3), 3),
                OptTarget::ReadEdp,
            )
            .expect("feasible organization");
            let slc = characterize(
                &ArrayRequest::new(CellTechnology::SlcRram, mb_cells(slc_mb, 1), 1),
                OptTarget::ReadEdp,
            )
            .expect("feasible organization");
            ratios.push(slc.area_mm2 / ctt.area_mm2);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((5.0..16.0).contains(&avg), "avg ratio {avg} (paper 9.6x)");
    }

    #[test]
    fn read_latencies_are_nanoseconds_and_ordered() {
        // Table 4 latencies are 1.4–5.2ns; CTT senses faster than the
        // optimistic RRAM at the same bits-per-cell.
        let ctt = characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(32, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let opt = characterize(
            &ArrayRequest::new(CellTechnology::OptMlcRram, mb_cells(32, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        assert!(
            (0.7..6.0).contains(&ctt.read_latency_ns),
            "{}",
            ctt.read_latency_ns
        );
        assert!(
            (0.7..8.0).contains(&opt.read_latency_ns),
            "{}",
            opt.read_latency_ns
        );
        assert!(ctt.read_latency_ns < opt.read_latency_ns);
    }

    #[test]
    fn ctt_read_energy_beats_opt_rram_by_4x() {
        // §5.1: "MLC-CTT is consistently lower energy per access than even
        // the Optimistic MLC-RRAM solution by over 4x".
        let ctt = characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(12, 2), 2),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let opt = characterize(
            &ArrayRequest::new(CellTechnology::OptMlcRram, mb_cells(12, 2), 2),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        assert!(
            opt.read_energy_pj > 4.0 * ctt.read_energy_pj,
            "opt {} vs ctt {}",
            opt.read_energy_pj,
            ctt.read_energy_pj
        );
    }

    #[test]
    fn ctt_bandwidth_reaches_several_gbps() {
        // §5.1: CTT maintains read bandwidth "up to 9 GB/s".
        let d = characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(12, 2), 2),
            OptTarget::ReadLatency,
        )
        .expect("feasible organization");
        assert!(d.read_bandwidth_gbps > 3.0, "{}", d.read_bandwidth_gbps);
        assert!(d.read_bandwidth_gbps < 100.0, "{}", d.read_bandwidth_gbps);
    }

    #[test]
    fn more_bits_per_cell_shrinks_area_but_slows_sensing() {
        let slc = characterize(
            &ArrayRequest::with_capacity_bits(CellTechnology::MlcCtt, 8 * 1024 * 1024 * 8, 1),
            OptTarget::Area,
        )
        .expect("feasible organization");
        let mlc3 = characterize(
            &ArrayRequest::with_capacity_bits(CellTechnology::MlcCtt, 8 * 1024 * 1024 * 8, 3),
            OptTarget::Area,
        )
        .expect("feasible organization");
        assert!(mlc3.area_mm2 < slc.area_mm2);
        let slc_l = characterize(
            &ArrayRequest::with_capacity_bits(CellTechnology::MlcCtt, 8 * 1024 * 1024 * 8, 1),
            OptTarget::ReadLatency,
        )
        .expect("feasible organization");
        let mlc3_l = characterize(
            &ArrayRequest::with_capacity_bits(CellTechnology::MlcCtt, 8 * 1024 * 1024 * 8, 3),
            OptTarget::ReadLatency,
        )
        .expect("feasible organization");
        assert!(mlc3_l.read_latency_ns > slc_l.read_latency_ns);
    }

    #[test]
    fn optimization_targets_actually_optimize() {
        let req = ArrayRequest::new(CellTechnology::MlcRram, mb_cells(4, 2), 2);
        let designs = sweep(&req);
        assert!(designs.len() > 20, "sweep too small: {}", designs.len());
        let a = characterize(&req, OptTarget::Area).expect("feasible organization");
        let l = characterize(&req, OptTarget::ReadLatency).expect("feasible organization");
        let e = characterize(&req, OptTarget::ReadEnergy).expect("feasible organization");
        let min_lat = designs
            .iter()
            .map(|d| d.read_latency_ns)
            .fold(f64::INFINITY, f64::min);
        for d in &designs {
            assert!(a.area_mm2 <= d.area_mm2 + 1e-12);
            assert!(l.read_latency_ns <= d.read_latency_ns + 1e-12);
            // The energy target optimizes within the latency-competitive
            // subset (see `characterize`).
            if d.read_latency_ns <= 1.5 * min_lat {
                assert!(
                    e.read_energy_pj / e.access_bits as f64
                        <= d.read_energy_pj / d.access_bits as f64 + 1e-12
                );
            }
        }
    }

    #[test]
    fn pareto_front_is_non_dominated() {
        let req = ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(4, 3), 3);
        let designs = sweep(&req);
        let front = pareto_front(&designs);
        assert!(!front.is_empty() && front.len() < designs.len());
        for a in &front {
            for b in &designs {
                let dominates = b.area_mm2 < a.area_mm2
                    && b.read_latency_ns < a.read_latency_ns
                    && b.read_energy_pj < a.read_energy_pj;
                assert!(!dominates, "front point dominated");
            }
        }
    }

    #[test]
    fn min_width_characterization_delivers_wide_interfaces() {
        let req = ArrayRequest::new(CellTechnology::OptMlcRram, mb_cells(12, 3), 3);
        let narrow = characterize(&req, OptTarget::ReadEdp).expect("feasible organization");
        let wide =
            characterize_min_width(&req, OptTarget::ReadEdp, 96).expect("feasible organization");
        assert!(wide.access_bits >= 96);
        assert!(wide.read_bandwidth_gbps >= narrow.read_bandwidth_gbps);
    }

    #[test]
    fn access_width_respects_nvsim_range() {
        let req = ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(4, 3), 3);
        for d in sweep(&req) {
            assert!((8..=128).contains(&d.access_bits));
        }
    }

    #[test]
    fn design_derived_write_model_tracks_organization() {
        // A bigger array (more subarrays) writes with more parallelism —
        // until the program-power cap — so write time is sublinear in
        // cells for small arrays and linear past the cap.
        let small = characterize(
            &ArrayRequest::new(CellTechnology::MlcRram, mb_cells(1, 2), 2),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let large = characterize(
            &ArrayRequest::new(CellTechnology::MlcRram, mb_cells(32, 2), 2),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let t_small = write_model_for_design(&small).total_write_time_s(small.request.cells);
        let t_large = write_model_for_design(&large).total_write_time_s(large.request.cells);
        assert!(t_large > t_small);
        // 32x the cells but well under 32x the time would indicate a
        // parallelism win; with both past the cap the ratio approaches 32.
        let ratio = t_large / t_small;
        assert!((4.0..40.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn write_energy_ordering_follows_pulse_times() {
        // CTT's 100ms HCI pulses dwarf RRAM's µs pulse trains per cell.
        let ctt = characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(4, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let rram = characterize(
            &ArrayRequest::new(CellTechnology::MlcRram, mb_cells(4, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        assert!(
            ctt.write_energy_per_cell_pj > 100.0 * rram.write_energy_per_cell_pj,
            "ctt {} vs rram {}",
            ctt.write_energy_per_cell_pj,
            rram.write_energy_per_cell_pj
        );
        let total = write_energy_mj(&ctt, 1_000_000);
        assert!(total > 0.0);
        assert!((write_energy_mj(&ctt, 2_000_000) / total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_for_bytes_scales_with_volume() {
        let d = characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, mb_cells(4, 3), 3),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization");
        let one = d.read_energy_for_bytes(1024);
        let two = d.read_energy_for_bytes(2048);
        assert!((two / one - 2.0).abs() < 0.01);
    }
}
