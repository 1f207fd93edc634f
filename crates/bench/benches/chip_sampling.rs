//! Criterion benchmark of chip-instance sampling
//! (`StoredLayer::sample_chip_flips`): one programmed chip per
//! iteration over a ~150k-cell BitMask+IdxSync MLC3 store, at physical
//! MLC-CTT and MLC-RRAM rates behind the paper's sense amplifier. The
//! throughput counts stored cells, so `elem/s` is cells sampled per
//! second. It times the sampler alone, without perfbench's set-up,
//! decode or evaluation, so a sampler change can be compared in seconds.
//!
//! Run with `cargo bench -p maxnvm-bench --bench chip_sampling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellModel, CellTechnology, MlcConfig, SenseAmp};
use rand::{Rng, SeedableRng};

/// A 128×1024 layer, ~60% pruned and clustered to 6-bit indices: about
/// 44k mask cells and 105k value cells under BitMask+IdxSync MLC3.
fn chip_store() -> StoredLayer {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let data: Vec<f32> = (0..128 * 1024)
        .map(|_| {
            if rng.gen::<f64>() < 0.6 {
                0.0
            } else {
                rng.gen::<f32>() + 0.1
            }
        })
        .collect();
    let clustered = ClusteredLayer::from_matrix(&LayerMatrix::new("l", 128, 1024, data), 6, 3);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    StoredLayer::store(&clustered, &scheme)
}

fn bench_chip_sampling(c: &mut Criterion) {
    let stored = chip_store();
    let cells: u64 = stored.structures().iter().map(|s| s.num_cells()).sum();
    let sa = SenseAmp::paper_default();
    let mut group = c.benchmark_group("sample_chip_flips");
    group.throughput(Throughput::Elements(cells));
    for tech in [CellTechnology::MlcCtt, CellTechnology::MlcRram] {
        // Built once and cloned per structure, as `run_chips` does.
        let models: Vec<CellModel> = MlcConfig::ALL
            .iter()
            .map(|&cfg| tech.cell_model(cfg).with_sense_amp(&sa))
            .collect();
        let cell_for = |cfg: MlcConfig| models[(cfg.bits() - 1) as usize].clone();
        group.bench_function(BenchmarkId::new(tech.name(), cells), |bench| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            bench.iter(|| stored.sample_chip_flips(&cell_for, &mut rng))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_chip_sampling
}
criterion_main!(benches);
