use super::*;
use crate::cluster::ClusteredLayer;
use crate::{EncodingKind, StructureKind};
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_envm::{CellModel, CellTechnology, FaultMap, MlcConfig};
use rand::SeedableRng;
use std::sync::Arc;

fn clustered(rows: usize, cols: usize, sparsity: f64, seed: u64) -> ClusteredLayer {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f64>() < sparsity {
                0.0
            } else {
                rng.gen::<f32>() + 0.1
            }
        })
        .collect();
    ClusteredLayer::from_matrix(&LayerMatrix::new("t", rows, cols, data), 4, seed)
}

#[test]
fn clean_round_trip_all_encodings_all_bpc() {
    let c = clustered(12, 40, 0.6, 1);
    let want = c.reconstruct();
    for enc in EncodingKind::ALL {
        for bpc in MlcConfig::ALL {
            for idx_sync in [false, true] {
                for ecc in [EccScope::None, EccScope::Metadata, EccScope::All] {
                    let mut scheme = StorageScheme::uniform(enc, bpc);
                    scheme.idx_sync = idx_sync;
                    scheme.ecc = ecc;
                    let stored = StoredLayer::store(&c, &scheme);
                    let (out, stats) = stored.decode_clean();
                    assert_eq!(out.data, want.data, "{enc} {bpc} sync={idx_sync}");
                    assert_eq!(stats.cell_faults, 0);
                    assert_eq!(stats.ecc_uncorrectable, 0);
                }
            }
        }
    }
}

#[test]
fn cell_counts_shrink_with_more_bits_per_cell() {
    let c = clustered(20, 64, 0.7, 2);
    let slc = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::SLC),
    );
    let mlc3 = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
    );
    assert!(mlc3.total_cells() < slc.total_cells());
    // Roughly 3x fewer (modulo rounding and the SLC centroid table).
    let ratio = slc.total_cells() as f64 / mlc3.total_cells() as f64;
    assert!(ratio > 2.0 && ratio < 3.5, "ratio {ratio}");
}

#[test]
fn ecc_adds_modest_cell_overhead() {
    let c = clustered(32, 128, 0.6, 3);
    let plain = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC2),
    );
    let ecc = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC2).with_ecc(),
    );
    assert!(ecc.total_cells() > plain.total_cells());
    let overhead = ecc.total_cells() as f64 / plain.total_cells() as f64 - 1.0;
    assert!(overhead < 0.01, "ECC overhead {overhead} should be <1%");
}

#[test]
fn ecc_corrects_injected_faults() {
    // Inject faults into the ECC-protected CSR row counters only, at a
    // rate that makes single-fault codewords common. Every trial whose
    // codewords all decoded (no DetectedDouble) must reconstruct the
    // exact original — single faults were corrected, not just detected.
    let c = clustered(16, 64, 0.5, 4);
    let scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3).with_ecc();
    let stored = StoredLayer::store(&c, &scheme);
    let want = c.reconstruct();
    let cell = CellTechnology::MlcCtt;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    // ~38 row-counter cells at a ~5e-6 mean rate; scale to λ≈0.28
    // faults/codeword so single-error corrections are common while
    // multi-fault codewords stay rare.
    let fault_for = |bpc: MlcConfig| Arc::new(cell.cell_model(bpc).fault_map().scaled(1400.0));
    let mut corrected_trials = 0;
    for _ in 0..60 {
        let (out, stats) =
            stored.decode_with_isolated_faults(StructureKind::RowCounter, &fault_for, &mut rng);
        // A *single* injected fault is always corrected exactly; with
        // three or more faults in one codeword SEC-DED can miscorrect
        // while reporting success — faithful code behaviour, so only
        // the single-fault trials carry the exactness guarantee.
        if stats.cell_faults == 1 {
            assert_eq!(stats.ecc_corrected, 1, "single fault must be corrected");
            assert_eq!(out.data, want.data, "corrected trial must be exact");
            corrected_trials += 1;
        }
    }
    assert!(
        corrected_trials > 2,
        "ECC barely exercised: {corrected_trials}"
    );
}

#[test]
fn isolated_injection_touches_only_target() {
    let c = clustered(8, 1024, 0.5, 6);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3);
    let stored = StoredLayer::store(&c, &scheme);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // Saturating fault map on Values only: mask decodes cleanly, so
    // every non-zero position is still non-zero (values corrupted).
    let always = |bpc: MlcConfig| {
        let n = bpc.levels();
        let mut up = vec![1.0; n];
        let mut down = vec![0.0; n];
        up[n - 1] = 0.0;
        down[n - 1] = 1.0;
        Arc::new(FaultMap::new(up, down))
    };
    let (out, stats) = stored.decode_with_isolated_faults(StructureKind::Values, &always, &mut rng);
    assert!(stats.cell_faults > 0);
    let want = c.reconstruct();
    // Mask untouched: every true-zero position stays zero (a corrupted
    // value can *become* the zero cluster, but never the reverse).
    for (a, b) in out.data.iter().zip(&want.data) {
        if *b == 0.0 {
            assert_eq!(*a, 0.0, "zero position gained a value: mask corrupted?");
        }
    }
    // ...but values differ.
    assert_ne!(out.data, want.data);
}

#[test]
fn model_storage_aggregates_layers() {
    let a = clustered(8, 32, 0.5, 30);
    let b = clustered(4, 64, 0.7, 31);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC2);
    let stored = ModelStorage::store(&[a.clone(), b.clone()], &scheme);
    assert_eq!(stored.layers().len(), 2);
    assert_eq!(
        stored.total_cells(),
        stored.layers()[0].total_cells() + stored.layers()[1].total_cells()
    );
    let (mats, stats) = stored.decode_clean();
    assert_eq!(mats[0].data, a.reconstruct().data);
    assert_eq!(mats[1].data, b.reconstruct().data);
    assert_eq!(stats.cell_faults, 0);
}

#[test]
fn programmed_chip_decodes_deterministically() {
    let c = clustered(16, 256, 0.5, 21);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3);
    let stored = StoredLayer::store(&c, &scheme);
    // A deliberately noisy cell so chips actually differ.
    let cell_for = |bpc: MlcConfig| {
        let levels = (0..bpc.levels())
            .map(|i| {
                maxnvm_envm::LevelDistribution::new(
                    i as f64 / (bpc.levels() - 1).max(1) as f64,
                    0.06,
                )
            })
            .collect();
        CellModel::new(levels)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let chip_a = stored.program_chip(&cell_for, &mut rng);
    let chip_b = stored.program_chip(&cell_for, &mut rng);
    // Same chip: identical decodes (permanent faults).
    assert_eq!(chip_a.decode(), chip_a.decode());
    // Different chips: different fault maps (with these rates, surely).
    assert!(chip_a.fault_count() > 0);
    assert_ne!(chip_a.decode().0, chip_b.decode().0);
    // Reported fault counts match the cell-level disagreement.
    assert_eq!(chip_a.decode().1.cell_faults, chip_a.fault_count());
}

#[test]
fn perfect_chip_round_trips() {
    let c = clustered(8, 64, 0.5, 22);
    let scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC2);
    let stored = StoredLayer::store(&c, &scheme);
    // Ultra-tight levels: programming never misses.
    let cell_for = |bpc: MlcConfig| {
        let levels = (0..bpc.levels())
            .map(|i| {
                maxnvm_envm::LevelDistribution::new(
                    i as f64 / (bpc.levels() - 1).max(1) as f64,
                    1e-6,
                )
            })
            .collect();
        CellModel::new(levels)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let chip = stored.program_chip(&cell_for, &mut rng);
    assert_eq!(chip.fault_count(), 0);
    assert_eq!(chip.decode().0.data, c.reconstruct().data);
}

#[test]
fn scheme_labels_match_paper() {
    assert_eq!(
        StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3)
            .with_idx_sync()
            .label(),
        "BitM+IdxSync"
    );
    assert_eq!(
        StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3)
            .with_ecc()
            .label(),
        "CSR+ECC"
    );
    assert_eq!(
        StorageScheme::uniform(EncodingKind::DenseClustered, MlcConfig::MLC2).label(),
        "P+C"
    );
}

#[test]
fn max_bpc_reports_densest_structure() {
    let mut scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC2);
    scheme.bpc.mask = MlcConfig::SLC;
    scheme.bpc.values = MlcConfig::MLC3;
    assert_eq!(scheme.max_bpc(), MlcConfig::MLC3);
}

#[test]
fn per_structure_bpc_is_respected() {
    let c = clustered(8, 64, 0.5, 8);
    let mut scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::SLC);
    scheme.bpc.values = MlcConfig::MLC3;
    let stored = StoredLayer::store(&c, &scheme);
    for s in stored.structures() {
        match s.kind {
            StructureKind::Values => assert_eq!(s.bpc, MlcConfig::MLC3),
            _ => assert_eq!(s.bpc, MlcConfig::SLC),
        }
    }
    let (out, _) = stored.decode_clean();
    assert_eq!(out.data, c.reconstruct().data);
}

#[test]
fn injection_codec_matches_manual_injection_rng_stream() {
    // The unified codec core must consume the RNG in exactly the order
    // the original two-pass implementation did (inject everything, then
    // decode): one draw per cell, structures in storage order. Replaying
    // the same seed through a hand-rolled two-pass injection must yield
    // the identical fault pattern.
    let c = clustered(10, 96, 0.6, 40);
    let scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3);
    let stored = StoredLayer::store(&c, &scheme);
    let cell = CellTechnology::MlcCtt;
    let fault_for = |bpc: MlcConfig| Arc::new(cell.cell_model(bpc).fault_map().scaled(2000.0));

    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let (via_codec, stats) = stored.decode_with_faults(&fault_for, &mut rng);

    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut manual_faults = 0usize;
    let injected: Vec<Vec<u8>> = stored
        .structures()
        .iter()
        .map(|s| {
            let map = fault_for(s.bpc);
            let mut cells = s.cells.clone();
            for cl in cells.iter_mut() {
                let read = map.sample(*cl as usize, &mut rng);
                if read != *cl as usize {
                    *cl = read as u8;
                    manual_faults += 1;
                }
            }
            cells
        })
        .collect();
    let (via_fixed, _) = stored.decode_with_codec(&mut FixedReadCodec::new(&injected));
    assert!(stats.cell_faults > 0, "fault rate too low to exercise");
    assert_eq!(stats.cell_faults, manual_faults);
    assert_eq!(via_codec.data, via_fixed.data);
}

/// An adjacent level guaranteed to differ from `level`.
fn adjacent_flip(level: u8, levels: usize) -> u8 {
    if (level as usize) + 1 < levels {
        level + 1
    } else {
        level - 1
    }
}

#[test]
fn prepared_decode_matches_full_decode_under_identical_flips() {
    use rand::Rng;
    let c = clustered(12, 256, 0.6, 70);
    let mut schemes = Vec::new();
    for enc in EncodingKind::ALL {
        for ecc in [EccScope::None, EccScope::Metadata, EccScope::All] {
            let mut s = StorageScheme::uniform(enc, MlcConfig::MLC2);
            s.ecc = ecc;
            schemes.push(s.clone());
            if enc == EncodingKind::BitMask {
                schemes.push(s.clone().with_idx_sync().with_sync_block_bits(128));
            }
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    for scheme in &schemes {
        let stored = StoredLayer::store(&c, scheme);
        let prepared = PreparedLayer::prepare(&stored);
        for trial in 0..40 {
            // 0..=2 flips per structure: exercises the clean-copy,
            // entry-patch, row/block re-walk, and full-fallback paths.
            let flips: Vec<Vec<(u32, u8)>> = stored
                .structures()
                .iter()
                .map(|s| {
                    let n = s.cells.len();
                    if n == 0 {
                        return Vec::new();
                    }
                    let k = rng.gen_range(0..3usize.min(n));
                    let mut f: Vec<(u32, u8)> = (0..k)
                        .map(|_| {
                            let pos = rng.gen_range(0..n);
                            let lvl = s.cells[pos];
                            (pos as u32, adjacent_flip(lvl, s.bpc.levels()))
                        })
                        .collect();
                    f.sort_unstable_by_key(|&(p, _)| p);
                    f.dedup_by_key(|x| x.0);
                    f
                })
                .collect();
            let (fast, fast_stats) = prepared.decode_flips(&flips);
            let injected: Vec<Vec<u8>> = stored
                .structures()
                .iter()
                .zip(&flips)
                .map(|(s, f)| {
                    let mut cells = s.cells.clone();
                    for &(p, new) in f {
                        cells[p as usize] = new;
                    }
                    cells
                })
                .collect();
            let (full, full_stats) = stored.decode_with_codec(&mut FixedReadCodec::new(&injected));
            let label = scheme.label();
            assert_eq!(fast.data, full.data, "{label} trial {trial}");
            assert_eq!(
                fast_stats.ecc_corrected, full_stats.ecc_corrected,
                "{label}"
            );
            assert_eq!(
                fast_stats.ecc_uncorrectable, full_stats.ecc_uncorrectable,
                "{label}"
            );
            assert_eq!(
                fast_stats.cell_faults,
                flips.iter().map(Vec::len).sum::<usize>()
            );
        }
    }
}

#[test]
fn deltas_flips_reproduce_decode_flips_bitwise() {
    use rand::Rng;
    // Applying the sparse delta onto the clean matrix must reproduce the
    // materialized faulty decode bit for bit — across every encoding,
    // ECC scope, and the IdxSync variant, including trials that hit the
    // full-decode fallback (counter faults).
    let c = clustered(12, 256, 0.6, 70);
    let mut schemes = Vec::new();
    for enc in EncodingKind::ALL {
        for ecc in [EccScope::None, EccScope::Metadata, EccScope::All] {
            let mut s = StorageScheme::uniform(enc, MlcConfig::MLC2);
            s.ecc = ecc;
            schemes.push(s.clone());
            if enc == EncodingKind::BitMask {
                schemes.push(s.clone().with_idx_sync().with_sync_block_bits(128));
            }
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(73);
    for scheme in &schemes {
        let stored = StoredLayer::store(&c, scheme);
        let prepared = PreparedLayer::prepare(&stored);
        for trial in 0..40 {
            let flips: Vec<Vec<(u32, u8)>> = stored
                .structures()
                .iter()
                .map(|s| {
                    let n = s.cells.len();
                    if n == 0 {
                        return Vec::new();
                    }
                    let k = rng.gen_range(0..3usize.min(n));
                    let mut f: Vec<(u32, u8)> = (0..k)
                        .map(|_| {
                            let pos = rng.gen_range(0..n);
                            let lvl = s.cells[pos];
                            (pos as u32, adjacent_flip(lvl, s.bpc.levels()))
                        })
                        .collect();
                    f.sort_unstable_by_key(|&(p, _)| p);
                    f.dedup_by_key(|x| x.0);
                    f
                })
                .collect();
            let (materialized, m_stats) = prepared.decode_flips(&flips);
            let (deltas, d_stats) = prepared.deltas_flips(&flips);
            let label = scheme.label();
            assert_eq!(m_stats, d_stats, "{label} trial {trial}");
            let clean = &prepared.clean().matrix.data;
            let mut applied = clean.clone();
            for d in &deltas {
                applied[d.slot as usize] = d.value;
            }
            let same = applied
                .iter()
                .zip(&materialized.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{label} trial {trial}: delta application drifted");
            // Deltas are slot-sorted, unique, and all genuinely differ
            // from the clean decode.
            for w in deltas.windows(2) {
                assert!(w[0].slot < w[1].slot, "{label}: deltas not sorted");
            }
            for d in &deltas {
                assert_ne!(
                    d.value.to_bits(),
                    clean[d.slot as usize].to_bits(),
                    "{label}: no-op delta"
                );
            }
        }
    }
}

#[test]
fn sampled_deltas_consume_rng_like_materialized_decode() {
    // Same seed → the delta path and the materialized path must see the
    // identical fault draw, so applying one's deltas reproduces the
    // other's matrix.
    let c = clustered(16, 128, 0.6, 80);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let stored = StoredLayer::store(&c, &scheme);
    let prepared = PreparedLayer::prepare(&stored);
    let cell = CellTechnology::MlcCtt;
    let fault_for = |bpc: MlcConfig| Arc::new(cell.cell_model(bpc).fault_map().scaled(2000.0));
    for seed in 0..50u64 {
        let mut ra = rand::rngs::StdRng::seed_from_u64(seed);
        let (mat, ms) = prepared.decode_with_faults(&fault_for, &mut ra);
        let mut rb = rand::rngs::StdRng::seed_from_u64(seed);
        let (deltas, ds) = prepared.deltas_with_faults(&fault_for, &mut rb);
        assert_eq!(ms, ds, "seed {seed}");
        let mut applied = prepared.clean().matrix.data.clone();
        for d in &deltas {
            applied[d.slot as usize] = d.value;
        }
        let same = applied
            .iter()
            .zip(&mat.data)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "seed {seed}");
    }
}

#[test]
fn prepared_sampled_decode_is_deterministic_and_calibrated() {
    let c = clustered(16, 128, 0.6, 80);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let stored = StoredLayer::store(&c, &scheme);
    let prepared = PreparedLayer::prepare(&stored);
    let cell = CellTechnology::MlcCtt;
    let fault_for = |bpc: MlcConfig| Arc::new(cell.cell_model(bpc).fault_map().scaled(2000.0));
    let run = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        prepared.decode_with_faults(&fault_for, &mut rng)
    };
    assert_eq!(run(1), run(1), "same seed must reproduce the trial");
    // Mean observed faults across trials tracks the exact expectation.
    let expected = prepared.expected_faults(None, &fault_for);
    assert!(expected > 0.5, "rate too low to exercise: {expected}");
    let trials = 400;
    let total: usize = (0..trials).map(|t| run(t).1.cell_faults).sum();
    let mean = total as f64 / trials as f64;
    let rel = (mean - expected).abs() / expected;
    assert!(rel < 0.15, "mean {mean} vs expected {expected}");
    // The exact accounting agrees with the layer-level variant.
    let direct = stored.expected_faults_in(None, &fault_for);
    assert!((expected - direct).abs() < 1e-9);
}

#[test]
fn sampled_chip_flips_reproduce_programmed_chip() {
    // `sample_chip_flips` must consume the RNG exactly as `program_chip`
    // does: same seed → the flip list is precisely the cells where the
    // programmed chip disagrees with the stored levels, so decoding the
    // flips reproduces the chip's decode bit for bit.
    let c = clustered(16, 256, 0.5, 21);
    for scheme in [
        StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync(),
        StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC2).with_ecc(),
        StorageScheme::uniform(EncodingKind::DenseClustered, MlcConfig::MLC2),
    ] {
        let stored = StoredLayer::store(&c, &scheme);
        let cell_for = |bpc: MlcConfig| {
            let levels = (0..bpc.levels())
                .map(|i| {
                    maxnvm_envm::LevelDistribution::new(
                        i as f64 / (bpc.levels() - 1).max(1) as f64,
                        0.06,
                    )
                })
                .collect();
            CellModel::new(levels)
        };
        for seed in 0..10u64 {
            let mut ra = rand::rngs::StdRng::seed_from_u64(seed);
            let chip = stored.program_chip(&cell_for, &mut ra);
            let mut rb = rand::rngs::StdRng::seed_from_u64(seed);
            let flips = stored.sample_chip_flips(&cell_for, &mut rb);
            let label = scheme.label();
            assert_eq!(flips.len(), stored.structures().len(), "{label}");
            assert_eq!(
                flips.iter().map(Vec::len).sum::<usize>(),
                chip.fault_count(),
                "{label} seed {seed}"
            );
            let injected: Vec<Vec<u8>> = stored
                .structures()
                .iter()
                .zip(&flips)
                .map(|(s, f)| {
                    let mut cells = s.cells.clone();
                    for &(p, new) in f {
                        cells[p as usize] = new;
                    }
                    cells
                })
                .collect();
            let (via_flips, flip_stats) =
                stored.decode_with_codec(&mut FixedReadCodec::new(&injected));
            let (via_chip, chip_stats) = chip.decode();
            assert_eq!(via_flips.data, via_chip.data, "{label} seed {seed}");
            assert_eq!(
                flip_stats.ecc_corrected, chip_stats.ecc_corrected,
                "{label}"
            );
            assert_eq!(
                flip_stats.ecc_uncorrectable, chip_stats.ecc_uncorrectable,
                "{label}"
            );
            // And the delta path over the same flips stays bitwise exact,
            // closing the chain chip → flips → deltas the fault-sim engine
            // relies on.
            let prepared = PreparedLayer::prepare(&stored);
            let (deltas, d_stats) = prepared.deltas_flips(&flips);
            assert_eq!(d_stats.cell_faults, chip.fault_count(), "{label}");
            let mut applied = prepared.clean().matrix.data.clone();
            for d in &deltas {
                applied[d.slot as usize] = d.value;
            }
            let same = applied
                .iter()
                .zip(&via_chip.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{label} seed {seed}: chip deltas drifted");
        }
    }
}

#[test]
fn clean_decode_cache_shares_across_protection() {
    let c = clustered(10, 64, 0.5, 90);
    let cache = EncodeCache::new();
    let plain = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::SLC);
    let dense_ecc = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3).with_ecc();
    let a = cache.store_layer(0, &c, &plain);
    let b = cache.store_layer(0, &c, &dense_ecc);
    let da = cache.clean_decode(0, &a);
    let db = cache.clean_decode(0, &b);
    assert!(
        Arc::ptr_eq(&da, &db),
        "schemes sharing raw streams must share the clean decode"
    );
    assert_eq!(da.matrix.data, a.decode_clean().0.data);
    assert_eq!(da.matrix.data, c.reconstruct().data);
    // The shared decode feeds PreparedLayer without recomputation.
    let pb = PreparedLayer::new(&b, db);
    assert_eq!(pb.clean().matrix.data, c.reconstruct().data);
}

#[test]
fn encode_cache_shares_raw_encodes_across_protection() {
    let layers = [clustered(8, 64, 0.5, 50), clustered(12, 32, 0.6, 51)];
    let cache = EncodeCache::new();
    assert!(cache.is_empty());
    // Nine CSR schemes differing only in bpc/ECC: one raw encode per layer.
    for bpc in MlcConfig::ALL {
        for ecc in [EccScope::None, EccScope::Metadata, EccScope::All] {
            let mut scheme = StorageScheme::uniform(EncodingKind::Csr, bpc);
            scheme.ecc = ecc;
            for (i, l) in layers.iter().enumerate() {
                let cached = cache.store_layer(i, l, &scheme);
                let direct = StoredLayer::store(l, &scheme);
                assert_eq!(cached, direct, "cache must not change results");
            }
        }
    }
    assert_eq!(cache.len(), 2, "one raw CSR encode per layer");
    // BitMask with and without IdxSync are distinct raw encodes...
    let plain = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::SLC);
    let sync = plain.clone().with_idx_sync().with_sync_block_bits(64);
    cache.store_layer(0, &layers[0], &plain);
    cache.store_layer(0, &layers[0], &sync);
    assert_eq!(cache.len(), 4);
    // ...but non-BitMask schemes ignore IdxSync in the key.
    let csr_sync = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::SLC).with_idx_sync();
    cache.store_layer(0, &layers[0], &csr_sync);
    assert_eq!(cache.len(), 4, "IdxSync is inert for CSR");
}

#[test]
fn cached_store_decodes_identically_with_faults() {
    let c = clustered(8, 128, 0.55, 60);
    let cache = EncodeCache::new();
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC2)
        .with_idx_sync()
        .with_sync_block_bits(128)
        .with_ecc();
    let cached = cache.store_layer(0, &c, &scheme);
    let direct = StoredLayer::store(&c, &scheme);
    let cell = CellTechnology::MlcCtt;
    let fault_for = |bpc: MlcConfig| Arc::new(cell.cell_model(bpc).fault_map().scaled(500.0));
    let mut rng_a = rand::rngs::StdRng::seed_from_u64(9);
    let mut rng_b = rand::rngs::StdRng::seed_from_u64(9);
    assert_eq!(
        cached.decode_with_faults(&fault_for, &mut rng_a),
        direct.decode_with_faults(&fault_for, &mut rng_b),
    );
}
