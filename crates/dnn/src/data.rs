//! Procedurally generated datasets standing in for MNIST / CiFar10 /
//! ImageNet.
//!
//! The paper's fault-tolerance phenomena depend on the *structure* of the
//! encodings and fault model, not on natural-image semantics (see
//! `DESIGN.md`). These synthetic tasks give the trainable stand-in models a
//! real classification problem so accuracy-under-fault is measured
//! end-to-end.

use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};

/// Labelled dataset: `(input, class)` pairs.
pub type Samples = Vec<(Tensor, usize)>;

/// Gaussian cluster classification: `k` classes, each a Gaussian blob in
/// `d` dimensions with unit-variance noise and centers `separation` apart.
///
/// # Panics
///
/// Panics if `d == 0`, `k == 0`, or `n == 0`.
pub fn gaussian_clusters(d: usize, k: usize, n: usize, separation: f64, seed: u64) -> Samples {
    assert!(d > 0 && k > 0 && n > 0, "degenerate dataset");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Random unit-ish center per class, scaled by separation.
    let centers: Vec<Vec<f32>> = (0..k)
        .map(|_| {
            (0..d)
                .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * separation as f32)
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let class = i % k;
            let x: Vec<f32> = centers[class]
                .iter()
                .map(|&c| {
                    let u1: f32 = 1.0 - rng.gen::<f32>();
                    let u2: f32 = rng.gen();
                    c + (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                })
                .collect();
            (Tensor::from_vec(&[d], x), class)
        })
        .collect()
}

/// 16×16 synthetic digit glyphs with jitter and noise — the MNIST stand-in.
///
/// Each of the 10 classes has a fixed stroke pattern, rendered with random
/// sub-pixel shift, amplitude variation and additive noise.
#[derive(Debug, Clone)]
pub struct SyntheticDigits {
    /// Training split.
    pub train: Samples,
    /// Held-out test split.
    pub test: Samples,
}

/// Image side length for [`SyntheticDigits`].
pub const DIGIT_SIZE: usize = 16;

// Stroke patterns on a 7x5 grid (classic seven-segment-ish glyphs),
// upscaled to 16x16 at render time.
const GLYPHS: [[u8; 35]; 10] = [
    // 0
    [
        0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1,
        0, 1, 1, 1, 0,
    ],
    // 1
    [
        0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0,
        0, 1, 1, 1, 0,
    ],
    // 2
    [
        0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0,
        1, 1, 1, 1, 1,
    ],
    // 3
    [
        0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1,
        0, 1, 1, 1, 0,
    ],
    // 4
    [
        0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0,
        0, 0, 0, 1, 0,
    ],
    // 5
    [
        1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1,
        0, 1, 1, 1, 0,
    ],
    // 6
    [
        0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1,
        0, 1, 1, 1, 0,
    ],
    // 7
    [
        1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0,
        0, 1, 0, 0, 0,
    ],
    // 8
    [
        0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1,
        0, 1, 1, 1, 0,
    ],
    // 9
    [
        0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1,
        0, 1, 1, 1, 0,
    ],
];

/// Renders one digit image with the given jitter.
// Glyph placement is gen_range-bounded to DIGIT_SIZE-14/-10 and offsets max
// out at 13/9, so y*DIGIT_SIZE+x stays inside the DIGIT_SIZE^2 canvas.
fn render_digit<R: Rng>(class: usize, rng: &mut R) -> Tensor {
    let mut img = vec![0.0f32; DIGIT_SIZE * DIGIT_SIZE];
    let glyph = &GLYPHS[class];
    // Random placement of the 7x5 glyph (upscaled x2 -> 14x10) inside 16x16.
    let oy = rng.gen_range(0..=(DIGIT_SIZE - 14));
    let ox = rng.gen_range(0..=(DIGIT_SIZE - 10));
    let amp = 0.8 + rng.gen::<f32>() * 0.4;
    for gy in 0..7 {
        for gx in 0..5 {
            if glyph[gy * 5 + gx] == 1 {
                for dy in 0..2 {
                    for dx in 0..2 {
                        let y = oy + gy * 2 + dy;
                        let x = ox + gx * 2 + dx;
                        img[y * DIGIT_SIZE + x] = amp;
                    }
                }
            }
        }
    }
    for v in &mut img {
        *v += (rng.gen::<f32>() - 0.5) * 0.25;
    }
    Tensor::from_vec(&[1, DIGIT_SIZE, DIGIT_SIZE], img)
}

impl SyntheticDigits {
    /// Generates `n_train` training and `n_train / 4` test samples.
    ///
    /// # Panics
    ///
    /// Panics if `n_train < 10`.
    pub fn generate(n_train: usize, seed: u64) -> Self {
        assert!(n_train >= 10, "need at least one sample per class");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let make = |n: usize, rng: &mut rand::rngs::StdRng| -> Samples {
            (0..n)
                .map(|i| (render_digit(i % 10, rng), i % 10))
                .collect()
        };
        let train = make(n_train, &mut rng);
        let test = make((n_train / 4).max(10), &mut rng);
        Self { train, test }
    }
}

/// Texture-patch classification — the CiFar10 stand-in: 3×16×16 patches of
/// class-dependent oriented sinusoidal gratings plus noise.
// img is allocated 3*side*side just above; c < 3, y < side, x < side by the
// loop bounds, so (c*side+y)*side+x is in range.
pub fn synthetic_textures(n: usize, classes: usize, seed: u64) -> Samples {
    assert!(classes >= 2 && n > 0, "degenerate dataset");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let side = 16usize;
    (0..n)
        .map(|i| {
            let class = i % classes;
            let theta = class as f32 / classes as f32 * std::f32::consts::PI;
            let freq = 0.5 + (class % 3) as f32 * 0.35;
            let phase = rng.gen::<f32>() * std::f32::consts::TAU;
            let mut img = vec![0.0f32; 3 * side * side];
            for c in 0..3 {
                let gain = 1.0 - 0.25 * c as f32;
                for y in 0..side {
                    for x in 0..side {
                        let u = theta.cos() * x as f32 + theta.sin() * y as f32;
                        img[(c * side + y) * side + x] =
                            gain * (freq * u + phase).sin() + (rng.gen::<f32>() - 0.5) * 0.4;
                    }
                }
            }
            (Tensor::from_vec(&[3, side, side], img), class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_have_balanced_classes() {
        let data = gaussian_clusters(4, 3, 99, 2.0, 1);
        assert_eq!(data.len(), 99);
        let count0 = data.iter().filter(|(_, y)| *y == 0).count();
        assert_eq!(count0, 33);
        assert_eq!(data[0].0.shape(), &[4]);
    }

    #[test]
    fn clusters_are_separable_by_nearest_center() {
        // With a large separation, classifying to the nearest empirical
        // class mean should be near-perfect.
        let data = gaussian_clusters(8, 3, 300, 4.0, 2);
        let mut means = vec![vec![0.0f32; 8]; 3];
        let mut counts = [0usize; 3];
        for (x, y) in &data {
            counts[*y] += 1;
            for (m, v) in means[*y].iter_mut().zip(x.data()) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let mut correct = 0;
        for (x, y) in &data {
            let best = (0..3)
                .min_by(|&a, &b| {
                    let da: f32 = means[a]
                        .iter()
                        .zip(x.data())
                        .map(|(m, v)| (m - v).powi(2))
                        .sum();
                    let db: f32 = means[b]
                        .iter()
                        .zip(x.data())
                        .map(|(m, v)| (m - v).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == *y {
                correct += 1;
            }
        }
        assert!(correct as f64 / data.len() as f64 > 0.95);
    }

    #[test]
    fn digits_have_expected_shapes() {
        let d = SyntheticDigits::generate(100, 3);
        assert_eq!(d.train.len(), 100);
        assert_eq!(d.test.len(), 25);
        assert_eq!(d.train[0].0.shape(), &[1, 16, 16]);
        // All ten classes present.
        for c in 0..10 {
            assert!(d.train.iter().any(|(_, y)| *y == c), "class {c} missing");
        }
    }

    #[test]
    fn digit_classes_are_visually_distinct() {
        // Mean absolute difference between class-0 and class-1 templates
        // should dominate intra-class variation.
        let d = SyntheticDigits::generate(200, 4);
        let mean_img = |class: usize| -> Vec<f32> {
            let imgs: Vec<&Tensor> = d
                .train
                .iter()
                .filter(|(_, y)| *y == class)
                .map(|(x, _)| x)
                .collect();
            let mut m = vec![0.0f32; 256];
            for img in &imgs {
                for (a, b) in m.iter_mut().zip(img.data()) {
                    *a += b;
                }
            }
            for a in &mut m {
                *a /= imgs.len() as f32;
            }
            m
        };
        let m0 = mean_img(0);
        let m1 = mean_img(1);
        let diff: f32 = m0.iter().zip(&m1).map(|(a, b)| (a - b).abs()).sum::<f32>() / 256.0;
        assert!(diff > 0.05, "class templates too similar: {diff}");
    }

    #[test]
    fn textures_have_three_channels() {
        let t = synthetic_textures(20, 10, 5);
        assert_eq!(t.len(), 20);
        assert_eq!(t[0].0.shape(), &[3, 16, 16]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SyntheticDigits::generate(50, 7);
        let b = SyntheticDigits::generate(50, 7);
        assert_eq!(a.train[0].0.data(), b.train[0].0.data());
        let c = SyntheticDigits::generate(50, 8);
        assert_ne!(a.train[0].0.data(), c.train[0].0.data());
    }
}
