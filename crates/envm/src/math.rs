//! Numerical helpers: complementary error function, Gaussian tails, and a
//! Box–Muller normal sampler (keeps the dependency set to plain `rand`).

use rand::Rng;

/// Complementary error function.
///
/// Uses the Chebyshev-fitted rational approximation from *Numerical
/// Recipes*, which has a **fractional** error below `1.2e-7` for all `x` —
/// crucially the error is relative, so deep-tail probabilities (the paper
/// quotes non-adjacent misread rates down to `1.5e-10`) remain accurate.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal upper-tail probability `Q(z) = P(X > z)` for `X ~ N(0,1)`.
pub fn q_function(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Standard normal CDF `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Draws a standard normal sample via the Box–Muller transform.
///
/// Implemented locally so the crate only depends on `rand` (not
/// `rand_distr`).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one Box–Muller sample consumes, in draw order:
/// `u1` in `(0, 1]` (which avoids `ln(0)`), then `u2` in `[0, 1)`.
pub(crate) fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// The rejection-free (non-polar) Box–Muller transform of
/// [`box_muller_uniforms`]' draws: `sqrt(-2 ln u1) · cos(2π u2)`.
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws from `N(mean, sigma^2)`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * sample_standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn erfc_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_122),
            (1.0, 0.157_299_207),
            (2.0, 0.004_677_735),
            (3.0, 2.209_049_7e-5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-5,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_deep_tail_relative_accuracy() {
        // erfc(5) = 1.537459794e-12: the approximation's error is relative,
        // so the tail value must be right to ~1e-6 relative.
        let got = erfc(5.0);
        let want = 1.537_459_794e-12;
        assert!(((got - want) / want).abs() < 1e-5, "erfc(5) = {got}");
    }

    #[test]
    fn erfc_negative_symmetry() {
        for x in [0.1, 0.7, 1.5, 3.0] {
            let s = erfc(-x) + erfc(x);
            assert!((s - 2.0).abs() < 1e-12, "erfc symmetry at {x}: {s}");
        }
    }

    #[test]
    fn q_function_known_points() {
        // Q(0)=0.5, Q(1.2816)≈0.1, Q(3.0902)≈1e-3, Q(4.2649)≈1e-5.
        // The erfc approximation has ~1.2e-7 fractional error, so
        // tolerances are relative to each value's magnitude.
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.2816) - 0.1).abs() < 1e-4);
        assert!((q_function(3.0902) - 1e-3).abs() < 1e-6);
        assert!((q_function(4.2649) - 1e-5).abs() < 2e-8);
    }

    #[test]
    fn normal_cdf_complements_q() {
        for z in [-2.5, -0.3, 0.0, 0.9, 3.3] {
            assert!((normal_cdf(z) + q_function(z) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn scaled_normal_sampling() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.01, "mean = {mean}");
    }
}
