//! Zipf-distributed patient popularity.
//!
//! The same complementary-tail representation as `tibpre-load`'s private
//! sampler (`tail[i] = P(bucket ≥ i)`), so that the last buckets stay
//! reachable at any skew; exponent 0 is the uniform distribution.

use rand::rngs::StdRng;
use rand::RngCore;

pub struct Zipf {
    /// Decreasing, `tail[0] = 1.0`.
    tail: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "a distribution over no buckets");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        // Summed from the smallest weight up, so that small tail masses are
        // not absorbed by the rounding of the head.
        let total: f64 = weights.iter().rev().sum();
        let mut tail = vec![0.0; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc += weights[i];
            tail[i] = acc / total;
        }
        tail[0] = 1.0;
        Zipf { tail }
    }

    /// The bucket whose tail mass still covers `v`, for `v` in `(0, 1]`.
    fn bucket(&self, v: f64) -> usize {
        self.tail.partition_point(|&t| t >= v) - 1
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // 53 uniform mantissa bits give v in (0, 1].
        let v = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        self.bucket(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bucket_masses_sum_to_one_and_follow_the_power_law() {
        for &(n, s) in &[
            (1usize, 1.0f64),
            (16, 0.0),
            (16, 1.0),
            (384, 0.0),
            (8, 20.0),
        ] {
            let z = Zipf::new(n, s);
            let total: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
            let mut sum = 0.0;
            for i in 0..n {
                let mass = z.tail[i] - z.tail.get(i + 1).copied().unwrap_or(0.0);
                let expect = ((i + 1) as f64).powf(-s) / total;
                assert!((mass - expect).abs() < 1e-12, "n={n} s={s} bucket {i}");
                sum += mass;
            }
            assert!((sum - 1.0).abs() < 1e-12, "n={n} s={s}: mass {sum}");
        }
    }

    #[test]
    fn every_bucket_is_reachable_at_its_boundary() {
        for &(n, s) in &[(16usize, 1.0f64), (16, 4.0), (8, 20.0), (384, 0.0)] {
            let z = Zipf::new(n, s);
            for i in 0..n {
                assert!(z.tail[i] > 0.0, "n={n} s={s}: bucket {i} has no mass");
                assert_eq!(z.bucket(z.tail[i]), i, "n={n} s={s}");
            }
            // The extremes of v land in the first and the last bucket.
            assert_eq!(z.bucket(1.0), 0);
            assert_eq!(z.bucket(f64::MIN_POSITIVE), n - 1);
        }
    }

    #[test]
    fn samples_track_the_analytic_masses() {
        let (n, s) = (16usize, 1.0f64);
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 200_000;
        let mut hist = vec![0u64; n];
        for _ in 0..draws {
            hist[z.sample(&mut rng)] += 1;
        }
        let total: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for (k, &count) in hist.iter().enumerate() {
            let expect = ((k + 1) as f64).powf(-s) / total;
            let got = count as f64 / draws as f64;
            assert!((got - expect).abs() < 0.01, "bucket {k}: {got} vs {expect}");
        }
    }
}
