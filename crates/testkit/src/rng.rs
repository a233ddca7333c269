//! Seedable, dependency-free PRNG: xoshiro256** seeded through SplitMix64.
//!
//! This replaces `rand::rngs::SmallRng` everywhere in the workspace. The
//! generator is *part of the reproduction's contract*: a simulation run is a
//! pure function of (config, seed), so the random stream must be identical
//! on every platform and toolchain. xoshiro256** is the same family SmallRng
//! wraps on 64-bit targets, has a 2^256−1 period, and passes BigCrush; the
//! SplitMix64 seeding matches the reference implementation by Blackman and
//! Vigna, so seeds with few set bits still produce well-mixed states.

/// SplitMix64 step: the recommended seed expander for xoshiro generators.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Build a generator whose full 256-bit state is expanded from `seed`
    /// with SplitMix64 (the construction the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// The next 64 uniformly random bits (xoshiro256** scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform draw from `range`. Implemented for the integer and float
    /// range types the workspace uses; integer sampling is unbiased
    /// (Lemire's method with rejection).
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform u64 in `[0, n)`; `n == 0` returns 0.
    fn bounded(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.bounded(span) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                // span == 0 means the full u64 domain.
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded(span) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let x = self.start + (rng.f64() as $t) * (self.end - self.start);
                // Floating rounding may land exactly on `end`; fold it back.
                if x >= self.end { self.start } else { x }
            }
        }
    )*};
}

impl_float_range!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // First outputs for seed 0, checked against the public C reference
        // (splitmix64 seeding + xoshiro256starstar.c).
        let mut r = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532
            ]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..100).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!((10..20).contains(&r.gen_range(10u64..20)));
            assert!((5..=5).contains(&r.gen_range(5u32..=5)));
            let f = r.gen_range(-0.25f64..0.25);
            assert!((-0.25..0.25).contains(&f));
            let i = r.gen_range(0usize..3);
            assert!(i < 3);
        }
    }

    #[test]
    fn full_u64_range_does_not_panic() {
        let mut r = Rng::seed_from_u64(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            distinct.insert(r.gen_range(0u64..=u64::MAX));
        }
        assert!(distinct.len() > 60);
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        // And with 50! arrangements, not the identity.
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }
}
