//! The `rand` 0.8 surface seqnet uses — `StdRng::seed_from_u64`,
//! `Rng::{gen, gen_range, gen_bool}`, `SliceRandom::{shuffle, choose}` —
//! over a splitmix64 generator. The stream differs from the real
//! `StdRng` (ChaCha12), so seeded topologies and memberships differ from
//! a registry build; the benchmark fixes its inputs by seed *within* this
//! build mode only.

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                assert!(span > 0, "cannot sample empty range");
                // Multiply-shift: bias below 2^-64 * span, irrelevant here.
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self {
        assert!(low < high || (inclusive && low == high), "cannot sample empty range");
        low + (high - low) * f64::sample(rng)
    }
}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(rng, low, high, true)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 (Steele, Lea, Flood 2014).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(u64);

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }
}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}
