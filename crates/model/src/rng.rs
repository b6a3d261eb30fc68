//! Deterministic pseudo-random number generation for trace synthesis and
//! property tests.
//!
//! The workspace builds and tests offline, so instead of the `rand` crate it
//! uses this self-contained xoshiro256++ generator. Determinism is a feature,
//! not a convenience: every synthetic trace and every randomized test is a
//! pure function of its seed, which is what the reproduction's
//! "pure function of its parameters" guarantee rests on.
//!
//! # Examples
//!
//! ```
//! use uopcache_model::rng::{Prng, Rng};
//!
//! let mut a = Prng::seed_from_u64(7);
//! let mut b = Prng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_range(0..10) < 10);
//! let p: f64 = a.gen_f64();
//! assert!((0.0..1.0).contains(&p));
//! ```

/// A source of uniform random bits with convenience samplers.
///
/// Mirrors the subset of `rand::Rng` the workspace uses, so call sites read
/// the same as they would against the external crate.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen_f64() < p
    }

    /// A uniform sample from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// A range type [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;

    /// Draws one uniform sample.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// A uniform offset in `[0, span)` for a span of at most 2^64: the draw
/// reduced modulo the span. Spans that fit in `u64` reduce with a 64-bit
/// remainder instead of a 128-bit one (the same number, without the
/// `__umodti3` call); the full 2^64 span takes the draw as it is.
fn offset_below<R: Rng + ?Sized>(rng: &mut R, span: u128) -> u64 {
    let draw = rng.next_u64();
    match u64::try_from(span) {
        Ok(span) => draw % span,
        Err(_) => draw,
    }
}

macro_rules! int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            // The value is reduced modulo the range span before narrowing,
            // so the cast back to $t cannot truncate.
            #[allow(clippy::cast_possible_truncation)]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + i128::from(offset_below(rng, span))) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[allow(clippy::cast_possible_truncation)]
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + i128::from(offset_below(rng, span))) as $t
            }
        }
    )+};
}

int_sample_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;

    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

/// xoshiro256++ seeded via SplitMix64 — the standard small, fast,
/// well-distributed generator pairing.
#[derive(Clone, Debug)]
pub struct Prng {
    state: [u64; 4],
}

impl Prng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Prng {
            state: [next(), next(), next(), next()],
        }
    }
}

impl Rng for Prng {
    fn next_u64(&mut self) -> u64 {
        let [mut s0, mut s1, mut s2, mut s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17u32);
            assert!((3..17).contains(&v));
            let v = rng.gen_range(-3..=3i64);
            assert!((-3..=3).contains(&v));
            let v = rng.gen_range(1..=3u8);
            assert!((1..=3).contains(&v));
            let f = rng.gen_range(-0.25..0.25f64);
            assert!((-0.25..0.25).contains(&f));
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// Samples once from `rng` and checks that the value is the draw
    /// reduced modulo the span in 128-bit arithmetic: `lo + draw mod
    /// (hi_exclusive - lo)`.
    fn assert_reduced(
        rng: &mut Prng,
        lo: i128,
        hi_exclusive: i128,
        sample: impl FnOnce(&mut Prng) -> i128,
    ) {
        let draw = rng.clone().next_u64();
        let span = (hi_exclusive - lo) as u128;
        let want = lo + (u128::from(draw) % span) as i128;
        assert_eq!(sample(rng), want, "[{lo}, {hi_exclusive}), draw {draw}");
    }

    #[test]
    fn ranges_match_the_128_bit_reduction() {
        let mut spans = Prng::seed_from_u64(99);
        for seed in 0..256 {
            let rng = &mut Prng::seed_from_u64(seed);
            let wide = spans.next_u64().max(1);
            let narrow = spans.gen_range(1..=1000u64);
            for (lo, hi) in [
                (0, 1),
                (0, 10),
                (0, 1 << 63),
                (0, u64::MAX),
                (7, u64::MAX),
                (0, wide),
                (wide / 2, wide),
                (wide.saturating_sub(narrow / 2), wide.saturating_add(narrow)),
            ] {
                if lo < hi {
                    assert_reduced(rng, lo.into(), hi.into(), |r| r.gen_range(lo..hi).into());
                }
                let hi_exclusive = i128::from(hi) + 1;
                assert_reduced(rng, lo.into(), hi_exclusive, |r| {
                    r.gen_range(lo..=hi).into()
                });
            }
            let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
            assert_reduced(rng, min, max + 1, |r| {
                r.gen_range(i64::MIN..=i64::MAX).into()
            });
            assert_reduced(rng, min, max, |r| r.gen_range(i64::MIN..i64::MAX).into());
            let signed_lo = -i64::try_from(narrow).expect("narrow fits");
            assert_reduced(rng, signed_lo.into(), 4, |r| {
                r.gen_range(signed_lo..=3).into()
            });
            let (min, max) = (i128::from(i32::MIN), i128::from(i32::MAX));
            assert_reduced(rng, min, max, |r| r.gen_range(i32::MIN..i32::MAX).into());
            assert_reduced(rng, 0, 256, |r| r.gen_range(0..=u8::MAX).into());
            assert_reduced(rng, 2, 1_000_000, |r| {
                r.gen_range(2..1_000_000usize) as i128
            });
            // The full 2^64 span takes the draw as it is.
            let draw = rng.clone().next_u64();
            assert_eq!(rng.gen_range(0..=u64::MAX), draw);
        }
    }

    #[test]
    fn inclusive_range_reaches_both_ends() {
        let mut rng = Prng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..=3usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Prng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Prng::seed_from_u64(0);
        let _ = rng.gen_range(5..5u32);
    }
}
