//! Lane-widened AND+popcount primitives shared by every bitset hot
//! path in the workspace.
//!
//! All three kernels in the pipeline — the Fig 4 pair sweep, the
//! overlap-matrix build, and the k-tuple prefix walk — bottom out in
//! one of four word-vector operations:
//!
//! * [`and_popcount`] — `Σ popcount(a[i] & b[i])` (pair intersections,
//!   prefix-walk leaves);
//! * [`popcount`] — `Σ popcount(a[i])` (profile sizes, `k == 1` sums);
//! * [`and_store_popcount`] — `dst = a & b` plus the popcount of the
//!   result (interior prefix-walk nodes that need the mask *and* its
//!   size for pruning);
//! * [`copy_popcount`] — `dst = src` plus its popcount (prefix-walk
//!   seeds).
//!
//! Each is implemented three times:
//!
//! 1. [`scalar`] — the frozen one-word-at-a-time reference walk, kept
//!    as the parity oracle for tests;
//! 2. a portable 4-lane unrolled path (`chunks_exact(4)` with four
//!    independent accumulators, scalar tail) that breaks the popcount
//!    dependency chain so the compiler can keep four counts in flight;
//! 3. on `x86_64`, the same 4-lane body compiled with
//!    `#[target_feature(enable = "popcnt")]` so each lane's
//!    `count_ones` lowers to a single `POPCNT` instruction instead of
//!    the baseline SWAR sequence (the workspace builds for baseline
//!    x86-64, so the default codegen cannot assume `POPCNT`).
//!
//! The public entry points dispatch at runtime via
//! `is_x86_feature_detected!` (the result is cached by `std`, so the
//! check is a load-and-branch, amortized to nothing over a
//! multi-kiloword sweep), and fall back to [`scalar`] below two words,
//! where the 4-lane setup never reaches its chunked loop and is pure
//! overhead (a since-retired microbenchmark measured the widened path
//! at 0.72–0.86× scalar on 1-word operands; its last numbers are in
//! EXPERIMENTS.md). All variants are bit-exact with [`scalar`] for
//! every input length, including ragged tails and zero-length slices;
//! `crates/flavordb/tests/properties.rs` and the unit tests below pin
//! that equivalence at the tail boundaries 0, 1, 3, 4, 5, 7 and 8
//! words, and the unit tests pin the un-thresholded widened paths
//! below the cutoff too.
//!
//! When `a` and `b` have different lengths, all operations truncate to
//! the shorter slice (mirroring `Iterator::zip`); `and_store_popcount`
//! and `copy_popcount` additionally truncate to `dst`.

/// One-word-at-a-time reference implementations.
///
/// These are the semantics the widened paths must reproduce bit for
/// bit; tests call them directly.
pub mod scalar {
    /// `Σ popcount(a[i] & b[i])` over the common prefix of `a` and `b`.
    #[inline]
    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum()
    }

    /// `Σ popcount(a[i])`.
    #[inline]
    pub fn popcount(a: &[u64]) -> u64 {
        a.iter().map(|x| u64::from(x.count_ones())).sum()
    }

    /// `dst[i] = a[i] & b[i]`, returning the popcount of the result.
    #[inline]
    pub fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let mut ones = 0u64;
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            let w = x & y;
            *d = w;
            ones += u64::from(w.count_ones());
        }
        ones
    }

    /// `dst[i] = src[i]`, returning the popcount of the copied prefix.
    #[inline]
    pub fn copy_popcount(dst: &mut [u64], src: &[u64]) -> u64 {
        let mut ones = 0u64;
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s;
            ones += u64::from(s.count_ones());
        }
        ones
    }
}

/// The 4-lane unrolled bodies, generic over inlining context.
///
/// Marked `#[inline(always)]` so the same source compiles once under
/// baseline codegen (the portable fallback) and once inside a
/// `#[target_feature(enable = "popcnt")]` wrapper on `x86_64` — the
/// wrapper's feature set propagates into the inlined body, turning
/// every `count_ones` into a hardware `POPCNT`.
mod lanes {
    #[inline(always)]
    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        // Four independent accumulators: popcount has a multi-cycle
        // latency, and a single running sum would serialize on it.
        let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
        for (x, y) in (&mut ca).zip(&mut cb) {
            s0 += u64::from((x[0] & y[0]).count_ones());
            s1 += u64::from((x[1] & y[1]).count_ones());
            s2 += u64::from((x[2] & y[2]).count_ones());
            s3 += u64::from((x[3] & y[3]).count_ones());
        }
        let mut tail = 0u64;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += u64::from((x & y).count_ones());
        }
        (s0 + s1) + (s2 + s3) + tail
    }

    #[inline(always)]
    pub fn popcount(a: &[u64]) -> u64 {
        let mut chunks = a.chunks_exact(4);
        let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
        for x in &mut chunks {
            s0 += u64::from(x[0].count_ones());
            s1 += u64::from(x[1].count_ones());
            s2 += u64::from(x[2].count_ones());
            s3 += u64::from(x[3].count_ones());
        }
        let mut tail = 0u64;
        for x in chunks.remainder() {
            tail += u64::from(x.count_ones());
        }
        (s0 + s1) + (s2 + s3) + tail
    }

    #[inline(always)]
    pub fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        let n = dst.len().min(a.len()).min(b.len());
        let (dst, a, b) = (&mut dst[..n], &a[..n], &b[..n]);
        let mut cd = dst.chunks_exact_mut(4);
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
        for ((d, x), y) in (&mut cd).zip(&mut ca).zip(&mut cb) {
            let (w0, w1, w2, w3) = (x[0] & y[0], x[1] & y[1], x[2] & y[2], x[3] & y[3]);
            d[0] = w0;
            d[1] = w1;
            d[2] = w2;
            d[3] = w3;
            s0 += u64::from(w0.count_ones());
            s1 += u64::from(w1.count_ones());
            s2 += u64::from(w2.count_ones());
            s3 += u64::from(w3.count_ones());
        }
        let mut tail = 0u64;
        for ((d, x), y) in cd
            .into_remainder()
            .iter_mut()
            .zip(ca.remainder())
            .zip(cb.remainder())
        {
            let w = x & y;
            *d = w;
            tail += u64::from(w.count_ones());
        }
        (s0 + s1) + (s2 + s3) + tail
    }

    #[inline(always)]
    pub fn copy_popcount(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let (dst, src) = (&mut dst[..n], &src[..n]);
        dst.copy_from_slice(src);
        popcount(src)
    }
}

/// The `POPCNT`-enabled clones of the lane bodies.
///
/// Safety: each function is only reachable through the dispatchers
/// below, which gate on `is_x86_feature_detected!("popcnt")`.
#[cfg(target_arch = "x86_64")]
mod popcnt {
    /// # Safety
    /// Caller must have verified the `popcnt` CPU feature.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        super::lanes::and_popcount(a, b)
    }

    /// # Safety
    /// Caller must have verified the `popcnt` CPU feature.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn popcount(a: &[u64]) -> u64 {
        super::lanes::popcount(a)
    }

    /// # Safety
    /// Caller must have verified the `popcnt` CPU feature.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        super::lanes::and_store_popcount(dst, a, b)
    }

    /// # Safety
    /// Caller must have verified the `popcnt` CPU feature.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn copy_popcount(dst: &mut [u64], src: &[u64]) -> u64 {
        super::lanes::copy_popcount(dst, src)
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn have_popcnt() -> bool {
    // `std` caches the cpuid probe; after the first call this is a
    // relaxed atomic load.
    std::arch::is_x86_feature_detected!("popcnt")
}

/// Operand lengths (in words) below which the public entry points take
/// the [`scalar`] walk instead of the 4-lane path.
///
/// One-word operands pay the lane setup for a loop that never runs
/// (64-bit operands measured 0.86× scalar on the widened path), but
/// from two words up the widened walk already wins: the retired
/// word-by-word crossover sweep (historical numbers in EXPERIMENTS.md)
/// found the crossover at two words, and this cutoff matches it.
const SCALAR_BELOW_WORDS: usize = 2;

/// The dispatched lane-widened paths *without* the short-input scalar
/// cutoff.
///
/// Semantically identical to the public entry points; only the
/// small-operand performance differs. The entry points call these at
/// and above [`SCALAR_BELOW_WORDS`]; the tests call them below it too.
mod widened {
    /// `Σ popcount(a[i] & b[i])` over the common prefix, always widened.
    #[inline]
    pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if super::have_popcnt() {
            // SAFETY: `popcnt` support was just verified.
            return unsafe { super::popcnt::and_popcount(a, b) };
        }
        super::lanes::and_popcount(a, b)
    }

    /// `Σ popcount(a[i])`, always widened.
    #[inline]
    pub fn popcount(a: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if super::have_popcnt() {
            // SAFETY: `popcnt` support was just verified.
            return unsafe { super::popcnt::popcount(a) };
        }
        super::lanes::popcount(a)
    }

    /// `dst = a & b` plus popcount of the result, always widened.
    #[inline]
    pub fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if super::have_popcnt() {
            // SAFETY: `popcnt` support was just verified.
            return unsafe { super::popcnt::and_store_popcount(dst, a, b) };
        }
        super::lanes::and_store_popcount(dst, a, b)
    }

    /// `dst = src` plus popcount of the copy, always widened.
    #[inline]
    pub fn copy_popcount(dst: &mut [u64], src: &[u64]) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if super::have_popcnt() {
            // SAFETY: `popcnt` support was just verified.
            return unsafe { super::popcnt::copy_popcount(dst, src) };
        }
        super::lanes::copy_popcount(dst, src)
    }
}

/// `Σ popcount(a[i] & b[i])` over the common prefix: scalar below two
/// words, lane-widened from two up.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    if a.len().min(b.len()) < SCALAR_BELOW_WORDS {
        return scalar::and_popcount(a, b);
    }
    widened::and_popcount(a, b)
}

/// `Σ popcount(a[i])`: scalar below two words, lane-widened from two
/// up.
#[inline]
pub fn popcount(a: &[u64]) -> u64 {
    if a.len() < SCALAR_BELOW_WORDS {
        return scalar::popcount(a);
    }
    widened::popcount(a)
}

/// `dst = a & b`, returning the popcount of the result: scalar below
/// two words, lane-widened from two up.
///
/// Truncates to the shortest of the three slices.
#[inline]
pub fn and_store_popcount(dst: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    if dst.len().min(a.len()).min(b.len()) < SCALAR_BELOW_WORDS {
        return scalar::and_store_popcount(dst, a, b);
    }
    widened::and_store_popcount(dst, a, b)
}

/// `dst = src` copy, returning the popcount of the copied prefix
/// (truncated to the shorter slice): scalar below two words,
/// lane-widened from two up.
#[inline]
pub fn copy_popcount(dst: &mut [u64], src: &[u64]) -> u64 {
    if dst.len().min(src.len()) < SCALAR_BELOW_WORDS {
        return scalar::copy_popcount(dst, src);
    }
    widened::copy_popcount(dst, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (splitmix64) so the tests
    /// exercise dense, sparse, and mixed words without an RNG dep.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// The tail boundaries the issue calls out: empty input, pure
    /// tails (1, 3), exact lane multiples (4, 8), and lane+tail mixes
    /// (5, 7).
    const TAIL_LENGTHS: [usize; 7] = [0, 1, 3, 4, 5, 7, 8];

    #[test]
    fn widened_matches_scalar_at_tail_boundaries() {
        for &n in &TAIL_LENGTHS {
            let a = words(1 + n as u64, n);
            let b = words(1000 + n as u64, n);
            assert_eq!(and_popcount(&a, &b), scalar::and_popcount(&a, &b), "n={n}");
            assert_eq!(popcount(&a), scalar::popcount(&a), "n={n}");

            let mut d1 = vec![0u64; n];
            let mut d2 = vec![0u64; n];
            assert_eq!(
                and_store_popcount(&mut d1, &a, &b),
                scalar::and_store_popcount(&mut d2, &a, &b),
                "n={n}"
            );
            assert_eq!(d1, d2, "n={n}");

            let mut c1 = vec![0u64; n];
            let mut c2 = vec![0u64; n];
            assert_eq!(
                copy_popcount(&mut c1, &a),
                scalar::copy_popcount(&mut c2, &a),
                "n={n}"
            );
            assert_eq!(c1, c2, "n={n}");
        }
    }

    #[test]
    fn portable_lanes_match_scalar_without_dispatch() {
        // Pin the portable path itself (the dispatcher may take the
        // popcnt branch on the test machine).
        for n in 0..=70 {
            let a = words(7 + n as u64, n);
            let b = words(99 + n as u64, n);
            assert_eq!(
                lanes::and_popcount(&a, &b),
                scalar::and_popcount(&a, &b),
                "n={n}"
            );
            assert_eq!(lanes::popcount(&a), scalar::popcount(&a), "n={n}");
            let mut d1 = vec![0u64; n];
            let mut d2 = vec![0u64; n];
            assert_eq!(
                lanes::and_store_popcount(&mut d1, &a, &b),
                scalar::and_store_popcount(&mut d2, &a, &b),
                "n={n}"
            );
            assert_eq!(d1, d2, "n={n}");
        }
    }

    #[test]
    fn unthresholded_widened_matches_scalar_below_cutoff() {
        // The public entry points take the scalar branch below
        // SCALAR_BELOW_WORDS, so pin the raw widened path there
        // explicitly — it must stay bit-exact even where it is slow.
        for n in 0..=(2 * SCALAR_BELOW_WORDS) {
            let a = words(31 + n as u64, n);
            let b = words(400 + n as u64, n);
            assert_eq!(
                widened::and_popcount(&a, &b),
                scalar::and_popcount(&a, &b),
                "n={n}"
            );
            assert_eq!(widened::popcount(&a), scalar::popcount(&a), "n={n}");
            let mut d1 = vec![0u64; n];
            let mut d2 = vec![0u64; n];
            assert_eq!(
                widened::and_store_popcount(&mut d1, &a, &b),
                scalar::and_store_popcount(&mut d2, &a, &b),
                "n={n}"
            );
            assert_eq!(d1, d2, "n={n}");
            let mut c1 = vec![0u64; n];
            let mut c2 = vec![0u64; n];
            assert_eq!(
                widened::copy_popcount(&mut c1, &a),
                scalar::copy_popcount(&mut c2, &a),
                "n={n}"
            );
            assert_eq!(c1, c2, "n={n}");
        }
    }

    #[test]
    fn mismatched_lengths_truncate_like_zip() {
        let a = words(5, 11);
        let b = words(6, 6);
        assert_eq!(and_popcount(&a, &b), scalar::and_popcount(&a, &b));
        assert_eq!(and_popcount(&b, &a), scalar::and_popcount(&b, &a));
        let mut d1 = vec![u64::MAX; 4];
        let mut d2 = vec![u64::MAX; 4];
        // dst shorter than both sources: only dst.len() words written.
        assert_eq!(
            and_store_popcount(&mut d1, &a, &b),
            scalar::and_store_popcount(&mut d2, &a, &b)
        );
        assert_eq!(d1, d2);
        let mut c = vec![u64::MAX; 3];
        let ones = copy_popcount(&mut c, &a);
        assert_eq!(c, &a[..3]);
        assert_eq!(ones, scalar::popcount(&a[..3]));
    }

    #[test]
    fn saturated_and_empty_words() {
        let ones = vec![u64::MAX; 9];
        let zeros = vec![0u64; 9];
        assert_eq!(and_popcount(&ones, &ones), 9 * 64);
        assert_eq!(and_popcount(&ones, &zeros), 0);
        assert_eq!(popcount(&ones), 9 * 64);
        assert_eq!(popcount(&zeros), 0);
    }
}
