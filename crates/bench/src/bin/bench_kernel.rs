//! Microbenchmark for the lane-widened bitset kernel.
//!
//! Isolates the single-thread win of the 4-lane AND+popcount primitive
//! (`culinaria_flavordb::kernel::and_popcount`, runtime-dispatched to a
//! POPCNT build when the CPU has it) against the scalar reference walk
//! (`kernel::scalar::and_popcount`), with no pooling, tiling, or cache
//! effects in the way. Universe sizes sweep the crossover region word
//! by word (64–320 bits) and then the pipeline's packed-profile sizes
//! (512 bits — two full lane groups; 4096 bits — lane-dominated).
//!
//! Three paths are timed per size: the scalar walk, the raw widened
//! loop (`kernel::widened`, no dispatch threshold), and the public
//! dispatcher, which routes operands below
//! [`kernel::SCALAR_BELOW_WORDS`] words to the scalar walk. The
//! summary records the measured crossover — the smallest word count
//! where the widened loop actually beats the scalar one — so the
//! compiled-in threshold can be audited against the machine.
//!
//! All paths fold every result into a checksum that is asserted equal,
//! so the measured loops provably do the same work. Each timing is the
//! min over interleaved repeats. Writes `BENCH_kernel.json`.
//!
//! Knobs: `CULINARIA_KERNEL_PAIRS` (default 4096 operand pairs per
//! universe), `CULINARIA_SEED` (default 2018), `CULINARIA_BENCH_OUT`
//! (default `BENCH_kernel.json`).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use culinaria_bench::env_or;
use culinaria_flavordb::kernel;

/// Universe sizes in bits: every word count through the crossover
/// region, then eight words (two full lane groups, no tail) and
/// sixty-four words (lane-dominated).
const UNIVERSES: &[usize] = &[64, 128, 192, 256, 320, 512, 4096];

/// Timed repeats per path; the min is reported (steady-state cost,
/// robust to scheduler noise on a shared box).
const TIME_REPS: usize = 5;

/// Word-operation budget per timed sample, so every universe size gets
/// a measurement in the milliseconds regardless of operand width.
const WORK_BUDGET: usize = 16_000_000;

/// One timed sample: `passes` sweeps of `f` over all pairs, folding
/// results into a checksum the caller asserts on.
fn sample(
    pairs: &[(Vec<u64>, Vec<u64>)],
    passes: usize,
    f: impl Fn(&[u64], &[u64]) -> u64,
) -> (f64, u64) {
    let t = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..passes {
        for (a, b) in pairs {
            checksum = checksum.wrapping_add(f(black_box(a), black_box(b)));
        }
    }
    (t.elapsed().as_secs_f64() * 1e3, black_box(checksum))
}

/// Whether the dispatched path runs the POPCNT build on this machine.
fn popcnt_dispatch() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn main() {
    let n_pairs: usize = env_or("CULINARIA_KERNEL_PAIRS", 4096);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_kernel.json".to_string());
    let mut rng = StdRng::seed_from_u64(seed);

    let mut rows = Vec::new();
    let mut crossover_words = usize::MAX;
    for &bits in UNIVERSES {
        let words = bits / 64;
        let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..n_pairs)
            .map(|_| {
                let gen = |rng: &mut StdRng| (0..words).map(|_| rng.random()).collect::<Vec<u64>>();
                (gen(&mut rng), gen(&mut rng))
            })
            .collect();
        let passes = (WORK_BUDGET / (n_pairs * words).max(1)).max(1);

        // Interleaved min-of-N: the three paths alternate inside each
        // repeat, so none of them monopolizes a quiet (or noisy)
        // window.
        let mut scalar_ms = f64::INFINITY;
        let mut widened_ms = f64::INFINITY;
        let mut dispatched_ms = f64::INFINITY;
        let mut scalar_sum = 0u64;
        let mut widened_sum = 0u64;
        let mut dispatched_sum = 0u64;
        for _ in 0..TIME_REPS {
            let (ms, sum) = sample(&pairs, passes, kernel::scalar::and_popcount);
            scalar_ms = scalar_ms.min(ms);
            scalar_sum = sum;
            let (ms, sum) = sample(&pairs, passes, kernel::widened::and_popcount);
            widened_ms = widened_ms.min(ms);
            widened_sum = sum;
            let (ms, sum) = sample(&pairs, passes, kernel::and_popcount);
            dispatched_ms = dispatched_ms.min(ms);
            dispatched_sum = sum;
        }
        assert_eq!(
            scalar_sum, widened_sum,
            "kernel checksum diverged at {bits} bits"
        );
        assert_eq!(
            scalar_sum, dispatched_sum,
            "dispatched checksum diverged at {bits} bits"
        );

        let widened_speedup = scalar_ms / widened_ms;
        let dispatched_speedup = scalar_ms / dispatched_ms;
        eprintln!(
            "{bits:>5} bits ({words:>2} words): scalar {scalar_ms:.2} ms, \
             widened {widened_ms:.2} ms ({widened_speedup:.2}x), \
             dispatched {dispatched_ms:.2} ms ({dispatched_speedup:.2}x) \
             ({passes} passes x {n_pairs} pairs)"
        );
        if widened_speedup > 1.0 {
            crossover_words = crossover_words.min(words);
        }
        rows.push(format!(
            "    {{ \"bits\": {bits}, \"words\": {words}, \"passes\": {passes}, \
             \"scalar_ms\": {scalar_ms:.3}, \"widened_ms\": {widened_ms:.3}, \
             \"dispatched_ms\": {dispatched_ms:.3}, \
             \"widened_speedup\": {widened_speedup:.3}, \
             \"dispatched_speedup\": {dispatched_speedup:.3}, \
             \"parity\": \"checksum-identical\" }}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"kernel_and_popcount\",\n  \"n_pairs\": {n_pairs},\n  \
         \"seed\": {seed},\n  \"time_reps\": {TIME_REPS},\n  \
         \"popcnt_dispatch\": {popcnt},\n  \
         \"scalar_below_words\": {threshold},\n  \
         \"measured_crossover_words\": {crossover},\n  \
         \"universes\": [\n{rows}\n  ]\n}}\n",
        popcnt = popcnt_dispatch(),
        threshold = kernel::SCALAR_BELOW_WORDS,
        crossover = if crossover_words == usize::MAX {
            "null".to_string()
        } else {
            crossover_words.to_string()
        },
        rows = rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
