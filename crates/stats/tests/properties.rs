//! Property-based tests of the statistical invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_stats::descriptive::{self, quantile, Summary};
use culinaria_stats::histogram::IntHistogram;
use culinaria_stats::powerlaw::{cumulative_share, rank_frequency};
use culinaria_stats::rng::derive_seed;
use culinaria_stats::sampling::{
    sample_without_replacement, LinearCdfSampler, WeightedAliasSampler,
};
use culinaria_stats::RunningStats;

fn arb_sample() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..200)
}

proptest! {
    #[test]
    fn running_stats_match_batch(xs in arb_sample()) {
        let rs: RunningStats = xs.iter().copied().collect();
        let mean = descriptive::mean(&xs).expect("non-empty");
        prop_assert!((rs.mean().expect("non-empty") - mean).abs() < 1e-6 * mean.abs().max(1.0));
        if xs.len() > 1 {
            let var = descriptive::variance(&xs).expect("n >= 2");
            prop_assert!((rs.variance().expect("n >= 2") - var).abs() < 1e-6 * var.abs().max(1.0));
        }
        prop_assert_eq!(rs.count() as usize, xs.len());
    }

    #[test]
    fn running_stats_merge_any_split(xs in arb_sample(), split in 0usize..200) {
        let k = split.min(xs.len());
        let (a, b) = xs.split_at(k);
        let mut left: RunningStats = a.iter().copied().collect();
        let right: RunningStats = b.iter().copied().collect();
        left.merge(&right);
        let all: RunningStats = xs.iter().copied().collect();
        prop_assert_eq!(left.count(), all.count());
        let (lm, am) = (left.mean().expect("non-empty"), all.mean().expect("non-empty"));
        prop_assert!((lm - am).abs() < 1e-6 * am.abs().max(1.0));
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(xs in arb_sample(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).expect("non-empty");
        let b = quantile(&xs, hi).expect("non-empty");
        prop_assert!(a <= b, "q({lo})={a} > q({hi})={b}");
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min <= a && b <= max);
    }

    #[test]
    fn summary_orders_its_fields(xs in arb_sample()) {
        let s = Summary::of(&xs).expect("non-empty");
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_dev >= 0.0);
    }

    #[test]
    fn histogram_cdf_monotone(values in proptest::collection::vec(-50i64..50, 1..200)) {
        let h = IntHistogram::from_values(values.iter().copied());
        prop_assert_eq!(h.total() as usize, values.len());
        let cdf = h.cumulative();
        let pts = cdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        prop_assert!((pts.last().expect("non-empty").1 - 1.0).abs() < 1e-9);
        // pmf sums to 1.
        let mass: f64 = h.iter().map(|(v, _)| h.pmf(v)).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_frequency_is_normalized_and_sorted(freqs in proptest::collection::vec(0u64..10_000, 0..100)) {
        let rf = rank_frequency(&freqs);
        if let Some(&first) = rf.first() {
            prop_assert_eq!(first, 1.0);
        }
        for w in rf.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for &v in &rf {
            prop_assert!(v > 0.0 && v <= 1.0);
        }
        prop_assert_eq!(rf.len(), freqs.iter().filter(|&&f| f > 0).count());
    }

    #[test]
    fn cumulative_share_ends_at_one(freqs in proptest::collection::vec(0u64..10_000, 1..100)) {
        let cs = cumulative_share(&freqs);
        if freqs.iter().sum::<u64>() == 0 {
            prop_assert!(cs.is_empty());
        } else {
            for w in cs.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
            prop_assert!((cs.last().expect("non-empty") - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn alias_sampler_stays_in_support(weights in proptest::collection::vec(0.0f64..100.0, 1..50), seed in 0u64..1000) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let sampler = WeightedAliasSampler::new(&weights).expect("valid weights");
        let linear = LinearCdfSampler::new(&weights).expect("valid weights");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = sampler.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "drew zero-weight index {i}");
            let j = linear.sample(&mut rng);
            prop_assert!(j < weights.len());
            prop_assert!(weights[j] > 0.0);
        }
    }

    #[test]
    fn without_replacement_always_distinct(n in 1usize..100, k in 0usize..120, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = sample_without_replacement(n, k, &mut rng);
        prop_assert_eq!(draw.len(), k.min(n));
        let mut sorted = draw.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), draw.len());
        prop_assert!(draw.iter().all(|&i| i < n));
    }

    #[test]
    fn derived_seeds_deterministic_and_spread(master in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assert_eq!(derive_seed(master, s1), derive_seed(master, s1));
        if s1 != s2 {
            prop_assert_ne!(derive_seed(master, s1), derive_seed(master, s2));
        }
    }
}

mod pool_failures {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Once};

    use proptest::prelude::*;

    use culinaria_stats::pool::{try_run_observed, FailureKind, PoolObs, TaskFailure};

    /// Silence the intentional "injected" panics raised inside worker
    /// threads; everything else still reaches the default hook.
    fn quiet_panics() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if !msg.contains("injected") {
                    prev(info);
                }
            }));
        });
    }

    proptest! {
        /// For any set of failing indices (some panicking, some
        /// erroring), every thread count reports the same
        /// lowest-index failure and leaks nothing.
        #[test]
        fn arbitrary_failure_sets_are_deterministic_and_leak_free(
            n_tasks in 1usize..120,
            fail in proptest::collection::btree_set(0usize..120, 0..6),
            panic_mask in any::<u64>(),
        ) {
            quiet_panics();
            let fail: BTreeSet<usize> = fail.into_iter().filter(|&i| i < n_tasks).collect();
            let alive = Arc::new(AtomicUsize::new(0));
            let mut outcomes: Vec<Result<usize, TaskFailure<String>>> = Vec::new();
            for threads in [1usize, 2, 8] {
                let alive = Arc::clone(&alive);
                struct Tracked(Arc<AtomicUsize>);
                impl Drop for Tracked {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let result = try_run_observed(
                    threads,
                    n_tasks,
                    &PoolObs::disabled(),
                    || (),
                    |_, i| {
                        if fail.contains(&i) {
                            if panic_mask >> (i % 64) & 1 == 1 {
                                panic!("injected panic {i}");
                            }
                            return Err(format!("injected error {i}"));
                        }
                        alive.fetch_add(1, Ordering::SeqCst);
                        Ok(Tracked(Arc::clone(&alive)))
                    },
                );
                // Reduce to the length first: this drops every Tracked
                // result, so a zero count below means nothing leaked on
                // either the success or the failure path.
                let outcome = result.map(|v| v.len());
                prop_assert_eq!(
                    alive.load(Ordering::SeqCst), 0,
                    "leaked results at {} threads", threads
                );
                outcomes.push(outcome);
            }
            // All thread counts agree bit-for-bit.
            prop_assert_eq!(outcomes[0].clone(), outcomes[1].clone());
            prop_assert_eq!(outcomes[1].clone(), outcomes[2].clone());
            match fail.iter().next() {
                None => prop_assert_eq!(outcomes[0].clone(), Ok(n_tasks)),
                Some(&lowest) => {
                    let failure = outcomes[0].clone().expect_err("a task fails");
                    prop_assert_eq!(failure.index, lowest);
                    let expect_panic = panic_mask >> (lowest % 64) & 1 == 1;
                    match failure.kind {
                        FailureKind::Panicked(msg) => {
                            prop_assert!(expect_panic);
                            prop_assert_eq!(msg, format!("injected panic {}", lowest));
                        }
                        FailureKind::Failed(msg) => {
                            prop_assert!(!expect_panic);
                            prop_assert_eq!(msg, format!("injected error {}", lowest));
                        }
                    }
                }
            }
        }
    }
}
