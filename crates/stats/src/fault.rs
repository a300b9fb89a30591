//! Deterministic fault injection for exercising failure paths.
//!
//! A [`FaultPlan`] is a list of "fail task `index` of stage `stage`
//! with a panic | an error" rules. Pipeline stages call
//! [`probe`]`(stage, index)` at the top of each task; when the
//! `fault-injection` cargo feature is enabled and a plan is installed,
//! a matching rule fires deterministically — either returning an
//! [`InjectedFault`] error or panicking with a stable message. With the
//! feature disabled (the default, including all release builds),
//! [`probe`] is a `#[inline(always)]` constant `Ok(())` and the whole
//! mechanism compiles away.
//!
//! Plans can be written explicitly ([`FaultPlan::fail`]) or generated
//! from a seed ([`FaultPlan::seeded`]) so randomized sweeps are
//! replayable. The plan registry is process-global (the probes live
//! deep inside worker threads, far from any place a handle could be
//! threaded through), so tests that install plans must serialize —
//! `with_plan` (feature-gated like the registry) does the
//! install/run/clear dance under a global lock.
//!
//! The types themselves are always compiled so test code can construct
//! plans without feature gymnastics; only the registry and the live
//! probe are gated.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How an injected fault manifests at the probe site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The probe panics with `"injected panic at {stage}[{index}]"`.
    Panic,
    /// The probe returns `Err(InjectedFault { .. })`.
    Error,
}

/// One injection rule: fail task `index` of stage `stage` with `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Stage label, e.g. `"mc.block"` or `"overlap.tile"`.
    pub stage: String,
    /// Task index within the stage at which to fire.
    pub index: usize,
    /// Panic or error.
    pub kind: FaultKind,
}

/// A deterministic set of injection rules (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: no probe ever fires.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a rule (builder style): fail task `index` of `stage` with
    /// `kind`.
    pub fn fail(mut self, stage: &str, index: usize, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec {
            stage: stage.to_string(),
            index,
            kind,
        });
        self
    }

    /// Generate `n` rules from a seed: each picks a stage from
    /// `stages`, an index in `0..max_index`, and a kind. Same seed,
    /// same plan — randomized sweeps stay replayable.
    pub fn seeded(seed: u64, stages: &[&str], max_index: usize, n: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        if stages.is_empty() || max_index == 0 {
            return plan;
        }
        for _ in 0..n {
            let stage = stages[rng.random_range(0..stages.len())];
            let index = rng.random_range(0..max_index);
            let kind = if rng.random_bool(0.5) {
                FaultKind::Panic
            } else {
                FaultKind::Error
            };
            plan = plan.fail(stage, index, kind);
        }
        plan
    }

    /// True when the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of rules in the plan.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// The rules, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Look up the rule (if any) for `(stage, index)`. First match
    /// wins.
    pub fn lookup(&self, stage: &str, index: usize) -> Option<FaultKind> {
        self.specs
            .iter()
            .find(|s| s.index == index && s.stage == stage)
            .map(|s| s.kind)
    }
}

/// The error a probe returns when an [`FaultKind::Error`] rule fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Stage label of the rule that fired.
    pub stage: String,
    /// Task index at which it fired.
    pub index: usize,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}[{}]", self.stage, self.index)
    }
}

impl std::error::Error for InjectedFault {}

#[cfg(feature = "fault-injection")]
mod registry {
    use super::{FaultKind, FaultPlan, InjectedFault};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, Once, RwLock};

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
    /// Serializes tests that install global plans (see [`with_plan`]).
    pub(super) static GUARD: Mutex<()> = Mutex::new(());

    /// Install `plan` process-wide; subsequent probes consult it.
    pub fn install(plan: FaultPlan) {
        let mut slot = PLAN.write().unwrap_or_else(|p| p.into_inner());
        ACTIVE.store(!plan.is_empty(), Ordering::Release);
        *slot = Some(plan);
    }

    /// Remove any installed plan; probes become inert again.
    pub fn clear() {
        let mut slot = PLAN.write().unwrap_or_else(|p| p.into_inner());
        ACTIVE.store(false, Ordering::Release);
        *slot = None;
    }

    /// True when a non-empty plan is installed.
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Acquire)
    }

    /// Run `f` with `plan` installed, clearing it afterwards (also on
    /// panic) and holding a global lock so concurrent tests cannot see
    /// each other's plans.
    pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
        let _guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        struct Clear;
        impl Drop for Clear {
            fn drop(&mut self) {
                super::registry::clear();
            }
        }
        let _clear = Clear;
        install(plan);
        f()
    }

    /// The live probe: fire the matching rule, if any.
    pub fn probe(stage: &str, index: usize) -> Result<(), InjectedFault> {
        if !ACTIVE.load(Ordering::Acquire) {
            return Ok(());
        }
        let slot = PLAN.read().unwrap_or_else(|p| p.into_inner());
        let Some(kind) = slot.as_ref().and_then(|p| p.lookup(stage, index)) else {
            return Ok(());
        };
        match kind {
            FaultKind::Panic => panic!("injected panic at {stage}[{index}]"),
            FaultKind::Error => Err(InjectedFault {
                stage: stage.to_string(),
                index,
            }),
        }
    }

    /// Filter the panic hook so the probe's own `"injected panic at …"`
    /// payloads (raised inside worker threads during fault tests) do
    /// not spray backtraces into test output. Installed once; every
    /// other panic still reaches the previous hook, including one whose
    /// message only quotes an injected fault (a failed assert, or a
    /// panicking wrapper around an injected error).
    pub fn silence_injected_panics() {
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
                if !msg.starts_with("injected panic at ") {
                    prev(info);
                }
            }));
        });
    }
}

#[cfg(feature = "fault-injection")]
pub use registry::{active, clear, install, probe, silence_injected_panics, with_plan};

/// Inert probe: with the `fault-injection` feature disabled this is a
/// constant `Ok(())` the optimizer deletes.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn probe(_stage: &str, _index: usize) -> Result<(), InjectedFault> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_build_and_look_up() {
        let plan = FaultPlan::new().fail("mc.block", 3, FaultKind::Error).fail(
            "overlap.tile",
            0,
            FaultKind::Panic,
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.lookup("mc.block", 3), Some(FaultKind::Error));
        assert_eq!(plan.lookup("mc.block", 4), None);
        assert_eq!(plan.lookup("overlap.tile", 0), Some(FaultKind::Panic));
        assert_eq!(plan.lookup("world.block", 0), None);
    }

    #[test]
    fn seeded_plans_are_replayable() {
        let stages = ["mc.block", "overlap.tile", "world.block"];
        let a = FaultPlan::seeded(42, &stages, 100, 5);
        let b = FaultPlan::seeded(42, &stages, 100, 5);
        let c = FaultPlan::seeded(43, &stages, 100, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5);
        for spec in a.specs() {
            assert!(stages.contains(&spec.stage.as_str()));
            assert!(spec.index < 100);
        }
    }

    #[test]
    fn degenerate_seeded_plans_are_empty() {
        assert!(FaultPlan::seeded(7, &[], 10, 5).is_empty());
        assert!(FaultPlan::seeded(7, &["mc.block"], 0, 5).is_empty());
    }

    #[test]
    fn injected_fault_renders() {
        let fault = InjectedFault {
            stage: "mc.block".to_string(),
            index: 12,
        };
        assert_eq!(fault.to_string(), "injected fault at mc.block[12]");
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn probe_is_inert_without_the_feature() {
        assert_eq!(probe("mc.block", 0), Ok(()));
    }

    #[cfg(feature = "fault-injection")]
    mod live {
        use super::super::*;

        /// The plan lock, for checks that must not see another test's
        /// plan: outside it, any test's `with_plan` may install one.
        fn plan_lock() -> std::sync::MutexGuard<'static, ()> {
            registry::GUARD.lock().unwrap_or_else(|p| p.into_inner())
        }

        #[test]
        fn with_plan_clears_the_plan_on_exit() {
            silence_injected_panics();
            let plan = FaultPlan::new().fail("world.block", 1, FaultKind::Panic);
            with_plan(plan.clone(), || assert!(active()));
            {
                let _lock = plan_lock();
                assert!(!active(), "plan left active after a normal exit");
            }
            let caught = std::panic::catch_unwind(|| with_plan(plan, || probe("world.block", 1)));
            assert!(caught.is_err(), "the planted panic fires");
            let _lock = plan_lock();
            assert!(!active(), "plan left active after a panic");
        }

        #[test]
        fn probe_fires_only_under_an_installed_plan() {
            let plan = FaultPlan::new().fail("mc.block", 2, FaultKind::Error);
            with_plan(plan, || {
                assert!(active());
                assert_eq!(probe("mc.block", 1), Ok(()));
                assert_eq!(
                    probe("mc.block", 2),
                    Err(InjectedFault {
                        stage: "mc.block".to_string(),
                        index: 2,
                    })
                );
                assert_eq!(probe("other", 2), Ok(()));
            });
            let _lock = plan_lock();
            assert!(!active());
            assert_eq!(probe("mc.block", 2), Ok(()));
        }

        #[test]
        fn panic_rules_panic_with_a_stable_message() {
            silence_injected_panics();
            let plan = FaultPlan::new().fail("overlap.tile", 4, FaultKind::Panic);
            let caught = with_plan(plan, || {
                std::panic::catch_unwind(|| probe("overlap.tile", 4))
            });
            let payload = caught.expect_err("probe panics");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("string payload");
            assert_eq!(msg, "injected panic at overlap.tile[4]");
        }
    }
}
