//! A shared worker pool for deterministic data-parallel task queues.
//!
//! The Monte-Carlo engine and the world-analysis driver both follow the
//! same pattern: a *flattened*, statically indexed list of independent
//! tasks (blocks of randomized recipes, rows of an overlap matrix,
//! per-region setup jobs) whose results must be combined in **task
//! order** so the outcome is bit-identical regardless of how many
//! threads ran it. This module is that pattern, extracted:
//!
//! * work is claimed dynamically (an atomic cursor), so imbalanced
//!   tasks still load-balance;
//! * every task index is claimed by exactly one worker, which writes
//!   the result into the index's dedicated slot — no locks, no
//!   post-hoc sorting;
//! * the caller receives `Vec<T>` in task order, making the canonical
//!   merge a plain in-order fold;
//! * the caller works as one of the workers, so `n` threads start
//!   `n − 1` scoped threads and one loop serves every thread count.
//!
//! Workers can carry mutable per-worker scratch state (`init` builds
//! one per worker), which is how the samplers reuse allocation-free
//! buffers across tasks.
//!
//! # Failure model
//!
//! [`try_run_observed`] is the fallible entry point: tasks return
//! `Result<T, E>`, task bodies are wrapped in `catch_unwind`, and the
//! first failure — error *or* panic — poisons the claim cursor so no
//! new work starts. Tasks already in flight run to completion, every
//! failure among claimed tasks is recorded, and the **lowest task
//! index** wins, so the reported [`TaskFailure`] is identical for any
//! thread count (the same determinism contract the success path has).
//! Result slots written before the failure are dropped correctly; no
//! task result leaks. [`run`] delegates to it with infallible tasks and
//! a disabled [`PoolObs`].
//!
//! # Observability
//!
//! [`try_run_observed`] records pool telemetry through a [`PoolObs`]
//! handle (queue depth, per-worker claimed-task counts and busy time).
//! Instrumentation never influences scheduling or results, and a
//! disabled handle reduces every probe to one branch.

use std::any::Any;
use std::cell::UnsafeCell;
use std::convert::Infallible;
use std::fmt;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use culinaria_obs::{Counter, Gauge, Histogram, Metrics};

use crate::fault;

/// Resolve a requested thread count: `0` means "use the machine",
/// anything else is taken literally (callers cap by task count).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Why a single task failed: it returned an error, or it panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind<E> {
    /// The task returned `Err(E)`.
    Failed(E),
    /// The task panicked; the payload rendered as a message.
    Panicked(String),
}

/// The structured outcome of a failed [`try_run_observed`]: which task index
/// failed first (lowest index among all failures), and how.
///
/// Determinism: the claim cursor is monotonic, so when the task at
/// index `F` fails, every index below `F` was already claimed and runs
/// to completion; each of their failures is recorded too, and the
/// minimum index is kept. The minimum over "tasks that fail when
/// executed" does not depend on the schedule, so this value is
/// bit-identical across 1, 2, or 8 threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure<E> {
    /// Index of the lowest failing task.
    pub index: usize,
    /// How that task failed.
    pub kind: FailureKind<E>,
}

impl<E: fmt::Display> fmt::Display for TaskFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::Failed(e) => write!(f, "task {} failed: {e}", self.index),
            FailureKind::Panicked(msg) => write!(f, "task {} panicked: {msg}", self.index),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for TaskFailure<E> {}

/// Render a panic payload as text (the common `&str` / `String` cases;
/// anything else gets a placeholder).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(_) => "non-string panic payload".to_string(),
        }
    }
}

/// One result slot per task. Safety rests on the claim protocol: an
/// index is handed to exactly one worker (atomic `fetch_add`), so each
/// cell has exactly one writer, and the scope join orders all writes
/// before the read-back.
///
/// A per-cell `written` flag arms the `Drop` impl: when a run exits
/// early (task failure or panic), only the initialized cells are
/// dropped, so partially filled result sets never leak and never touch
/// uninitialized memory.
struct Slots<T> {
    cells: Vec<UnsafeCell<MaybeUninit<T>>>,
    written: Vec<AtomicBool>,
}

// SAFETY: cells are only accessed through disjoint indices (one writer
// each, no readers until after the thread scope ends).
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Slots<T> {
        Slots {
            cells: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            written: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// # Safety
    /// `idx` must be claimed by exactly one worker, exactly once.
    unsafe fn write(&self, idx: usize, value: T) {
        (*self.cells[idx].get()).write(value);
        self.written[idx].store(true, Ordering::Release);
    }

    /// # Safety
    /// Every index must have been written exactly once.
    unsafe fn into_vec(mut self) -> Vec<T> {
        // Disarm Drop: take the cells out, clear the flags, and let the
        // emptied shell drop harmlessly.
        let cells = std::mem::take(&mut self.cells);
        self.written.clear();
        cells
            .into_iter()
            .map(|c| c.into_inner().assume_init())
            .collect()
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        for (cell, flag) in self.cells.iter_mut().zip(&self.written) {
            if flag.load(Ordering::Acquire) {
                // SAFETY: the flag is set only after the cell was
                // initialized, and `&mut self` proves no worker still
                // holds a reference.
                unsafe { cell.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Pool telemetry handles, prefetched once so workers never touch the
/// metrics registry. All pool call sites share one `pool.*` namespace:
///
/// * `pool.runs` — pool invocations (counter);
/// * `pool.tasks` — total tasks executed (counter);
/// * `pool.failures` — pool runs that returned a failure (counter);
/// * `pool.queue.depth` — task count of the most recent run (gauge);
/// * `pool.workers` — worker count of the most recent run (gauge);
/// * `pool.worker.tasks` — tasks claimed per worker per run (histogram,
///   unitless — its spread shows load balance);
/// * `pool.worker.busy_us` — per-worker wall time inside the claim loop
///   per run (histogram).
#[derive(Debug, Clone, Default)]
pub struct PoolObs {
    runs: Counter,
    tasks: Counter,
    failures: Counter,
    queue_depth: Gauge,
    workers: Gauge,
    worker_tasks: Histogram,
    worker_busy: Histogram,
    enabled: bool,
}

impl PoolObs {
    /// Register the `pool.*` instruments on `metrics` (no-op handles
    /// for a disabled registry).
    pub fn new(metrics: &Metrics) -> PoolObs {
        PoolObs {
            runs: metrics.counter("pool.runs"),
            tasks: metrics.counter("pool.tasks"),
            failures: metrics.counter("pool.failures"),
            queue_depth: metrics.gauge("pool.queue.depth"),
            workers: metrics.gauge("pool.workers"),
            worker_tasks: metrics.histogram("pool.worker.tasks"),
            worker_busy: metrics.histogram("pool.worker.busy_us"),
            enabled: metrics.is_enabled(),
        }
    }

    /// A fully inert handle — what [`run`] uses.
    pub fn disabled() -> PoolObs {
        PoolObs::default()
    }

    /// True when the probes record anywhere.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Run `n_tasks` independent tasks across `n_threads` workers and
/// return their results **in task order**.
///
/// `init` builds one scratch state per worker; `task` maps
/// `(scratch, task index)` to a result. Task results do not depend on
/// which worker ran them, so as long as `task` itself is deterministic
/// per index, the returned vector is identical for every thread count —
/// the determinism contract DESIGN.md documents.
///
/// `n_threads == 0` means "use the available parallelism"; the count is
/// always capped by `n_tasks`. The caller is one of the workers, so a
/// run on `n` threads starts `n − 1`, and a one-thread run starts none.
///
/// Delegates to [`try_run_observed`] with infallible tasks and a
/// disabled [`PoolObs`]: a panicking task still panics the caller (with
/// the original message), after cleanly dropping every already-computed
/// result.
pub fn run<S, T, Init, Task>(n_threads: usize, n_tasks: usize, init: Init, task: Task) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    Task: Fn(&mut S, usize) -> T + Sync,
{
    let tasks = |state: &mut S, i| Ok::<T, Infallible>(task(state, i));
    match try_run_observed(n_threads, n_tasks, &PoolObs::disabled(), init, tasks) {
        Ok(out) => out,
        Err(failure) => match failure.kind {
            FailureKind::Failed(e) => match e {},
            FailureKind::Panicked(msg) => {
                panic!("pool task {} panicked: {msg}", failure.index)
            }
        },
    }
}

/// Fallible [`run`] with pool telemetry: tasks return `Result<T, E>`,
/// and the pool returns either every result in task order or the
/// **lowest-index** [`TaskFailure`] (error or panic), identical for any
/// thread count.
///
/// On failure no new tasks are claimed (the cursor is poisoned),
/// in-flight tasks finish, and every already-written result slot is
/// dropped — nothing leaks, nothing aborts; the run also bumps the
/// `pool.failures` counter.
///
/// Queue depth and worker count are set at entry, and each worker
/// records its claimed-task count and busy time when its claim loop
/// drains. The per-worker numbers describe *this run's actual
/// schedule*, which legitimately varies with thread count and OS
/// timing; only the task results carry the bit-identity contract.
pub fn try_run_observed<S, T, E, Init, Task>(
    n_threads: usize,
    n_tasks: usize,
    obs: &PoolObs,
    init: Init,
    task: Task,
) -> Result<Vec<T>, TaskFailure<E>>
where
    T: Send,
    E: Send,
    Init: Fn() -> S + Sync,
    Task: Fn(&mut S, usize) -> Result<T, E> + Sync,
{
    if n_tasks == 0 {
        return Ok(Vec::new());
    }
    let n_threads = effective_threads(n_threads).min(n_tasks).max(1);
    obs.runs.incr();
    obs.tasks.add(n_tasks as u64);
    obs.queue_depth.set(n_tasks as i64);
    obs.workers.set(n_threads as i64);
    let slots = Slots::new(n_tasks);
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let failure: Mutex<Option<TaskFailure<E>>> = Mutex::new(None);
    let worker = || {
        // One clock read per worker per run — nothing per task.
        let started = obs.is_enabled().then(Instant::now);
        let mut claimed = 0u64;
        let mut state = init();
        loop {
            // The poison check gates *new* claims only; the task that
            // set it (and any already in flight on other workers) has
            // run to completion.
            if poisoned.load(Ordering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| task(&mut state, i)));
            claimed += 1;
            let kind = match outcome {
                Ok(Ok(value)) => {
                    // SAFETY: `i` came from the shared cursor, so this
                    // worker is its unique writer.
                    unsafe { slots.write(i, value) };
                    continue;
                }
                Ok(Err(e)) => FailureKind::Failed(e),
                Err(payload) => FailureKind::Panicked(panic_message(payload)),
            };
            poisoned.store(true, Ordering::Relaxed);
            let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
            // Lowest index wins: the cursor is monotonic, so every
            // index below any failing one was claimed and ran; keeping
            // the minimum makes the reported failure
            // schedule-independent.
            let keep = match &*slot {
                Some(prev) => i < prev.index,
                None => true,
            };
            if keep {
                *slot = Some(TaskFailure { index: i, kind });
            }
            break;
        }
        if let Some(started) = started {
            obs.worker_busy.record_duration(started.elapsed());
            obs.worker_tasks.record(claimed);
        }
    };
    // The caller is one of the `n_threads` workers, so a one-thread run
    // starts no thread. Each spawned worker runs under the caller's
    // fault plan, so a plan reaches the tasks of the runs started on
    // its thread, and no others. The caller enters the loop through the
    // same `inherit` call (its plan is already its own), so every
    // worker runs one compiled copy of the loop: a second copy inlined
    // here ran 2-thread Monte Carlo about 10 % slower.
    std::thread::scope(|scope| {
        for _ in 1..n_threads {
            let plan = fault::current();
            scope.spawn(move || fault::inherit(plan, worker));
        }
        fault::inherit(fault::current(), worker);
    });
    match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some(f) => {
            // `slots` drops here: its Drop impl frees exactly the
            // initialized cells.
            obs.failures.incr();
            Err(f)
        }
        // SAFETY: no failure was recorded, so the cursor covered
        // 0..n_tasks, the scope joined every worker, and each slot was
        // written exactly once.
        None => Ok(unsafe { slots.into_vec() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Once};

    /// Intentional test panics (messages containing "boom" or
    /// "injected") would otherwise spray backtrace noise from spawned
    /// workers into the test output; filter them at the hook while
    /// delegating everything else.
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
                if !(msg.contains("boom") || msg.contains("injected")) {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn results_in_task_order_for_any_thread_count() {
        for threads in [0, 1, 2, 3, 8, 17] {
            let out = run(threads, 100, || (), |_, i| i * i);
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker counts its own tasks; the sum must equal n_tasks.
        let counts = run(
            4,
            64,
            || 0usize,
            |state, _| {
                *state += 1;
                *state
            },
        );
        // Every worker's sequence 1, 2, 3, … appears interleaved; the
        // number of 1s equals the number of workers that claimed work.
        let ones = counts.iter().filter(|&&c| c == 1).count();
        assert!((1..=4).contains(&ones), "{ones} workers participated");
        assert_eq!(counts.len(), 64);
    }

    #[test]
    fn empty_and_single_task() {
        assert_eq!(run(4, 0, || (), |_, i| i), Vec::<usize>::new());
        assert_eq!(run(4, 1, || (), |_, i| i + 41), vec![41]);
    }

    #[test]
    fn heavier_than_thread_count() {
        let out = run(2, 1000, || (), |_, i| i as u64);
        assert_eq!(out.iter().sum::<u64>(), 999 * 1000 / 2);
    }

    #[test]
    fn non_copy_results() {
        let out = run(3, 10, || (), |_, i| format!("task-{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("task-{i}"));
        }
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let metrics = Metrics::enabled();
        let obs = PoolObs::new(&metrics);
        for threads in [1, 2, 8] {
            let observed = try_run_observed(
                threads,
                50,
                &obs,
                || (),
                |_, i| Ok::<usize, Infallible>(i * 3),
            )
            .expect("infallible tasks");
            let plain = run(threads, 50, || (), |_, i| i * 3);
            assert_eq!(observed, plain, "threads = {threads}");
        }
    }

    #[test]
    fn observed_run_records_pool_metrics() {
        let metrics = Metrics::enabled();
        let obs = PoolObs::new(&metrics);
        assert!(obs.is_enabled());
        for (threads, n_tasks) in [(4, 32), (1, 5)] {
            try_run_observed(
                threads,
                n_tasks,
                &obs,
                || (),
                |_, i| Ok::<usize, Infallible>(i),
            )
            .expect("infallible tasks");
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("pool.runs"), Some(2));
        assert_eq!(snap.counter("pool.tasks"), Some(37));
        // Gauges hold the most recent run's shape.
        assert_eq!(snap.gauge("pool.queue.depth"), Some(5));
        assert_eq!(snap.gauge("pool.workers"), Some(1));
        // Every participating worker recorded exactly one busy-time and
        // one claimed-count sample.
        let tasks = snap.histogram("pool.worker.tasks").expect("recorded");
        let busy = snap.histogram("pool.worker.busy_us").expect("recorded");
        assert_eq!(tasks.count, busy.count);
        // Claimed counts sum to total tasks across both runs.
        assert_eq!(tasks.sum_us, 37);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = PoolObs::disabled();
        assert!(!obs.is_enabled());
        let out = try_run_observed(3, 20, &obs, || (), |_, i| Ok::<usize, Infallible>(i + 1))
            .expect("infallible tasks");
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn try_run_success_matches_run_across_thread_counts() {
        for threads in [1, 2, 8] {
            let fallible = try_run_observed(
                threads,
                80,
                &PoolObs::disabled(),
                || (),
                |_, i| Ok::<usize, String>(i * 7),
            )
            .expect("no task fails");
            let plain = run(threads, 80, || (), |_, i| i * 7);
            assert_eq!(fallible, plain, "threads = {threads}");
        }
    }

    #[test]
    fn error_at_fixed_index_is_identical_across_thread_counts() {
        for threads in [1, 2, 8] {
            let err = try_run_observed(
                threads,
                60,
                &PoolObs::disabled(),
                || (),
                |_, i| {
                    if i == 23 {
                        Err(format!("bad block {i}"))
                    } else {
                        Ok(i)
                    }
                },
            )
            .expect_err("task 23 fails");
            assert_eq!(
                err,
                TaskFailure {
                    index: 23,
                    kind: FailureKind::Failed("bad block 23".to_string()),
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn panic_at_fixed_index_is_identical_across_thread_counts() {
        quiet_panics();
        for threads in [1, 2, 8] {
            let err = try_run_observed(
                threads,
                60,
                &PoolObs::disabled(),
                || (),
                |_, i| {
                    if i == 17 {
                        panic!("boom at {i}");
                    }
                    Ok::<usize, String>(i)
                },
            )
            .expect_err("task 17 panics");
            assert_eq!(
                err,
                TaskFailure {
                    index: 17,
                    kind: FailureKind::Panicked("boom at 17".to_string()),
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn lowest_index_failure_wins_with_many_failures() {
        quiet_panics();
        // Tasks 11, 29, and 43 all fail (29 by panic); the reported
        // failure must always be index 11 regardless of schedule.
        for threads in [1, 2, 8] {
            let err = try_run_observed(
                threads,
                50,
                &PoolObs::disabled(),
                || (),
                |_, i| match i {
                    11 | 43 => Err(format!("err {i}")),
                    29 => panic!("boom {i}"),
                    _ => Ok(i),
                },
            )
            .expect_err("multiple tasks fail");
            assert_eq!(
                err,
                TaskFailure {
                    index: 11,
                    kind: FailureKind::Failed("err 11".to_string()),
                },
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn failure_drops_all_written_results_without_leaks() {
        quiet_panics();
        // Count live clones of a drop-tracking token: every result
        // written before the failure must be dropped on the error path.
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let alive = Arc::new(AtomicUsize::new(0));
        for threads in [1, 2, 8] {
            for fail_at in [0, 1, 37, 63] {
                let alive = Arc::clone(&alive);
                let result = try_run_observed(
                    threads,
                    64,
                    &PoolObs::disabled(),
                    || (),
                    |_, i| {
                        if i == fail_at {
                            if i % 2 == 0 {
                                return Err("injected error");
                            }
                            panic!("injected panic");
                        }
                        alive.fetch_add(1, Ordering::SeqCst);
                        Ok(Tracked(Arc::clone(&alive)))
                    },
                );
                assert_eq!(
                    result.err().map(|f| f.index),
                    Some(fail_at),
                    "threads = {threads}, fail_at = {fail_at}"
                );
                assert_eq!(
                    alive.load(Ordering::SeqCst),
                    0,
                    "leak: threads = {threads}, fail_at = {fail_at}"
                );
            }
        }
    }

    #[test]
    fn poison_stops_further_claims() {
        quiet_panics();
        // Serial path: a failure at index 5 means no task after 5 runs.
        let touched = AtomicUsize::new(0);
        let err = try_run_observed(
            1,
            100,
            &PoolObs::disabled(),
            || (),
            |_, i| {
                touched.fetch_add(1, Ordering::SeqCst);
                if i == 5 {
                    Err("injected stop")
                } else {
                    Ok(i)
                }
            },
        )
        .expect_err("task 5 fails");
        assert_eq!(err.index, 5);
        assert_eq!(touched.load(Ordering::SeqCst), 6);
        // Parallel path: with the poison flag, far fewer than all 10_000
        // tasks run after an index-0 failure (in-flight tasks may
        // finish, bounded by the worker count).
        let touched = AtomicUsize::new(0);
        let err = try_run_observed(
            4,
            10_000,
            &PoolObs::disabled(),
            || (),
            |_, i| {
                touched.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    Err("injected stop")
                } else {
                    std::thread::yield_now();
                    Ok(i)
                }
            },
        )
        .expect_err("task 0 fails");
        assert_eq!(err.index, 0);
        assert!(
            touched.load(Ordering::SeqCst) < 10_000,
            "poison flag did not stop the queue"
        );
    }

    #[test]
    fn try_run_observed_counts_failures() {
        let metrics = Metrics::enabled();
        let obs = PoolObs::new(&metrics);
        let ok = try_run_observed(2, 10, &obs, || (), |_, i| Ok::<usize, String>(i));
        assert!(ok.is_ok());
        let err = try_run_observed(
            2,
            10,
            &obs,
            || (),
            |_, i| {
                if i == 3 {
                    Err("nope".to_string())
                } else {
                    Ok(i)
                }
            },
        );
        assert!(err.is_err());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("pool.runs"), Some(2));
        assert_eq!(snap.counter("pool.failures"), Some(1));
    }

    #[test]
    fn caller_works_as_one_of_the_workers() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            // Spawned workers hold their task until the caller has run
            // one (or a shared deadline passes), so the caller cannot
            // find the queue already drained.
            let caller_ran = AtomicBool::new(false);
            let deadline = Instant::now() + std::time::Duration::from_secs(2);
            let ids = run(
                threads,
                64,
                || (),
                |_, _| {
                    let me = std::thread::current().id();
                    if me == caller {
                        caller_ran.store(true, Ordering::SeqCst);
                    }
                    while !caller_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    me
                },
            );
            if threads == 1 {
                assert!(
                    ids.iter().all(|&id| id == caller),
                    "a one-thread run left the caller"
                );
            } else {
                assert!(
                    ids.contains(&caller),
                    "threads = {threads}: the caller ran no task"
                );
            }
        }
    }

    #[test]
    fn task_failure_renders_both_kinds() {
        let failed = TaskFailure {
            index: 4,
            kind: FailureKind::Failed("out of range".to_string()),
        };
        assert_eq!(failed.to_string(), "task 4 failed: out of range");
        let panicked: TaskFailure<String> = TaskFailure {
            index: 9,
            kind: FailureKind::Panicked("boom".to_string()),
        };
        assert_eq!(panicked.to_string(), "task 9 panicked: boom");
    }
}
