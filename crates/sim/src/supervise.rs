//! Supervised job execution: panic isolation, deadlines, quarantine,
//! and cancellation for embarrassingly parallel simulation work. Every
//! sweep runs on this pool.
//!
//! [`exec::parallel_map_indexed`](crate::exec::parallel_map_indexed) is
//! the *optimistic* pool: one panicking item aborts the whole map. This
//! module is the *pessimistic* one a sweep needs: every job runs under
//! `catch_unwind` and a panicking job is quarantined so the rest of the
//! grid still completes, an optional watchdog thread declares jobs hung
//! after a per-job deadline, and a [`CancelToken`] stops admission
//! gracefully (in-flight jobs finish; unstarted jobs are skipped).
//! Panicking jobs are not retried: simulation jobs are deterministic, so
//! a retry would replay the same panic.
//!
//! Determinism: with deadlines disabled and no cancellation, a supervised
//! map returns the same results in input order for any worker count.
//! Outcomes then depend only on the jobs themselves (a deterministic
//! panic always yields the same quarantine), never on timing.

// Deadlines are wall-clock by nature. The clock never feeds simulation
// results: a job's output is produced by the deterministic engine, and
// the wall clock only decides whether a job is declared hung — an opt-in
// knob that is off by default and off in every determinism gate. Each
// `Instant` site below allows `clippy::disallowed_types` with this reason.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
#[allow(
    clippy::disallowed_types,
    reason = "deadlines are wall-clock; the clock never feeds a result"
)]
use std::time::{Duration, Instant};

use crate::exec::panic_message;

/// Cooperative cancellation handle shared between a supervisor and its
/// caller: cancelling stops *admission* of new jobs; jobs already running
/// finish normally and are recorded.
///
/// # Examples
///
/// ```
/// use fpb_sim::supervise::CancelToken;
///
/// let t = CancelToken::new();
/// assert!(!t.is_cancelled());
/// t.cancel();
/// assert!(t.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Worker-count and deadline policy for a supervised map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Worker threads (`<= 1` still isolates panics, on one worker).
    pub jobs: usize,
    /// Per-job wall-clock deadline. `None` disables the watchdog
    /// entirely.
    pub deadline_ms: Option<u64>,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            jobs: 1,
            deadline_ms: None,
        }
    }
}

/// Terminal outcome of one supervised job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed.
    Ok,
    /// Panicked and was quarantined.
    Panicked {
        /// The panic payload.
        message: String,
    },
    /// Exceeded the per-job deadline and was quarantined; its thread may
    /// still be running (threads cannot be preempted), but its slot is
    /// resolved and a replacement worker keeps the pool at strength.
    TimedOut {
        /// The deadline that was exceeded, in milliseconds.
        deadline_ms: u64,
    },
    /// Never started: admission stopped (cancellation) before this job
    /// was claimed.
    Skipped,
}

impl JobOutcome {
    /// True for outcomes that produced a result.
    pub fn succeeded(&self) -> bool {
        matches!(self, JobOutcome::Ok)
    }

    /// True for outcomes parked on the quarantine list (poisoned jobs
    /// reported at the end of the run instead of aborting it).
    pub fn quarantined(&self) -> bool {
        matches!(
            self,
            JobOutcome::Panicked { .. } | JobOutcome::TimedOut { .. }
        )
    }

    /// Stable lowercase class name (used by reports and JSON).
    pub fn class(&self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::TimedOut { .. } => "timed_out",
            JobOutcome::Skipped => "skipped",
        }
    }
}

impl std::fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOutcome::Ok => write!(f, "ok"),
            JobOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            JobOutcome::TimedOut { deadline_ms } => {
                write!(f, "exceeded the {deadline_ms}ms deadline")
            }
            JobOutcome::Skipped => write!(f, "skipped (cancelled before it started)"),
        }
    }
}

/// Result of a supervised map: per-input results (in input order) plus
/// the outcome taxonomy of every slot.
#[derive(Debug)]
pub struct SuperviseReport<R> {
    /// One entry per input, in input order; `None` for quarantined or
    /// skipped jobs.
    pub results: Vec<Option<R>>,
    /// One terminal outcome per input, in input order.
    pub outcomes: Vec<JobOutcome>,
    /// True if the run was cancelled before every job was admitted.
    pub cancelled: bool,
}

impl<R> SuperviseReport<R> {
    /// Indices and outcomes of quarantined jobs, in input order.
    pub fn quarantine(&self) -> Vec<(usize, &JobOutcome)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.quarantined())
            .collect()
    }

    /// Number of outcomes in the given class (see [`JobOutcome::class`]).
    pub fn count(&self, class: &str) -> usize {
        self.outcomes.iter().filter(|o| o.class() == class).count()
    }
}

/// Per-slot supervision state, shared between workers and the watchdog.
#[derive(Debug)]
#[allow(
    clippy::disallowed_types,
    reason = "deadlines are wall-clock; the clock never feeds a result"
)]
enum Slot {
    /// Not yet claimed by a worker.
    Idle,
    /// Claimed; `started` starts the deadline clock.
    Running { started: Instant },
    /// Terminal: a result, failure, timeout, or skip has been recorded.
    /// Late results for a resolved slot are discarded.
    Resolved,
}

/// One terminal event per slot, sent to the collector.
#[derive(Debug)]
enum Event<R> {
    Done { index: usize, value: R },
    Failed { index: usize, message: String },
    TimedOut { index: usize },
    Skipped { index: usize },
}

/// Locks a slot, riding through poisoning: slot state is a plain enum
/// and every transition is valid to observe, so a worker that panicked
/// between `lock` and unlock (impossible today — no panicking calls are
/// made under the lock) would still leave usable state.
fn lock_slot(slot: &Mutex<Slot>) -> std::sync::MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared context cloned into every worker thread.
struct WorkerCtx<T, R, F> {
    items: Arc<Vec<T>>,
    f: Arc<F>,
    slots: Arc<Vec<Mutex<Slot>>>,
    next: Arc<AtomicUsize>,
    /// Execution-order permutation: cursor position `k` runs item
    /// `schedule[k]`. `None` = input order. Results and outcomes are
    /// always reported by *item* index, so the schedule is invisible in
    /// the output — it only changes which jobs start first.
    schedule: Arc<Option<Vec<usize>>>,
    cancel: CancelToken,
    tx: Sender<Event<R>>,
}

impl<T, R, F> WorkerCtx<T, R, F> {
    /// The item index at cursor position `k`.
    fn item_at(&self, k: usize) -> usize {
        self.schedule.as_ref().as_ref().map_or(k, |s| s[k])
    }
}

impl<T, R, F> Clone for WorkerCtx<T, R, F> {
    fn clone(&self) -> Self {
        WorkerCtx {
            items: Arc::clone(&self.items),
            f: Arc::clone(&self.f),
            slots: Arc::clone(&self.slots),
            next: Arc::clone(&self.next),
            schedule: Arc::clone(&self.schedule),
            cancel: self.cancel.clone(),
            tx: self.tx.clone(),
        }
    }
}

/// Maps `f` over `items` on up to `policy.jobs` worker threads with full
/// supervision: panic isolation, optional per-job deadlines, quarantine,
/// and cooperative cancellation. Results come back in input order.
///
/// `order`, when given, is the execution order: cursor position `k`
/// runs item `order[k]`, so callers can start expensive items first (the
/// sweep passes a descending-cost schedule). Results, outcomes, and
/// `on_complete` indices are always by *item* index — the order changes
/// scheduling, never output. An `order` of the wrong length is ignored
/// in favor of input order.
///
/// `on_complete(index, &result)` runs on the *caller's* thread as each
/// job completes (in completion order, not input order) — the durable
/// journal hook: by the time the map returns, every completed result has
/// been offered to the callback.
///
/// The supervisor asserts unwind safety on the basis that a panicked
/// job's partial state is discarded wholesale with the job itself (each
/// call of `f` builds whatever state it needs from its item).
///
/// A job that hangs forever with no deadline configured hangs the map —
/// set [`SupervisePolicy::deadline_ms`] when jobs are not trusted to
/// terminate. A timed-out job's thread cannot be killed; it is abandoned
/// (its eventual result is discarded) and a replacement worker is
/// spawned so pool strength is maintained.
pub fn supervise_map_ordered<T, R, F>(
    items: Vec<T>,
    policy: &SupervisePolicy,
    cancel: &CancelToken,
    order: Option<Vec<usize>>,
    f: F,
    mut on_complete: impl FnMut(usize, &R),
) -> SuperviseReport<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    if n == 0 {
        return SuperviseReport {
            results: Vec::new(),
            outcomes: Vec::new(),
            cancelled: cancel.is_cancelled(),
        };
    }
    let schedule = order.filter(|o| o.len() == n);
    let (tx, rx) = channel::<Event<R>>();
    let ctx = WorkerCtx {
        items: Arc::new(items),
        f: Arc::new(f),
        slots: Arc::new((0..n).map(|_| Mutex::new(Slot::Idle)).collect()),
        next: Arc::new(AtomicUsize::new(0)),
        schedule: Arc::new(schedule),
        cancel: cancel.clone(),
        tx,
    };
    // Clamp to the machine's cores like the unsupervised pool does:
    // oversubscribed simulation threads only timeslice, never help.
    let workers = crate::exec::effective_workers(policy.jobs, n);
    for _ in 0..workers {
        spawn_worker(ctx.clone());
    }

    // Watchdog: scans running slots against the deadline; a trip resolves
    // the slot, reports the timeout, and replaces the (possibly hung)
    // worker. Exits once the collector has resolved every slot.
    let done = Arc::new(AtomicBool::new(false));
    if let Some(deadline_ms) = policy.deadline_ms {
        let wd_ctx = ctx.clone();
        let wd_done = Arc::clone(&done);
        let deadline = Duration::from_millis(deadline_ms);
        std::thread::spawn(move || {
            while !wd_done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
                for (i, slot) in wd_ctx.slots.iter().enumerate() {
                    let tripped = {
                        let mut s = lock_slot(slot);
                        match *s {
                            Slot::Running { started } if started.elapsed() >= deadline => {
                                *s = Slot::Resolved;
                                true
                            }
                            _ => false,
                        }
                    };
                    if tripped {
                        // The worker on this job may be hung; keep the
                        // pool at strength and report the timeout.
                        spawn_worker(wd_ctx.clone());
                        if wd_ctx.tx.send(Event::TimedOut { index: i }).is_err() {
                            return; // collector gone
                        }
                    }
                }
            }
        });
    }
    drop(ctx); // collector keeps no sender: rx drains until all slots resolve

    // Collector: exactly one terminal event arrives per slot (duplicates
    // from the timeout-vs-completion race are filtered by `resolved`).
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut outcomes: Vec<JobOutcome> = vec![JobOutcome::Skipped; n];
    let mut resolved = vec![false; n];
    let mut remaining = n;
    while remaining > 0 {
        let Ok(ev) = rx.recv() else {
            // Every sender hung up before all slots resolved — possible
            // only if worker threads died outside catch_unwind. Record
            // the loss instead of hanging.
            for (outcome, done_flag) in outcomes.iter_mut().zip(&resolved) {
                if !done_flag {
                    *outcome = JobOutcome::Panicked {
                        message: "worker pool shut down before the job resolved".to_string(),
                    };
                }
            }
            break;
        };
        let index = match &ev {
            Event::Done { index, .. }
            | Event::Failed { index, .. }
            | Event::TimedOut { index }
            | Event::Skipped { index } => *index,
        };
        if resolved[index] {
            continue;
        }
        resolved[index] = true;
        remaining -= 1;
        match ev {
            Event::Done { value, .. } => {
                on_complete(index, &value);
                outcomes[index] = JobOutcome::Ok;
                results[index] = Some(value);
            }
            Event::Failed { message, .. } => {
                outcomes[index] = JobOutcome::Panicked { message };
            }
            Event::TimedOut { .. } => {
                outcomes[index] = JobOutcome::TimedOut {
                    deadline_ms: policy.deadline_ms.unwrap_or(0),
                };
            }
            Event::Skipped { .. } => outcomes[index] = JobOutcome::Skipped,
        }
    }
    done.store(true, Ordering::SeqCst);
    SuperviseReport {
        results,
        outcomes,
        cancelled: cancel.is_cancelled(),
    }
}

/// Spawns one detached worker: claim the next index, run it under
/// supervision, repeat until the cursor runs out. Detached because a
/// worker stuck in a hung job must be abandonable — the collector
/// tracks slot resolution, not thread exit.
fn spawn_worker<T, R, F>(ctx: WorkerCtx<T, R, F>)
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    std::thread::spawn(move || {
        loop {
            // ORDER: fetch_add only hands out unique indices; slot
            // results synchronize through their own Mutexes, not here.
            let k = ctx.next.fetch_add(1, Ordering::Relaxed);
            if k >= ctx.items.len() {
                return;
            }
            let i = ctx.item_at(k);
            if ctx.cancel.is_cancelled() {
                // Admission stopped: resolve the claimed slot as skipped
                // and keep draining the cursor so the collector finishes
                // promptly.
                let mut s = lock_slot(&ctx.slots[i]);
                if !matches!(*s, Slot::Resolved) {
                    *s = Slot::Resolved;
                    drop(s);
                    if ctx.tx.send(Event::Skipped { index: i }).is_err() {
                        return;
                    }
                }
                continue;
            }
            run_one(&ctx, i);
        }
    });
}

/// Runs job `i` once and resolves its slot with the result or the
/// panic — unless a watchdog timeout resolved the slot while the job ran,
/// in which case the late outcome is discarded.
#[allow(
    clippy::disallowed_types,
    reason = "deadlines are wall-clock; the clock never feeds a result"
)]
fn run_one<T, R, F>(ctx: &WorkerCtx<T, R, F>, i: usize)
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    {
        let mut s = lock_slot(&ctx.slots[i]);
        match *s {
            Slot::Idle => {
                *s = Slot::Running {
                    started: Instant::now(),
                }
            }
            // Resolved (or somehow already running): nothing to do.
            _ => return,
        }
    }
    // The closure only borrows `f` and one item, and a panicking job's
    // partial state is discarded with it, so crossing the unwind
    // boundary cannot expose broken invariants.
    let event = match catch_unwind(AssertUnwindSafe(|| (ctx.f)(i, &ctx.items[i]))) {
        Ok(value) => Event::Done { index: i, value },
        Err(payload) => Event::Failed {
            index: i,
            message: panic_message(payload.as_ref()),
        },
    };
    let mut s = lock_slot(&ctx.slots[i]);
    if matches!(*s, Slot::Resolved) {
        return; // timed out while running: discard
    }
    *s = Slot::Resolved;
    drop(s);
    let _ = ctx.tx.send(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(jobs: usize) -> SupervisePolicy {
        SupervisePolicy {
            jobs,
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn clean_map_matches_plain_results_in_order() {
        for jobs in [1, 4] {
            let items: Vec<u64> = (0..23).collect();
            // A wrong-length order is ignored in favor of input order.
            let bad_order = Some(vec![1, 0]);
            let r = supervise_map_ordered(
                items,
                &policy(jobs),
                &CancelToken::new(),
                bad_order,
                |i, &x| {
                    assert_eq!(i as u64, x);
                    x * 3
                },
                |_, _| {},
            );
            assert!(!r.cancelled);
            assert_eq!(r.count("ok"), 23);
            let vals: Vec<u64> = r.results.into_iter().map(Option::unwrap).collect();
            assert_eq!(vals, (0..23).map(|x| x * 3).collect::<Vec<_>>());
            assert!(r.outcomes.iter().all(|o| *o == JobOutcome::Ok));
        }
    }

    #[test]
    fn deterministic_panic_is_quarantined_without_aborting() {
        let items: Vec<u32> = (0..8).collect();
        let r = supervise_map_ordered(
            items,
            &policy(2),
            &CancelToken::new(),
            None,
            |_, &x| {
                assert!(x != 5, "boom at five");
                x + 1
            },
            |_, _| {},
        );
        assert_eq!(r.count("panicked"), 1);
        assert_eq!(r.count("ok"), 7);
        let q = r.quarantine();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, 5);
        let JobOutcome::Panicked { message } = q[0].1 else {
            panic!("expected Panicked, got {:?}", q[0].1)
        };
        assert!(message.contains("boom at five"), "message: {message}");
        assert!(r.results[5].is_none());
        assert_eq!(r.results[4], Some(5));
    }

    #[test]
    fn hung_job_times_out_and_rest_of_grid_completes() {
        let items: Vec<u32> = (0..5).collect();
        let p = SupervisePolicy {
            deadline_ms: Some(40),
            ..policy(1) // one worker: the replacement spawn is load-bearing
        };
        let r = supervise_map_ordered(
            items,
            &p,
            &CancelToken::new(),
            None,
            |_, &x| {
                if x == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                x * 10
            },
            |_, _| {},
        );
        assert_eq!(r.outcomes[1], JobOutcome::TimedOut { deadline_ms: 40 });
        assert!(r.results[1].is_none());
        for i in [0usize, 2, 3, 4] {
            assert_eq!(r.results[i], Some(i as u32 * 10), "point {i} must complete");
        }
    }

    #[test]
    fn cancel_skips_unstarted_jobs() {
        // Cancel from inside the third job itself: with one worker the
        // claim order is deterministic, so jobs 0..=2 complete and every
        // later job is admitted after the token flips.
        let items: Vec<u32> = (0..10).collect();
        let cancel = CancelToken::new();
        let c2 = cancel.clone();
        let r = supervise_map_ordered(
            items,
            &policy(1),
            &cancel,
            None,
            move |_, &x| {
                if x == 2 {
                    c2.cancel();
                }
                x
            },
            |_, _| {},
        );
        assert!(r.cancelled);
        assert_eq!(r.count("ok"), 3);
        assert_eq!(r.count("skipped"), 7);
        assert_eq!(r.results[0], Some(0));
        assert_eq!(r.results[2], Some(2));
        assert!(r.results[3].is_none());
    }

    #[test]
    fn on_complete_sees_every_completed_result() {
        let items: Vec<u64> = (0..12).collect();
        let seen = std::cell::RefCell::new(Vec::new());
        let r = supervise_map_ordered(
            items,
            &policy(3),
            &CancelToken::new(),
            None,
            |_, &x| x + 100,
            |i, v: &u64| seen.borrow_mut().push((i, *v)),
        );
        assert_eq!(r.count("ok"), 12);
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..12).map(|i| (i as usize, i + 100)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_input() {
        let r = supervise_map_ordered(
            Vec::<u32>::new(),
            &policy(4),
            &CancelToken::new(),
            None,
            |_, &x| x,
            |_, _| {},
        );
        assert!(r.results.is_empty() && r.outcomes.is_empty());
    }

    #[test]
    fn outcome_classes_and_predicates() {
        let ok = JobOutcome::Ok;
        let panicked = JobOutcome::Panicked {
            message: "x".into(),
        };
        let timed = JobOutcome::TimedOut { deadline_ms: 5 };
        let skipped = JobOutcome::Skipped;
        assert!(ok.succeeded());
        assert!(!panicked.succeeded() && !timed.succeeded() && !skipped.succeeded());
        assert!(panicked.quarantined() && timed.quarantined());
        assert!(!ok.quarantined() && !skipped.quarantined());
        assert_eq!(
            [&ok, &panicked, &timed, &skipped].map(|o| o.class()),
            ["ok", "panicked", "timed_out", "skipped"]
        );
        assert_eq!(panicked.to_string(), "panicked: x");
    }
}
