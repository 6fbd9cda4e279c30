//! A minimal worker pool for short, embarrassingly parallel maps.
//!
//! Independent, deterministic computations (per-workload runs, the
//! per-core warm-ups of one warm set) need only one guarantee from a
//! parallel map: results come back *in input order* regardless of which
//! worker finished first. This module provides exactly that on scoped
//! threads — no dependencies, no channels, no unsafe. Workers claim one
//! index per `fetch_add` on a shared cursor and store each result in
//! that index's slot.
//!
//! Worker counts are clamped to the machine's available parallelism:
//! requesting `--jobs 4` on a 1-core container would otherwise
//! timeslice four threads over one core and run *slower* than serial
//! (measured 0.612x before the clamp; see DESIGN.md's threading-model
//! section).
//!
//! Pools never nest. The workers a map spawns mark their thread, and
//! [`effective_workers`] is 1 on a marked thread, so a map started from
//! inside another map runs inline on that worker (nested parallelism
//! off, OpenMP's default). The sweep warms several warm sets at once
//! and each set's cores inline; a single set warms its cores on the
//! pool. A map that runs inline does not mark its caller.
//!
//! Panic handling: every item runs under `catch_unwind`, and the panic
//! re-raised on the caller's thread names the lowest failing slot and
//! its payload. Sweeps, which must outlive a panicking point, run on
//! [`crate::supervise`] instead: panic isolation, deadlines, and
//! cancellation.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set on the worker threads [`parallel_map_indexed`] spawns, for
    /// their whole (scoped) life.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The default worker count: the machine's available parallelism, or 1
/// when that cannot be determined (e.g. restricted sandboxes).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker-thread count actually spawned for `jobs` requested jobs
/// over `items` items: never more threads than items (idle from birth)
/// and never more than the machine's logical cores (oversubscription —
/// timeslicing simulation threads over too few cores is strictly slower
/// than not spawning them). On a [`parallel_map_indexed`] worker it is 1,
/// so pools never nest.
pub fn effective_workers(jobs: usize, items: usize) -> usize {
    if ON_POOL_WORKER.with(Cell::get) {
        return 1;
    }
    jobs.max(1).min(items.max(1)).min(default_jobs())
}

/// Builds an execution schedule from per-item cost estimates: item
/// indices stably sorted by descending cost, so the most expensive
/// items are claimed first (classic LPT-style list scheduling). Ties
/// keep input order, making the schedule deterministic.
pub fn schedule_by_cost(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

/// Renders a panic payload as text: `&str` and `String` payloads (what
/// `panic!`/`assert!` produce) come through verbatim, anything else as a
/// placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order. With one effective worker (always the case on
/// one of this pool's own workers) the map runs inline on the caller's
/// thread.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller once all workers have
/// stopped, as `worker panicked at slot N: <payload>`. Workers race, so
/// which items *ran* after a panic is nondeterministic, but the reported
/// slot is not: it is the lowest failing index.
pub fn parallel_map_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    // A panicking call's partial state is discarded with the call, so
    // nothing outside it can observe a broken invariant.
    let run = |i: usize| -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| {
            format!(
                "worker panicked at slot {i}: {}",
                panic_message(payload.as_ref())
            )
        })
    };
    let workers = effective_workers(jobs, n);
    let results: Result<Vec<R>, String> = if workers <= 1 {
        (0..n).map(run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    ON_POOL_WORKER.with(|w| w.set(true));
                    loop {
                        // ORDER: the cursor is a pure claim counter — no
                        // data is published through it; results flow
                        // through the per-slot Mutexes and the scope join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = run(i);
                        if let Ok(mut slot) = slots[i].lock() {
                            *slot = Some(r);
                        }
                    }
                });
            }
        });
        // Collecting into a `Result` stops at the lowest failing index.
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                // Ride through poisoning: every state of the `Option` is
                // valid to observe, and its writers have exited.
                let value = slot
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                value.unwrap_or_else(|| {
                    Err(format!("worker panicked at slot {i}: no result was stored"))
                })
            })
            .collect()
    };
    match results {
        Ok(out) => out,
        #[expect(
            clippy::panic,
            reason = "documented contract: re-raise with the slot attached"
        )]
        Err(msg) => panic!("{msg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 4, 8, 32] {
            let out = parallel_map_indexed(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn more_jobs_than_items() {
        let items = [1u32, 2, 3];
        let out = parallel_map_indexed(&items, 64, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: [u32; 0] = [];
        let out = parallel_map_indexed(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..200).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = parallel_map_indexed(&items, 1, f);
        let parallel = parallel_map_indexed(&items, 7, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn effective_workers_clamps_to_items_and_cores() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(1, 10), 1);
        assert_eq!(effective_workers(8, 3), effective_workers(8, 3).min(3));
        assert!(effective_workers(64, 1000) <= default_jobs());
        assert!(effective_workers(64, 1000) >= 1);
        // Never more workers than items, however many cores exist.
        assert_eq!(
            effective_workers(usize::MAX, 2).min(2),
            effective_workers(usize::MAX, 2)
        );
    }

    #[test]
    fn maps_never_nest() {
        let before = effective_workers(4, 100);
        let items: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..50).collect();
        let out = parallel_map_indexed(&items, 4, |_, &x| {
            // On a pool worker (or inline on a 1-core host) a nested map
            // gets one worker, and still keeps input order.
            assert_eq!(effective_workers(4, 100), 1);
            parallel_map_indexed(&inner, 4, |_, &y| x * 100 + y)
        });
        for (x, nested) in items.iter().zip(&out) {
            let expect: Vec<u64> = inner.iter().map(|&y| x * 100 + y).collect();
            assert_eq!(nested, &expect, "x={x}");
        }
        // The caller thread was never marked.
        assert_eq!(effective_workers(4, 100), before);
    }

    #[test]
    fn schedule_by_cost_is_descending_and_stable() {
        let costs = [5u64, 9, 1, 9, 7];
        // Descending by cost; the two 9s keep input order (1 before 3).
        assert_eq!(schedule_by_cost(&costs), vec![1, 3, 4, 0, 2]);
        assert!(schedule_by_cost(&[]).is_empty());
        // Uniform costs degrade to input order.
        assert_eq!(schedule_by_cost(&[4, 4, 4]), vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_propagates_with_slot_and_message() {
        let items: Vec<u32> = (0..32).collect();
        for jobs in [1, 4] {
            let r = std::panic::catch_unwind(|| {
                parallel_map_indexed(&items, jobs, |_, &x| {
                    if x % 10 == 3 {
                        panic!("bad point {x}");
                    }
                    x
                })
            });
            let payload = r.expect_err("panic must propagate");
            assert_eq!(
                panic_message(payload.as_ref()),
                "worker panicked at slot 3: bad point 3",
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn non_string_payloads_are_placeholdered() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
