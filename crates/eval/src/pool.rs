//! The deterministic fan-out.
//!
//! [`parallel_map`] runs the calling thread plus up to `threads − 1`
//! `std::thread::scope` workers. Participants claim size-adaptive chunks
//! of the input through one atomic cursor, each returns its `(start,
//! values)` chunks, and the caller gathers them in input order: output
//! position `i` always holds `f(&items[i])`, whichever thread computed it,
//! so the result is the same for any thread count.
//!
//! Spawned workers draw on one process-wide **core budget** of
//! `available_parallelism() − 1` spare threads. A call takes what it can
//! get, up to `threads − 1` permits, and returns them when it ends, also
//! when it unwinds. A call that gets no permit runs inline. So nested
//! fan-out (batch-level `--threads` around scenario-level
//! `--scenario-threads`) and concurrent callers (the job server's workers)
//! share the cores instead of oversubscribing them, and no call ever waits
//! for a permit, so none can deadlock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What one participant (the caller or a spawned worker) contributed to a
/// [`parallel_map_timed`] run: how long it spent inside the claim loop and
/// how many items it completed. The per-worker busy/wall ratio is the
/// scatter-loss diagnostic surfaced through `EvalStats` — a parallel batch
/// whose workers show near-zero busy time paid the fan-out for nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerLoad {
    /// Nanoseconds this participant spent claiming and evaluating items.
    pub busy_nanos: u64,
    /// Items this participant completed.
    pub items: u64,
}

/// The process-wide count of spare threads not lent to any running call.
fn spare_threads() -> &'static AtomicUsize {
    static SPARE: OnceLock<AtomicUsize> = OnceLock::new();
    SPARE.get_or_init(|| AtomicUsize::new(hardware_threads() - 1))
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Up to `wanted` threads borrowed from a budget, given back on drop.
struct Permits<'a> {
    budget: &'a AtomicUsize,
    count: usize,
}

impl<'a> Permits<'a> {
    fn take(budget: &'a AtomicUsize, wanted: usize) -> Self {
        let (Ok(free) | Err(free)) =
            budget.fetch_update(Ordering::AcqRel, Ordering::Acquire, |free| {
                Some(free - wanted.min(free))
            });
        Permits {
            budget,
            count: wanted.min(free),
        }
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        self.budget.fetch_add(self.count, Ordering::AcqRel);
    }
}

/// The chunk size of one cursor claim: coarse enough that cheap items
/// amortize the atomic traffic, fine enough that expensive items cannot
/// serialize behind a bad static partition (at most 1/8 of an even share
/// rides on one claim).
fn chunk_size(items: usize, participants: usize) -> usize {
    (items / (participants * 8)).clamp(1, 1024)
}

/// Maps `f` over `items` on the calling thread plus exactly `helpers`
/// scoped workers (none: inline). Entry 0 of the ledger is the caller's.
///
/// A panic in `f` is resumed on the calling thread with its payload once
/// every worker has stopped.
fn fan_out<T, V, F>(items: &[T], helpers: usize, f: &F) -> (Vec<V>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    if helpers == 0 {
        let t0 = Instant::now();
        let out: Vec<V> = items.iter().map(f).collect();
        let load = WorkerLoad {
            busy_nanos: t0.elapsed().as_nanos() as u64,
            items: items.len() as u64,
        };
        return (out, vec![load]);
    }

    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(items.len(), helpers + 1);
    let claim = || {
        let t0 = Instant::now();
        let mut chunks: Vec<(usize, Vec<V>)> = Vec::new();
        let mut completed = 0u64;
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            chunks.push((start, items[start..end].iter().map(f).collect()));
            completed += (end - start) as u64;
        }
        let load = WorkerLoad {
            busy_nanos: t0.elapsed().as_nanos() as u64,
            items: completed,
        };
        (chunks, load)
    };
    let parts = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        let mut parts = vec![claim()];
        for worker in workers {
            match worker.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts
    });

    let loads = parts.iter().map(|(_, load)| *load).collect();
    let mut chunks: Vec<(usize, Vec<V>)> = parts.into_iter().flat_map(|(c, _)| c).collect();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let out = chunks.into_iter().flat_map(|(_, values)| values).collect();
    (out, loads)
}

/// Maps `f` over `items` on the calling thread plus spawned workers (up to
/// `threads` participants total) and returns the results in input order.
///
/// Work is claimed through a shared atomic cursor in size-adaptive chunks,
/// so expensive items do not serialize behind a bad static partition.
/// Results are gathered by input position, which makes the output
/// **independent of scheduling**: for a pure `f`, any thread count
/// produces the same vector.
///
/// `threads == 0` means "one per available core"; the effective count is
/// also clamped to `items.len()` and to the spare threads left in the core
/// budget. With one effective participant — e.g. inside a nested
/// `parallel_map` that finds the budget spent — the map runs inline.
///
/// # Panics
///
/// A panic in `f` is resumed on the calling thread with its original
/// payload.
///
/// # Examples
///
/// ```
/// let doubled = mcmap_eval::parallel_map(&[1, 2, 3, 4], 8, |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub fn parallel_map<T, V, F>(items: &[T], threads: usize, f: F) -> Vec<V>
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    parallel_map_timed(items, threads, f).0
}

/// [`parallel_map`] plus the per-participant [`WorkerLoad`] ledger: entry
/// `i` reports how long participant `i` (0 = the calling thread) spent in
/// the claim loop and how many items it completed. The ledger is a timing
/// observation — its values are **not** deterministic across runs, only the
/// result vector is.
pub fn parallel_map_timed<T, V, F>(items: &[T], threads: usize, f: F) -> (Vec<V>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    let threads = effective_threads(threads, items.len());
    let permits = Permits::take(spare_threads(), threads - 1);
    fan_out(items, permits.count, &f)
}

/// The per-item outcome of a caught map: the computed value, or the raw
/// panic payload `f` unwound with for that item.
pub type CaughtResult<V> = Result<V, Box<dyn std::any::Any + Send>>;

/// The fault-isolated sibling of [`parallel_map`]: a panic in `f` is
/// caught *per item* instead of unwinding the whole map, so one poisoned
/// candidate cannot take down a long batch.
///
/// Returns, in input order, `Ok(value)` for items that evaluated and
/// `Err(payload)` — the raw panic payload — for items whose `f` panicked.
/// Participants survive their items' panics and keep claiming work.
///
/// # Examples
///
/// ```
/// let out = mcmap_eval::parallel_map_caught(&[1, 2, 3], 2, |x| {
///     assert!(*x != 2, "poisoned");
///     x * 10
/// });
/// assert_eq!(out[0].as_ref().unwrap(), &10);
/// assert!(out[1].is_err());
/// assert_eq!(out[2].as_ref().unwrap(), &30);
/// ```
pub fn parallel_map_caught<T, V, F>(items: &[T], threads: usize, f: F) -> Vec<CaughtResult<V>>
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    parallel_map_caught_timed(items, threads, f).0
}

/// [`parallel_map_caught`] with the per-participant [`WorkerLoad`] ledger
/// of [`parallel_map_timed`].
pub fn parallel_map_caught_timed<T, V, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> (Vec<CaughtResult<V>>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    // AssertUnwindSafe: the worst a caught panic can leave behind is a
    // torn memo-cache insert, and the engine never caches failed items —
    // callers observe either a completed value or an Err, nothing partial.
    parallel_map_timed(items, threads, |item: &T| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
    })
}

/// Number of participants a fan-out can use: the calling thread plus one
/// spare thread per additional core. A host reports capacity `n` even
/// while the budget is lent out — nested runs then run inline instead of
/// spawning anything.
pub fn pool_capacity() -> usize {
    hardware_threads()
}

/// Resolves the requested thread count: 0 = available parallelism, and
/// never more threads than items.
pub(crate) fn effective_threads(requested: usize, items: usize) -> usize {
    let t = if requested == 0 {
        hardware_threads()
    } else {
        requested
    };
    t.clamp(1, items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map(&items, threads, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..50).collect();
        let _ = parallel_map(&items, 4, |_| calls.fetch_add(1, Ordering::Relaxed));
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(&[] as &[u8], 4, |x| *x), Vec::<u8>::new());
        assert_eq!(parallel_map(&[7u8], 4, |x| *x + 1), vec![8]);
        assert_eq!(fan_out(&[] as &[u8], 3, &|x: &u8| *x).0, Vec::<u8>::new());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(16, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(1, 0), 1);
    }

    #[test]
    fn chunks_scale_with_batch_shape() {
        assert_eq!(chunk_size(24, 4), 1, "small batches claim singly");
        assert_eq!(chunk_size(256, 2), 16);
        assert_eq!(chunk_size(1 << 20, 2), 1024, "chunks stay bounded");
    }

    #[test]
    fn spawned_helpers_preserve_order_and_account_every_item() {
        // Explicit helper counts exercise the spawn path on any host,
        // single-core ones included.
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x ^ 0xA5A5).collect();
        for helpers in [0, 1, 3, 7] {
            let (out, loads) = fan_out(&items, helpers, &|x: &u64| x ^ 0xA5A5);
            assert_eq!(out, expect, "{helpers} helpers");
            assert_eq!(loads.len(), helpers + 1);
            assert_eq!(loads.iter().map(|l| l.items).sum::<u64>(), 1000);
        }
    }

    #[test]
    fn a_helper_panic_resumes_with_its_payload() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            fan_out(&items, 3, &|x: &u32| {
                assert!(*x != 40, "boom at {x}");
                *x
            })
        });
        let payload = result.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("boom at 40"), "got: {msg}");
    }

    #[test]
    fn permits_are_capped_by_the_budget_and_returned_on_unwind() {
        let budget = AtomicUsize::new(3);
        {
            let a = Permits::take(&budget, 2);
            let b = Permits::take(&budget, 2);
            let c = Permits::take(&budget, 2);
            assert_eq!((a.count, b.count, c.count), (2, 1, 0));
            assert_eq!(budget.load(Ordering::Relaxed), 0);
        }
        assert_eq!(budget.load(Ordering::Relaxed), 3);
        let _ = std::panic::catch_unwind(|| {
            let permits = Permits::take(&budget, 3);
            fan_out(&[1u8, 2, 3, 4], permits.count, &|x: &u8| {
                assert!(*x != 3, "poison");
                *x
            })
        });
        assert_eq!(
            budget.load(Ordering::Relaxed),
            3,
            "the unwind gave them back"
        );
    }

    #[test]
    fn timed_variant_accounts_every_item_to_a_participant() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 4] {
            let (out, loads) = parallel_map_timed(&items, threads, |x| x + 1);
            assert_eq!(out.len(), 500);
            assert!(!loads.is_empty() && loads.len() <= threads.max(1));
            let total: u64 = loads.iter().map(|l| l.items).sum();
            assert_eq!(total, 500, "the ledger accounts every item");
        }
    }

    #[test]
    fn caught_variant_isolates_panics_per_item() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 4] {
            let out = parallel_map_caught(&items, threads, |x| {
                assert!(x % 7 != 3, "poisoned item {x}");
                x * 2
            });
            assert_eq!(out.len(), 40);
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let payload = r.as_ref().expect_err("poisoned items fail");
                    let msg = payload.downcast_ref::<String>().unwrap();
                    assert!(msg.contains(&format!("poisoned item {i}")));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[1, 2, 3], 2, |x| {
                assert!(*x != 2, "boom at {x}");
                *x
            })
        });
        let payload = result.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert! payload is a String");
        assert!(msg.contains("boom at 2"), "got: {msg}");
    }

    #[test]
    fn pool_survives_a_panicking_run() {
        // A panic in one run must not leak its permits: the next run still
        // completes normally.
        let _ = std::panic::catch_unwind(|| {
            parallel_map(&[1u8, 2, 3, 4], 4, |x| {
                assert!(*x != 3, "poison");
                *x
            })
        });
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 4, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_fan_out_composes_without_deadlock() {
        // An inner parallel_map issued from inside an outer one must
        // complete (inline once the budget is spent). 16 outer items each
        // fanning out 32 inner items.
        let outer: Vec<u64> = (0..16).collect();
        let result = parallel_map(&outer, 4, |&o| {
            let inner: Vec<u64> = (0..32).collect();
            parallel_map(&inner, 4, |&i| o * 100 + i)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = outer.iter().map(|&o| o * 100 * 32 + 496).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn pool_capacity_reports_at_least_the_caller() {
        assert!(pool_capacity() >= 1);
    }
}
