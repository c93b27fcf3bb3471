//! Stress the fan-out and its core budget through the public API.
//!
//! Every test holds one lock, so each sees the whole process-wide budget:
//! a concurrently running test would otherwise hold permits and make the
//! budget observations racy. On a single-core host the budget is empty
//! and every map runs inline; the spawn path itself is covered on any
//! host by the unit tests in `src/pool.rs`.

use mcmap_eval::{parallel_map, parallel_map_caught, parallel_map_timed, pool_capacity};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The number of participants a map with `threads = pool_capacity()` gets,
/// which is all of them exactly when no permit is lent out.
fn participants_available() -> usize {
    let items: Vec<u32> = (0..256).collect();
    parallel_map_timed(&items, pool_capacity(), |x| x + 1)
        .1
        .len()
}

#[test]
fn helpers_preserve_order_and_coverage_under_load() {
    let _lock = exclusive();
    for round in 0..50u64 {
        let items: Vec<u64> = (0..257).map(|i| i * 31 + round).collect();
        let expect: Vec<u64> = items.iter().map(|x| x ^ 0xA5A5).collect();
        assert_eq!(parallel_map(&items, 4, |x| x ^ 0xA5A5), expect);
    }
}

#[test]
fn helpers_account_every_item_exactly_once() {
    let _lock = exclusive();
    let calls = AtomicUsize::new(0);
    let items: Vec<u32> = (0..1000).collect();
    let (out, loads) = parallel_map_timed(&items, 4, |x| {
        calls.fetch_add(1, Ordering::Relaxed);
        x + 1
    });
    assert_eq!(out.len(), 1000);
    assert_eq!(calls.load(Ordering::Relaxed), 1000);
    assert_eq!(loads.iter().map(|l| l.items).sum::<u64>(), 1000);
    assert!(loads.len() <= pool_capacity().min(4));
}

#[test]
fn helper_panics_propagate_and_the_pool_survives() {
    let _lock = exclusive();
    for _ in 0..20 {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&(0..64).collect::<Vec<u32>>(), 4, |x| {
                assert!(*x != 40, "boom at {x}");
                *x
            })
        });
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("boom at 40"));
        // The fan-out still answers cleanly after the unwind.
        assert_eq!(parallel_map(&[1u8, 2, 3], 4, |x| x * 2), vec![2, 4, 6]);
    }
}

#[test]
fn a_panicking_item_returns_its_permits() {
    let _lock = exclusive();
    assert_eq!(participants_available(), pool_capacity());
    let items: Vec<u32> = (0..256).collect();
    let _ = std::panic::catch_unwind(|| {
        parallel_map(&items, pool_capacity(), |x| {
            assert!(*x != 200, "poison");
            *x
        })
    });
    let _ = parallel_map_caught(&items, pool_capacity(), |x| {
        assert!(*x != 100, "poison");
        *x
    });
    assert_eq!(
        participants_available(),
        pool_capacity(),
        "every permit is back in the budget"
    );
}

#[test]
fn caught_map_with_helpers_isolates_failures_per_item() {
    let _lock = exclusive();
    let items: Vec<u32> = (0..200).collect();
    let out = parallel_map_caught(&items, 4, |x| {
        assert!(x % 13 != 5, "poisoned {x}");
        x * 3
    });
    for (i, r) in out.iter().enumerate() {
        if i % 13 == 5 {
            assert!(r.is_err());
        } else {
            assert_eq!(*r.as_ref().unwrap(), i as u32 * 3);
        }
    }
}

#[test]
fn nested_maps_share_the_helper_budget_without_deadlock() {
    let _lock = exclusive();
    // Outer×inner fan-out much wider than the budget: inner maps run
    // (mostly) inline instead of deadlocking or oversubscribing.
    let outer: Vec<u64> = (0..24).collect();
    let result = parallel_map(&outer, 4, |&o| {
        let inner: Vec<u64> = (0..100).collect();
        parallel_map(&inner, 4, |&i| o * 1000 + i)
            .iter()
            .sum::<u64>()
    });
    let expect: Vec<u64> = outer.iter().map(|&o| o * 1000 * 100 + 4950).collect();
    assert_eq!(result, expect);
}

#[test]
fn nested_maps_never_run_more_threads_than_the_capacity() {
    let _lock = exclusive();
    // A thread runs one innermost closure at a time, so the number of
    // innermost closures running at once counts the live threads.
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let outer: Vec<u64> = (0..16).collect();
    let result = parallel_map(&outer, 8, |&o| {
        let inner: Vec<u64> = (0..64).collect();
        parallel_map(&inner, 8, |&i| {
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(50));
            live.fetch_sub(1, Ordering::SeqCst);
            o * 100 + i
        })
        .iter()
        .sum::<u64>()
    });
    let expect: Vec<u64> = outer.iter().map(|&o| o * 100 * 64 + 2016).collect();
    assert_eq!(result, expect);
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        (1..=pool_capacity()).contains(&peak),
        "{peak} threads ran mapped closures at once, capacity {}",
        pool_capacity()
    );
}

#[test]
fn many_small_batches_reuse_the_pool() {
    let _lock = exclusive();
    // Thousands of small batches, each spawning and joining its workers:
    // a correctness smoke (the timing claim lives in the benches).
    for round in 0..2000u64 {
        let items = [round, round + 1, round + 2, round + 3];
        let out = parallel_map(&items, 4, |x| x * 2);
        assert_eq!(
            out,
            vec![round * 2, round * 2 + 2, round * 2 + 4, round * 2 + 6]
        );
    }
}
