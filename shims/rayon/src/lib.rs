//! Offline stand-in for the `rayon` crate.
//!
//! The build container has no crates.io access, so this workspace ships the
//! parallel-iterator subset it uses: `into_par_iter()` on ranges and
//! vectors, with `map`, `enumerate`, `collect`, `reduce` and `for_each`.
//!
//! Unlike upstream rayon's work-stealing pool, this implementation is an
//! eager fork-join: `map` materialises its input, deals the items to one
//! strided bucket per available core (worker `w` takes items
//! `w, w + workers, …` — so neighbouring expensive items spread across
//! workers instead of piling onto one contiguous chunk), and runs the
//! buckets on `std::thread::scope` threads.
//! Nested calls (a parallel region inside a worker thread) degrade to
//! sequential execution instead of oversubscribing, which bounds the thread
//! count to one level of fan-out — the same discipline rayon's shared pool
//! enforces by construction.

#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;

/// The traits and types callers import with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter};
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    static THREAD_WORKERS: Cell<usize> = const { Cell::new(0) };
}

/// Cap the fan-out of parallel regions entered **from this thread** to at
/// most `n` workers (`0` removes the cap). A sharded serving fleet sets
/// this on each shard thread to `cores / shards`, so N shards each running
/// parallel sweeps compose to roughly one worker per core instead of N ×
/// cores oversubscription. Scope threads spawned by a parallel region do
/// not inherit the cap — they run nested regions sequentially anyway.
pub fn set_thread_workers(n: usize) {
    THREAD_WORKERS.with(|w| w.set(n));
}

/// `available_parallelism`, read once: on Linux every call re-reads the
/// cgroup CPU quota files (13–20 µs on a 2-vCPU container), and a serving
/// sweep enters a parallel region per `Linear` call.
fn cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn worker_count() -> usize {
    match THREAD_WORKERS.with(Cell::get) {
        0 => cores(),
        cap => cores().min(cap),
    }
}

/// Run `f` over `items` in parallel, preserving order.
///
/// Work is assigned to workers in a **strided** round-robin (worker `w`
/// takes items `w, w + workers, w + 2·workers, …`), not in contiguous
/// chunks. Serving sweeps order their work units by stream, so with
/// contiguous chunking one long-cache stream's expensive neighbouring
/// units all landed on a single worker while the workers holding short
/// streams sat idle; striding interleaves every stream's units across all
/// workers, which bounds the imbalance to one unit regardless of how
/// ragged the per-unit costs are.
fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = worker_count().min(n);
    if n <= 1 || workers <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let mut buckets: Vec<Vec<(usize, T)>> = (0..workers)
        .map(|_| Vec::with_capacity(n.div_ceil(workers)))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push((i, item));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<(usize, U)>>()
                })
            })
            .collect();
        let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => {
                    for (i, u) in part {
                        out[i] = Some(u);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out.into_iter()
            .map(|u| u.expect("every index produced exactly once"))
            .collect()
    })
}

/// An eager "parallel iterator" over an owned item list.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map; the work happens here, one chunk per core.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParIter {
            items: par_map(self.items, f),
        }
    }

    /// Pair every item with its index (order-preserving).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Collect the (already computed) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Fold all items into one value; `identity` seeds the fold exactly as
    /// rayon's `reduce` does.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Run `f` on every item in parallel for its side effects.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_map(self.items, f);
    }
}

/// Conversion into a [`ParIter`]; the `into_par_iter()` entry point.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;

    /// Convert into an eager parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

range_par_iter!(usize, u64, u32, i32);

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let total = (0..100u64)
            .into_par_iter()
            .map(|i| i * i)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, (0..100u64).map(|i| i * i).sum());
    }

    #[test]
    fn enumerate_then_map() {
        let v = vec!["a", "b", "c"];
        let out: Vec<String> = v
            .into_par_iter()
            .enumerate()
            .map(|(i, s)| format!("{i}{s}"))
            .collect();
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn nested_parallelism_does_not_explode() {
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                (0..64usize)
                    .into_par_iter()
                    .map(move |j| i + j)
                    .collect::<Vec<_>>()
                    .len()
            })
            .collect();
        assert!(out.iter().all(|&n| n == 64));
    }

    #[test]
    fn ragged_costs_spread_across_workers() {
        // Pathological serving-sweep cost profile: one contiguous run of
        // expensive items (a long-cache stream's work units) followed by
        // near-free ones. Under the old contiguous chunking the expensive
        // run was exactly worker 0's chunk; strided assignment must deal
        // it across at least two workers. Deterministic by construction —
        // no wall-clock measurement involved.
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;
        let workers = crate::worker_count();
        if workers < 2 {
            return; // single-core runner: nothing to spread
        }
        let n = 64usize;
        // The contiguous-chunking chunk length: the old scheme put items
        // 0..chunk_len all on the first worker. Floor of 2 so the spread
        // assertion is meaningful even on very-many-core machines.
        let chunk_len = n.div_ceil(workers.min(n)).max(2);
        let expensive_threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let out: Vec<u64> = (0..n)
            .into_par_iter()
            .map(|i| {
                if i < chunk_len {
                    expensive_threads
                        .lock()
                        .unwrap()
                        .insert(std::thread::current().id());
                    (0..10_000u64).fold(i as u64, |a, b| a ^ b.wrapping_mul(31))
                } else {
                    i as u64
                }
            })
            .collect();
        assert_eq!(out.len(), n, "order-preserving output intact");
        assert!(
            expensive_threads.lock().unwrap().len() >= 2,
            "the expensive contiguous run must be dealt across workers"
        );
    }

    #[test]
    fn thread_worker_cap_degrades_to_sequential() {
        // A cap of 1 must force sequential execution on this thread (no
        // scope threads at all) while leaving other threads uncapped.
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        crate::set_thread_workers(1);
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                i + 1
            })
            .collect();
        crate::set_thread_workers(0);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        assert_eq!(
            seen.lock().unwrap().len(),
            1,
            "capped region must stay on the calling thread"
        );
        // The cap is thread-local: a fresh thread is uncapped.
        let other = std::thread::spawn(|| {
            let out: Vec<usize> = (0..8usize).into_par_iter().map(|i| i).collect();
            out.len()
        })
        .join()
        .unwrap();
        assert_eq!(other, 8);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let _: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                if i == 7 {
                    panic!("worker boom");
                }
                i
            })
            .collect();
    }
}
