//! # vortex-par
//!
//! Order-preserving scoped-thread parallel map — the one concurrency
//! primitive the repository's embarrassingly-parallel host work shares.
//!
//! Two layers use it:
//!
//! * **Experiment sweeps** (`vortex-bench`, which re-exports this crate
//!   as `vortex_bench::par`): the same simulator run repeated across a
//!   grid of configurations. The runs are fully independent — each
//!   builds its own `vortex_core::Gpu` — so they parallelize trivially.
//! * **The host-reference rasterizer** (`vortex-gfx`): screen tiles are
//!   independent by construction (every pixel belongs to exactly one
//!   tile, and draw-order blending semantics are per-pixel), so a frame
//!   fans out one work item per tile.
//!
//! Built on `std::thread::scope` with an atomic work index — no external
//! dependencies, no unsafe.
//!
//! Determinism: [`par_map`] returns results in *input order* no matter
//! how many workers ran or how the OS scheduled them. When `f` itself is
//! deterministic, a caller therefore produces byte-identical output at
//! any `--jobs`/`VORTEX_JOBS` setting — asserted by the integration
//! tests (sweep stdout) and the rasterizer's serial-vs-parallel
//! framebuffer identity tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count: `VORTEX_JOBS` when set (clamped to ≥ 1),
/// otherwise the host's available parallelism.
pub fn jobs() -> usize {
    match std::env::var("VORTEX_JOBS") {
        Ok(v) => v.parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Maps `f` over `items` on [`jobs`] worker threads, returning results in
/// input order. `f` receives `(index, &item)`.
///
/// # Panics
/// A panic inside `f` (e.g. a benchmark validation failure) propagates to
/// the caller once the scope joins — a parallel sweep fails as loudly as a
/// sequential one.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with_jobs(jobs(), items, f)
}

/// [`par_map`] with an explicit worker count (exposed so tests can compare
/// 1-worker and N-worker runs of the same sweep).
///
/// # Panics
/// Propagates panics from `f`, and panics if an internal lock is poisoned
/// (only possible when `f` panicked first).
pub fn par_map_with_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                // Workers claim indices from a shared counter (dynamic
                // load balancing: a slow 32-core simulation does not hold
                // hostage a worker that could run three small ones), and
                // buffer results locally to keep the lock out of the
                // compute path.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                done.lock()
                    .expect("no poisoned result lock")
                    .append(&mut local);
            });
        }
    });
    let mut tagged = done.into_inner().expect("no poisoned result lock");
    tagged.sort_unstable_by_key(|&(i, _)| i);
    assert_eq!(
        tagged.len(),
        items.len(),
        "every work item produces a result"
    );
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_with_jobs(7, &items, |i, &x| {
            assert_eq!(i, x);
            // Stagger completion so out-of-order finishes actually happen.
            if x % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_matches_many_workers() {
        let items: Vec<u64> = (0..40).collect();
        let seq = par_map_with_jobs(1, &items, |_, &x| x.wrapping_mul(2654435761));
        let par = par_map_with_jobs(4, &items, |_, &x| x.wrapping_mul(2654435761));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_work_lists() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with_jobs(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_with_jobs(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    // `thread::scope` re-raises worker panics under its own message; what
    // matters is that a failing sweep item fails the whole sweep.
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map_with_jobs(3, &items, |_, &x| {
            assert!(x < 4, "sweep item failed");
            x
        });
    }
}
