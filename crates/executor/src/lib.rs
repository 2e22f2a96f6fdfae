//! # dance-executor — scoped-thread fan-out over coarse work items
//!
//! A zero-dependency execution layer over `std::thread::scope`. The DANCE
//! kernels themselves (group-id encoding, histogram folds, selection joins),
//! the MCMC search and seller-delta upkeep run sequentially on the calling
//! thread: they work on the small samples the offline phase buys, and
//! spreading them over threads lost to the single pass at every thread
//! count. What stays parallel is the join graph's histogram-recounting
//! re-weigh round ([`Executor::par_map`]): one histogram or JI task per
//! join-graph item, with atomic work stealing and results returned **in item
//! order**.
//!
//! Workers are spawned per parallel region rather than parked in a
//! persistent pool, so closures may borrow freely from the enclosing frame.
//! Single-threaded executors and single-item inputs run inline on the
//! calling thread with no spawn at all, so `DANCE_THREADS=1` is exactly the
//! sequential code path. A panic in a worker reaches the caller with its
//! own payload, as it would have inline.
//!
//! ## Determinism contract
//!
//! [`Executor::par_map`] only guarantees *placement*: mapped results arrive
//! in item order, regardless of which worker ran what when. Callers that
//! need bit-identical output across thread counts must make each item's
//! result a function of the item alone.
//!
//! ## Configuration
//!
//! [`Executor::global`] reads the `DANCE_THREADS` environment variable once
//! per process (default: [`std::thread::available_parallelism`]). Construct
//! explicit executors with [`Executor::new`] when a call site must control
//! its own parallelism (benchmarks, property tests).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A handle describing how much parallelism to use. Cheap to copy and thread
/// through configuration structs; the actual threads exist only inside a
/// parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// The process-global executor ([`Executor::global`]).
    fn default() -> Self {
        Executor::global()
    }
}

impl Executor {
    /// Executor with `threads` workers, clamped to at least 1.
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The process-global executor: worker count from `DANCE_THREADS` (read
    /// once, on first use), defaulting to the machine's available parallelism.
    /// A malformed value falls back to the default with a one-time warning on
    /// stderr (see [`threads_from_env`]) — it used to degrade silently.
    pub fn global() -> Executor {
        static THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *THREADS.get_or_init(|| {
            let default = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            let raw = std::env::var("DANCE_THREADS").ok();
            let (threads, warning) = threads_from_env(raw.as_deref(), default);
            if let Some(w) = warning {
                eprintln!("{w}");
            }
            threads
        });
        Executor::new(threads)
    }

    /// Worker count this executor is allowed to use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over coarse work items with atomic work stealing: workers pull
    /// the next unclaimed index until the slice is drained, so uneven item
    /// costs (e.g. join-informativeness over histograms of very different
    /// sizes) balance automatically. Results come back in item order;
    /// sequential executors and trivial inputs run inline. A worker's panic
    /// is re-raised on the caller with its original payload.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn({
                        let (f, cursor) = (&f, &cursor);
                        move || {
                            let mut done = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    return done;
                                }
                                done.push((i, f(i, &items[i])));
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                let done = h
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (i, r) in done {
                    slots[i] = Some(r);
                }
            }
        });
        slots.into_iter().map(|r| r.unwrap()).collect()
    }
}

/// Resolve a raw `DANCE_THREADS` value to a worker count.
///
/// `None` (variable unset) is the quiet default path. A present value must
/// parse to a positive integer (surrounding whitespace tolerated); anything
/// else — empty, zero, negative, non-numeric — falls back to `default` and
/// returns a warning naming the rejected value, so a typo in the environment
/// never silently degrades a run to the wrong parallelism.
pub fn threads_from_env(raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    let Some(raw) = raw else {
        return (default, None);
    };
    match raw.trim().parse::<usize>() {
        Ok(t) if t >= 1 => (t, None),
        _ => (
            default,
            Some(format!(
                "warning: ignoring malformed DANCE_THREADS value {raw:?} \
                 (expected a positive integer); using {default} thread(s)"
            )),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_results_in_item_order() {
        let items: Vec<u64> = (0..57).collect();
        for threads in [1, 2, 3, 8] {
            let e = Executor::new(threads);
            let out = e.par_map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        let none: Vec<u64> = Vec::new();
        assert!(Executor::new(4).par_map(&none, |_, &x: &u64| x).is_empty());
    }

    #[test]
    fn par_map_worker_panic_keeps_its_message() {
        // Inline (1 thread) a panic in item 2 reaches the caller with its own
        // message; a worker thread's panic must arrive the same way, not as
        // an opaque `Result::unwrap()` on the join error.
        let items: Vec<u64> = (0..4).collect();
        let payload = std::panic::catch_unwind(|| {
            Executor::new(4).par_map(&items, |i, &x| {
                if i == 2 {
                    panic!("boom at item {i}");
                }
                x
            })
        })
        .expect_err("item 2 panics");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(msg, Some("boom at item 2"));
    }

    #[test]
    fn threads_from_env_accepts_positive_integers() {
        assert_eq!(threads_from_env(None, 6), (6, None));
        assert_eq!(threads_from_env(Some("4"), 6), (4, None));
        assert_eq!(threads_from_env(Some(" 8 "), 6), (8, None));
        assert_eq!(threads_from_env(Some("1"), 6), (1, None));
    }

    #[test]
    fn threads_from_env_warns_on_malformed_values() {
        for bad in ["", "0", "-3", "abc", "4.5", "1e2", "four", " "] {
            let (threads, warning) = threads_from_env(Some(bad), 6);
            assert_eq!(threads, 6, "malformed {bad:?} falls back to the default");
            let w = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(w.contains("DANCE_THREADS"), "warning names the variable");
            assert!(
                w.contains(&format!("{bad:?}")),
                "warning names the bad value: {w}"
            );
            assert!(w.contains('6'), "warning names the fallback: {w}");
        }
    }

    #[test]
    fn global_reads_env_once_and_clamps() {
        // Whatever DANCE_THREADS is (or isn't), the global executor is valid
        // and stable across calls.
        let a = Executor::global();
        let b = Executor::global();
        assert_eq!(a, b);
        assert!(a.threads() >= 1);
        assert_eq!(Executor::new(0).threads(), 1, "threads clamp to 1");
    }
}
