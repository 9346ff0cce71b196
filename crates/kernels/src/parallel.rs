//! The one library module that creates threads: [`fan_out`] for borrowed
//! work that joins before it returns, [`spawn_worker`] for persistent
//! threads.
//!
//! Every parallel kernel, `gemm_parallel` and `FlexSystem::run_batch`
//! partition their work into independent items — typically a range of
//! output rows zipped with the disjoint output band [`split_at_ranges`]
//! cuts for it — and hand the items to [`fan_out`]. The planner's tile
//! executor is not among them: a job's tiles run in order on the thread
//! that executes the job, so jobs, not tiles, are what runs in parallel.
//! No synchronization beyond the final join is needed, and because each
//! item runs the same body the sequential entry point runs once over the
//! whole extent, results are bit-identical to the sequential variants.
//!
//! Each thread [`spawn_worker`] starts runs inside a one-worker
//! [`with_workers`] scope, so a parallel path called there sees
//! [`worker_count`] return 1, takes its one-range path and never spawns.
//! A long-lived thread cannot run [`fan_out`]'s borrowed items without
//! `unsafe`, which every crate forbids, so there is no persistent pool.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Scoped [`with_workers`] override, highest precedence.
    static FORCED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count outside any [`with_workers`] scope, fixed at first use:
/// `SPARSEFLEX_WORKERS` when it parses to a positive count, else the
/// machine's [`std::thread::available_parallelism`]. Cached because std
/// re-reads the cgroup CPU quota on every call; a later quota change is
/// not seen.
fn default_workers() -> usize {
    static DEFAULT_WORKERS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_WORKERS.get_or_init(|| {
        std::env::var("SPARSEFLEX_WORKERS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Number of worker threads to use for `work_items` independent units of
/// work, always in `1..=work_items.max(1)`.
///
/// Precedence of the thread-count source (highest first):
/// 1. the innermost [`with_workers`] scope active on the calling thread —
///    benches and the parallel-vs-sequential equality tests pin exact
///    counts this way, and every [`spawn_worker`] thread runs in a
///    one-worker scope, so a parallel path there gets 1 unless it opens
///    its own scope;
/// 2. the `SPARSEFLEX_WORKERS` environment variable (zero or unparsable
///    values are ignored) — CI runs set this for reproducible behavior on
///    any core count;
/// 3. the machine's [`std::thread::available_parallelism`].
///
/// Sources 2 and 3 are read once per process.
pub fn worker_count(work_items: usize) -> usize {
    FORCED_WORKERS
        .with(Cell::get)
        .unwrap_or_else(default_workers)
        .min(work_items)
        .max(1)
}

/// Run `f` with [`worker_count`] pinned to exactly `n` on this thread
/// (still capped by each call site's work-item count). Scopes nest; the
/// previous value is restored on exit, including on unwind.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_WORKERS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED_WORKERS.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Split `data` into one disjoint mutable slice per partition range, where
/// each range covers `stride` elements per unit (`data[r.start * stride ..
/// r.end * stride]`). Ranges must be ascending and tile `0..data.len() /
/// stride` — exactly what the stream partitioners produce.
pub fn split_at_ranges<'a, T>(
    mut data: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        debug_assert_eq!(r.start, consumed, "ranges must tile contiguously");
        let take = (r.end - r.start) * stride;
        let (head, tail) = data.split_at_mut(take);
        out.push(head);
        data = tail;
        consumed = r.end;
    }
    debug_assert!(data.is_empty(), "ranges must cover the whole slice");
    out
}

/// `0..len` cut into at most `parts` contiguous ranges of near-equal
/// length (none when `len` is 0).
pub fn even_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let step = len.div_ceil(parts.max(1)).max(1);
    (0..len)
        .step_by(step)
        .map(|s| s..(s + step).min(len))
        .collect()
}

/// Run `f` on every item and return the results in item order.
///
/// The calling thread runs the first item and one scoped thread runs each
/// other item, so a single item never spawns. A panic in any item resumes
/// on the caller once every thread has joined; zero items return an empty
/// `Vec`. This is the only place library code opens a thread scope.
pub fn fan_out<I: Send, T: Send>(items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    let mut items = items.into_iter();
    let first = items.next();
    #[expect(
        clippy::disallowed_methods,
        reason = "fan_out is the one sanctioned library spawn site for borrowed work"
    )]
    std::thread::scope(|s| {
        let handles: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.extend(first.map(f));
        for h in handles {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

/// Start a persistent thread named `name` that runs `f` inside
/// `with_workers(1, ..)`, so parallel paths on that thread run on it
/// alone. This is the one sanctioned spawn site for threads that outlive
/// their caller, such as the serving workers; the caller joins the
/// returned handle.
pub fn spawn_worker<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<T>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "spawn_worker is the one sanctioned spawn site for persistent threads"
    )]
    std::thread::Builder::new()
        .name(name)
        .spawn(move || with_workers(1, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn with_workers_pins_and_restores() {
        let outside = worker_count(64);
        with_workers(7, || {
            assert_eq!(worker_count(64), 7);
            assert_eq!(worker_count(3), 3, "work cap still applies");
            with_workers(2, || assert_eq!(worker_count(64), 2));
            assert_eq!(worker_count(64), 7, "nested scope must restore");
        });
        assert_eq!(worker_count(64), outside);
        with_workers(0, || assert_eq!(worker_count(64), 1, "zero clamps to 1"));
    }

    #[test]
    fn split_at_ranges_yields_disjoint_strided_slices() {
        let mut v: Vec<usize> = (0..24).collect();
        let slices = split_at_ranges(&mut v, &[0..2, 2..3, 3..8], 3);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(slices[1], &[6, 7, 8]);
        assert_eq!(slices[2].len(), 15);
        let empty = split_at_ranges(&mut [] as &mut [usize], &[], 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn even_ranges_tile_the_length() {
        assert_eq!(even_ranges(10, 3), vec![0..4, 4..8, 8..10]);
        assert_eq!(even_ranges(2, 8), vec![0..1, 1..2]);
        assert!(even_ranges(0, 4).is_empty());
        assert_eq!(even_ranges(5, 0), vec![0..5], "zero parts clamps to one");
    }

    #[test]
    fn fan_out_returns_results_in_item_order() {
        // Item i waits for item i + 1 and then wakes item i - 1, so items
        // finish in reverse order; results must still come back in order.
        let n = 6;
        let (wakes, waits): (Vec<_>, Vec<_>) =
            (1..n).map(|_| std::sync::mpsc::channel::<()>()).unzip();
        let waits = waits.into_iter().map(Some).chain([None]);
        let wakes = [None].into_iter().chain(wakes.into_iter().map(Some));
        let items: Vec<_> = waits.zip(wakes).enumerate().collect();
        let out = fan_out(items, |(i, (wait, wake))| {
            if let Some(rx) = wait {
                rx.recv().expect("item i + 1 wakes item i");
            }
            if let Some(tx) = wake {
                tx.send(()).expect("item i - 1 is waiting");
            }
            i * 10
        });
        assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_runs_a_single_item_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(
            fan_out(vec![()], |()| std::thread::current().id()),
            [caller]
        );
        let ids = fan_out(vec![(); 3], |()| std::thread::current().id());
        assert_eq!(ids[0], caller, "the first item runs on the caller");
        assert!(ids[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn spawn_worker_runs_parallel_paths_on_itself() {
        let worker = spawn_worker("sparseflex-test-worker".to_owned(), || {
            let me = std::thread::current();
            // Library paths size their fan-outs with worker_count.
            let ranges = even_ranges(100, worker_count(100));
            let ids = fan_out(ranges, |_| std::thread::current().id());
            assert_eq!(ids, [me.id()], "one range, run on the worker itself");
            let inner = with_workers(3, || worker_count(64));
            (me.name().map(str::to_owned), worker_count(64), inner)
        })
        .expect("the OS creates the thread");
        let (name, workers, inner) = worker.join().expect("the worker returns");
        assert_eq!(name.as_deref(), Some("sparseflex-test-worker"));
        assert_eq!(workers, 1);
        assert_eq!(inner, 3, "an explicit inner scope still wins");
    }

    #[test]
    fn fan_out_of_zero_items_is_empty() {
        let out: Vec<u8> = fan_out(Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn fan_out_reraises_a_worker_panic() {
        for bad in [0, 2] {
            let caught = std::panic::catch_unwind(|| {
                fan_out((0..4).collect(), |i: usize| {
                    assert_ne!(i, bad, "item {bad} fails");
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains(&format!("item {bad} fails")), "{msg}");
        }
    }

    #[test]
    fn fan_out_fills_disjoint_bands() {
        let mut v = vec![0usize; 1000];
        let ranges = even_ranges(500, 8);
        let bands = split_at_ranges(&mut v, &ranges, 2);
        fan_out(ranges.into_iter().zip(bands).collect(), |(range, band)| {
            assert_eq!(band.len(), range.len() * 2);
            for (i, x) in band.iter_mut().enumerate() {
                *x = range.start * 2 + i;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }
}
