//! `hbc-exec` — the deterministic parallel experiment engine.
//!
//! Every figure in the paper is a sweep of independent (benchmark ×
//! cache-organization) cells, and the cells are seed-paired: each one
//! builds its own `WorkloadGen` and `MemSystem` from nothing but the
//! configuration and the seed. That makes the sweeps embarrassingly
//! parallel *without changing a single simulated number*, provided the
//! engine never lets host scheduling order leak into the output:
//!
//! 1. **Cell independence** — a cell closure receives only its index and
//!    shares no mutable state with any other cell; all simulator state is
//!    constructed inside the cell from `(configuration, seed)`.
//! 2. **Fixed cell→index mapping** — drivers enumerate their cells in a
//!    fixed order *before* execution starts, so the meaning of index `i`
//!    never depends on which worker picks it up or when.
//! 3. **Index-ordered merge** — workers return `(index, result)` pairs and
//!    the engine writes each result into slot `index` of the output after
//!    all workers have joined. Nothing is merged in arrival order, and no
//!    `Mutex`/channel sits between the workers and the output (the
//!    `disallowed-types` of `crates/sim-clippy.toml` keep it that way).
//!
//! Consequently [`run_cells`] with any worker count is bit-identical to the
//! serial loop `(0..cells).map(cell).collect()` — the property the
//! `--jobs 1` vs `--jobs N` golden tests pin down.
//!
//! The pool itself is dependency-free: scoped `std::thread` workers pull
//! cell indices from a shared atomic counter (dynamic self-scheduling, so
//! an expensive cell does not straggle a whole static chunk) and buffer
//! their results locally until the join.

use std::sync::atomic::{AtomicUsize, Ordering};

use hbc_probe::Stage;

/// The worker count used when a caller passes `jobs = 0` ("auto"): the
/// host's available parallelism. Scheduling — never results — depends on
/// this value.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `cells` independent cells, `cell(0), cell(1), ..`, on `jobs`
/// workers and returns the results in index order.
///
/// `jobs = 0` means [`default_jobs`]; `jobs = 1` is the plain serial loop.
/// The output is bit-identical for every `jobs` value: parallelism affects
/// wall-clock only.
///
/// # Example
///
/// ```
/// use hbc_core::exec::run_cells;
///
/// let serial = run_cells(1, 32, |i| i * i);
/// let parallel = run_cells(4, 32, |i| i * i);
/// assert_eq!(serial, parallel);
/// ```
pub fn run_cells<T, F>(jobs: usize, cells: usize, cell: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = if jobs == 0 { default_jobs() } else { jobs }.min(cells.max(1));
    if jobs <= 1 {
        return (0..cells)
            .map(|i| {
                crate::spans::begin_request();
                let _run = crate::spans::enter(Stage::ExecRun);
                cell(i)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let cell = &cell;
    let mut slots: Vec<Option<T>> = Vec::with_capacity(cells);
    slots.resize_with(cells, || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let steal_start = crate::spans::now_us();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells {
                            break;
                        }
                        crate::spans::begin_request();
                        crate::spans::record_since(Stage::ExecSteal, steal_start);
                        let run = crate::spans::enter(Stage::ExecRun);
                        done.push((i, cell(i)));
                        drop(run);
                    }
                    done
                })
            })
            .collect();
        // Index-ordered merge: each worker's buffered (index, result) pairs
        // land in their slots only after the worker has finished; arrival
        // order is irrelevant because the slot is the cell index.
        crate::spans::begin_request();
        let _merge = crate::spans::enter(Stage::ExecMerge);
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, value) in done {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let merged: Vec<T> = slots.into_iter().flatten().collect();
    debug_assert_eq!(merged.len(), cells, "every cell index is claimed exactly once");
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i, i.wrapping_mul(0x9E37_79B9).rotate_left(7));
        for jobs in [0, 1, 2, 3, 8] {
            assert_eq!(run_cells(jobs, 100, f), run_cells(1, 100, f), "jobs={jobs}");
        }
    }

    #[test]
    fn results_are_index_ordered_under_skew() {
        // Make early cells the slowest so completion order inverts index
        // order; the merge must still be by index.
        let out = run_cells(4, 16, |i| {
            let mut x = 1u64;
            for _ in 0..(16 - i) * 200_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, x != 0)
        });
        assert_eq!(out.len(), 16);
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn empty_and_single_cell() {
        assert_eq!(run_cells(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_cells(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_workers_than_cells() {
        assert_eq!(run_cells(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn simulation_cells_are_bit_identical() {
        use crate::{Benchmark, SimBuilder};
        let run = |jobs| {
            run_cells(jobs, 4, |i| {
                SimBuilder::new(Benchmark::Li)
                    .cache_size_kib(8 << i)
                    .instructions(3_000)
                    .warmup(500)
                    .cache_warm(20_000)
                    .run()
                    .ipc()
            })
        };
        assert_eq!(run(1), run(4));
    }
}
