//! [`Locked`]: the one way `hbc-serve` and `hbc-cluster` share mutable
//! state between threads.
//!
//! A `Locked<T>` owns a mutex and a condition variable and lends its value
//! only to a closure, so no guard can outlive a critical section. Holding a
//! lock across socket I/O would serialize every peer behind the slowest
//! one; with no guard to hold, that code cannot be written. The root
//! `clippy.toml` disallows `Mutex::lock`, `RwLock::read`/`write` and
//! `MutexGuard` everywhere else.
//!
//! In debug builds each critical section marks its thread as holding a
//! lock. Entering a second one on the same thread panics, and the socket
//! funnels (`http::read_request`/`write_response`, `Responder::respond`,
//! the cluster's `wire::read_msg`/`write_msg` and the worker's frame
//! write) assert that [`Locked::held`] is false. With no nesting there is
//! no lock order, so no two threads can deadlock by taking two locks in
//! opposite orders. Release builds skip the bookkeeping.

use std::cell::Cell;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

thread_local! {
    /// Whether this thread is inside a critical section (debug builds).
    static HELD: Cell<bool> = const { Cell::new(false) };
}

/// A value behind a mutex, reachable only inside a closure, plus a
/// condition variable to wait for it to change.
///
/// A poisoned lock is recovered, so one panicking request cannot wedge
/// every later one: each critical section completes its writes before it
/// leaves, so the value stays consistent.
#[derive(Debug, Default)]
pub struct Locked<T> {
    value: Mutex<T>,
    cv: Condvar,
}

impl<T> Locked<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Locked { value: Mutex::new(value), cv: Condvar::new() }
    }

    /// Runs `f` on the value inside one critical section.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _holding = Holding::enter();
        f(&mut self.lock())
    }

    /// Waits until `ready` holds or `deadline` passes (`None` waits for
    /// ever), then runs `then` on the value with whether `ready` held. The
    /// last check of `ready` and `then` share one critical section.
    pub fn wait_until<R>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&T) -> bool,
        then: impl FnOnce(&mut T, bool) -> R,
    ) -> R {
        let _holding = Holding::enter();
        let mut guard = self.lock();
        loop {
            if ready(&guard) {
                return then(&mut guard, true);
            }
            guard = match deadline {
                None => self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return then(&mut guard, false);
                    }
                    self.cv
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Wakes one waiter. The lock is taken and released first, so a
    /// waiter between its `ready` check and its wait cannot miss the
    /// wakeup even when the state it waits on lives outside the lock.
    pub fn notify_one(&self) {
        self.with(|_| ());
        self.cv.notify_one();
    }

    /// Wakes every waiter, taking and releasing the lock first like
    /// [`notify_one`](Self::notify_one).
    pub fn notify_all(&self) {
        self.with(|_| ());
        self.cv.notify_all();
    }

    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the one place a guard exists; it never leaves this type"
    )]
    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Locked<()> {
    /// Whether this thread is inside a critical section. Always `false`
    /// in release builds, which do not track it.
    pub fn held() -> bool {
        cfg!(debug_assertions) && HELD.with(Cell::get)
    }
}

/// Marks this thread as holding a lock until dropped (debug builds).
struct Holding;

impl Holding {
    fn enter() -> Holding {
        if cfg!(debug_assertions) {
            assert!(
                !HELD.replace(true),
                "this thread already holds a Locked: nested critical sections can deadlock"
            );
        }
        Holding
    }
}

impl Drop for Holding {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            HELD.set(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn a_panicking_closure_leaves_the_value_usable() {
        let cell = Locked::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            cell.with(|v| {
                *v = 2;
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        assert!(!Locked::held());
        assert_eq!(cell.with(|v| *v), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already holds a Locked")]
    fn nested_with_panics() {
        let (outer, inner) = (Locked::new(()), Locked::new(()));
        outer.with(|()| inner.with(|()| ()));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn either_lock_order_panics_before_taking_the_second_lock() {
        struct Shared {
            alpha: Locked<Vec<u32>>,
            beta: Locked<Vec<u32>>,
        }

        fn order_ab(s: &Shared) {
            s.alpha.with(|a| {
                s.beta.with(|b| {
                    b.push(1);
                    a.push(2);
                });
            });
        }

        fn order_ba(s: &Shared) {
            s.beta.with(|b| {
                s.alpha.with(|a| {
                    a.push(1);
                    b.push(2);
                });
            });
        }

        let s = Shared { alpha: Locked::default(), beta: Locked::default() };
        for order in [order_ab, order_ba] {
            assert!(catch_unwind(AssertUnwindSafe(|| order(&s))).is_err());
        }
        assert!(!Locked::held());
        assert_eq!(s.alpha.with(|a| a.len()) + s.beta.with(|b| b.len()), 0);
    }

    #[test]
    fn wait_until_returns_not_ready_at_its_deadline() {
        let cell = Locked::new(0);
        let (ready, seen) = cell.wait_until(Some(Instant::now()), |v| *v > 0, |v, r| (r, *v));
        assert_eq!((ready, seen), (false, 0));
        cell.with(|v| *v = 3);
        let ready = cell.wait_until(None, |v| *v > 0, |_, r| r);
        assert!(ready);
    }

    #[test]
    fn a_parked_waiter_wakes_on_notify_all_and_sees_the_new_state() {
        let cell = Locked::new(0);
        let parked = Barrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut first = true;
                let ready = |v: &u32| {
                    if std::mem::take(&mut first) {
                        // Still holding the lock: the main thread's `with`
                        // below gets it only once this thread waits.
                        parked.wait();
                    }
                    *v > 0
                };
                cell.wait_until(None, ready, |v, r| (r, *v))
            });
            parked.wait();
            cell.with(|v| *v = 7);
            cell.notify_all();
            assert_eq!(waiter.join().unwrap(), (true, 7));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "socket I/O inside a critical section")]
    fn writing_a_response_inside_a_critical_section_panics() {
        let out = Locked::new(Vec::new());
        out.with(|buf| crate::http::write_response(buf, 200, "text/plain", &[], b"ok\n")).unwrap();
    }
}
