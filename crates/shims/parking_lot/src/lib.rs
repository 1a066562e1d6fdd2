//! Offline stand-in for `parking_lot`.
//!
//! Wraps [`std::sync::Mutex`]/[`std::sync::Condvar`] behind parking_lot's
//! panic-free API: `lock()` returns the guard directly (poisoning is
//! swallowed — a poisoned lock here means a test already failed elsewhere)
//! and `Condvar::wait` takes `&mut MutexGuard`.
//!
//! With the `detect` cargo feature, every acquire/release is reported to
//! `as-detect`: lock-order cycles panic with both acquisition stacks
//! *before* the thread would block, and the held-lock set feeds the
//! tracked-cell race checker. With the feature off, the shim compiles to
//! the exact uninstrumented wrapper (the `as-detect` dependency itself
//! is not built).

use std::ops::{Deref, DerefMut};

/// Mutual exclusion with parking_lot's non-poisoning API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "detect")]
    meta: as_detect::LockMeta,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(feature = "detect")]
            meta: as_detect::LockMeta::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock (never panics on poisoning).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "detect")]
        as_detect::lock_acquire(&self.meta);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            #[cfg(feature = "detect")]
            meta: &self.meta,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII lock guard.
///
/// The inner `Option` is only ever `None` transiently inside
/// [`Condvar::wait`], where the std guard must be moved out and back.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(feature = "detect")]
    meta: &'a as_detect::LockMeta,
}

#[cfg(feature = "detect")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        as_detect::lock_release(self.meta);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard present outside wait")
    }
}

/// Whether a [`Condvar::wait_for`] returned because its timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout rather than by a notify.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable compatible with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    /// Atomically release the lock and sleep until notified.
    ///
    /// Under `detect` the lock leaves (and re-enters) the thread's
    /// held-lock set around the sleep. No happens-before edge is drawn
    /// for the notify itself — condvar-guarded state is covered by the
    /// lockset check on its protecting mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        park(guard, |inner| {
            (self.0.wait(inner).unwrap_or_else(|e| e.into_inner()), ())
        })
    }

    /// [`Condvar::wait`] bounded by `timeout`; the result says whether
    /// the wait timed out (as upstream, a wake-up may still be spurious —
    /// re-check the condition).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        park(guard, |inner| {
            let (inner, result) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|e| e.into_inner());
            (inner, WaitTimeoutResult(result.timed_out()))
        })
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Hand the std guard to `sleep` (a condvar wait that returns it
/// re-acquired) and put it back, telling `detect` the lock was released
/// in between.
fn park<'a, T, R>(
    guard: &mut MutexGuard<'a, T>,
    sleep: impl FnOnce(std::sync::MutexGuard<'a, T>) -> (std::sync::MutexGuard<'a, T>, R),
) -> R {
    let inner = guard.inner.take().expect("guard present before wait");
    #[cfg(feature = "detect")]
    as_detect::lock_release(guard.meta);
    let (reacquired, result) = sleep(inner);
    #[cfg(feature = "detect")]
    as_detect::lock_acquire(guard.meta);
    guard.inner = Some(reacquired);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn condvar_handoff() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, c) = &*p2;
            let mut ready = m.lock();
            *ready = true;
            c.notify_all();
        });
        let (m, c) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            c.wait(&mut ready);
        }
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out_and_keeps_the_guard_usable() {
        let (m, c) = (Mutex::new(7), Condvar::new());
        let mut g = m.lock();
        assert!(c
            .wait_for(&mut g, std::time::Duration::from_millis(1))
            .timed_out());
        *g += 1;
        assert_eq!(*g, 8);
    }
}
