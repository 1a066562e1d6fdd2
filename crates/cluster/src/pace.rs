//! The one place this workspace sleeps (lint rule `raw-sleep`): pacing
//! of injected fabric time, and the fault injector's plain delays.
//!
//! `thread::sleep` has a floor far above the delays the fabric model
//! produces. Measured on the 2-vCPU reference VM (release, idle):
//!
//! | asked | slept |
//! |---|---|
//! | 0.7 µs | 66.5 µs |
//! | 1.4 µs (one intra-node 32 KiB gradient bucket) | 67.4 µs |
//! | 10 µs | 75.5 µs |
//!
//! Sleeping each collective's cost on its own therefore injects the OS
//! timer, not the model (`ddp_sync`: 0.0034 s modelled, ≈ 0.12 s slept
//! per thread). A [`Pacer`] keeps a signed balance of owed wall time,
//! sleeps only once a granule is owed, and books what the sleep
//! *measurably* took: overshoot is credit against later charges, and the
//! injected total tracks the modelled total to within one granule.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Owed wall time below which a [`Pacer`] does not sleep: ≈ 4× the
/// measured ≈ 65 µs sleep overshoot (table above), so a sleep's error is
/// a fraction of what it pays off.
const GRANULE_NANOS: i64 = 250_000;

/// Sleep `d`, as asked (millisecond fault-injection delays, where the
/// timer's overshoot is noise).
pub(crate) fn sleep_for(d: Duration) {
    std::thread::sleep(d);
}

/// One endpoint's balance of owed wall nanoseconds; negative is credit.
#[derive(Debug, Default)]
pub(crate) struct Pacer {
    balance: AtomicI64,
}

impl Pacer {
    /// Owe `wall_secs` more; once a granule is owed, sleep the balance
    /// off and book the time the sleep really took.
    pub(crate) fn charge(&self, wall_secs: f64) {
        if let Some(due) = self.owe((wall_secs * 1e9).round() as i64) {
            let asleep = Instant::now();
            sleep_for(due);
            self.settle(asleep.elapsed());
        }
    }

    /// Add `nanos` to the balance; the sleep now due (all of it), if any.
    fn owe(&self, nanos: i64) -> Option<Duration> {
        let balance = self.balance.fetch_add(nanos, Ordering::Relaxed) + nanos;
        (balance >= GRANULE_NANOS).then(|| Duration::from_nanos(balance as u64))
    }

    /// Book a sleep that took `elapsed`.
    fn settle(&self, elapsed: Duration) {
        let nanos = i64::try_from(elapsed.as_nanos()).unwrap_or(i64::MAX);
        self.balance.fetch_sub(nanos, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: i64 = 1_000;

    #[test]
    fn below_the_granule_nothing_is_slept_and_nothing_is_forgotten() {
        let p = Pacer::default();
        for _ in 0..178 {
            assert_eq!(p.owe(1_400), None);
        }
        assert_eq!(p.balance.load(Ordering::Relaxed), 178 * 1_400);
        // The charge that reaches the granule sleeps the whole balance.
        assert_eq!(p.owe(1_400), Some(Duration::from_nanos(179 * 1_400)));
    }

    #[test]
    fn overshoot_is_credit_and_credit_drops_no_later_charge() {
        let p = Pacer::default();
        assert_eq!(p.owe(300 * US), Some(Duration::from_micros(300)));
        p.settle(Duration::from_micros(370)); // the timer ran 70 µs over
        assert_eq!(p.balance.load(Ordering::Relaxed), -70 * US);
        // 70 µs of charges are paid by the credit; the next granule
        // after that is slept in full.
        assert_eq!(p.owe(70 * US), None);
        assert_eq!(p.owe(249 * US), None);
        assert_eq!(p.owe(US), Some(Duration::from_micros(250)));
        p.settle(Duration::from_micros(250));
        assert_eq!(p.balance.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn an_early_wake_up_stays_owed() {
        let p = Pacer::default();
        assert_eq!(p.owe(400 * US), Some(Duration::from_micros(400)));
        p.settle(Duration::from_micros(100));
        assert_eq!(p.owe(0), Some(Duration::from_micros(300)));
    }

    #[test]
    fn a_zero_charge_never_sleeps() {
        // `time_scale 0` multiplies every charge to zero.
        let p = Pacer::default();
        for _ in 0..1_000 {
            p.charge(1.4e-6 * 0.0);
        }
        assert_eq!(p.balance.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_charge_above_the_granule_is_slept_at_once() {
        let p = Pacer::default();
        let start = Instant::now();
        p.charge(5e-3);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert!(
            p.balance.load(Ordering::Relaxed) <= 0,
            "overshoot is credit"
        );
    }
}
