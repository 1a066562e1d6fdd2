//! Figure-of-Merit accounting.
//!
//! PIConGPU's FOM (Fig. 4) is *"the weighted sum of the total number of
//! particle updates per second (90 %) and the number of cell updates per
//! second (10 %)"*. [`FomCounter`] measures it on real runs; the
//! large-scale extrapolation lives in `as_cluster::fom`.

use std::time::Instant;

/// Accumulates update counts and wall time across steps.
#[derive(Debug)]
pub struct FomCounter {
    particle_updates: u64,
    cell_updates: u64,
    elapsed: f64,
    started: Option<Instant>,
}

impl Default for FomCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl FomCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self {
            particle_updates: 0,
            cell_updates: 0,
            elapsed: 0.0,
            started: None,
        }
    }

    /// Mark the beginning of a timed region.
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Mark the end of a timed region covering `steps` steps of a
    /// simulation with `particles` particles and `cells` cells.
    pub fn stop(&mut self, steps: u64, particles: u64, cells: u64) {
        let t = self
            .started
            .take()
            .expect("FomCounter::stop without start")
            .elapsed()
            .as_secs_f64();
        self.elapsed += t;
        self.particle_updates += steps * particles;
        self.cell_updates += steps * cells;
    }

    /// Particle updates per second.
    pub(crate) fn particle_rate(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.particle_updates as f64 / self.elapsed
        }
    }

    /// Cell updates per second.
    pub(crate) fn cell_rate(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.cell_updates as f64 / self.elapsed
        }
    }

    /// The weighted FOM: `0.9·particles/s + 0.1·cells/s`.
    pub fn fom(&self) -> f64 {
        0.9 * self.particle_rate() + 0.1 * self.cell_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighting_is_90_10() {
        let mut c = FomCounter::new();
        c.start();
        std::thread::sleep(std::time::Duration::from_millis(10));
        c.stop(1, 900, 100);
        let f = c.fom();
        let expect = 0.9 * c.particle_rate() + 0.1 * c.cell_rate();
        assert_eq!(f, expect);
        assert!(c.particle_rate() > 0.0);
        assert!(c.elapsed > 0.0);
    }

    #[test]
    fn accumulates_over_regions() {
        let mut c = FomCounter::new();
        c.start();
        c.stop(2, 10, 5);
        c.start();
        c.stop(3, 10, 5);
        // rate·elapsed recovers the update count up to float round-trip.
        assert!((c.particle_rate() * c.elapsed - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "without start")]
    fn stop_requires_start() {
        FomCounter::new().stop(1, 1, 1);
    }
}
