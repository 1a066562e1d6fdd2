//! Replay scheduling: `n_rep` training iterations per streamed step and
//! the producer-stall policy.
//!
//! §IV-C: *"we perform n_rep iterations of the training loop per single
//! time step from the data stream … Separating the EP schedule from the
//! training loop via our training buffer allows us to control how many
//! batches we iterate per sample time-step produced, as long as we have
//! some leeway to stall the running simulation if need be. This is
//! crucial to allow the optimizer some amount of exploration, which can
//! only happen sequentially."* §V-A explored n_rep up to 96, with learning
//! success up to ≈48.

/// How the consumer applies back-pressure to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPolicy {
    /// Producer blocks on the staging queue until training catches up
    /// (the paper's choice — no data is ever dropped).
    StallProducer,
    /// Producer never blocks; steps arriving beyond the queue are dropped
    /// (for high-rate experiment sources that cannot stall).
    DropSteps,
}

/// Tracks the train-iterations-per-stream-step ratio.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    /// Target training iterations per streamed step (paper: tested up to
    /// 96, learning success up to ≈48).
    pub n_rep: u32,
    /// Back-pressure policy.
    pub policy: StallPolicy,
    steps_received: u64,
    iterations_done: u64,
}

impl ReplaySchedule {
    /// New schedule.
    pub fn new(n_rep: u32, policy: StallPolicy) -> Self {
        assert!(n_rep >= 1, "at least one training iteration per step");
        Self {
            n_rep,
            policy,
            steps_received: 0,
            iterations_done: 0,
        }
    }

    /// Record the arrival of one streamed step.
    pub fn on_step(&mut self) {
        self.steps_received += 1;
    }

    /// Record one completed training iteration.
    pub fn on_iteration(&mut self) {
        self.iterations_done += 1;
    }

    /// Training iterations still owed for the steps received so far.
    pub(crate) fn owed(&self) -> u64 {
        (self.steps_received * self.n_rep as u64).saturating_sub(self.iterations_done)
    }

    /// Should the consumer run another training iteration before asking
    /// for the next step?
    pub fn should_train(&self) -> bool {
        self.owed() > 0
    }

    /// `(steps_received, iterations_done)` — the schedule's mutable
    /// state, for checkpoint capture.
    pub fn counts(&self) -> (u64, u64) {
        (self.steps_received, self.iterations_done)
    }

    /// Restore counters captured with [`ReplaySchedule::counts`].
    pub fn restore_counts(&mut self, steps: u64, iterations: u64) {
        self.steps_received = steps;
        self.iterations_done = iterations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owes_n_rep_iterations_per_step() {
        let mut s = ReplaySchedule::new(4, StallPolicy::StallProducer);
        s.on_step();
        assert_eq!(s.owed(), 4);
        for _ in 0..4 {
            assert!(s.should_train());
            s.on_iteration();
        }
        assert!(!s.should_train());
        s.on_step();
        assert_eq!(s.owed(), 4);
    }

    #[test]
    fn ratio_converges_to_n_rep() {
        let mut s = ReplaySchedule::new(8, StallPolicy::StallProducer);
        for _ in 0..10 {
            s.on_step();
            while s.should_train() {
                s.on_iteration();
            }
        }
        assert_eq!(s.steps_received, 10);
        assert_eq!(s.iterations_done, 80);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_n_rep_rejected() {
        let _ = ReplaySchedule::new(0, StallPolicy::DropSteps);
    }
}
