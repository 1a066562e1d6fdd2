//! Catastrophic-forgetting metrics.
//!
//! Experience replay exists to "avoid catastrophic forgetting of earlier
//! simulation time steps while training on later ones" (§IV-C). To
//! *measure* that, a small holdout of early-phase samples is frozen and
//! re-evaluated as training proceeds: a rising early-phase loss while the
//! current-phase loss falls is the forgetting signature; replay should
//! suppress it. Used by the continual-learning example and the ablation
//! tests.

/// Tracks evaluation losses on a frozen early-phase holdout.
#[derive(Debug, Clone, Default)]
pub struct ForgettingMeter {
    early_losses: Vec<f64>,
    current_losses: Vec<f64>,
}

impl ForgettingMeter {
    /// Empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one evaluation: loss on the early-phase holdout and loss on
    /// current-phase data.
    pub fn record(&mut self, early_loss: f64, current_loss: f64) {
        self.early_losses.push(early_loss);
        self.current_losses.push(current_loss);
    }

    /// Forgetting score: relative increase of the early-phase loss from
    /// its minimum to its final value. 0 = no forgetting; 1 = the loss
    /// doubled from its best point.
    pub fn forgetting_score(&self) -> f64 {
        if self.early_losses.len() < 2 {
            return 0.0;
        }
        let best = self
            .early_losses
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let last = *self.early_losses.last().expect("nonempty");
        if best <= 0.0 {
            return 0.0;
        }
        ((last - best) / best).max(0.0)
    }

    /// Early-phase loss history.
    pub fn early_history(&self) -> &[f64] {
        &self.early_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_forgetting_when_early_loss_keeps_falling() {
        let mut m = ForgettingMeter::new();
        for i in 0..10 {
            m.record(1.0 / (i + 1) as f64, 1.0 / (i + 1) as f64);
        }
        assert_eq!(m.forgetting_score(), 0.0);
    }

    #[test]
    fn forgetting_detected_when_early_loss_rebounds() {
        let mut m = ForgettingMeter::new();
        m.record(1.0, 1.0);
        m.record(0.5, 0.8); // best early loss
        m.record(1.5, 0.2); // early loss triples while current falls
        assert!((m.forgetting_score() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn short_histories_score_zero() {
        let mut m = ForgettingMeter::new();
        assert_eq!(m.forgetting_score(), 0.0);
        m.record(1.0, 1.0);
        assert_eq!(m.forgetting_score(), 0.0);
        assert_eq!(m.early_losses.len(), 1);
    }
}
