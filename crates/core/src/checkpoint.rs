//! Learner checkpoint/restart.
//!
//! [`LearnerCheckpoint`] captures everything a consumer rank needs to
//! resume training bit-identically after a kill, in the types that
//! already carry it: the model as a [`ModelSnapshot`] (f32 parameters,
//! INN permutations and their hash), both [`AdamState`]s (the DDP step
//! counter is their `step`), the replay [`BufferState`] with its RNG, the
//! replay schedule counts, the encode and training RNG states, and the
//! [`LearnerProgress`] counters. The learner's loss, `param_hash` and
//! owned-window histories only grow, so the checkpoint keeps their
//! lengths and a restore truncates them.
//!
//! A restore passes the snapshot's guard before it writes a word: a
//! checkpoint taken from another model architecture, or whose parameters
//! no longer hash to the captured value, is refused with a
//! [`SnapshotError`] and the learner is left as it was.
//!
//! A restore rolls the learner state back to the capture point; windows
//! consumed from the stream after the capture are physically gone (SST
//! steps cannot be re-read) and are accounted as *lost* by the caller.

use as_nn::model::ModelOptimizer;
use as_nn::optim::AdamState;
use as_replay::{BufferState, ReplaySchedule, TrainingBuffer};
use as_tensor::TensorRng;
use rand::rngs::StdRng;

use crate::consumer::ConsumerReport;
use crate::encode::{EncodeConfig, Sample};
use crate::snapshot::{ModelSnapshot, SnapshotError};

/// The learner's progress counters and the lengths of its append-only
/// histories at capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LearnerProgress {
    /// Windows processed so far.
    pub windows: u64,
    /// Samples pushed into the buffer so far.
    pub samples: u64,
    /// Entries of [`ConsumerReport::owned_windows`].
    owned_windows: usize,
    /// Entries of [`ConsumerReport::losses`].
    losses: usize,
    /// Entries of [`ConsumerReport::param_hashes`].
    param_hashes: usize,
}

/// A complete learner snapshot (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LearnerCheckpoint {
    /// The training model, unpublished (version 0).
    model: ModelSnapshot,
    vae: AdamState,
    inn: AdamState,
    buffer: BufferState<Sample>,
    /// [`ReplaySchedule::counts`]: windows received, iterations done.
    schedule: (u64, u64),
    enc_rng: [u64; 4],
    train_rng: [u64; 4],
    progress: LearnerProgress,
}

impl LearnerCheckpoint {
    /// Snapshot the full learner state: `rep`'s model, counters and
    /// history lengths, and the training state beside it. Capture never
    /// mutates anything — a run that checkpoints is bit-identical to one
    /// that does not.
    pub(crate) fn capture(
        rep: &mut ConsumerReport,
        encode: EncodeConfig,
        opt: &ModelOptimizer,
        buffer: &TrainingBuffer<Sample>,
        schedule: &ReplaySchedule,
        enc_rng: &StdRng,
        train_rng: &TensorRng,
    ) -> Self {
        let iterations = rep.losses.len() as u64;
        Self {
            model: ModelSnapshot::capture(&mut rep.model, encode, 0, iterations),
            vae: opt.vae.state(),
            inn: opt.inn.state(),
            buffer: buffer.state(),
            schedule: schedule.counts(),
            enc_rng: enc_rng.state(),
            train_rng: train_rng.state(),
            progress: LearnerProgress {
                windows: rep.windows,
                samples: rep.samples,
                owned_windows: rep.owned_windows.len(),
                losses: rep.losses.len(),
                param_hashes: rep.param_hashes.len(),
            },
        }
    }

    /// Roll the learner back to the captured state: `rep`'s model
    /// parameters (its gradient accumulators are kept), counters and
    /// histories, and the training state beside it. Returns the restored
    /// progress; an `Err` leaves everything untouched.
    pub(crate) fn restore(
        &self,
        rep: &mut ConsumerReport,
        opt: &mut ModelOptimizer,
        buffer: &mut TrainingBuffer<Sample>,
        schedule: &mut ReplaySchedule,
        enc_rng: &mut StdRng,
        train_rng: &mut TensorRng,
    ) -> Result<LearnerProgress, SnapshotError> {
        self.model.restore_into(&mut rep.model)?;
        opt.vae.restore(self.vae.clone());
        opt.inn.restore(self.inn.clone());
        buffer.restore(self.buffer.clone());
        schedule.restore_counts(self.schedule.0, self.schedule.1);
        *enc_rng = StdRng::from_state(self.enc_rng);
        *train_rng = TensorRng::from_state(self.train_rng);
        let p = self.progress;
        rep.windows = p.windows;
        rep.samples = p.samples;
        rep.owned_windows.truncate(p.owned_windows);
        rep.losses.truncate(p.losses);
        rep.param_hashes.truncate(p.param_hashes);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkflowConfig;
    use as_nn::ddp::param_hash;
    use as_nn::model::{LossReport, ModelConfig};
    use as_nn::optim::AdamConfig;
    use as_replay::{BufferConfig, StallPolicy};
    use rand::RngCore;
    use rand::SeedableRng;

    /// A fresh one-rank report over `model` built at `seed`.
    fn report(model: ModelConfig, seed: u64) -> ConsumerReport {
        let mut cfg = WorkflowConfig::small();
        (cfg.model, cfg.seed) = (model, seed);
        ConsumerReport::fresh(&cfg, 0, 1)
    }

    fn sample(step: u64) -> Sample {
        Sample {
            points: (0..24).map(|i| 0.01 * (step * 7 + i) as f32).collect(),
            spectrum: (0..16).map(|i| 0.1 * (step + i) as f32).collect(),
            region: step as usize % 2,
            step,
        }
    }

    /// The training state beside a report.
    struct Learner {
        opt: ModelOptimizer,
        buffer: TrainingBuffer<Sample>,
        schedule: ReplaySchedule,
        enc_rng: StdRng,
        train_rng: TensorRng,
    }

    impl Learner {
        fn new() -> Self {
            Self {
                opt: ModelOptimizer::new(AdamConfig::default(), 10.0),
                buffer: TrainingBuffer::new(BufferConfig::default(), 11),
                schedule: ReplaySchedule::new(4, StallPolicy::StallProducer),
                enc_rng: StdRng::seed_from_u64(3),
                train_rng: TensorRng::seeded(5),
            }
        }

        /// Push the samples of `steps`, draw from the encode stream and
        /// run one training step.
        fn advance(&mut self, rep: &mut ConsumerReport, steps: std::ops::Range<u64>) {
            steps.for_each(|s| self.buffer.push(sample(s)));
            let _ = self.enc_rng.next_u64();
            let batch: Vec<Sample> = (0..2).map(sample).collect();
            let (pts, spec) = crate::encode::batch_to_tensors(&batch, &rep.model.cfg);
            rep.model.zero_grad();
            let _ = rep
                .model
                .accumulate_gradients(&pts, &spec, &mut self.train_rng);
            self.opt.step(&mut rep.model);
        }

        fn capture(&self, rep: &mut ConsumerReport) -> LearnerCheckpoint {
            LearnerCheckpoint::capture(
                rep,
                EncodeConfig::default(),
                &self.opt,
                &self.buffer,
                &self.schedule,
                &self.enc_rng,
                &self.train_rng,
            )
        }

        fn restore(
            &mut self,
            ckpt: &LearnerCheckpoint,
            rep: &mut ConsumerReport,
        ) -> Result<LearnerProgress, SnapshotError> {
            let Self {
                opt,
                buffer,
                schedule,
                enc_rng,
                train_rng,
            } = self;
            ckpt.restore(rep, opt, buffer, schedule, enc_rng, train_rng)
        }
    }

    #[test]
    fn capture_restore_round_trips_bit_identically() {
        let mut rep = report(ModelConfig::small(), 7);
        let mut l = Learner::new();
        l.advance(&mut rep, 0..6);
        l.schedule.restore_counts(6, 24);
        (rep.windows, rep.samples) = (6, 6);
        rep.owned_windows = vec![1, 3, 5];
        rep.losses = vec![LossReport {
            total: 2.0,
            ..LossReport::default()
        }];
        rep.param_hashes = vec![0xDEAD, 0xBEEF];
        let (losses, hashes) = (rep.losses.clone(), rep.param_hashes.clone());
        let ckpt = l.capture(&mut rep);
        let hash_at_capture = param_hash(&mut rep.model);

        // Diverge: more training, data and RNG draws, longer histories.
        l.advance(&mut rep, 6..9);
        (rep.windows, rep.samples) = (9, 9);
        rep.owned_windows.push(7);
        rep.losses.push(LossReport::default());
        rep.param_hashes.push(0xF00D);
        assert_ne!(param_hash(&mut rep.model), hash_at_capture);

        // Restore and compare every restorable piece of state.
        assert_eq!(l.restore(&ckpt, &mut rep), Ok(ckpt.progress));
        assert_eq!((rep.windows, rep.samples), (6, 6));
        assert_eq!(rep.owned_windows, [1, 3, 5]);
        assert_eq!((&rep.losses, &rep.param_hashes), (&losses, &hashes));
        assert_eq!(param_hash(&mut rep.model), hash_at_capture);
        assert_eq!(l.schedule.counts(), (6, 24));

        // A recapture from restored state is bit-identical to the original.
        assert_eq!(l.capture(&mut rep), ckpt);
    }

    #[test]
    fn a_torn_checkpoint_is_refused_and_the_model_kept() {
        let mut rep = report(ModelConfig::small(), 7);
        let mut l = Learner::new();
        l.advance(&mut rep, 0..4);
        let mut ckpt = l.capture(&mut rep);
        l.advance(&mut rep, 4..6);
        let before = param_hash(&mut rep.model);
        let word = &mut ckpt.model.params[1][0];
        *word = f32::from_bits(word.to_bits() ^ 1);
        assert_eq!(
            l.restore(&ckpt, &mut rep),
            Err(SnapshotError::Torn { version: 0 })
        );
        assert_eq!(param_hash(&mut rep.model), before);
    }

    #[test]
    fn a_checkpoint_of_another_config_is_refused() {
        let mut rep = report(ModelConfig::small(), 7);
        let mut l = Learner::new();
        l.advance(&mut rep, 0..4);
        let ckpt = l.capture(&mut rep);
        // Another loss weight (same shapes and permutations), or another
        // construction seed (same configuration, other INN permutations).
        let other_cfg = ModelConfig {
            w_kl: 0.5,
            ..ModelConfig::small()
        };
        for mut other in [report(other_cfg, 7), report(ModelConfig::small(), 8)] {
            let before = param_hash(&mut other.model);
            let refused = l.restore(&ckpt, &mut other);
            assert_eq!(refused, Err(SnapshotError::ConfigMismatch { version: 0 }));
            assert_eq!(param_hash(&mut other.model), before);
        }
    }
}
