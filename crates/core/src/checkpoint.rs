//! Learner checkpoint/restart.
//!
//! [`LearnerCheckpoint`] captures everything a consumer rank needs to
//! resume training bit-identically after a kill: model parameters, both
//! Adam states, the full replay buffer (samples + its RNG), the replay
//! schedule counters, the encode and training RNG streams, and the
//! learner's progress counters (windows, samples, per-iteration losses
//! and `param_hash` history — the DDP step counter lives in the Adam
//! `step` fields). The container is flat `BTreeMap`s of named `f64`
//! arrays and scalars, plus a third map of raw `u64` words for RNG
//! states and counters, so the snapshot stays serializable and
//! diff-friendly. `f32` model data round-trips through `f64` losslessly.
//!
//! A restore rolls the learner state back to the capture point; windows
//! consumed from the stream after the capture are physically gone (SST
//! steps cannot be re-read) and are accounted as *lost* by the caller.

use std::collections::BTreeMap;

use as_nn::model::{ArtificialScientistModel, LossReport, ModelOptimizer};
use as_nn::optim::{AdamState, ParamVisitor};
use as_replay::{BufferState, ReplaySchedule, TrainingBuffer};
use as_tensor::{Tensor, TensorRng};
use rand::rngs::StdRng;

use crate::encode::Sample;

/// Non-tensor learner progress restored alongside the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LearnerProgress {
    /// Windows processed so far.
    pub windows: u64,
    /// Samples pushed into the buffer so far.
    pub samples: u64,
    /// PIC iteration indices of the windows this rank owned, in order.
    pub owned_windows: Vec<u64>,
    /// Per-iteration loss history.
    pub losses: Vec<LossReport>,
    /// Per-iteration `param_hash` history.
    pub param_hashes: Vec<u64>,
}

/// A complete learner snapshot (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LearnerCheckpoint {
    /// Named `f64` arrays: model parameters, Adam moments, buffer
    /// sample payloads, loss history.
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// Named scalars.
    pub scalars: BTreeMap<String, f64>,
    /// Named raw `u64` words: RNG states and integer counters.
    pub words: BTreeMap<String, Vec<u64>>,
}

/// Visitor that snapshots every parameter tensor as an `f64` array.
struct CaptureParams {
    params: Vec<Vec<f64>>,
}

impl ParamVisitor for CaptureParams {
    fn visit(&mut self, param: &mut Tensor, _grad: &mut Tensor) {
        self.params
            .push(param.data().iter().map(|&v| v as f64).collect());
    }
}

/// Visitor that writes captured arrays back into the parameter tensors.
struct RestoreParams<'a> {
    params: &'a [Vec<f64>],
    cursor: usize,
}

impl ParamVisitor for RestoreParams<'_> {
    fn visit(&mut self, param: &mut Tensor, _grad: &mut Tensor) {
        let src = &self.params[self.cursor];
        self.cursor += 1;
        let dst = param.data_mut();
        assert_eq!(dst.len(), src.len(), "checkpoint/model shape mismatch");
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d = s as f32;
        }
    }
}

fn put_adam(ckpt: &mut LearnerCheckpoint, group: &str, s: &AdamState) {
    ckpt.words
        .insert(format!("adam/{group}/step"), vec![s.step]);
    for (i, m) in s.m.iter().enumerate() {
        ckpt.arrays.insert(
            format!("adam/{group}/m{i:04}"),
            m.iter().map(|&v| v as f64).collect(),
        );
    }
    for (i, v) in s.v.iter().enumerate() {
        ckpt.arrays.insert(
            format!("adam/{group}/v{i:04}"),
            v.iter().map(|&v| v as f64).collect(),
        );
    }
}

fn take_adam(ckpt: &LearnerCheckpoint, group: &str) -> AdamState {
    let step = ckpt.words[&format!("adam/{group}/step")][0];
    let collect = |prefix: &str| -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        while let Some(a) = ckpt
            .arrays
            .get(&format!("adam/{group}/{prefix}{:04}", out.len()))
        {
            out.push(a.iter().map(|&v| v as f32).collect());
        }
        out
    };
    AdamState {
        step,
        m: collect("m"),
        v: collect("v"),
    }
}

fn put_samples(ckpt: &mut LearnerCheckpoint, group: &str, samples: &[Sample]) {
    for (i, s) in samples.iter().enumerate() {
        ckpt.arrays.insert(
            format!("buffer/{group}/{i:04}/points"),
            s.points.iter().map(|&v| v as f64).collect(),
        );
        ckpt.arrays.insert(
            format!("buffer/{group}/{i:04}/spectrum"),
            s.spectrum.iter().map(|&v| v as f64).collect(),
        );
        ckpt.words.insert(
            format!("buffer/{group}/{i:04}/meta"),
            vec![s.region as u64, s.step],
        );
    }
}

fn take_samples(ckpt: &LearnerCheckpoint, group: &str, n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let points = &ckpt.arrays[&format!("buffer/{group}/{i:04}/points")];
            let spectrum = &ckpt.arrays[&format!("buffer/{group}/{i:04}/spectrum")];
            let meta = &ckpt.words[&format!("buffer/{group}/{i:04}/meta")];
            Sample {
                points: points.iter().map(|&v| v as f32).collect(),
                spectrum: spectrum.iter().map(|&v| v as f32).collect(),
                region: meta[0] as usize,
                step: meta[1],
            }
        })
        .collect()
}

impl LearnerCheckpoint {
    /// Snapshot the full learner state. Capture never mutates anything —
    /// a run that checkpoints is bit-identical to one that does not.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        model: &mut ArtificialScientistModel,
        opt: &ModelOptimizer,
        buffer: &TrainingBuffer<Sample>,
        schedule: &ReplaySchedule,
        enc_rng: &StdRng,
        train_rng: &TensorRng,
        progress: &LearnerProgress,
    ) -> Self {
        let mut ckpt = LearnerCheckpoint::default();

        let mut cap = CaptureParams { params: Vec::new() };
        model.visit_all(&mut cap);
        for (i, p) in cap.params.iter().enumerate() {
            ckpt.arrays.insert(format!("model/p{i:04}"), p.clone());
        }

        put_adam(&mut ckpt, "vae", &opt.vae.state());
        put_adam(&mut ckpt, "inn", &opt.inn.state());

        let bs: BufferState<Sample> = buffer.state();
        put_samples(&mut ckpt, "now", &bs.now);
        put_samples(&mut ckpt, "ep", &bs.ep);
        ckpt.words.insert(
            "buffer/len".into(),
            vec![bs.now.len() as u64, bs.ep.len() as u64],
        );
        ckpt.words.insert("buffer/rng".into(), bs.rng.to_vec());
        ckpt.words
            .insert("buffer/counts".into(), vec![bs.received, bs.evicted]);

        let (steps, iters) = schedule.counts();
        ckpt.words.insert("schedule".into(), vec![steps, iters]);
        ckpt.words
            .insert("rng/enc".into(), enc_rng.state().to_vec());
        ckpt.words
            .insert("rng/train".into(), train_rng.state().to_vec());

        ckpt.words
            .insert("progress".into(), vec![progress.windows, progress.samples]);
        ckpt.words
            .insert("owned_windows".into(), progress.owned_windows.clone());
        ckpt.words
            .insert("param_hashes".into(), progress.param_hashes.clone());
        for (name, get) in [
            ("cd", (|l: &LossReport| l.cd) as fn(&LossReport) -> f64),
            ("kl", |l| l.kl),
            ("mse", |l| l.mse),
            ("mmd_z", |l| l.mmd_z),
            ("mmd_n", |l| l.mmd_n),
            ("total", |l| l.total),
        ] {
            ckpt.arrays.insert(
                format!("losses/{name}"),
                progress.losses.iter().map(get).collect(),
            );
        }
        ckpt
    }

    /// Restore the learner to the captured state, returning the restored
    /// progress counters. Panics on shape mismatch — a checkpoint only
    /// fits the configuration that produced it.
    pub(crate) fn restore(
        &self,
        model: &mut ArtificialScientistModel,
        opt: &mut ModelOptimizer,
        buffer: &mut TrainingBuffer<Sample>,
        schedule: &mut ReplaySchedule,
        enc_rng: &mut StdRng,
        train_rng: &mut TensorRng,
    ) -> LearnerProgress {
        let mut params = Vec::new();
        while let Some(p) = self.arrays.get(&format!("model/p{:04}", params.len())) {
            params.push(p.clone());
        }
        let mut rv = RestoreParams {
            params: &params,
            cursor: 0,
        };
        model.visit_all(&mut rv);
        assert_eq!(rv.cursor, params.len(), "checkpoint/model param count");

        opt.vae.restore(take_adam(self, "vae"));
        opt.inn.restore(take_adam(self, "inn"));

        let len = &self.words["buffer/len"];
        let rng_words = &self.words["buffer/rng"];
        let counts = &self.words["buffer/counts"];
        buffer.restore(BufferState {
            now: take_samples(self, "now", len[0] as usize),
            ep: take_samples(self, "ep", len[1] as usize),
            rng: [rng_words[0], rng_words[1], rng_words[2], rng_words[3]],
            received: counts[0],
            evicted: counts[1],
        });

        let sched = &self.words["schedule"];
        schedule.restore_counts(sched[0], sched[1]);
        let e = &self.words["rng/enc"];
        *enc_rng = StdRng::from_state([e[0], e[1], e[2], e[3]]);
        let t = &self.words["rng/train"];
        *train_rng = TensorRng::from_state([t[0], t[1], t[2], t[3]]);

        let prog = &self.words["progress"];
        let n = self.arrays["losses/total"].len();
        let losses = (0..n)
            .map(|i| LossReport {
                cd: self.arrays["losses/cd"][i],
                kl: self.arrays["losses/kl"][i],
                mse: self.arrays["losses/mse"][i],
                mmd_z: self.arrays["losses/mmd_z"][i],
                mmd_n: self.arrays["losses/mmd_n"][i],
                total: self.arrays["losses/total"][i],
            })
            .collect();
        LearnerProgress {
            windows: prog[0],
            samples: prog[1],
            owned_windows: self.words["owned_windows"].clone(),
            losses,
            param_hashes: self.words["param_hashes"].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_nn::ddp::param_hash;
    use as_nn::model::ModelConfig;
    use as_nn::optim::AdamConfig;
    use as_nn::vae::VaeConfig;
    use as_replay::{BufferConfig, StallPolicy};
    use rand::RngCore;
    use rand::SeedableRng;

    fn tiny_cfg() -> ModelConfig {
        let mut cfg = ModelConfig::small();
        cfg.vae = VaeConfig {
            point_dim: 6,
            encoder_channels: vec![6, 8, 16],
            head_hidden: 16,
            latent: 12,
            decoder_base: 2,
            decoder_channels: vec![4, 6],
        };
        cfg.spectrum_dim = 6;
        cfg.inn_hidden = vec![12];
        cfg.inn_blocks = 2;
        cfg
    }

    fn sample(step: u64) -> Sample {
        Sample {
            points: (0..24).map(|i| 0.01 * (step * 7 + i) as f32).collect(),
            spectrum: (0..6).map(|i| 0.1 * (step + i) as f32).collect(),
            region: step as usize % 2,
            step,
        }
    }

    #[test]
    fn capture_restore_round_trips_bit_identically() {
        let mc = tiny_cfg();
        let mut model = ArtificialScientistModel::new(mc.clone(), 7);
        let mut opt = ModelOptimizer::new(AdamConfig::default(), 10.0);
        let mut buffer: TrainingBuffer<Sample> = TrainingBuffer::new(BufferConfig::default(), 11);
        let mut schedule = ReplaySchedule::new(4, StallPolicy::StallProducer);
        let mut enc_rng = StdRng::seed_from_u64(3);
        let mut train_rng = TensorRng::seeded(5);

        // Advance everything so the state is non-trivial.
        for s in 0..6 {
            buffer.push(sample(s));
        }
        schedule.restore_counts(6, 24);
        let _ = enc_rng.next_u64();
        let batch: Vec<Sample> = (0..2).map(sample).collect();
        let (pts, spec) = crate::encode::batch_to_tensors(&batch, &mc);
        model.zero_grad();
        let _ = model.accumulate_gradients(&pts, &spec, &mut train_rng);
        opt.step(&mut model);

        let progress = LearnerProgress {
            windows: 6,
            samples: 6,
            owned_windows: vec![1, 3, 5],
            losses: vec![LossReport {
                cd: 1.0,
                kl: 0.5,
                mse: 0.25,
                mmd_z: 0.125,
                mmd_n: 0.0625,
                total: 2.0,
            }],
            param_hashes: vec![0xDEAD, 0xBEEF],
        };
        let ckpt = LearnerCheckpoint::capture(
            &mut model, &opt, &buffer, &schedule, &enc_rng, &train_rng, &progress,
        );
        assert_eq!(ckpt.words["progress"][0], 6);
        let hash_at_capture = param_hash(&mut model);

        // Diverge: more training, more data, more RNG draws.
        for s in 6..9 {
            buffer.push(sample(s));
        }
        let _ = enc_rng.next_u64();
        model.zero_grad();
        let _ = model.accumulate_gradients(&pts, &spec, &mut train_rng);
        opt.step(&mut model);
        assert_ne!(param_hash(&mut model), hash_at_capture);

        // Restore and compare every restorable piece of state.
        let restored = ckpt.restore(
            &mut model,
            &mut opt,
            &mut buffer,
            &mut schedule,
            &mut enc_rng,
            &mut train_rng,
        );
        assert_eq!(restored, progress);
        assert_eq!(param_hash(&mut model), hash_at_capture);
        assert_eq!(schedule.counts(), (6, 24));

        // A recapture from restored state is bit-identical to the original.
        let again = LearnerCheckpoint::capture(
            &mut model, &opt, &buffer, &schedule, &enc_rng, &train_rng, &restored,
        );
        assert_eq!(again, ckpt);
    }
}
