//! Immutable, versioned learner snapshots — the publish side of the
//! surrogate serving tier.
//!
//! The continual learner pays off only when the trained surrogate can be
//! *queried* while (and after) training runs. This module owns the
//! training-side half of that contract:
//!
//! - [`ModelSnapshot`]: a self-contained, immutable copy of the model —
//!   parameter tensors, normalization ([`EncodeConfig`]), architecture
//!   ([`as_nn::model::ModelConfig`]) and a monotone version id, plus the
//!   FNV-1a parameter hash as a bit-integrity witness. A snapshot can be
//!   [`ModelSnapshot::instantiate`]d into a fresh model anywhere; the
//!   hash check on restore makes torn or corrupted weights a hard panic
//!   instead of silently wrong inference.
//! - [`SnapshotSink`]: where published snapshots go. The serving crate
//!   (`as-serve`) implements this for its inference engine; tests can
//!   implement it with a channel.
//! - [`SnapshotPublisher`]: the consumer driver's bookkeeping — decides
//!   *when* a snapshot is due (every `publish_every` training
//!   iterations, a counter that is bit-identical across DDP ranks) and
//!   keeps the version counter monotone across publishes, restarts and
//!   learner-root failovers.
//!
//! In a group of learners only the learner root captures and publishes;
//! the payload is priced through the group's
//! [`as_cluster::collective::Collective`] (`account_broadcast_payload`),
//! so under the netsim backend snapshot distribution is charged the same
//! modelled fabric cost as gradient buckets and sample broadcasts.

use crate::config::ServingConfig;
use crate::encode::EncodeConfig;
use as_nn::ddp::param_hash;
use as_nn::model::{ArtificialScientistModel, ModelConfig};
use as_tensor::Tensor;
use std::sync::Arc;

/// An immutable, versioned copy of the learner's model: everything a
/// serving replica needs to answer inversion queries, with no live
/// aliasing of the training-side tensors.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Monotone snapshot version (1-based; bumped on every publish).
    pub version: u64,
    /// Training-iteration counter at capture time.
    pub iteration: u64,
    /// Architecture/loss configuration needed to rebuild the model.
    pub model_cfg: ModelConfig,
    /// Normalization parameters queries must be encoded with.
    pub encode: EncodeConfig,
    /// Parameter tensors in [`ArtificialScientistModel::visit_all`]
    /// order (VAE then INN; stable).
    pub params: Vec<Vec<f32>>,
    /// FNV-1a hash of the parameter bits at capture
    /// ([`as_nn::ddp::param_hash`]) — asserted again after restore.
    pub param_hash: u64,
}

impl ModelSnapshot {
    /// Copy the model's parameters out into an immutable snapshot.
    /// (`&mut` only because the visitor API threads gradient slots;
    /// capture never mutates the model.)
    pub fn capture(
        model: &mut ArtificialScientistModel,
        encode: EncodeConfig,
        version: u64,
        iteration: u64,
    ) -> Self {
        let mut params: Vec<Vec<f32>> = Vec::new();
        model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
            params.push(p.data().to_vec());
        });
        let hash = param_hash(model);
        Self {
            version,
            iteration,
            model_cfg: model.cfg.clone(),
            encode,
            params,
            param_hash: hash,
        }
    }

    /// Serialized payload size used for collective accounting: the
    /// parameter bits plus a small header (version, iteration, hash and
    /// the normalization constants).
    pub fn payload_bytes(&self) -> u64 {
        let body: usize = self.params.iter().map(|p| p.len() * 4).sum();
        (body + 64) as u64
    }

    /// Rebuild a standalone model from the snapshot and verify the
    /// parameter hash — the torn-weights guard: a snapshot that does not
    /// reproduce its captured bits panics here instead of serving wrong
    /// answers.
    pub fn instantiate(&self) -> ArtificialScientistModel {
        let mut model = ArtificialScientistModel::new(self.model_cfg.clone(), 0);
        let mut idx = 0usize;
        model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
            let src = self.params.get(idx).unwrap_or_else(|| {
                panic!("snapshot v{} has too few tensors ({idx})", self.version)
            });
            assert_eq!(
                p.data().len(),
                src.len(),
                "snapshot v{} tensor {idx} length mismatch",
                self.version
            );
            p.data_mut().copy_from_slice(src);
            idx += 1;
        });
        assert_eq!(
            idx,
            self.params.len(),
            "snapshot v{} tensor count mismatch",
            self.version
        );
        let h = param_hash(&mut model);
        assert_eq!(
            h, self.param_hash,
            "torn snapshot v{}: parameter hash mismatch after restore",
            self.version
        );
        model
    }
}

/// Where published snapshots go. Implemented by the serving tier's
/// inference engine (`as_serve::EngineSink`); any implementation must be
/// safe to call from whichever consumer rank currently holds the
/// learner-root role.
pub trait SnapshotSink: Send + Sync {
    /// Deliver one published snapshot. Versions arrive strictly
    /// increasing (monotone across restarts and root failovers).
    fn publish(&self, snapshot: ModelSnapshot);
}

/// Consumer-driver bookkeeping for snapshot publication: the due-check
/// on the (rank-identical) training-iteration counter and the monotone
/// version counter.
pub struct SnapshotPublisher {
    sink: Arc<dyn SnapshotSink>,
    publish_every: u64,
    encode: EncodeConfig,
    version: u64,
}

impl SnapshotPublisher {
    /// New publisher over `sink` with the serving config's cadence.
    pub fn new(sink: Arc<dyn SnapshotSink>, serving: &ServingConfig, encode: EncodeConfig) -> Self {
        assert!(serving.publish_every >= 1, "publish_every must be >= 1");
        Self {
            sink,
            publish_every: serving.publish_every,
            encode,
            version: 0,
        }
    }

    /// True when a snapshot is due after `iterations` completed training
    /// iterations. Every DDP rank computes the same answer, so the
    /// group's collective schedule stays aligned.
    pub fn due(&self, iterations: u64) -> bool {
        iterations > 0 && iterations.is_multiple_of(self.publish_every)
    }

    /// Bump the version and capture a snapshot (the learner root's
    /// half; follow with [`SnapshotPublisher::send`]).
    pub fn capture(
        &mut self,
        model: &mut ArtificialScientistModel,
        iteration: u64,
    ) -> ModelSnapshot {
        self.version += 1;
        ModelSnapshot::capture(model, self.encode, self.version, iteration)
    }

    /// Deliver a captured snapshot to the sink.
    pub fn send(&self, snapshot: ModelSnapshot) {
        self.sink.publish(snapshot);
    }

    /// Bump the version without capturing — the non-root DDP ranks'
    /// half, keeping every rank's version counter in lockstep.
    pub fn skip(&mut self) {
        self.version += 1;
    }

    /// Snapshots published (or skipped past) so far.
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_nn::model::ModelConfig;

    fn tiny_model(seed: u64) -> ArtificialScientistModel {
        ArtificialScientistModel::new(ModelConfig::small(), seed)
    }

    #[test]
    fn capture_restore_roundtrip_is_bitwise() {
        let mut m = tiny_model(7);
        let before = param_hash(&mut m);
        let snap = ModelSnapshot::capture(&mut m, EncodeConfig::default(), 1, 4);
        assert_eq!(snap.param_hash, before);
        assert_eq!(param_hash(&mut m), before, "capture must not mutate");
        let mut restored = snap.instantiate();
        assert_eq!(param_hash(&mut restored), before);
        assert!(snap.payload_bytes() > 64);
    }

    #[test]
    #[should_panic(expected = "torn snapshot")]
    fn corrupted_snapshot_is_rejected() {
        let mut m = tiny_model(7);
        let mut snap = ModelSnapshot::capture(&mut m, EncodeConfig::default(), 1, 0);
        snap.params[0][0] += 1.0;
        let _ = snap.instantiate();
    }

    #[test]
    fn publisher_cadence_and_versions() {
        struct Count(std::sync::atomic::AtomicU64);
        impl SnapshotSink for Count {
            fn publish(&self, s: ModelSnapshot) {
                let n = self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert_eq!(s.version, n + 1, "versions are monotone from 1");
            }
        }
        let sink = Arc::new(Count(std::sync::atomic::AtomicU64::new(0)));
        let serving = ServingConfig {
            publish_every: 3,
            ..ServingConfig::default()
        };
        let mut p = SnapshotPublisher::new(sink.clone(), &serving, EncodeConfig::default());
        let mut m = tiny_model(1);
        for it in 1..=9u64 {
            if p.due(it) {
                let s = p.capture(&mut m, it);
                p.send(s);
            }
        }
        assert!(!p.due(0), "iteration 0 never publishes");
        assert_eq!(p.version(), 3);
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::SeqCst), 3);
    }
}
