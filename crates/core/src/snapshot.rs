//! Immutable, versioned learner snapshots — the publish side of the
//! surrogate serving tier.
//!
//! The continual learner pays off only when the trained surrogate can be
//! *queried* while (and after) training runs. This module owns the
//! training-side half of that contract:
//!
//! - [`ModelSnapshot`]: a self-contained, immutable copy of the model —
//!   parameter tensors, the INN's channel permutations, normalization
//!   ([`EncodeConfig`]), architecture ([`as_nn::model::ModelConfig`]) and
//!   a monotone version id, plus [`as_nn::ddp::param_hash`] of the
//!   parameters and permutations as a bit-integrity witness, taken while
//!   capture copies them. A snapshot turns anywhere into a serving model
//!   built from those buffers ([`ModelSnapshot::into_model`]: no
//!   throw-away initialisation, no gradients, the buffers moved, not
//!   copied); the hash, taken again as the model is built, turns torn or
//!   corrupted weights into a [`SnapshotError`] instead of silently wrong
//!   inference. The learner checkpoint keeps its model as a snapshot too
//!   and passes the same guard on restore.
//! - [`SnapshotSink`]: where published snapshots go. The serving crate
//!   (`as-serve`) implements this for its inference engine; tests can
//!   implement it with a channel.
//! - `SnapshotPublisher`: the consumer driver's bookkeeping — decides
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
use as_nn::ddp::ParamHasher;
use as_nn::model::{ArtificialScientistModel, ModelConfig};
use as_tensor::Tensor;
use std::fmt;
use std::sync::Arc;

/// Why a snapshot was refused. `version` is the snapshot's (0 for a
/// learner checkpoint's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The parameters and permutations do not hash to the snapshot's
    /// `param_hash`: torn or corrupted weights.
    Torn { version: u64 },
    /// The snapshot was captured from a model of another architecture:
    /// another [`ModelConfig`], or INN permutations drawn from another
    /// construction seed.
    ConfigMismatch { version: u64 },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Torn { version } => {
                write!(f, "torn snapshot v{version}: parameter hash mismatch")
            }
            Self::ConfigMismatch { version } => {
                write!(f, "snapshot v{version} is of another model architecture")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An immutable, versioned copy of the learner's model: everything a
/// serving replica needs to answer inversion queries, with no live
/// aliasing of the training-side tensors.
#[derive(Debug, Clone, PartialEq)]
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
    /// The INN's channel permutations, in block order. They come from the
    /// learner's construction seed, so a served model needs them as much
    /// as the weights.
    pub perms: Vec<Vec<u32>>,
    /// [`as_nn::ddp::param_hash`] of the parameters and the permutations
    /// at capture — checked again while [`Self::into_model`] builds the
    /// served model from them, and before a learner restore writes them.
    pub param_hash: u64,
}

impl ModelSnapshot {
    /// Copy the model's parameters and permutations out into an immutable
    /// snapshot, hashing each tensor as it is copied. (`&mut` only because
    /// the visitor API threads gradient slots; capture never mutates the
    /// model.)
    pub fn capture(
        model: &mut ArtificialScientistModel,
        encode: EncodeConfig,
        version: u64,
        iteration: u64,
    ) -> Self {
        let mut hash = ParamHasher::default();
        let mut params: Vec<Vec<f32>> = Vec::new();
        model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
            hash.update(p.data());
            params.push(p.data().to_vec());
        });
        let perms = perms_of(model);
        for p in &perms {
            hash.update_words(p.iter().copied());
        }
        Self {
            version,
            iteration,
            model_cfg: model.cfg.clone(),
            encode,
            params,
            perms,
            param_hash: hash.finish(),
        }
    }

    /// Serialized payload size used for collective accounting: the
    /// parameter bits, the permutations as u32 indices, and a small header
    /// (version, iteration, hash and the normalization constants).
    pub(crate) fn payload_bytes(&self) -> u64 {
        let body: usize = self.params.iter().map(|p| p.len() * 4).sum();
        let perms: usize = self.perms.iter().map(|p| p.len() * 4).sum();
        (body + perms + 64) as u64
    }

    /// [`Self::into_model`] on a copy, keeping the snapshot.
    #[cfg(test)]
    fn instantiate(&self) -> Result<ArtificialScientistModel, SnapshotError> {
        self.clone().into_model()
    }

    /// Rebuild a standalone serving model from the snapshot's buffers and
    /// permutations, and verify the parameter hash — the torn-weights
    /// guard: a snapshot that does not reproduce its captured bits is
    /// [`SnapshotError::Torn`] here instead of serving wrong answers. The
    /// buffers move into the served model and are hashed where they lie,
    /// so nothing is copied.
    pub fn into_model(self) -> Result<ArtificialScientistModel, SnapshotError> {
        let version = self.version;
        let (model, found) =
            ArtificialScientistModel::from_buffers(self.model_cfg, self.params, self.perms);
        (found == self.param_hash)
            .then_some(model)
            .ok_or(SnapshotError::Torn { version })
    }

    /// Write the snapshot's parameters into `model`, a model in training
    /// (its gradient accumulators are kept), after checking that `model`
    /// has the snapshot's architecture ([`SnapshotError::ConfigMismatch`])
    /// and that the snapshot still hashes to [`Self::param_hash`]
    /// ([`SnapshotError::Torn`]). On an error `model` is untouched.
    pub(crate) fn restore_into(
        &self,
        model: &mut ArtificialScientistModel,
    ) -> Result<(), SnapshotError> {
        if self.model_cfg != model.cfg || self.perms != perms_of(model) {
            return Err(SnapshotError::ConfigMismatch {
                version: self.version,
            });
        }
        self.verify()?;
        let mut src = self.params.iter();
        model.visit_all(&mut |p: &mut Tensor, _g: &mut Tensor| {
            if let Some(s) = src.next() {
                p.data_mut().copy_from_slice(s);
            }
        });
        Ok(())
    }

    /// Hash the buffers and permutations where they lie and check the
    /// result against [`Self::param_hash`] — [`Self::into_model`]'s guard
    /// for a snapshot that is read in place rather than moved.
    fn verify(&self) -> Result<(), SnapshotError> {
        let mut hash = ParamHasher::default();
        for p in &self.params {
            hash.update(p);
        }
        for p in &self.perms {
            hash.update_words(p.iter().copied());
        }
        (hash.finish() == self.param_hash)
            .then_some(())
            .ok_or(SnapshotError::Torn {
                version: self.version,
            })
    }
}

/// The INN's channel permutations as u32 indices, in block order.
fn perms_of(model: &ArtificialScientistModel) -> Vec<Vec<u32>> {
    model
        .inn
        .permutations()
        .map(|p| p.iter().map(|&j| j as u32).collect())
        .collect()
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
pub(crate) struct SnapshotPublisher {
    sink: Arc<dyn SnapshotSink>,
    publish_every: u64,
    encode: EncodeConfig,
    version: u64,
}

impl SnapshotPublisher {
    /// New publisher over `sink` with the serving config's cadence.
    pub(crate) fn new(
        sink: Arc<dyn SnapshotSink>,
        serving: &ServingConfig,
        encode: EncodeConfig,
    ) -> Self {
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
    pub(crate) fn due(&self, iterations: u64) -> bool {
        iterations > 0 && iterations.is_multiple_of(self.publish_every)
    }

    /// Bump the version and capture a snapshot (the learner root's
    /// half; follow with [`SnapshotPublisher::send`]).
    pub(crate) fn capture(
        &mut self,
        model: &mut ArtificialScientistModel,
        iteration: u64,
    ) -> ModelSnapshot {
        self.version += 1;
        ModelSnapshot::capture(model, self.encode, self.version, iteration)
    }

    /// Deliver a captured snapshot to the sink.
    pub(crate) fn send(&self, snapshot: ModelSnapshot) {
        self.sink.publish(snapshot);
    }

    /// Bump the version without capturing — the non-root DDP ranks'
    /// half, keeping every rank's version counter in lockstep.
    pub(crate) fn skip(&mut self) {
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_nn::ddp::param_hash;
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
        let mut restored = snap.instantiate().unwrap();
        assert_eq!(param_hash(&mut restored), before);
        assert!(snap.payload_bytes() > 64);
        // The INN permutations come from the construction seed: a restore
        // that dropped them would invert differently at any seed but 0.
        let spectra = as_tensor::TensorRng::seeded(3).standard_normal([2, m.cfg.spectrum_dim]);
        let draw = |model: &ArtificialScientistModel| -> Vec<u32> {
            let clouds = model.invert_radiation(&spectra, 8, &mut as_tensor::TensorRng::seeded(5));
            clouds.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(draw(&restored), draw(&m));
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let mut m = tiny_model(7);
        let mut snap = ModelSnapshot::capture(&mut m, EncodeConfig::default(), 1, 0);
        assert_eq!(snap.verify(), Ok(()));
        snap.params[0][0] += 1.0;
        let torn = Err(SnapshotError::Torn { version: 1 });
        assert_eq!(snap.instantiate().map(|_| ()), torn);
        assert_eq!(snap.verify(), torn);
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
        assert_eq!(p.version, 3);
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::SeqCst), 3);
    }
}
