//! The MLapp: neural-network layers, the VAE+INN model of the paper, its
//! point-cloud losses, the Adam optimiser and data-parallel training.
//!
//! Architecture (paper Fig. 7):
//! - a **PointNet-style encoder** turns a 6-D point cloud of particle
//!   positions+momenta into a latent vector (1×1 convolutions
//!   6→16→32→64→128→256→608, max-pool over particles, two MLP heads for
//!   μ and σ);
//! - a **deconvolution decoder** reconstructs a point cloud from the latent
//!   (FC → (4,4,4,16) → two stride-2³ transposed 3-D convolutions → 4096
//!   particles);
//! - an **INN** of four GLOW coupling blocks maps the latent to the
//!   concatenation of the radiation spectrum `I` and a normal residual `N`,
//!   invertibly, so sampling `N` inverts radiation back to latents.
//!
//! The total loss is Eq. (1) of the paper:
//! `L = L_CD + 0.001·L_KL + 0.3·L_MSE + 40·L_MMD(z,z′) + 0.03·L_MMD(N,N′)`.
//!
//! Gradients are exact manual backward passes; every layer is
//! finite-difference checked in its unit tests. There is no autograd tape:
//! each `forward` returns a context object consumed by `backward`, which
//! lets the INN subnets run a forward *and* an inverse pass in the same
//! step while accumulating into the same parameter gradients.
//!
//! # Summation order, activations stored once, one workspace
//!
//! Every matrix product goes through `as_tensor::matmul`'s kernel, whose
//! output elements are `((0 + a₀b₀) + a₁b₁) + …` in ascending `p` — a
//! function of the element's own operands, not of the batch around it —
//! and every other reduction here is sequential in a fixed order. So a
//! batched forward equals a per-row one bit for bit, and replicas fed the
//! same gradients stay identical.
//!
//! Each activation is stored **once**: a context holds a layer's output
//! only as the next layer's input, a layer's own input stays with its
//! caller (who passes it to `backward` again), and an activation's
//! derivative is read from its output. `backward` consumes the context and
//! hands its buffers, and every gradient it makes internally, back to the
//! `as_tensor::Workspace` it was given; a `dy` argument is only borrowed.
//! The training workspace is **owned by [`ArtificialScientistModel`]**, so
//! a steady-state `zero_grad` + `accumulate_gradients` + optimiser step
//! allocates nothing of activation size; `&self` inference entry points
//! run on a throw-away workspace. Recycled contents are never read.
//!
//! # DDP invariants
//!
//! Data-parallel training ([`ddp`]) replicates the model across thread
//! ranks seeded identically, then averages gradients every iteration —
//! either as one flat buffer ([`ddp::sync_gradients`]) or in fixed-size
//! buckets reduced as they fill ([`ddp::sync_gradients_bucketed`], what
//! the streaming consumer ranks of `as-core` use alongside their
//! `ConsumerPolicy`). Both schemes are deterministic per-scheme and
//! produce **bit-identical gradients on every rank**, so parameters stay
//! bit-identical for the whole run — [`ddp::param_hash`] is the cheap
//! witness the consumers assert each iteration.

pub(crate) mod cells;
pub mod contrastive;
pub mod ddp;
pub mod init;
pub mod inn;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod vae;

pub use inn::{CouplingBlock, Inn};
pub use layers::{Activation, Linear, Mlp};
pub use model::{ArtificialScientistModel, LossReport, ModelConfig};
pub use optim::{Adam, AdamConfig, AdamState, ParamVisitor};
pub use vae::{Decoder, Encoder, Vae};

pub mod prelude {
    //! Common imports for model consumers.
    pub use crate::ddp::DdpConfig;
    pub use crate::loss;
    pub use crate::model::{ArtificialScientistModel, LossReport, ModelConfig};
    pub use crate::optim::{Adam, AdamConfig};
}
