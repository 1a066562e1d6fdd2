//! Simulated HPC machine substrate.
//!
//! The paper's workflow runs on ORNL Frontier (9408 nodes, 4×MI250X each,
//! Slingshot-11 fabric). Nothing of that is available here, so this crate
//! provides the pieces every other crate builds on:
//!
//! - [`comm`] — an MPI-like communicator backed by OS threads and channels.
//!   PIC domain decomposition, the staging engine and DDP training all talk
//!   through it, exactly like the original codes talk through MPI/RCCL.
//! - [`collective`] — the pluggable transport layer: the [`Collective`]
//!   trait every workflow crate is generic over, with the in-process
//!   [`collective::ChannelComm`] backend and the netsim-delayed
//!   [`collective::SimNetComm`] backend that charges [`machine`]-preset
//!   fabric costs on one box (a congested NIC's and a tapered
//!   bisection's fair share, [`collective::NetModel`]), and the
//!   degenerate one-rank [`collective::SoloComm`].
//! - [`collectives`] — ring all-reduce / all-gather implementations (real
//!   data movement over [`comm`]) plus analytic cost models at scale.
//! - [`machine`] — machine constants for Frontier and Summit as stated in
//!   the paper (NIC bandwidth, Orion filesystem, node-local SSDs).
//! - [`sockets`] — open-socket accounting reproducing the N/RCCL bootstrap
//!   limit the paper hits beyond ~100 nodes.
//! - [`fom`] — the weak-scaling Figure-of-Merit model behind Fig. 4.
//! - `pace` (private) — the only place the workspace sleeps: the pacer
//!   that injects [`collective::SimNetComm`]'s modelled time as wall time,
//!   and the fault injector's delays.

pub mod algos;
pub mod collective;
pub mod collectives;
pub mod comm;
pub mod error;
pub mod fom;
pub mod machine;
mod pace;
pub mod sockets;

pub mod prelude {
    //! Commonly used cluster types.
    pub use crate::algos::CollectiveAlgo;
    pub use crate::collective::{
        ChannelComm, Collective, DataPlaneClock, NetModel, NodeMap, SimNetComm, SoloComm,
    };
    pub use crate::collectives::{allreduce_cost, AllReduceAlgo, CollectiveCost};
    pub use crate::comm::{CommFaults, CommWorld, Communicator, FT_TAG_BASE};
    pub use crate::error::CommError;
    pub use crate::machine::{MachineSpec, FRONTIER, SUMMIT};
    pub use crate::sockets::SocketBudget;
}

pub use prelude::*;
