//! Continual learning: the training buffer with experience replay.
//!
//! §IV-C of the paper, verbatim design: *"This component holds two
//! buffers: a now-buffer, and an EP-buffer. The now-buffer holds the
//! N_now = 10 latest samples received. Each time new samples are received,
//! they are prepended to the now-buffer and any element which would then
//! exceed the buffer size is removed and added to the EP buffer. The EP
//! buffer holds a maximum of N_EP = 20 elements. When new samples are to
//! be added to the EP buffer when it is full, a randomly chosen item is
//! removed. … a batch … is generated by taking n_now = 4 random samples
//! from the now-buffer and n_EP = 4 random samples from the EP buffer."*
//!
//! The buffer sits between the streaming receiver and the training loop,
//! decoupling the replay schedule (`n_rep` iterations per streamed step)
//! from data arrival and providing the back-pressure hook that can stall
//! the simulation.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod forgetting;
pub mod scheduler;

pub use buffer::{BufferConfig, BufferState, TrainingBuffer};
pub use scheduler::{ReplaySchedule, StallPolicy};
