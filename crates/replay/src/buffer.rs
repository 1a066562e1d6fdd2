//! The now/EP training buffer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Buffer sizes and batch composition. Defaults are the paper's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Now-buffer capacity (paper: N_now = 10).
    pub n_now: usize,
    /// EP-buffer capacity (paper: N_EP = 20).
    pub n_ep: usize,
    /// Now-samples per training batch (paper: n_now = 4).
    pub batch_now: usize,
    /// EP-samples per training batch (paper: n_EP = 4).
    pub batch_ep: usize,
}

impl Default for BufferConfig {
    fn default() -> Self {
        Self {
            n_now: 10,
            n_ep: 20,
            batch_now: 4,
            batch_ep: 4,
        }
    }
}

impl BufferConfig {
    /// Total batch size (paper: 8).
    pub fn batch_size(&self) -> usize {
        self.batch_now + self.batch_ep
    }
}

/// Snapshot of a [`TrainingBuffer`]'s full mutable state — contents of
/// both buffers, the eviction/sampling RNG stream position, and the
/// counters. Captured into the learner checkpoint so a restarted rank
/// resumes with the identical buffer population *and* the identical
/// future sampling sequence.
#[derive(Debug, Clone)]
pub struct BufferState<S> {
    /// Now-buffer contents, most recent first.
    pub now: Vec<S>,
    /// EP-buffer contents, storage order.
    pub ep: Vec<S>,
    /// Raw xoshiro256++ state of the eviction/sampling RNG.
    pub rng: [u64; 4],
    /// Samples received so far.
    pub received: u64,
    /// EP evictions so far.
    pub evicted: u64,
}

/// The training buffer over samples of type `S`.
#[derive(Debug)]
pub struct TrainingBuffer<S> {
    cfg: BufferConfig,
    now: VecDeque<S>,
    ep: Vec<S>,
    rng: StdRng,
    received: u64,
    evicted: u64,
}

impl<S: Clone> TrainingBuffer<S> {
    /// Empty buffer with a seeded eviction/sampling RNG.
    pub fn new(cfg: BufferConfig, seed: u64) -> Self {
        assert!(cfg.n_now > 0 && cfg.n_ep > 0);
        Self {
            cfg,
            now: VecDeque::with_capacity(cfg.n_now + 1),
            ep: Vec::with_capacity(cfg.n_ep),
            rng: StdRng::seed_from_u64(seed),
            received: 0,
            evicted: 0,
        }
    }

    /// Push one freshly streamed sample: prepend to the now-buffer;
    /// overflow moves the oldest now-sample into the EP buffer, which
    /// evicts a random element when full.
    pub fn push(&mut self, sample: S) {
        self.received += 1;
        self.now.push_front(sample);
        if self.now.len() > self.cfg.n_now {
            let overflow = self.now.pop_back().expect("overflow element");
            if self.ep.len() >= self.cfg.n_ep {
                let victim = self.rng.gen_range(0..self.ep.len());
                self.ep.swap_remove(victim);
                self.evicted += 1;
            }
            self.ep.push(overflow);
        }
    }

    /// Current now-buffer occupancy.
    #[cfg(test)]
    pub(crate) fn now_len(&self) -> usize {
        self.now.len()
    }

    /// Current EP-buffer occupancy.
    #[cfg(test)]
    pub(crate) fn ep_len(&self) -> usize {
        self.ep.len()
    }

    /// True once at least one batch can be drawn ([`Self::sample_batch`]
    /// falls back to now-buffer draws while the EP buffer warms up).
    pub fn ready(&self) -> bool {
        !self.now.is_empty()
    }

    /// Draw one training batch: `batch_now` random now-samples plus
    /// `batch_ep` random EP-samples (with replacement, matching a sampler
    /// over a small buffer). Falls back to the now-buffer while the EP
    /// buffer is still empty (warm-up).
    pub fn sample_batch(&mut self) -> Vec<S> {
        assert!(!self.now.is_empty(), "sample_batch on empty buffer");
        let mut batch = Vec::with_capacity(self.cfg.batch_size());
        for _ in 0..self.cfg.batch_now {
            let i = self.rng.gen_range(0..self.now.len());
            batch.push(self.now[i].clone());
        }
        for _ in 0..self.cfg.batch_ep {
            if self.ep.is_empty() {
                let i = self.rng.gen_range(0..self.now.len());
                batch.push(self.now[i].clone());
            } else {
                let i = self.rng.gen_range(0..self.ep.len());
                batch.push(self.ep[i].clone());
            }
        }
        batch
    }

    /// Snapshot the buffer's full mutable state (checkpoint capture).
    pub fn state(&self) -> BufferState<S> {
        BufferState {
            now: self.now.iter().cloned().collect(),
            ep: self.ep.clone(),
            rng: self.rng.state(),
            received: self.received,
            evicted: self.evicted,
        }
    }

    /// Restore a snapshot taken with [`TrainingBuffer::state`]. The
    /// configured capacities stay as constructed; contents, counters and
    /// the RNG stream position come from the snapshot, so subsequent
    /// pushes and batches replay exactly as they would have.
    pub fn restore(&mut self, s: BufferState<S>) {
        self.now = s.now.into_iter().collect();
        self.ep = s.ep;
        self.rng = StdRng::from_state(s.rng);
        self.received = s.received;
        self.evicted = s.evicted;
    }

    /// Immutable view of the now-buffer (most recent first).
    #[cfg(test)]
    pub(crate) fn now_iter(&self) -> impl Iterator<Item = &S> {
        self.now.iter()
    }

    /// Immutable view of the EP buffer (arbitrary order).
    #[cfg(test)]
    pub(crate) fn ep_iter(&self) -> impl Iterator<Item = &S> {
        self.ep.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_defaults() {
        let c = BufferConfig::default();
        assert_eq!((c.n_now, c.n_ep, c.batch_now, c.batch_ep), (10, 20, 4, 4));
        assert_eq!(c.batch_size(), 8);
    }

    #[test]
    fn now_buffer_keeps_latest_in_order() {
        let mut b = TrainingBuffer::new(BufferConfig::default(), 0);
        for i in 0..5 {
            b.push(i);
        }
        let now: Vec<i32> = b.now_iter().copied().collect();
        assert_eq!(now, vec![4, 3, 2, 1, 0], "most recent first");
    }

    #[test]
    fn overflow_moves_oldest_to_ep() {
        let cfg = BufferConfig {
            n_now: 3,
            n_ep: 10,
            ..BufferConfig::default()
        };
        let mut b = TrainingBuffer::new(cfg, 0);
        for i in 0..5 {
            b.push(i);
        }
        assert_eq!(b.now_len(), 3);
        assert_eq!(b.ep_len(), 2);
        let ep: Vec<i32> = b.ep_iter().copied().collect();
        assert_eq!(ep, vec![0, 1], "oldest samples age into the EP buffer");
    }

    #[test]
    fn ep_eviction_is_random_but_bounded() {
        let cfg = BufferConfig {
            n_now: 2,
            n_ep: 5,
            ..BufferConfig::default()
        };
        let mut b = TrainingBuffer::new(cfg, 42);
        for i in 0..100 {
            b.push(i);
        }
        assert_eq!(b.now_len(), 2);
        assert_eq!(b.ep_len(), 5);
        assert_eq!(b.evicted, 100 - 2 - 5);
        // Randomly kept elements should not simply be the newest five.
        let ep: Vec<i32> = b.ep_iter().copied().collect();
        let all_newest = ep.iter().all(|&v| v >= 93);
        assert!(
            !all_newest,
            "random eviction must keep some older samples: {ep:?}"
        );
    }

    #[test]
    fn batch_composition() {
        let mut b = TrainingBuffer::new(BufferConfig::default(), 7);
        for i in 0..40 {
            b.push(i);
        }
        assert!(b.ready());
        let batch = b.sample_batch();
        assert_eq!(batch.len(), 8);
        // First 4 from now-buffer (values ≥ 30), last 4 from EP (< 30).
        assert!(batch[..4].iter().all(|&v| v >= 30), "{batch:?}");
        assert!(batch[4..].iter().all(|&v| v < 30), "{batch:?}");
    }

    #[test]
    fn warmup_falls_back_to_now_buffer() {
        let mut b = TrainingBuffer::new(BufferConfig::default(), 1);
        b.push(99);
        let batch = b.sample_batch();
        assert_eq!(batch.len(), 8);
        assert!(batch.iter().all(|&v| v == 99));
    }

    proptest! {
        /// Capacities hold for any push sequence, and every sample is
        /// either in a buffer or evicted.
        #[test]
        fn invariants_hold(pushes in 1usize..300, n_now in 1usize..8, n_ep in 1usize..12) {
            let cfg = BufferConfig { n_now, n_ep, batch_now: 2, batch_ep: 2 };
            let mut b = TrainingBuffer::new(cfg, 3);
            for i in 0..pushes {
                b.push(i);
                prop_assert!(b.now_len() <= n_now);
                prop_assert!(b.ep_len() <= n_ep);
            }
            prop_assert_eq!(b.received, pushes as u64);
            let held = (b.now_len() + b.ep_len()) as u64;
            prop_assert_eq!(held + b.evicted, pushes as u64);
        }

        /// Batches always have the configured size and draw only held
        /// samples.
        #[test]
        fn batches_are_well_formed(pushes in 1usize..60) {
            let mut b = TrainingBuffer::new(BufferConfig::default(), 11);
            for i in 0..pushes {
                b.push(i);
            }
            let held: std::collections::HashSet<usize> =
                b.now_iter().chain(b.ep_iter()).copied().collect();
            let batch = b.sample_batch();
            prop_assert_eq!(batch.len(), 8);
            for s in batch {
                prop_assert!(held.contains(&s));
            }
        }
    }
}
