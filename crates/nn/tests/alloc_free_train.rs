//! A steady-state training iteration — `zero_grad`, `accumulate_gradients`,
//! `ModelOptimizer::step` — and a steady-state `evaluate` must perform no
//! heap allocation of 16 KiB or more: every activation, context and
//! gradient buffer of that size is recycled through the workspace the
//! model owns.
//!
//! A counting global allocator records every allocation of at least
//! `LARGE` bytes while armed. The first iterations are allowed to allocate
//! (the workspace and the Adam moments grow to steady size); after
//! warm-up a large allocation means an activation-sized buffer is being
//! materialised per iteration again — the allocator churn this guards
//! against cost an eighth of the step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use as_nn::model::{ArtificialScientistModel, ModelConfig, ModelOptimizer};
use as_nn::optim::AdamConfig;
use as_tensor::TensorRng;

/// Allocations at or above this size are counted while armed. At B=8,
/// P=256 every encoder activation (48 KiB – 512 KiB) is far above it; the
/// latent-sized tensors of the INN and the loss gradients are below it.
const LARGE: usize = 16 * 1024;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE && ARMED.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is global, so the tests of this file take turns: none
/// allocates while another one's count is armed.
static TURN: Mutex<()> = Mutex::new(());

/// Allocations of at least `LARGE` bytes that `f` makes.
fn large_allocs(f: impl FnOnce()) -> u64 {
    let before = LARGE_ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    LARGE_ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_training_iteration_does_not_allocate() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut model = ArtificialScientistModel::new(ModelConfig::small(), 7);
    let mut opt = ModelOptimizer::new(AdamConfig::default(), 10.0);
    let mut rng = TensorRng::seeded(11);
    let points = rng.uniform([8, 256, 6], -1.0, 1.0);
    let spectra = rng.standard_normal([8, 16]);
    let mut iterate = |n: usize| {
        for _ in 0..n {
            model.zero_grad();
            let report = model.accumulate_gradients(&points, &spectra, &mut rng);
            assert!(report.total.is_finite());
            opt.step(&mut model);
        }
    };

    // Warm up: the workspace and the optimiser state reach steady size.
    iterate(3);

    let n = large_allocs(|| iterate(10));
    assert_eq!(
        n, 0,
        "10 steady-state training iterations made {n} allocations ≥ {LARGE} bytes — an \
         activation-sized buffer is allocated per iteration again"
    );
}

#[test]
fn steady_state_evaluation_does_not_allocate() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut model = ArtificialScientistModel::new(ModelConfig::small(), 7);
    let mut rng = TensorRng::seeded(11);
    let points = rng.uniform([8, 256, 6], -1.0, 1.0);
    let spectra = rng.standard_normal([8, 16]);
    let mut evaluate = |n: usize| {
        for _ in 0..n {
            let report = model.evaluate(&points, &spectra, &mut rng);
            assert!(report.total.is_finite());
        }
    };

    // Warm up: the workspace reaches steady size.
    evaluate(3);

    let n = large_allocs(|| evaluate(10));
    assert_eq!(
        n, 0,
        "10 steady-state evaluations made {n} allocations ≥ {LARGE} bytes — the forward \
         pass's activations are not given back to the model's workspace"
    );
}
