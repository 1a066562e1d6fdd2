//! The producer's steady-state slab step — `DistributedSim::step`,
//! `RadiationPlugin::accumulate_for` on two in-process ranks — must
//! perform no heap allocation of 16 KiB or more.
//!
//! Same counting allocator as `alloc_free_step.rs`. What may still
//! allocate stays below the threshold by construction: the boxed message
//! envelopes, and the particle bundles of a step that migrates more
//! particles than any before it. Ghost-layer payloads (24 KiB each on this
//! grid) and the radiation partial sums (≈ 90 KiB) are above it, so a
//! payload that is allocated per message again, a per-step particle-state
//! list or a per-chunk partial vector trips the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use as_cluster::comm::CommWorld;
use as_pic::domain::DistributedSim;
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_radiation::detector::Detector;
use as_radiation::plugin::{RadiationPlugin, RegionMode};

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

#[test]
fn steady_state_slab_step_does_not_allocate() {
    let g = GridSpec::cubic(16, 48, 32, 0.5, 0.5);
    let setup = KhiSetup {
        ppc: 1,
        ..KhiSetup::default()
    };
    let det = Detector::along_x(0.2, 20.0, 16);
    let handles: Vec<_> = CommWorld::new(2)
        .into_endpoints()
        .into_iter()
        .map(|comm| {
            let det = det.clone();
            std::thread::spawn(move || {
                let mut d = DistributedSim::new(comm, g, setup.all_species(&g));
                assert!(
                    d.local.particle_count() > 20_000,
                    "needs a real particle load"
                );
                let mode = RegionMode::FlowRegions { shear_width: 0.06 };
                let mut radiation = RadiationPlugin::new(det, mode, 0);
                let mut run = |d: &mut DistributedSim, steps: usize| {
                    for _ in 0..steps {
                        d.step();
                        radiation.accumulate_for(&d.local, d.offset_cells as f64);
                    }
                };
                // Warm up: sort scratch, tile pool, payload buffers and the
                // plugin's scratch reach steady size.
                run(&mut d, 3);
                d.comm().barrier();
                if d.rank() == 0 {
                    ARMED.store(true, Ordering::SeqCst);
                }
                d.comm().barrier();
                run(&mut d, 5);
                d.comm().barrier();
                ARMED.store(false, Ordering::SeqCst);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let n = LARGE_ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state slab steps made {n} allocations ≥ {LARGE} bytes — a \
         per-step buffer is back in the producer's hot path"
    );
}
