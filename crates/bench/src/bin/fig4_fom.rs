//! Fig. 4 — PIConGPU FOM weak scaling on Frontier (and the Summit
//! baseline).
//!
//! Two parts:
//! 1. **Measured**: real weak-scaling runs of the TWEAC-like workload on
//!    this machine's threads (1→4 ranks via the slab decomposition),
//!    anchoring the per-device update rate and the weak-scaling shape of
//!    the actual PIC implementation.
//! 2. **Modelled**: the calibrated Frontier/Summit FOM models evaluated at
//!    the paper's node counts, reproducing the 65.3 vs 14.7 TeraUpdates/s
//!    endpoints.

#![forbid(unsafe_code)]

use as_cluster::comm::CommWorld;
use as_cluster::fom::FomModel;
use as_pic::domain::DistributedSim;
use as_pic::fom::FomCounter;
use as_pic::grid::GridSpec;
use as_pic::tweac::TweacSetup;

fn measured_weak_scaling() {
    println!("-- measured: CPU weak scaling of the PIC stack (TWEAC-like workload) --");
    println!(
        "{:>6} {:>12} {:>16} {:>14} {:>12}",
        "ranks", "particles", "FOM [MUp/s]", "per-rank", "efficiency"
    );
    let steps = 6;
    let mut base_per_rank = 0.0;
    for ranks in [1usize, 2, 4] {
        // Weak scaling: grow the box along x with the rank count.
        let g = GridSpec::cubic(8 * ranks, 8, 4, 0.5, 0.5);
        let setup = TweacSetup {
            ppc: 12,
            ..TweacSetup::default()
        };
        let endpoints = CommWorld::new(ranks).into_endpoints();
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|comm| {
                crossbeam::thread::spawn(move || {
                    let sim0 = setup.build(g);
                    let particles = sim0.species;
                    let mut d = DistributedSim::new(comm, g, particles);
                    let local_particles = d.local.particle_count() as u64;
                    let mut fom = FomCounter::new();
                    fom.start();
                    for _ in 0..steps {
                        d.step();
                    }
                    fom.stop(
                        steps as u64,
                        local_particles,
                        (g.nx / d.world() * g.ny * g.nz) as u64,
                    );
                    (fom.fom(), local_particles)
                })
            })
            .collect();
        let results: Vec<(f64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let total_fom: f64 = results.iter().map(|r| r.0).sum();
        let total_particles: u64 = results.iter().map(|r| r.1).sum();
        let per_rank = total_fom / ranks as f64;
        if ranks == 1 {
            base_per_rank = per_rank;
        }
        println!(
            "{:>6} {:>12} {:>16.2} {:>14.2} {:>11.1}%",
            ranks,
            total_particles,
            total_fom / 1e6,
            per_rank / 1e6,
            100.0 * per_rank / base_per_rank
        );
    }
}

fn modelled_scaling() {
    println!();
    println!("-- modelled: Fig. 4 series (weak scaling, FOM in TeraUpdates/s) --");
    let frontier = FomModel::frontier_paper();
    let summit = FomModel::summit_paper();
    println!(
        "{:>8} {:>8} {:>16} | {:>8} {:>8} {:>16}",
        "F nodes", "GPUs", "FOM [TU/s]", "S nodes", "GPUs", "FOM [TU/s]"
    );
    let f_nodes = [6usize, 24, 96, 384, 1536, 4096, 6144, 9216];
    let s_nodes = [6usize, 24, 96, 384, 1536, 3072, 4608, 4608];
    for (fn_, sn) in f_nodes.iter().zip(&s_nodes) {
        println!(
            "{:>8} {:>8} {:>16.2} | {:>8} {:>8} {:>16.2}",
            fn_,
            fn_ * 4,
            frontier.fom(*fn_) / 1e12,
            sn,
            sn * 6,
            summit.fom(*sn) / 1e12
        );
    }
    println!();
    println!(
        "paper endpoints: Frontier 65.3 TU/s at 36 864 GPUs → model {:.1} TU/s",
        frontier.fom(9216) / 1e12
    );
    println!(
        "                 Summit   14.7 TU/s               → model {:.1} TU/s",
        summit.fom(4608) / 1e12
    );
    // §IV-A: 1000 steps in ~6.5 minutes.
    let particles_per_device = 2.7e13 / 36_864.0;
    let t1000 = 1000.0 * frontier.step_time(9216, particles_per_device) / 60.0;
    println!("                 1000 KHI steps: paper ≈6.5 min → model {t1000:.1} min");
}

fn main() {
    println!("=== Fig. 4: PIConGPU FOM weak scaling ===");
    measured_weak_scaling();
    modelled_scaling();
}
