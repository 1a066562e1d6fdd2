//! The producer: PIC simulation + in-situ radiation, streaming openPMD.
//!
//! Mirrors PIConGPU's role in the paper: per emission window it publishes
//! the full particle phase space on one stream and the windowed per-region
//! radiation amplitudes on a second stream ("two parallel data streams"),
//! then drops its local copies — the filesystem is never touched. If the
//! consumer falls behind, the bounded staging queue stalls the simulation
//! (measured and reported as [`ProducerReport::stall_seconds`] — only the
//! time actually blocked on the full queue, not the emit wall time).
//!
//! There is one driver, [`run_producer`]: one rank of an M-way slab
//! decomposition ([`as_pic::domain::DistributedSim`]). Each rank publishes
//! its local particles as one block of the global multi-writer SST step
//! (offsets allgathered per window, since migration moves particles
//! between slabs), and the per-region radiation amplitudes are merged
//! across ranks by superposition (allreduce) before rank 0 emits the
//! spectra. M = 1 is the same loop over
//! [`as_cluster::collective::SoloComm`]: the slab is the whole box, the
//! collectives are the identity, and nothing is sent, counted or priced —
//! so the published spectra do not depend on M beyond round-off (asserted
//! in `tests/decomposition_invariance.rs`).

use crate::config::WorkflowConfig;
use crate::faults::StreamId;
use as_cluster::collective::Collective;
use as_openpmd::attribute::{UnitDimension, Value};
use as_openpmd::writer::OpenPmdWriter;
use as_pic::domain::DistributedSim;
use as_pic::sim::Simulation;
use as_radiation::plugin::{RadiationPlugin, RegionMode};
use as_staging::engine::SstWriter;
use std::time::Instant;

/// Producer-side outcome (one rank).
#[derive(Debug, Clone)]
pub struct ProducerReport {
    /// PIC steps completed (global step count, not summed over ranks).
    pub steps: u64,
    /// Emission windows published.
    pub windows: u64,
    /// Payload bytes this rank published across both streams.
    pub bytes: u64,
    /// Wall seconds in the PIC step loop.
    pub sim_seconds: f64,
    /// Wall seconds in window emission (serialisation + publish + stall).
    pub emit_seconds: f64,
    /// Wall seconds blocked on staging back-pressure (the bounded SST
    /// queue at its limit) — a strict subset of `emit_seconds`.
    pub stall_seconds: f64,
    /// Inter-rank payload bytes the producer group's collective backend
    /// moved (world-wide counter observed at this rank's exit; halo
    /// exchanges, particle migration, offset allgathers, radiation
    /// merges). Zero for a lone rank, which has no peers.
    pub comm_bytes: u64,
    /// Modelled fabric seconds charged by the collective backend
    /// (world-wide; nonzero only under `CommBackend::NetSim`).
    pub comm_model_seconds: f64,
    /// Point-to-point messages the producer group's collectives sent
    /// (world-wide counter observed at this rank's exit) — the α-term
    /// driver the log-depth schedules shrink per rank.
    pub comm_messages: u64,
    /// Wire bytes this rank actually put on the staging data plane —
    /// equals [`ProducerReport::bytes`] under `WireCodec::None`, smaller
    /// under a compressing codec.
    pub staging_wire_bytes: u64,
}

impl ProducerReport {
    pub(crate) fn zero() -> Self {
        Self {
            steps: 0,
            windows: 0,
            bytes: 0,
            sim_seconds: 0.0,
            emit_seconds: 0.0,
            stall_seconds: 0.0,
            comm_bytes: 0,
            comm_model_seconds: 0.0,
            comm_messages: 0,
            staging_wire_bytes: 0,
        }
    }

    /// Fraction of producer wall time (sim + emit) lost to back-pressure.
    pub fn stall_fraction(&self) -> f64 {
        let wall = self.sim_seconds + self.emit_seconds;
        if wall > 0.0 {
            self.stall_seconds / wall
        } else {
            0.0
        }
    }
}

fn flow_regions(cfg: &WorkflowConfig) -> RadiationPlugin {
    RadiationPlugin::new(
        cfg.detector.clone(),
        RegionMode::FlowRegions {
            shear_width: cfg.shear_width,
        },
        0,
    )
}

/// The radiation stream's variable name of every region, built once per
/// run instead of once per window.
fn region_names(radiation: &RadiationPlugin) -> Vec<String> {
    (0..radiation.accumulators().len())
        .map(|r| format!("radiation/region{r}/intensity"))
        .collect()
}

/// Finish a rank's report from the writer-side stream stats: real
/// published bytes and real queue-blocked time.
fn finish_report(report: &mut ProducerReport, pw: &OpenPmdWriter, rw: &OpenPmdWriter) {
    report.bytes = pw.bytes_published() + rw.bytes_published();
    report.stall_seconds = pw.stall_seconds() + rw.stall_seconds();
    report.staging_wire_bytes = pw.wire_bytes_published() + rw.wire_bytes_published();
}

/// Arm the plan's producer-side faults on the stream writers. A
/// [`crate::faults::FaultEvent::ProducerCrash`] truncates *both* streams
/// at the same window (a clean, synchronized EOF); a
/// [`crate::faults::FaultEvent::TruncateStream`] truncates one stream
/// only (the out-of-sync EOF that produces orphaned windows on the
/// consumer side). Windows and SST steps coincide: the producers emit
/// exactly one stream step per window, in order.
fn arm_faults(cfg: &WorkflowConfig, pw: &mut OpenPmdWriter, rw: &mut OpenPmdWriter) {
    if let Some(w) = cfg.faults.producer_crash_window() {
        pw.arm_truncate(w);
        rw.arm_truncate(w);
    }
    if let Some(s) = cfg.faults.stream_truncation(StreamId::Particle) {
        pw.arm_truncate(s);
    }
    if let Some(s) = cfg.faults.stream_truncation(StreamId::Radiation) {
        rw.arm_truncate(s);
    }
}

/// Run one rank of the M-way producer to completion.
///
/// `comm` spans the producer ranks (world size M; `SoloComm` for M = 1);
/// the global KHI box is slab-decomposed along x via [`DistributedSim`].
/// Every rank contributes its particle shard to the shared multi-writer
/// particle stream; the radiation stream carries the rank-merged spectra,
/// written by rank 0.
pub fn run_producer<C: Collective>(
    cfg: &WorkflowConfig,
    comm: C,
    particle_stream: SstWriter,
    radiation_stream: SstWriter,
) -> ProducerReport {
    let mut d = DistributedSim::new(comm, cfg.grid, cfg.khi.all_species(&cfg.grid));
    let mut radiation = flow_regions(cfg);
    let names = region_names(&radiation);
    let mut pw = OpenPmdWriter::new(particle_stream);
    let mut rw = OpenPmdWriter::new(radiation_stream);
    arm_faults(cfg, &mut pw, &mut rw);

    let mut report = ProducerReport::zero();

    for step in 0..cfg.total_steps {
        let t0 = Instant::now();
        d.step();
        radiation.accumulate_for(&d.local, d.offset_cells as f64);
        report.sim_seconds += t0.elapsed().as_secs_f64();
        report.steps += 1;

        if (step + 1) % cfg.steps_per_sample == 0 {
            let t1 = Instant::now();
            // Particle ownership moves between slabs via migration, so
            // the block layout of the global array is re-agreed on every
            // window: rank r writes [Σ counts[..r], Σ counts[..r+1]).
            let local_n = d.local.species[0].len() as u64;
            let counts: Vec<u64> = d.comm().allgather(local_n);
            let offset: u64 = counts[..d.rank()].iter().sum();
            let global_n: u64 = counts.iter().sum();
            // Radiation superposition: amplitudes (not intensities) sum
            // linearly across ranks; after the allreduce every rank holds
            // the global window and rank 0 emits it.
            for acc in radiation.accumulators_mut() {
                d.comm().allreduce_sum_f64(acc.amplitudes_mut());
            }
            emit_window(
                cfg,
                &d.local,
                &mut radiation,
                &names,
                &mut pw,
                &mut rw,
                global_n,
                offset,
            );
            report.emit_seconds += t1.elapsed().as_secs_f64();
            // Every rank armed the same truncation step, so all shards
            // take this break on the same window — the group "crashes"
            // together and the DistributedSim collectives stay aligned.
            if pw.is_truncated() || rw.is_truncated() {
                break;
            }
            report.windows += 1;
        }
    }
    pw.close();
    rw.close();
    finish_report(&mut report, &pw, &rw);
    report.comm_bytes = d.comm().world_bytes_sent();
    report.comm_model_seconds = d.comm().modelled_comm_seconds();
    report.comm_messages = d.comm().world_messages_sent();
    report
}

/// Publish one emission window on both streams. `global_n` and `offset`
/// describe this rank's block of the global particle array; the radiation
/// spectra are written by writer rank 0 only, from the (already
/// rank-merged) accumulators, under the names `region_names` built, and
/// the window is then reset in place.
#[allow(clippy::too_many_arguments)]
fn emit_window(
    cfg: &WorkflowConfig,
    sim: &Simulation,
    radiation: &mut RadiationPlugin,
    names: &[String],
    pw: &mut OpenPmdWriter,
    rw: &mut OpenPmdWriter,
    global_n: u64,
    offset: u64,
) {
    let it = sim.step_index;
    let sp = &sim.species[0];
    let n = global_n;

    // Particle stream: full phase space of the electrons.
    pw.begin_iteration(it, sim.time, sim.spec.dt);
    pw.set_attribute("beta", Value::F64(cfg.khi.beta));
    let u = as_pic::units::UnitSystem::paper();
    pw.write_particles(
        "e",
        "position",
        "x",
        UnitDimension::length(),
        u.skin_depth,
        n,
        offset,
        &sp.x,
    );
    pw.write_particles(
        "e",
        "position",
        "y",
        UnitDimension::length(),
        u.skin_depth,
        n,
        offset,
        &sp.y,
    );
    pw.write_particles(
        "e",
        "position",
        "z",
        UnitDimension::length(),
        u.skin_depth,
        n,
        offset,
        &sp.z,
    );
    let p_si = as_pic::units::M_E * as_pic::units::C;
    pw.write_particles(
        "e",
        "momentum",
        "x",
        UnitDimension::momentum(),
        p_si,
        n,
        offset,
        &sp.ux,
    );
    pw.write_particles(
        "e",
        "momentum",
        "y",
        UnitDimension::momentum(),
        p_si,
        n,
        offset,
        &sp.uy,
    );
    pw.write_particles(
        "e",
        "momentum",
        "z",
        UnitDimension::momentum(),
        p_si,
        n,
        offset,
        &sp.uz,
    );
    pw.write_particles(
        "e",
        "weighting",
        "w",
        UnitDimension::none(),
        1.0,
        n,
        offset,
        &sp.w,
    );
    pw.end_iteration();

    // Radiation stream: windowed per-region intensity spectra
    // (dirs × freqs, flattened). Writer rank 0 holds the rank-merged
    // window and publishes it whole; other ranks just join the collective
    // step commit.
    rw.begin_iteration(it, sim.time, sim.spec.dt);
    if rw.rank() == 0 {
        let mut flat: Vec<f32> = Vec::new();
        for (name, acc) in names.iter().zip(radiation.accumulators()) {
            flat.clear();
            flat.extend(acc.intensities().map(|v| v as f32));
            rw.write_f32_array(name, flat.len() as u64, 0, &flat);
        }
        rw.set_attribute("n_regions", Value::I64(names.len() as i64));
        rw.set_attribute("window_steps", Value::I64(radiation.window_len() as i64));
    }
    rw.end_iteration();
    radiation.reset_window();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::spawn_producers;
    use as_cluster::collective::SoloComm;
    use as_cluster::comm::CommWorld;
    use as_staging::engine::{open_stream, SstReader, StreamConfig};

    /// Drain both streams of an `m`-writer run; the shards of every window
    /// must tile the full electron array.
    fn drain(cfg: &WorkflowConfig, mut pr: SstReader, mut rr: SstReader) -> u64 {
        let electrons = cfg.grid.cells() * cfg.khi.ppc;
        let mut windows = 0;
        loop {
            match (pr.begin_step(), rr.begin_step()) {
                (Some(mut a), Some(mut b)) => {
                    let x = a.get_f64("particles/e/position/x");
                    assert_eq!(x.len(), electrons, "shards must tile the box");
                    let i0 = b.get_f32("radiation/region0/intensity");
                    assert_eq!(i0.len(), cfg.detector.n_freqs());
                    pr.end_step(a);
                    rr.end_step(b);
                    windows += 1;
                }
                (None, None) => return windows,
                _ => panic!("streams out of sync"),
            }
        }
    }

    #[test]
    fn producer_publishes_the_global_array_at_every_m() {
        for m in [1, 2] {
            let mut cfg = WorkflowConfig::small();
            cfg.total_steps = 8;
            cfg.steps_per_sample = 4;
            cfg.producers = m;
            let stream_cfg = StreamConfig {
                writers: m,
                ..StreamConfig::default()
            };
            let (pw, mut pr) = open_stream(stream_cfg);
            let (rw, mut rr) = open_stream(stream_cfg);
            let handles = if m == 1 {
                spawn_producers(&cfg, vec![SoloComm], pw, rw)
            } else {
                spawn_producers(&cfg, CommWorld::new(m).into_endpoints(), pw, rw)
            };
            assert_eq!(drain(&cfg, pr.remove(0), rr.remove(0)), 2);
            // 7 particle arrays × N × 8 B per window, plus the radiation
            // stream: the reports must carry the real published volume.
            let particles = (cfg.grid.cells() * cfg.khi.ppc) as u64;
            let mut bytes = 0;
            for h in handles {
                let report = h.join().unwrap();
                assert_eq!(report.steps, 8);
                assert_eq!(report.windows, 2);
                assert!(report.sim_seconds > 0.0);
                assert!(report.bytes > 0, "every shard publishes payload");
                assert!(report.stall_seconds <= report.emit_seconds);
                assert_eq!(
                    report.comm_messages == 0,
                    m == 1,
                    "a lone rank sends nothing"
                );
                bytes += report.bytes;
            }
            assert!(bytes >= 2 * particles * 7 * 8);
        }
    }
}
