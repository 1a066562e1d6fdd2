//! The streaming openPMD series reader (the MLapp side of Fig. 5).

use crate::attribute::Attributes;
use as_staging::engine::{ReadStep, SstReader};

/// Streaming reader for one consumer rank.
pub struct OpenPmdReader {
    sst: SstReader,
}

/// One received iteration, held open until
/// [`OpenPmdReader::close_iteration`].
pub struct IterationData {
    step: ReadStep,
    /// Iteration index (from the attribute blob).
    pub iteration: u64,
    /// Simulated time.
    pub time: f64,
    /// Time-step duration.
    pub dt: f64,
    /// All iteration-level attributes, including `unitSI`/`unitDimension`
    /// entries per record component.
    pub attributes: Attributes,
}

impl OpenPmdReader {
    /// Wrap an SST reader endpoint.
    pub fn new(sst: SstReader) -> Self {
        Self { sst }
    }

    /// Wait for the next iteration; `None` at end of stream.
    pub fn next_iteration(&mut self) -> Option<IterationData> {
        let step = self.sst.begin_step()?;
        Some(Self::wrap_step(step))
    }

    /// Adaptive freshest-read: jump to the newest published iteration
    /// only when at least `min_pending` unseen iterations are pending,
    /// otherwise take the next one in order (no skip); `min_pending <= 1`
    /// always jumps. The `DropSteps { min_queue }` consumer path; see
    /// [`as_staging::engine::SstReader::begin_latest_step_min`].
    pub fn next_iteration_latest_min(&mut self, min_pending: u64) -> (u64, Option<IterationData>) {
        let (skipped, step) = self.sst.begin_latest_step_min(min_pending);
        (skipped, step.map(Self::wrap_step))
    }

    /// Wait for the first iteration at stream step `>= target`, skipping
    /// (closing unread) older pending iterations; used to keep a second
    /// stream in lockstep with a [`Self::next_iteration_latest_min`] read
    /// on the first. `(skipped, None)` if the stream ends before `target`.
    pub fn next_iteration_at_least(&mut self, target: u64) -> (u64, Option<IterationData>) {
        let (skipped, step) = self.sst.begin_step_at_least(target);
        (skipped, step.map(Self::wrap_step))
    }

    /// Total steps published on the underlying stream so far.
    pub fn published_steps(&self) -> u64 {
        self.sst.published_steps()
    }

    fn wrap_step(step: ReadStep) -> IterationData {
        let attributes = if step.variable("__attributes__").is_some() {
            let var = step.variable("__attributes__").expect("checked").clone();
            // Attribute blob is metadata, not payload: read it directly.
            let blob: Vec<u8> = var.blocks.iter().flat_map(|b| b.data.to_vec()).collect();
            Attributes::decode(&blob)
        } else {
            Attributes::new()
        };
        let iteration = attributes
            .get("iteration")
            .and_then(|v| v.as_f64())
            .unwrap_or(step.step() as f64) as u64;
        let time = attributes
            .get("time")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let dt = attributes.get("dt").and_then(|v| v.as_f64()).unwrap_or(0.0);
        IterationData {
            step,
            iteration,
            time,
            dt,
            attributes,
        }
    }

    /// Release the iteration back to the writer.
    pub fn close_iteration(&mut self, it: IterationData) {
        self.sst.end_step(it.step);
    }

    /// Access the underlying stats.
    pub fn stats(&self) -> &as_staging::stats::ThroughputRecorder {
        &self.sst.stats
    }
}

impl IterationData {
    /// Index of the underlying SST stream step carrying this iteration
    /// (the stream-level position, not the PIC iteration number).
    pub fn stream_step(&self) -> u64 {
        self.step.step()
    }

    /// Fetch a full mesh component.
    #[cfg(test)]
    pub(crate) fn mesh(&mut self, record: &str, component: &str) -> Vec<f64> {
        self.step.get_f64(&format!("meshes/{record}/{component}"))
    }

    /// Fetch a full particle record component.
    pub fn particles(&mut self, species: &str, record: &str, component: &str) -> Vec<f64> {
        self.step
            .get_f64(&format!("particles/{species}/{record}/{component}"))
    }

    /// Zero-copy view of a full particle record component: the returned
    /// [`as_staging::view::VarView`] reads straight out of the published
    /// (refcounted) block buffers — no payload copy, no allocation
    /// proportional to the array under the lossless codec.
    pub fn particles_view(
        &mut self,
        species: &str,
        record: &str,
        component: &str,
    ) -> as_staging::view::VarView {
        self.step
            .get_f64_view(&format!("particles/{species}/{record}/{component}"))
    }

    /// Zero-copy view of an auxiliary `f32` array.
    pub fn f32_array_view(&mut self, name: &str) -> as_staging::view::VarView {
        self.step.get_f32_view(name)
    }

    /// True if a variable exists.
    #[cfg(test)]
    pub(crate) fn has(&self, name: &str) -> bool {
        self.step.variable(name).is_some()
    }

    /// Simulated wire seconds spent fetching so far.
    pub fn simulated_seconds(&self) -> f64 {
        self.step.simulated_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::UnitDimension;
    use crate::writer::OpenPmdWriter;
    use as_staging::engine::{open_stream, StreamConfig};

    #[test]
    fn multi_writer_mesh_assembles_globally() {
        let cfg = StreamConfig {
            writers: 2,
            ..StreamConfig::default()
        };
        let (writers, mut readers) = open_stream(cfg);
        let handles: Vec<_> = writers
            .into_iter()
            .map(|sst| {
                std::thread::spawn(move || {
                    let mut w = OpenPmdWriter::new(sst);
                    let rank = w.rank() as u64;
                    w.begin_iteration(7, 1.0, 0.1);
                    w.write_mesh(
                        "B",
                        "z",
                        UnitDimension::magnetic_field(),
                        1.0,
                        8,
                        rank * 4,
                        &[rank as f64; 4],
                    );
                    w.end_iteration();
                    w.close();
                })
            })
            .collect();
        let mut r = OpenPmdReader::new(readers.remove(0));
        let mut it = r.next_iteration().expect("one iteration");
        assert_eq!(it.iteration, 7);
        assert!((it.time - 1.0).abs() < 1e-12);
        let bz = it.mesh("B", "z");
        assert_eq!(bz, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        assert!(it.has("meshes/B/z"));
        assert!(!it.has("meshes/E/x"));
        assert!(it.simulated_seconds() > 0.0);
        r.close_iteration(it);
        assert!(r.next_iteration().is_none());
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn missing_attributes_fall_back_to_step_index() {
        // A raw SST stream without the attribute blob still reads.
        let (mut writers, mut readers) = open_stream(StreamConfig::default());
        let mut w = writers.remove(0);
        let producer = std::thread::spawn(move || {
            w.begin_step();
            w.put_f64("meshes/E/x", 2, 0, &[5.0, 6.0]);
            w.end_step();
            w.close();
        });
        let mut r = OpenPmdReader::new(readers.remove(0));
        let mut it = r.next_iteration().expect("iteration");
        assert_eq!(it.iteration, 0);
        assert_eq!(it.mesh("E", "x"), vec![5.0, 6.0]);
        r.close_iteration(it);
        producer.join().unwrap();
    }
}
