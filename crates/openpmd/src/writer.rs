//! The streaming openPMD series writer.
//!
//! One SST step per iteration. Variable names follow the openPMD path
//! convention inside a step: `meshes/<record>/<component>` and
//! `particles/<species>/<record>/<component>`; iteration-level attributes
//! (time, dt, unitSI factors, …) travel as an encoded attribute blob.

use crate::attribute::{Attributes, UnitDimension, Value};
use as_staging::engine::SstWriter;
use as_staging::variable::Dtype;

/// Streaming writer for one producer rank.
pub struct OpenPmdWriter {
    sst: SstWriter,
    open_iteration: Option<u64>,
    attrs: Attributes,
}

impl OpenPmdWriter {
    /// Wrap an SST writer endpoint.
    pub fn new(sst: SstWriter) -> Self {
        Self {
            sst,
            open_iteration: None,
            attrs: Attributes::new(),
        }
    }

    /// Begin iteration `it` at simulated `time` with step `dt`
    /// (normalised units; SI factors go in `unitSI` attributes).
    pub fn begin_iteration(&mut self, it: u64, time: f64, dt: f64) {
        assert!(self.open_iteration.is_none(), "iteration already open");
        self.sst.begin_step();
        self.open_iteration = Some(it);
        self.attrs = Attributes::new();
        self.attrs.set("iteration", Value::I64(it as i64));
        self.attrs.set("time", Value::F64(time));
        self.attrs.set("dt", Value::F64(dt));
        self.attrs
            .set("software", Value::Str("artificial-scientist".into()));
        self.attrs.set("openPMD", Value::Str("1.1.0".into()));
    }

    /// Attach an extra iteration-level attribute.
    pub fn set_attribute(&mut self, key: &str, value: Value) {
        assert!(self.open_iteration.is_some(), "no open iteration");
        self.attrs.set(key, value);
    }

    /// Write one mesh record component block (e.g. record `"E"`,
    /// component `"x"`).
    #[allow(clippy::too_many_arguments)]
    #[cfg(test)]
    pub(crate) fn write_mesh(
        &mut self,
        record: &str,
        component: &str,
        unit: UnitDimension,
        unit_si: f64,
        global_count: u64,
        offset: u64,
        data: &[f64],
    ) {
        assert!(self.open_iteration.is_some(), "no open iteration");
        let name = format!("meshes/{record}/{component}");
        self.sst.put_f64(&name, global_count, offset, data);
        self.attrs
            .set(&format!("{name}.unitSI"), Value::F64(unit_si));
        self.attrs.set(
            &format!("{name}.unitDimension"),
            Value::VecF64(unit.0.to_vec()),
        );
    }

    /// Write one particle record component block (e.g. species `"e"`,
    /// record `"momentum"`, component `"x"`).
    #[allow(clippy::too_many_arguments)]
    pub fn write_particles(
        &mut self,
        species: &str,
        record: &str,
        component: &str,
        unit: UnitDimension,
        unit_si: f64,
        global_count: u64,
        offset: u64,
        data: &[f64],
    ) {
        assert!(self.open_iteration.is_some(), "no open iteration");
        let name = format!("particles/{species}/{record}/{component}");
        self.sst.put_f64(&name, global_count, offset, data);
        self.attrs
            .set(&format!("{name}.unitSI"), Value::F64(unit_si));
        self.attrs.set(
            &format!("{name}.unitDimension"),
            Value::VecF64(unit.0.to_vec()),
        );
    }

    /// Write a flat `f32` auxiliary array (e.g. encoded radiation
    /// spectra — the paper streams radiation as a separate plugin stream).
    pub fn write_f32_array(&mut self, name: &str, global_count: u64, offset: u64, data: &[f32]) {
        assert!(self.open_iteration.is_some(), "no open iteration");
        self.sst.put_f32(name, global_count, offset, data);
    }

    /// Close the iteration: publishes the attribute blob and ends the SST
    /// step (collective across writer ranks).
    pub fn end_iteration(&mut self) {
        let _it = self.open_iteration.take().expect("no open iteration");
        // Attributes are aggregated at rank 0 in ADIOS2; here every rank
        // contributes an identical blob only from rank 0 to avoid overlap.
        if self.sst.rank() == 0 {
            let blob = self.attrs.encode();
            let len = blob.len() as u64;
            self.sst
                .put_bytes("__attributes__", Dtype::U8, len, 0, len, blob.into());
        }
        self.sst.end_step();
    }

    /// Close the stream.
    pub fn close(&mut self) {
        assert!(self.open_iteration.is_none(), "close with open iteration");
        self.sst.close();
    }

    /// Writer rank.
    pub fn rank(&self) -> usize {
        self.sst.rank()
    }

    /// Arm deterministic stream truncation at SST step `at_step`
    /// (fault injection: the stream closes there and later iterations
    /// become inert no-ops — see
    /// [`as_staging::engine::SstWriter::arm_truncate`]).
    pub fn arm_truncate(&mut self, at_step: u64) {
        self.sst.arm_truncate(at_step);
    }

    /// True once an armed truncation has fired.
    pub fn is_truncated(&self) -> bool {
        self.sst.is_truncated()
    }

    /// Total payload bytes this rank has published on the stream.
    pub fn bytes_published(&self) -> u64 {
        self.sst.stats.total_bytes()
    }

    /// Wire bytes this rank actually put on the data plane — equal to
    /// [`Self::bytes_published`] under the lossless codec, smaller under
    /// a compressing [`as_staging::codec::WireCodec`].
    pub fn wire_bytes_published(&self) -> u64 {
        self.sst.stats.wire_bytes()
    }

    /// Wall seconds this rank has spent blocked on staging back-pressure
    /// (the bounded SST queue at its limit).
    pub fn stall_seconds(&self) -> f64 {
        self.sst.stall_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::OpenPmdReader;
    use as_staging::engine::{open_stream, StreamConfig};

    #[test]
    fn iteration_lifecycle_assertions() {
        let (mut writers, _r) = open_stream(StreamConfig::default());
        let mut w = OpenPmdWriter::new(writers.remove(0));
        w.begin_iteration(0, 0.0, 0.1);
        w.write_mesh(
            "E",
            "x",
            UnitDimension::electric_field(),
            1.0,
            4,
            0,
            &[1.0, 2.0, 3.0, 4.0],
        );
        w.end_iteration();
        w.close();
    }

    #[test]
    #[should_panic(expected = "iteration already open")]
    fn double_begin_rejected() {
        let (mut writers, _r) = open_stream(StreamConfig::default());
        let mut w = OpenPmdWriter::new(writers.remove(0));
        w.begin_iteration(0, 0.0, 0.1);
        w.begin_iteration(1, 0.1, 0.1);
    }

    #[test]
    fn full_round_trip_with_reader() {
        let (mut writers, mut readers) = open_stream(StreamConfig::default());
        let mut w = OpenPmdWriter::new(writers.remove(0));
        let producer = std::thread::spawn(move || {
            for it in 0..2u64 {
                w.begin_iteration(it, it as f64 * 0.5, 0.5);
                w.set_attribute("beta", Value::F64(0.2));
                w.write_particles(
                    "e",
                    "momentum",
                    "x",
                    UnitDimension::momentum(),
                    2.73e-22,
                    3,
                    0,
                    &[0.1 * it as f64, 0.2, 0.3],
                );
                w.end_iteration();
            }
            w.close();
        });
        let mut r = OpenPmdReader::new(readers.remove(0));
        let mut count = 0;
        while let Some(mut it) = r.next_iteration() {
            assert_eq!(it.iteration, count);
            assert_eq!(it.attributes.get("beta"), Some(&Value::F64(0.2)));
            let ux = it.particles("e", "momentum", "x");
            assert_eq!(ux.len(), 3);
            assert!((ux[0] - 0.1 * count as f64).abs() < 1e-12);
            let si = it
                .attributes
                .get("particles/e/momentum/x.unitSI")
                .and_then(|v| v.as_f64())
                .expect("unitSI present");
            assert!((si - 2.73e-22).abs() < 1e-30);
            r.close_iteration(it);
            count += 1;
        }
        assert_eq!(count, 2);
        producer.join().unwrap();
    }
}
