//! Throughput accounting for the streaming benchmarks.

/// Records logical and wire bytes moved and simulated wire time.
#[derive(Debug)]
pub struct ThroughputRecorder {
    bytes: u64,
    wire_bytes: u64,
    simulated_seconds: f64,
}

impl Default for ThroughputRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputRecorder {
    /// Fresh recorder.
    pub(crate) fn new() -> Self {
        Self {
            bytes: 0,
            wire_bytes: 0,
            simulated_seconds: 0.0,
        }
    }

    /// Account `n` bytes.
    pub(crate) fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Account `n` *wire* bytes — the (possibly codec-compressed) size
    /// that actually crosses the data plane, as opposed to the logical
    /// payload size tracked by [`Self::add_bytes`].
    pub(crate) fn add_wire_bytes(&mut self, n: u64) {
        self.wire_bytes += n;
    }

    /// Account simulated wire seconds.
    pub(crate) fn add_simulated(&mut self, s: f64) {
        self.simulated_seconds += s;
    }

    /// Total bytes accounted.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total wire bytes accounted (equals [`Self::total_bytes`] under
    /// the lossless codec).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Total simulated wire seconds.
    pub fn simulated_seconds(&self) -> f64 {
        self.simulated_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_track_separately_from_payload_bytes() {
        let mut r = ThroughputRecorder::new();
        r.add_bytes(800);
        r.add_wire_bytes(200);
        assert_eq!(r.total_bytes(), 800);
        assert_eq!(r.wire_bytes(), 200);
    }

    #[test]
    fn simulated_time_accumulates() {
        let mut r = ThroughputRecorder::new();
        r.add_simulated(0.5);
        r.add_simulated(0.25);
        assert_eq!(r.simulated_seconds(), 0.75);
    }
}
