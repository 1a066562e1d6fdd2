//! Zero-copy views over a step's published blocks.
//!
//! A view holds refcounted clones of the writers' wire buffers
//! ([`bytes::Bytes`]) plus a small per-block descriptor table — no
//! payload bytes are copied or re-allocated on the reader side.
//! Elements decode lazily, one at a time, straight out of the wire
//! bytes (little-endian loads; the buffers carry no alignment
//! guarantee, so no `&[f64]` casts). For a handful of producer blocks
//! the segment lookup is a short linear scan seeded at the previously
//! hit segment, so in-order sweeps and the encoder's random picks both
//! stay O(1) amortised.

use crate::codec::{f16_bits_to_f32, quant_header, WireCodec, QUANT_HEADER_BYTES};
use crate::variable::Dtype;
use bytes::Bytes;
use std::cell::Cell;

/// One block's slice of the global index space.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// First global element index covered.
    start: u64,
    /// One past the last global element index covered.
    end: u64,
    /// The writer's wire buffer (refcount clone, never copied).
    data: Bytes,
    codec: WireCodec,
    dtype: Dtype,
    /// Byte offset of the element lanes (the quantisation header size,
    /// 0 for direct codecs).
    lanes: usize,
    /// Quantisation header, parsed once.
    q_min: f64,
    q_scale: f64,
}

impl Segment {
    pub(crate) fn new(start: u64, count: u64, data: Bytes, codec: WireCodec, dtype: Dtype) -> Self {
        let quant = matches!(codec, WireCodec::QuantU16 { .. }) && codec.transforms(dtype);
        let (lanes, q_min, q_scale) = if quant && count > 0 {
            let (min, scale) = quant_header(&data);
            (QUANT_HEADER_BYTES, min, scale)
        } else {
            (0, 0.0, 0.0)
        };
        Self {
            start,
            end: start + count,
            data,
            codec,
            dtype,
            lanes,
            q_min,
            q_scale,
        }
    }

    /// Decode the element at local index `i` as `f64`.
    fn get_f64(&self, i: usize) -> f64 {
        let raw = &self.data[self.lanes..];
        if !self.codec.transforms(self.dtype) {
            return match self.dtype {
                Dtype::F64 => f64::from_le_bytes(read_8(raw, i * 8)),
                Dtype::F32 => f32::from_le_bytes(read_4(raw, i * 4)) as f64,
                Dtype::U64 => u64::from_le_bytes(read_8(raw, i * 8)) as f64,
                Dtype::U8 => raw[i] as f64,
            };
        }
        match self.codec {
            WireCodec::None => unreachable!("transforms() excluded None"),
            WireCodec::F16 => f16_bits_to_f32(u16::from_le_bytes(read_2(raw, i * 2))) as f64,
            WireCodec::QuantU16 { .. } => {
                self.q_min + u16::from_le_bytes(read_2(raw, i * 2)) as f64 * self.q_scale
            }
        }
    }

    /// Decode the element at local index `i` as `f32`.
    fn get_f32(&self, i: usize) -> f32 {
        match (self.codec.transforms(self.dtype), self.dtype) {
            (false, Dtype::F32) => f32::from_le_bytes(read_4(&self.data, i * 4)),
            _ => self.get_f64(i) as f32,
        }
    }
}

fn read_2(raw: &[u8], at: usize) -> [u8; 2] {
    [raw[at], raw[at + 1]]
}

fn read_4(raw: &[u8], at: usize) -> [u8; 4] {
    raw[at..at + 4]
        .try_into()
        .unwrap_or_else(|_| unreachable!("4-byte slice"))
}

fn read_8(raw: &[u8], at: usize) -> [u8; 8] {
    raw[at..at + 8]
        .try_into()
        .unwrap_or_else(|_| unreachable!("8-byte slice"))
}

/// A zero-copy element view over one variable's global array.
///
/// Cloning is cheap (refcount bumps); indexing decodes one element from
/// the writer's wire buffer. The `hint` cell remembers the last hit
/// segment so contiguous and locally-clustered access patterns skip the
/// scan entirely.
#[derive(Debug, Clone)]
pub struct VarView {
    segments: Vec<Segment>,
    len: u64,
    hint: Cell<usize>,
}

impl VarView {
    pub(crate) fn new(mut segments: Vec<Segment>, len: u64) -> Self {
        segments.sort_by_key(|s| s.start);
        Self {
            segments,
            len,
            hint: Cell::new(0),
        }
    }

    /// Global element count.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the variable is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn segment_for(&self, i: u64) -> &Segment {
        let hint = self.hint.get();
        if let Some(s) = self.segments.get(hint) {
            if s.start <= i && i < s.end {
                return s;
            }
        }
        let at = self
            .segments
            .iter()
            .position(|s| s.start <= i && i < s.end)
            .unwrap_or_else(|| panic!("index {i} outside the {}-element view", self.len));
        self.hint.set(at);
        &self.segments[at]
    }

    /// Decode element `i` as `f64`.
    pub fn get_f64(&self, i: usize) -> f64 {
        let s = self.segment_for(i as u64);
        s.get_f64((i as u64 - s.start) as usize)
    }

    /// Decode element `i` as `f32`.
    pub fn get_f32(&self, i: usize) -> f32 {
        let s = self.segment_for(i as u64);
        s.get_f32((i as u64 - s.start) as usize)
    }

    /// Iterate all elements as `f64` in global order.
    #[cfg(test)]
    pub(crate) fn iter_f64(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(|i| self.get_f64(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: u64, vals: &[f64], codec: WireCodec) -> Segment {
        Segment::new(
            start,
            vals.len() as u64,
            codec.encode_f64(vals),
            codec,
            Dtype::F64,
        )
    }

    #[test]
    fn multi_segment_view_assembles_in_offset_order() {
        let v = VarView::new(
            vec![
                seg(4, &[4.0, 5.0, 6.0, 7.0], WireCodec::None),
                seg(0, &[0.0, 1.0, 2.0, 3.0], WireCodec::None),
            ],
            8,
        );
        assert_eq!(v.len(), 8);
        let all: Vec<f64> = v.iter_f64().collect();
        assert_eq!(all, (0..8).map(|i| i as f64).collect::<Vec<_>>());
        // Random access across the segment boundary, both directions.
        assert_eq!(v.get_f64(6), 6.0);
        assert_eq!(v.get_f64(1), 1.0);
        assert_eq!(v.get_f32(7), 7.0f32);
    }

    #[test]
    fn f16_view_decodes_the_codec() {
        let vals = [0.5f64, -1.25, 300.0];
        let v = VarView::new(vec![seg(0, &vals, WireCodec::F16)], 3);
        for (i, &x) in vals.iter().enumerate() {
            assert_eq!(v.get_f64(i), x, "exactly representable in f16");
        }
    }

    #[test]
    fn quant_view_parses_header_once_and_decodes() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        let codec = WireCodec::QuantU16 { bits: 16 };
        let v = VarView::new(vec![seg(0, &vals, codec)], 100);
        let eps = (vals[99] - vals[0]) / (2.0 * 65535.0);
        for (i, &x) in vals.iter().enumerate() {
            assert!((v.get_f64(i) - x).abs() <= eps + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_index_panics() {
        let v = VarView::new(vec![seg(0, &[1.0], WireCodec::None)], 1);
        v.get_f64(1);
    }
}
