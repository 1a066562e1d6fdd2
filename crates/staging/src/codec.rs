//! Wire codecs for the staging data plane.
//!
//! The paper's surrogate trains on reduced-precision encodings of the
//! particle phase space (the encoder casts to `f32` and normalises), so
//! the wire format of the staging stream is a legitimate bandwidth
//! lever: a [`WireCodec`] is applied when a block is published and
//! decoded (per element, zero-copy) when a reader touches it. Byte
//! counters on both sides record the *wire* size, so the modelled data
//! plane prices the compressed stream.
//!
//! Codec semantics (the accuracy contract asserted by the round-trip
//! proptest and the 2×2 tail-loss gate):
//! - [`WireCodec::None`] — little-endian IEEE bytes, bit-exact.
//! - [`WireCodec::F16`] — IEEE binary16 with round-to-nearest-even;
//!   relative error ≤ 2⁻¹¹ inside the f16 normal range, 4× smaller
//!   wire than `f64` payloads.
//! - [`WireCodec::QuantU16`] — per-block linear quantisation to
//!   `bits` levels (`u16` lanes, 16-byte `min`/`scale` header);
//!   absolute error ≤ `(max-min) / (2·(2^bits - 1))` per block.
//!
//! Only float payloads are transformed; `U64`/`U8` variables (metadata,
//! attribute blobs) always travel raw.

use crate::variable::Dtype;
use bytes::Bytes;

/// Wire-format codec applied to float payload blocks at publish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Raw little-endian IEEE bytes — lossless, bit-exact.
    None,
    /// IEEE binary16 lanes (round-to-nearest-even).
    F16,
    /// Per-block linear quantisation to `bits`-level `u16` lanes.
    QuantU16 {
        /// Quantisation depth in bits, `1..=16`.
        bits: u8,
    },
}

/// Byte offset of the `u16` lanes behind a [`WireCodec::QuantU16`]
/// block header (`min: f64 le` + `scale: f64 le`).
pub(crate) const QUANT_HEADER_BYTES: usize = 16;

impl WireCodec {
    /// Display label (bench column / CLI value).
    pub fn label(&self) -> String {
        match self {
            WireCodec::None => "none".into(),
            WireCodec::F16 => "f16".into(),
            WireCodec::QuantU16 { bits } => format!("quant{bits}"),
        }
    }

    /// True when this codec transforms blocks of `dtype` (floats only;
    /// integer and raw-byte payloads always travel uncompressed).
    pub(crate) fn transforms(&self, dtype: Dtype) -> bool {
        !matches!(self, WireCodec::None) && matches!(dtype, Dtype::F32 | Dtype::F64)
    }

    /// Wire bytes of one `count`-element block of `dtype` under this
    /// codec. This is the size contract `validate_wire` holds publishes
    /// to, and the number the byte counters record.
    pub fn wire_len(&self, dtype: Dtype, count: u64) -> u64 {
        if !self.transforms(dtype) {
            return count * dtype.size() as u64;
        }
        match self {
            WireCodec::None => unreachable!("transforms() excluded None"),
            WireCodec::F16 => 2 * count,
            WireCodec::QuantU16 { .. } => {
                if count == 0 {
                    0
                } else {
                    QUANT_HEADER_BYTES as u64 + 2 * count
                }
            }
        }
    }

    /// Quantisation levels of a [`WireCodec::QuantU16`] (`2^bits - 1`).
    fn levels(bits: u8) -> f64 {
        let bits = bits.clamp(1, 16) as u32;
        ((1u32 << bits) - 1) as f64
    }

    /// Encode an `f64` block into its wire bytes.
    pub fn encode_f64(&self, v: &[f64]) -> Bytes {
        match self {
            WireCodec::None => {
                let mut out = Vec::with_capacity(v.len() * 8);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Bytes::from(out)
            }
            WireCodec::F16 => {
                let mut out = Vec::with_capacity(v.len() * 2);
                for x in v {
                    out.extend_from_slice(&f32_to_f16_bits(*x as f32).to_le_bytes());
                }
                Bytes::from(out)
            }
            WireCodec::QuantU16 { bits } => encode_quant(v, *bits),
        }
    }

    /// Encode an `f32` block into its wire bytes.
    pub fn encode_f32(&self, v: &[f32]) -> Bytes {
        match self {
            WireCodec::None => {
                let mut out = Vec::with_capacity(v.len() * 4);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Bytes::from(out)
            }
            WireCodec::F16 => {
                let mut out = Vec::with_capacity(v.len() * 2);
                for x in v {
                    out.extend_from_slice(&f32_to_f16_bits(*x).to_le_bytes());
                }
                Bytes::from(out)
            }
            WireCodec::QuantU16 { bits } => {
                let wide: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                encode_quant(&wide, *bits)
            }
        }
    }

    /// Decode a wire block of `count` `f64` elements into `out[..count]`.
    pub fn decode_f64_into(&self, data: &[u8], count: usize, out: &mut [f64]) {
        debug_assert!(out.len() >= count);
        match self {
            WireCodec::None => {
                for (i, c) in data.chunks_exact(8).take(count).enumerate() {
                    let arr: [u8; 8] = c
                        .try_into()
                        .unwrap_or_else(|_| unreachable!("chunks_exact(8)"));
                    out[i] = f64::from_le_bytes(arr);
                }
            }
            WireCodec::F16 => {
                for (i, c) in data.chunks_exact(2).take(count).enumerate() {
                    out[i] = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])) as f64;
                }
            }
            WireCodec::QuantU16 { .. } => {
                let (min, scale) = quant_header(data);
                for (i, c) in data[QUANT_HEADER_BYTES..]
                    .chunks_exact(2)
                    .take(count)
                    .enumerate()
                {
                    out[i] = min + u16::from_le_bytes([c[0], c[1]]) as f64 * scale;
                }
            }
        }
    }

    /// Decode a wire block of `count` `f32` elements into `out[..count]`.
    pub fn decode_f32_into(&self, data: &[u8], count: usize, out: &mut [f32]) {
        debug_assert!(out.len() >= count);
        match self {
            WireCodec::None => {
                for (i, c) in data.chunks_exact(4).take(count).enumerate() {
                    let arr: [u8; 4] = c
                        .try_into()
                        .unwrap_or_else(|_| unreachable!("chunks_exact(4)"));
                    out[i] = f32::from_le_bytes(arr);
                }
            }
            WireCodec::F16 => {
                for (i, c) in data.chunks_exact(2).take(count).enumerate() {
                    out[i] = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
                }
            }
            WireCodec::QuantU16 { .. } => {
                let (min, scale) = quant_header(data);
                for (i, c) in data[QUANT_HEADER_BYTES..]
                    .chunks_exact(2)
                    .take(count)
                    .enumerate()
                {
                    out[i] = (min + u16::from_le_bytes([c[0], c[1]]) as f64 * scale) as f32;
                }
            }
        }
    }
}

/// Parse the `min`/`scale` header of a non-empty quantised block.
pub fn quant_header(data: &[u8]) -> (f64, f64) {
    assert!(
        data.len() >= QUANT_HEADER_BYTES,
        "quantised block shorter than its header"
    );
    let min = f64::from_le_bytes(
        data[0..8]
            .try_into()
            .unwrap_or_else(|_| unreachable!("8-byte slice")),
    );
    let scale = f64::from_le_bytes(
        data[8..16]
            .try_into()
            .unwrap_or_else(|_| unreachable!("8-byte slice")),
    );
    (min, scale)
}

fn encode_quant(v: &[f64], bits: u8) -> Bytes {
    if v.is_empty() {
        return Bytes::new();
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in v {
        min = min.min(x);
        max = max.max(x);
    }
    let levels = WireCodec::levels(bits);
    let scale = if max > min { (max - min) / levels } else { 0.0 };
    let mut out = Vec::with_capacity(QUANT_HEADER_BYTES + v.len() * 2);
    out.extend_from_slice(&min.to_le_bytes());
    out.extend_from_slice(&scale.to_le_bytes());
    for &x in v {
        let q = if scale > 0.0 {
            ((x - min) / scale).round().clamp(0.0, levels) as u16
        } else {
            0
        };
        out.extend_from_slice(&q.to_le_bytes());
    }
    Bytes::from(out)
}

/// Convert an `f32` to IEEE binary16 bits, round-to-nearest-even
/// (subnormals, overflow-to-infinity, and NaN payload preservation
/// included — no external `half` crate in this offline workspace).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 255 {
        // Inf / NaN propagate; keep NaN signalling a nonzero mantissa.
        let nan = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    let half_exp = exp - 127 + 15;
    if half_exp >= 31 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if half_exp <= 0 {
        // Half-precision subnormal (or underflow to zero): shift the
        // implicit-1 mantissa down and round. Values below half the
        // smallest subnormal (2⁻²⁵) flush to signed zero.
        if half_exp < -10 {
            return sign;
        }
        let man = man | 0x0080_0000;
        let shift = (14 - half_exp) as u32; // 14..=24
        let half_man = (man >> shift) as u16;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = rem > halfway || (rem == halfway && (half_man & 1) == 1);
        // Rounding the largest subnormal up carries into the exponent
        // field, yielding the smallest normal — exactly right.
        return sign | (half_man + round_up as u16);
    }
    // Normal: narrow the mantissa 23 → 10 bits, nearest-even. A carry
    // out of the mantissa (and even out of exponent 30 into infinity)
    // propagates correctly through the integer add.
    let half_man = (man >> 13) as u16;
    let rem = man & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && (half_man & 1) == 1);
    sign | ((((half_exp as u16) << 10) | half_man) + round_up as u16)
}

/// Convert IEEE binary16 bits to the exactly-representable `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0 {
        // ±0 and subnormals: magnitude is man × 2⁻²⁴, exact in f32.
        let v = man as f32 / (1u32 << 24) as f32;
        return if sign != 0 { -v } else { v };
    }
    if exp == 31 {
        if man != 0 {
            return f32::NAN;
        }
        return f32::from_bits(sign | 0x7f80_0000); // ±inf
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_special_values_round_trip() {
        for (x, expect) in [
            (0.0f32, 0.0f32),
            (-0.0, -0.0),
            (1.0, 1.0),
            (-2.5, -2.5),
            (65504.0, 65504.0),       // f16 max
            (65536.0, f32::INFINITY), // overflow
            (f32::INFINITY, f32::INFINITY),
            (f32::NEG_INFINITY, f32::NEG_INFINITY),
            (2f32.powi(-14), 2f32.powi(-14)), // smallest normal
            (2f32.powi(-24), 2f32.powi(-24)), // smallest subnormal
            (2.0e-8, 0.0),                    // below half the smallest subnormal
        ] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back.to_bits(), expect.to_bits(), "{x} -> {back}");
        }
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_nearest_even_ties() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and the next f16
        // (1 + 2⁻¹⁰); nearest-even keeps the even mantissa 1.0.
        let tie_even = 1.0f32 + 2f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tie_even)), 1.0);
        // (1 + 2⁻¹⁰) + 2⁻¹¹ is halfway with an odd mantissa below: round up.
        let tie_odd = 1.0f32 + 2f32.powi(-10) + 2f32.powi(-11);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(tie_odd)),
            1.0 + 2f32.powi(-9)
        );
    }

    #[test]
    fn f16_relative_error_is_bounded_in_normal_range() {
        let mut x = 6.2e-5f64;
        while x < 6.0e4 {
            let back = f16_bits_to_f32(f32_to_f16_bits(x as f32)) as f64;
            assert!(
                ((back - x) / x).abs() <= 2f64.powi(-11),
                "f16 relative error blew the 2^-11 bound at {x}"
            );
            x *= 1.37;
        }
    }

    #[test]
    fn wire_lengths() {
        let q = WireCodec::QuantU16 { bits: 12 };
        assert_eq!(WireCodec::None.wire_len(Dtype::F64, 100), 800);
        assert_eq!(WireCodec::F16.wire_len(Dtype::F64, 100), 200);
        assert_eq!(WireCodec::F16.wire_len(Dtype::F32, 100), 200);
        assert_eq!(q.wire_len(Dtype::F64, 100), 216);
        assert_eq!(q.wire_len(Dtype::F64, 0), 0);
        // Non-float payloads always travel raw.
        assert_eq!(WireCodec::F16.wire_len(Dtype::U8, 33), 33);
        assert_eq!(q.wire_len(Dtype::U64, 4), 32);
    }

    #[test]
    fn quant_round_trip_within_step_size() {
        let v: Vec<f64> = (0..257).map(|i| -3.0 + i as f64 * 0.031).collect();
        for bits in [8u8, 12, 16] {
            let c = WireCodec::QuantU16 { bits };
            let wire = c.encode_f64(&v);
            assert_eq!(wire.len() as u64, c.wire_len(Dtype::F64, v.len() as u64));
            let mut back = vec![0.0; v.len()];
            c.decode_f64_into(&wire, v.len(), &mut back);
            let span = 256.0 * 0.031;
            let eps = span / (2.0 * (((1u32 << bits) - 1) as f64));
            for (a, b) in v.iter().zip(&back) {
                assert!((a - b).abs() <= eps + 1e-12, "bits={bits}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quant_constant_block_is_exact() {
        let v = vec![4.25f64; 9];
        let c = WireCodec::QuantU16 { bits: 8 };
        let wire = c.encode_f64(&v);
        let (min, scale) = quant_header(&wire);
        assert_eq!(min, 4.25);
        assert_eq!(scale, 0.0);
        let mut back = vec![0.0; 9];
        c.decode_f64_into(&wire, 9, &mut back);
        assert_eq!(back, v);
    }

    #[test]
    fn empty_blocks_encode_to_empty_wire() {
        for c in [
            WireCodec::None,
            WireCodec::F16,
            WireCodec::QuantU16 { bits: 10 },
        ] {
            assert!(c.encode_f64(&[]).is_empty());
            assert!(c.encode_f32(&[]).is_empty());
        }
    }
}
