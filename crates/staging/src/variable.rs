//! Variable metadata: typed global arrays assembled from per-rank blocks.

use crate::codec::WireCodec;
use bytes::Bytes;

/// Element type of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// 64-bit unsigned integer.
    U64,
    /// Raw bytes.
    U8,
}

impl Dtype {
    /// Size of one element in bytes.
    pub(crate) fn size(&self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
            Dtype::U64 => 8,
            Dtype::U8 => 1,
        }
    }
}

/// One rank's contiguous block of a 1-D global array.
///
/// (The engine models all arrays as flat; multidimensional layouts are a
/// metadata concern of the openPMD layer above.)
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Producing writer rank.
    pub writer_rank: usize,
    /// Offset into the global array, elements.
    pub offset: u64,
    /// Element count.
    pub count: u64,
    /// The published payload (refcounted, zero-copy on fetch).
    pub data: Bytes,
}

/// Metadata of one variable within a step.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableMeta {
    /// Variable name, e.g. `particles/e/momentum/x`.
    pub name: String,
    /// Element type.
    pub dtype: Dtype,
    /// Global element count.
    pub global_count: u64,
    /// Blocks in writer-rank order.
    pub blocks: Vec<Block>,
}

impl VariableMeta {
    /// Verify blocks tile the global extent without overlap and that
    /// every block's payload has exactly the wire size `codec`
    /// prescribes for its element count.
    pub(crate) fn validate_wire(&self, codec: WireCodec) {
        let mut blocks: Vec<&Block> = self.blocks.iter().collect();
        blocks.sort_by_key(|b| b.offset);
        let mut cursor = 0u64;
        for b in blocks {
            assert_eq!(
                b.offset, cursor,
                "variable {}: gap or overlap at offset {}",
                self.name, b.offset
            );
            assert_eq!(
                b.data.len() as u64,
                codec.wire_len(self.dtype, b.count),
                "variable {}: payload size mismatch",
                self.name
            );
            cursor = b.offset + b.count;
        }
        assert_eq!(
            cursor, self.global_count,
            "variable {}: blocks do not cover the global extent",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(Dtype::F32.size(), 4);
        assert_eq!(Dtype::F64.size(), 8);
        assert_eq!(Dtype::U64.size(), 8);
        assert_eq!(Dtype::U8.size(), 1);
    }

    fn block(rank: usize, offset: u64, count: u64) -> Block {
        Block {
            writer_rank: rank,
            offset,
            count,
            data: Bytes::from(vec![0u8; (count * 8) as usize]),
        }
    }

    #[test]
    fn valid_tiling_passes() {
        let v = VariableMeta {
            name: "x".into(),
            dtype: Dtype::F64,
            global_count: 10,
            blocks: vec![block(1, 4, 6), block(0, 0, 4)],
        };
        v.validate_wire(WireCodec::None);
    }

    #[test]
    #[should_panic(expected = "gap or overlap")]
    fn gap_is_detected() {
        let v = VariableMeta {
            name: "x".into(),
            dtype: Dtype::F64,
            global_count: 10,
            blocks: vec![block(0, 0, 4), block(1, 5, 5)],
        };
        v.validate_wire(WireCodec::None);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn short_coverage_is_detected() {
        let v = VariableMeta {
            name: "x".into(),
            dtype: Dtype::F64,
            global_count: 12,
            blocks: vec![block(0, 0, 4), block(1, 4, 6)],
        };
        v.validate_wire(WireCodec::None);
    }
}
