//! Its own test binary: the rayon worker count is latched once per process.

mod common;

#[test]
fn one_worker_streams_the_collect_then_chunk_sums() {
    common::streamed_accumulation_equals_collect_then_chunk(1);
}
