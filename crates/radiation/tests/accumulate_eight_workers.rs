//! Its own test binary: the rayon worker count is latched once per process.
//! Eight workers timeslice on fewer CPUs, which still runs every chunk on
//! whichever thread claims it.

mod common;

#[test]
fn eight_workers_stream_the_collect_then_chunk_sums() {
    common::streamed_accumulation_equals_collect_then_chunk(8);
}
