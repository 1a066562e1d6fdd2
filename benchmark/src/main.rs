//! The benchmark binary: installs the counting allocator and hands over
//! to the command line in the library.

use as_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    as_benchmark::manifest::pin_rayon_threads();
    std::process::exit(as_benchmark::cli::main(std::env::args().skip(1).collect()));
}
