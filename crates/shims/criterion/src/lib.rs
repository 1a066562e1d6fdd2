//! Offline stand-in for `criterion`.
//!
//! Provides the macro and builder surface the workspace's benches use
//! (`criterion_group!`/`criterion_main!`, `benchmark_group`, `sample_size`,
//! `throughput`, `bench_function`, `bench_with_input`, `BenchmarkId`) backed
//! by a plain wall-clock harness: after one warm-up iteration each benchmark
//! runs `sample_size` timed iterations and prints min/mean/max to stdout,
//! plus the rate at the fastest sample when a throughput is declared.
//! No statistics, plots or baselines — just honest timings offline.

use std::fmt::Display;
use std::time::Instant;

/// Top-level harness handle.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.default_sample_size,
            throughput: None,
            _parent: self,
        }
    }

    /// Run a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&id.to_string(), self.default_sample_size, None, &mut f);
        self
    }
}

/// Work done by one iteration, for reporting a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (e.g. floating-point operations) per iteration.
    Elements(u64),
}

/// A named group sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare the work of one iteration of the benchmarks that follow.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure under `group/id`.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_bench(&label, self.sample_size, self.throughput, &mut f);
        self
    }

    /// Benchmark a closure parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_bench(&label, self.sample_size, self.throughput, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Finish the group (printing happened per-benchmark).
    pub fn finish(self) {}
}

/// A `function/parameter` benchmark identifier.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Identifier from a function name and a parameter value.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        Self {
            name: format!("{function}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Per-benchmark timing handle.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Time `routine`: one warm-up call, then `sample_size` timed calls.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        std::hint::black_box(routine());
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }
}

fn run_bench(
    label: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("bench {label:<40} (no samples)");
        return;
    }
    let n = b.samples.len() as f64;
    let mean = b.samples.iter().sum::<f64>() / n;
    let min = b.samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = b.samples.iter().cloned().fold(0.0, f64::max);
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!("  thrpt {:>8.3} Gelem/s", n as f64 / min / 1e9),
        None => String::new(),
    };
    println!(
        "bench {label:<40} min {:>10.3} ms  mean {:>10.3} ms  max {:>10.3} ms  (n={}){rate}",
        min * 1e3,
        mean * 1e3,
        max * 1e3,
        b.samples.len()
    );
}

/// Group benchmark functions under one callable, like criterion's.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &x| b.iter(|| x * 2));
        g.finish();
    }

    criterion_group!(unit_group, trivial);

    #[test]
    fn harness_runs() {
        unit_group();
    }
}
