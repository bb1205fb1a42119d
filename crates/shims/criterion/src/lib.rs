//! Offline shim for the subset of the `criterion` benchmarking API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so this crate provides
//! `Criterion`, `benchmark_group`/`bench_function`/`sample_size`/`finish`,
//! `Bencher::iter`, `black_box` and the `criterion_group!`/`criterion_main!`
//! macros.  Timing is a straightforward best/mean-of-samples measurement —
//! no warm-up modelling or statistics, but the output format (one line per
//! benchmark with mean and best sample) is stable and greppable.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement driver handed to each benchmark function.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== group {name}");
        BenchmarkGroup {
            criterion: self,
            group: name.to_string(),
            sample_size: None,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(id, self.sample_size, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark of the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_benchmark(&format!("{}/{}", self.group, id), samples, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Runs the closure under a timer.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times one sample of `f` (the routine may be called many times per
    /// sample by real criterion; the shim times single calls).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        black_box(f());
        self.samples.push(start.elapsed());
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, samples: usize, mut f: F) {
    let mut bencher = Bencher {
        samples: Vec::new(),
    };
    // One untimed warm-up call, then the timed samples.
    f(&mut bencher);
    bencher.samples.clear();
    for _ in 0..samples.max(1) {
        f(&mut bencher);
    }
    let total: Duration = bencher.samples.iter().sum();
    let mean = total / bencher.samples.len().max(1) as u32;
    let best = bencher.samples.iter().min().copied().unwrap_or_default();
    println!(
        "bench {id}: mean {mean:?}  best {best:?}  ({} samples)",
        bencher.samples.len()
    );
}

/// Declares a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($bench(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        group.finish();
        // 1 warm-up + 3 samples
        assert_eq!(calls, 4);
    }
}
