//! Offline stand-in for `criterion`.
//!
//! The build container has no registry access, so this crate implements the
//! subset of the criterion API the workspace benches use as a real (if
//! simple) wall-clock harness: warmup, repeated timed samples, median/mean
//! reporting and substring filtering via CLI args.
//!
//! Differences from real criterion are deliberate and small:
//! - fixed sample budget (bounded samples *and* bounded wall-clock time per
//!   benchmark) instead of adaptive sampling;
//! - no statistical outlier analysis — median and mean only;
//! - results are printed, not saved under `target/criterion/`.
//!
//! Swapping the workspace dependency back to registry criterion restores the
//! full harness without editing any bench source.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Hard ceiling on measurement time per benchmark, so dataset-scale benches
/// stay tractable in CI.
const TIME_BUDGET: Duration = Duration::from_secs(3);
/// Minimum samples collected even when the time budget is exhausted.
const MIN_SAMPLES: usize = 3;

/// Benchmark identifier: a function name plus a `Display`able parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    fn render(&self) -> String {
        format!("{}/{}", self.function, self.parameter)
    }
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    samples_ns: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Times `f`: one untimed warmup call, then repeated timed samples until
    /// the sample count or the per-benchmark time budget is reached.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let started = Instant::now();
        while self.samples_ns.len() < self.sample_size
            && (self.samples_ns.len() < MIN_SAMPLES || started.elapsed() < TIME_BUDGET)
        {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.samples_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        }
    }
}

/// Top-level harness state: CLI filter plus the benchmarks measured.
pub struct Criterion {
    filter: Option<String>,
    sample_size: usize,
    /// Names of the benchmarks measured so far, in run order.
    measured: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            filter: None,
            sample_size: 20,
            measured: Vec::new(),
        }
    }
}

impl Criterion {
    /// Builds a harness from CLI args: flags (`--bench`, `--noplot`, ...)
    /// are ignored, the first free argument is a substring filter.
    #[must_use]
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Self {
            filter,
            ..Self::default()
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            harness: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let sample_size = self.sample_size;
        self.run(name.to_owned(), sample_size, f);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, name: String, sample_size: usize, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            samples_ns: Vec::new(),
            sample_size,
        };
        f(&mut b);
        let mut sorted = b.samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let samples = sorted.len();
        let median_ns = if samples == 0 {
            0.0
        } else {
            sorted[samples / 2]
        };
        let mean_ns = if samples == 0 {
            0.0
        } else {
            b.samples_ns.iter().sum::<f64>() / samples as f64
        };
        println!(
            "{name:<50} time: [median {} mean {}] ({samples} samples)",
            fmt_ns(median_ns),
            fmt_ns(mean_ns)
        );
        self.measured.push(name);
    }

    /// Prints the closing summary.
    pub fn final_summary(&self) {
        println!("\n{} benchmarks measured", self.measured.len());
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// A named group of benchmarks sharing a sample-size override.
pub struct BenchmarkGroup<'a> {
    harness: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs `name` within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        let sample_size = self.sample_size.unwrap_or(self.harness.sample_size);
        self.harness.run(full, sample_size, f);
        self
    }

    /// Runs a parameterized benchmark, passing `input` to the closure.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.render());
        let sample_size = self.sample_size.unwrap_or(self.harness.sample_size);
        self.harness.run(full, sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Re-export for benches that use `criterion::black_box`.
pub use std::hint::black_box;

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the bench `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut b = Bencher {
            samples_ns: Vec::new(),
            sample_size: 20,
        };
        b.iter(|| 1 + 1);
        assert!(b.samples_ns.len() >= MIN_SAMPLES);
        assert!(b.samples_ns.iter().all(|&ns| ns >= 0.0));
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("match".into()),
            ..Criterion::default()
        };
        c.bench_function("other", |b| b.iter(|| ()));
        assert!(c.measured.is_empty());
        c.bench_function("matching", |b| b.iter(|| ()));
        assert_eq!(c.measured, ["matching"]);
    }

    #[test]
    fn group_ids_compose() {
        let mut c = Criterion::default();
        let mut samples = 0;
        let mut g = c.benchmark_group("grp");
        g.sample_size(4);
        g.bench_with_input(BenchmarkId::new("f", 7), &7usize, |b, &x| {
            b.iter(|| x * 2);
            samples = b.samples_ns.len();
        });
        g.finish();
        assert_eq!(c.measured, ["grp/f/7"]);
        assert!(samples <= 4);
    }
}
