//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access and no crates.io mirror, so
//! the workspace vendors the benchmarking API subset its benches use:
//! [`Criterion`] with `sample_size` / `warm_up_time` / `measurement_time`,
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BenchmarkId`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is a straightforward warm-up + sampled wall-clock loop with
//! mean/min/max reporting — no statistics engine, plots, or saved
//! baselines. Results are also recorded on the [`Criterion`] instance so a
//! custom `main` can export them (see [`Criterion::take_results`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One measured benchmark, exposed through [`Criterion::take_results`].
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name as passed to [`Criterion::benchmark_group`].
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: f64,
    /// Total iterations measured.
    pub iterations: u64,
}

/// Benchmark driver (subset of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(900),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the untimed warm-up duration per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up = d;
        self
    }

    /// Sets the total timed duration per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement = d;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Drains the results recorded so far (for custom `main` exporters).
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id that is just a parameter value.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// How per-iteration inputs are batched in [`Bencher::iter_batched`]
/// (accepted for API compatibility; the shim times each call
/// individually either way).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Inputs are cheap to hold; batch many per sample.
    SmallInput,
    /// Inputs are large; batch few per sample.
    LargeInput,
    /// One input per sample.
    PerIteration,
}

/// A named collection of benchmarks sharing the parent configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark that borrows a prepared input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            warm_up: self.criterion.warm_up,
            measurement: self.criterion.measurement,
            sample_size: self.criterion.sample_size,
            measured: None,
        };
        f(&mut bencher, input);
        self.record(id, bencher.measured);
    }

    /// Runs one benchmark with no input.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_with_input(id, &(), |b, ()| f(b))
    }

    /// Ends the group (prints nothing extra; results were reported per
    /// benchmark).
    pub fn finish(self) {}

    fn record(&mut self, id: BenchmarkId, measured: Option<Measured>) {
        let Some(m) = measured else {
            eprintln!("{}/{}: no measurement taken", self.name, id.id);
            return;
        };
        println!(
            "{}/{:<40} time: [{} {} {}] ({} iters)",
            self.name,
            id.id,
            fmt_ns(m.min_ns),
            fmt_ns(m.mean_ns),
            fmt_ns(m.max_ns),
            m.iterations,
        );
        self.criterion.results.push(BenchResult {
            group: self.name.clone(),
            id: id.id,
            mean_ns: m.mean_ns,
            min_ns: m.min_ns,
            max_ns: m.max_ns,
            iterations: m.iterations,
        });
    }
}

#[derive(Debug, Clone, Copy)]
struct Measured {
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iterations: u64,
}

/// Times a routine (subset of `criterion::Bencher`).
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    measured: Option<Measured>,
}

impl Bencher {
    /// Times `routine`, amortizing over batched iterations per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter_ns = (warm_start.elapsed().as_nanos() / warm_iters as u128).max(1);

        let sample_budget_ns = (self.measurement.as_nanos() / self.sample_size as u128).max(1);
        let iters_per_sample = ((sample_budget_ns / per_iter_ns).max(1)) as u64;

        let mut total_ns: u128 = 0;
        let mut total_iters: u64 = 0;
        let (mut min_ns, mut max_ns) = (f64::INFINITY, 0f64);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let ns = t.elapsed().as_nanos();
            let per = ns as f64 / iters_per_sample as f64;
            min_ns = min_ns.min(per);
            max_ns = max_ns.max(per);
            total_ns += ns;
            total_iters += iters_per_sample;
        }
        self.measured = Some(Measured {
            mean_ns: total_ns as f64 / total_iters as f64,
            min_ns,
            max_ns,
            iterations: total_iters,
        });
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm up.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            let input = setup();
            black_box(routine(input));
            warm_iters += 1;
        }

        // Measure each call individually until the budget is spent, with
        // the sample count as a floor so short budgets still sample.
        let budget = self.measurement;
        let mut timed_ns: u128 = 0;
        let mut iters: u64 = 0;
        let (mut min_ns, mut max_ns) = (f64::INFINITY, 0f64);
        while timed_ns < budget.as_nanos() || iters < self.sample_size as u64 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            let ns = t.elapsed().as_nanos();
            min_ns = min_ns.min(ns as f64);
            max_ns = max_ns.max(ns as f64);
            timed_ns += ns;
            iters += 1;
        }
        self.measured = Some(Measured {
            mean_ns: timed_ns as f64 / iters as f64,
            min_ns,
            max_ns,
            iterations: iters,
        });
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
        format!("{ns:.1} ns")
    }
}

/// One extra scalar field in a [`SummaryWriter`] header.
#[derive(Debug, Clone)]
enum Field {
    Str(String),
    Int(i64),
    Num(f64),
}

/// Renders `BENCH_*.json` summaries stamped with provenance metadata.
///
/// Every summary leads with the benchmark name, the commit hash, and the
/// thread count, so artifacts checked into the repository say exactly
/// what produced them. The commit is resolved from `RSCHED_COMMIT`, then
/// `GITHUB_SHA` (CI), then `git rev-parse --short HEAD`, falling back to
/// `"unknown"` outside a checkout. A hash from git gains a `-dirty`
/// suffix when a tracked file other than a `BENCH_*.json` summary
/// differs from `HEAD`, so numbers from uncommitted code are never
/// stamped with their parent's hash.
///
/// ```no_run
/// # use criterion::SummaryWriter;
/// SummaryWriter::new("kernel_schedule")
///     .threads(8)
///     .metric("speedup", 2.5)
///     .write("BENCH_kernel.json", &[])
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct SummaryWriter {
    fields: Vec<(String, Field)>,
}

impl SummaryWriter {
    /// Starts a summary for the benchmark `bench`, stamping the commit.
    pub fn new(bench: impl Into<String>) -> SummaryWriter {
        SummaryWriter {
            fields: vec![
                ("bench".to_owned(), Field::Str(bench.into())),
                ("commit".to_owned(), Field::Str(commit_hash())),
            ],
        }
    }

    /// Stamps the worker-thread count the benchmark ran with.
    pub fn threads(self, threads: usize) -> SummaryWriter {
        self.int("threads", threads as i64)
    }

    /// Adds a string header field.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> SummaryWriter {
        self.fields.push((key.into(), Field::Str(value.into())));
        self
    }

    /// Adds an integer header field.
    pub fn int(mut self, key: impl Into<String>, value: i64) -> SummaryWriter {
        self.fields.push((key.into(), Field::Int(value)));
        self
    }

    /// Adds a floating-point header field (non-finite values render as
    /// `null`).
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> SummaryWriter {
        self.fields.push((key.into(), Field::Num(value)));
        self
    }

    /// Renders the summary (header fields, then `"results"`) as one JSON
    /// object.
    pub fn render(&self, results: &[BenchResult]) -> String {
        let mut out = String::from("{");
        for (key, value) in &self.fields {
            out.push_str(&json_str(key));
            out.push(':');
            match value {
                Field::Str(s) => out.push_str(&json_str(s)),
                Field::Int(i) => out.push_str(&i.to_string()),
                Field::Num(n) => out.push_str(&json_num(*n)),
            }
            out.push(',');
        }
        out.push_str("\"results\":[");
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"group\":{},\"id\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"iterations\":{}}}",
                json_str(&r.group),
                json_str(&r.id),
                json_num(r.mean_ns),
                json_num(r.min_ns),
                json_num(r.max_ns),
                r.iterations,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Writes the rendered summary (plus a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(
        &self,
        path: impl AsRef<std::path::Path>,
        results: &[BenchResult],
    ) -> std::io::Result<()> {
        std::fs::write(path, self.render(results) + "\n")
    }
}

fn commit_hash() -> String {
    for var in ["RSCHED_COMMIT", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_owned();
            if !v.is_empty() {
                return v;
            }
        }
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(hash) = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_owned();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(status) if is_dirty(&status) => format!("{hash}-dirty"),
        _ => hash,
    }
}

/// Whether `git status --porcelain` output names a changed tracked file
/// other than a root-level `BENCH_*.json` summary (the files a bench run
/// rewrites). Each line is `XY path`, or `XY from -> to` for a rename,
/// with paths relative to the repository root and quoted when unusual.
fn is_dirty(porcelain: &str) -> bool {
    let is_summary = |path: &str| {
        let path = path.trim_matches('"');
        !path.contains('/') && path.starts_with("BENCH_") && path.ends_with(".json")
    };
    porcelain
        .lines()
        .filter_map(|line| line.get(3..))
        .flat_map(|paths| paths.split(" -> "))
        .any(|path| !is_summary(path))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_owned()
    }
}

/// Bundles benchmark functions with a configuration into one group
/// function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running each group.
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

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        {
            let mut group = c.benchmark_group("smoke");
            group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            group.bench_with_input(BenchmarkId::from_parameter("batched"), &(), |b, ()| {
                b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
            });
            group.finish();
        }
        let results = c.take_results();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.mean_ns > 0.0 && r.iterations > 0));
        assert!(results
            .iter()
            .all(|r| r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns));
    }

    #[test]
    fn only_changes_outside_bench_summaries_are_dirty() {
        assert!(!is_dirty(""));
        assert!(!is_dirty(" M BENCH_kernel.json\n"));
        assert!(!is_dirty("M  BENCH_kernel.json\n M BENCH_engine.json\n"));
        assert!(is_dirty(" M crates/core/src/schedule.rs\n"));
        assert!(is_dirty(" M BENCH_kernel.json\nA  src/new.rs\n"));
        assert!(is_dirty(" D README.md\n"));
        // Summaries elsewhere in the tree and look-alike names are code.
        assert!(is_dirty(" M rsbench/BENCH_x.json\n"));
        assert!(is_dirty(" M BENCH_kernel.json.bak\n"));
        // A rename is dirty unless both sides are summaries.
        assert!(!is_dirty("R  BENCH_a.json -> BENCH_b.json\n"));
        assert!(is_dirty("R  notes.md -> BENCH_b.json\n"));
        assert!(is_dirty("M  \"odd name.rs\"\n"));
    }

    #[test]
    fn summary_writer_stamps_provenance() {
        let results = vec![BenchResult {
            group: "g".to_owned(),
            id: "kernel/rand_800".to_owned(),
            mean_ns: 1.5,
            min_ns: 1.0,
            max_ns: f64::INFINITY,
            iterations: 10,
        }];
        let json = SummaryWriter::new("kernel_schedule")
            .threads(8)
            .tag("largest_design", "rand_800")
            .metric("speedup", 2.5)
            .int("designs", 3)
            .render(&results);
        assert!(json.starts_with("{\"bench\":\"kernel_schedule\",\"commit\":\""));
        assert!(json.contains("\"threads\":8"));
        assert!(json.contains("\"largest_design\":\"rand_800\""));
        assert!(json.contains("\"speedup\":2.5"));
        assert!(json.contains("\"designs\":3"));
        assert!(json.contains("\"id\":\"kernel/rand_800\""));
        assert!(json.contains("\"max_ns\":null"), "non-finite renders null");
        // The commit stamp is never empty — at worst it is "unknown".
        assert!(!json.contains("\"commit\":\"\""));
    }

    #[test]
    fn summary_writer_escapes_strings() {
        let json = SummaryWriter::new("a\"b\\c\nd").render(&[]);
        assert!(json.contains(r#""bench":"a\"b\\c\nd""#));
    }
}
