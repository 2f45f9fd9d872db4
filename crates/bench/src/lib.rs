//! # tfmae-bench
//!
//! Experiment harness regenerating every table and figure of the TFMAE
//! paper's evaluation (§V). Each `src/bin/*.rs` binary reproduces one
//! table/figure (see DESIGN.md §6 for the index); this library holds the
//! shared scaffolding: CLI options, aligned-table printing, CSV artifacts
//! and a thread-fanning runner.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// Common experiment options parsed from `--key value` CLI arguments.
#[derive(Clone, Debug)]
pub struct Options {
    /// RNG seed for data generation and model init.
    pub seed: u64,
    /// Divisor scaling the published dataset lengths (Table II) down.
    pub divisor: usize,
    /// Training epochs for deep detectors.
    pub epochs: usize,
    /// Quick mode: smaller datasets and fewer sweep points.
    pub quick: bool,
    /// Worker threads for dataset×method fan-out.
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self { seed: 7, divisor: 60, epochs: 5, quick: false, threads: default_threads() }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}

impl Options {
    /// Parses `--seed N --divisor N --epochs N --threads N --quick` from
    /// `std::env::args`, starting from defaults. `--quick` shrinks the
    /// default divisor and epochs; an explicit `--divisor`/`--epochs` wins
    /// in either order. A bad command line exits 2 (see [`Args`]).
    pub fn parse() -> Self {
        let mut opts = Self::default();
        let (mut divisor, mut epochs) = (None, None);
        let mut args = Args::from_env();
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--seed" => opts.seed = args.value(&flag),
                "--divisor" => divisor = Some(args.value(&flag)),
                "--epochs" => epochs = Some(args.value(&flag)),
                "--threads" => opts.threads = args.value(&flag),
                "--quick" => opts.quick = true,
                _ => usage_error(&format!("unknown flag {flag}")),
            }
        }
        if opts.quick {
            opts.divisor = opts.divisor.max(200);
            opts.epochs = opts.epochs.min(2);
        }
        opts.divisor = divisor.unwrap_or(opts.divisor);
        opts.epochs = epochs.unwrap_or(opts.epochs);
        opts
    }
}

/// The process's `--flag [value]` arguments, walked one flag at a time.
/// A missing or unparsable value exits 2 with a message.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The process arguments after the program name.
    pub fn from_env() -> Self {
        Self(std::env::args().skip(1).collect::<Vec<_>>().into_iter())
    }

    /// The next flag, or `None` at the end.
    pub fn next_flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value following `flag`, parsed.
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.0.next() else { usage_error(&format!("{flag} needs a value")) };
        raw.parse().unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse {raw:?}")))
    }
}

/// Prints `error: <msg>` and exits 2, the bad-invocation code.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// An aligned text table accumulating rows, also exportable as CSV.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.header.iter().zip(widths.iter()) {
            let _ = write!(line, "{:<width$}  ", h, width = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(widths.iter()) {
                let _ = write!(line, "{:<width$}  ", c, width = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes the table as CSV under `target/experiments/<name>.csv` and
    /// returns the path.
    pub fn write_csv(&self, name: &str) -> PathBuf {
        let dir = PathBuf::from("target/experiments");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        if let Err(e) = fs::write(&path, out) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            println!("[csv] {}", path.display());
        }
        path
    }
}

/// Formats a percent with two decimals, as the paper's tables print.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

/// Runs `jobs` closures across at most `threads` workers, preserving input
/// order in the output. Each job returns one result.
pub fn run_parallel<T: Send>(threads: usize, jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let queue = Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
    let sink = Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().expect("job queue poisoned").pop();
                let Some((idx, job)) = job else { break };
                let out = job();
                sink.lock().expect("result sink poisoned")[idx] = Some(out);
            });
        }
    });
    results.into_iter().map(|r| r.expect("job completed")).collect()
}

/// ASCII sparkline for series printed inside figure reproductions.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi <= lo {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / (hi - lo) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[t.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i * i);
                f
            })
            .collect();
        let out = run_parallel(4, jobs);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        let flat = sparkline(&[2.0, 2.0]);
        assert_eq!(flat, "▁▁");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(98.3642), "98.36");
    }
}
