//! Overhead check: the enabled cost of each obs handle kind, then two
//! paired A/B comparisons of the serving engine at S=8 streams, on one
//! fitted model and one replay.
//!
//! ```text
//! cargo run --release -p tfmae-bench --bin bench_overhead -- [--quick]
//! ```
//!
//! * `handles` — one span enter+drop, one counter add and one histogram
//!   record with the registry enabled, each timed in a tight loop on one
//!   thread (ns per call, the median of 5 rounds). These are the unit
//!   costs an instrumented call site pays; a call site's total follows
//!   from how often it runs.
//! * `obs` — the global metrics registry off vs on. Contract: enabled
//!   within 2% of disabled (the disabled path is one relaxed atomic load
//!   per instrumented call site).
//! * `bf16` — f32 vs bf16 weight serving.
//!
//! Per-replay scheduler noise on a shared host is ±5–10%, far above the
//! costs being measured, so no single A/B run means anything. Each
//! comparison instead runs many short A,B,B,A blocks (linear drift inside
//! a block cancels), takes each block's geometric-mean A/B rows/s ratio,
//! and reports the median across blocks (robust to a preempted replay):
//! a ratio above 1 means B is slower, printed as B's overhead in percent.
//! The quartiles of the per-block overheads follow in brackets: a bound
//! is resolved only when it lies outside that spread. The obs line ends
//! with its verdict on the 2% bound: `within 2%` or `over 2%` when both
//! quartiles lie on one side of +2%, else `unresolved`. Rows/s are each
//! side's best replay.
//!
//! `obs` is a bitwise determinism contract (test-asserted in
//! `serving_parity`): every replay also compares the verdict scores of the
//! two sides bit for bit, and the process exits 1 on a mismatch rather than
//! time two programs that disagree. bf16 scores differ from f32 by design.
//!
//! `--quick` runs 8 blocks per comparison and 1M calls per handle round,
//! otherwise 25 blocks and 4M calls. The worker pool is
//! sized by `TFMAE_THREADS` (default: the host's available parallelism).
//! The model runs at the paper's default scale (win 100, d_model 64); the
//! fit is a single epoch, since training quality does not enter the timing.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_bench::Options;
use tfmae_core::{Precision, ServingConfig, ServingEngine, TfmaeConfig, TfmaeDetector};
use tfmae_data::{render, Component, Detector, TimeSeries};
use tfmae_obs::{LazyCounter, LazyHistogram};
use tfmae_tensor::Executor;

const STREAMS: usize = 8;

/// The obs contract: the enabled side costs at most this many percent.
const OBS_BOUND_PCT: f64 = 2.0;

/// Timed rounds per handle kind; the median is reported.
const HANDLE_ROUNDS: usize = 5;

fn series(len: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = render(
        &[Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 }, Component::Noise { sigma: 0.05 }],
        len,
        &mut rng,
    );
    TimeSeries::from_channels(&[ch])
}

fn fitted(exec: &Arc<Executor>) -> TfmaeDetector {
    let cfg = TfmaeConfig { epochs: 1, train_stride: 100, ..TfmaeConfig::default() };
    let train = series(600, 1);
    let mut det = TfmaeDetector::new(cfg);
    det.set_executor(exec.clone());
    det.fit(&train, &train);
    det
}

/// One replay's throughput and the bit pattern of every verdict score, in
/// emission order.
struct Replay {
    rows_per_sec: f64,
    score_bits: Vec<u32>,
}

/// An engine serving the S replay streams, warmed up by one untimed replay.
/// Stream state persists across replays, so every timed replay is steady
/// state, and the i-th replays of two engines built alike see the same
/// windows.
struct Side<'a> {
    eng: ServingEngine,
    ids: Vec<usize>,
    datas: &'a [TimeSeries],
}

impl<'a> Side<'a> {
    fn new(det: &TfmaeDetector, datas: &'a [TimeSeries], cfg: ServingConfig) -> Self {
        let ckpt = det.to_checkpoint().expect("fitted detector checkpoints");
        let mut replica = TfmaeDetector::from_checkpoint(ckpt).expect("checkpoint roundtrip");
        replica.set_executor(det.executor().clone());
        let mut eng = ServingEngine::new(replica, cfg);
        let ids = datas.iter().map(|_| eng.add_stream()).collect();
        let mut side = Self { eng, ids, datas };
        side.replay();
        side
    }

    /// Every row of every stream, the S streams ticked in lockstep.
    fn replay(&mut self) -> Replay {
        let len = self.datas[0].len();
        let mut score_bits = Vec::new();
        let started = Instant::now();
        for t in 0..len {
            let rows: Vec<(usize, &[f32])> =
                self.ids.iter().map(|&id| (id, self.datas[id].row(t))).collect();
            let out = self.eng.tick(&rows).verdicts;
            score_bits.extend(out.iter().map(|v| v.verdict.score.to_bits()));
        }
        let secs = started.elapsed().as_secs_f64();
        Replay { rows_per_sec: (len * self.datas.len()) as f64 / secs.max(1e-12), score_bits }
    }
}

/// Nanoseconds per call of `f`: the median over [`HANDLE_ROUNDS`] tight
/// loops of `iters` calls on the calling thread.
fn median_ns(iters: u64, f: impl Fn(u64)) -> f64 {
    let mut rounds: Vec<f64> = (0..HANDLE_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                f(black_box(i));
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[HANDLE_ROUNDS / 2]
}

/// Prints the enabled per-call cost of a span, a counter add and a
/// histogram record, leaving the registry disabled.
fn report_handles(iters: u64) {
    static SPAN: LazyHistogram = LazyHistogram::new("bench.overhead.span_ns");
    static COUNTER: LazyCounter = LazyCounter::new("bench.overhead.adds");
    static HIST: LazyHistogram = LazyHistogram::new("bench.overhead.records");
    tfmae_obs::set_enabled(true);
    let span = median_ns(iters, |_| drop(SPAN.enter()));
    let counter = median_ns(iters, |_| COUNTER.add(1));
    let hist = median_ns(iters, |i| HIST.record(i));
    tfmae_obs::set_enabled(false);
    println!(
        "handles (enabled, 1 thread): span enter+drop {span:.1} ns, counter add {counter:.1} ns, \
         histogram record {hist:.1} ns"
    );
}

/// The ABBA estimator: `blocks` blocks of A, B, B, A replays. Returns A's
/// and B's best rows/s and the lower quartile, median and upper quartile
/// across blocks of the per-block geometric-mean A/B ratio. With `bitwise`,
/// each replay of B must score exactly the bits of A's replay at the same
/// position, or the process exits 1.
fn abba(
    blocks: usize,
    bitwise: bool,
    mut a: impl FnMut() -> Replay,
    mut b: impl FnMut() -> Replay,
) -> (f64, f64, [f64; 3]) {
    let (mut a_best, mut b_best) = (0.0f64, 0.0f64);
    let mut ratios = Vec::with_capacity(blocks);
    for block in 0..blocks {
        let (a1, b1, b2, a2) = (a(), b(), b(), a());
        if bitwise && (a1.score_bits != b1.score_bits || a2.score_bits != b2.score_bits) {
            eprintln!("error: verdict scores of the two sides differ in block {block}");
            std::process::exit(1);
        }
        a_best = a_best.max(a1.rows_per_sec).max(a2.rows_per_sec);
        b_best = b_best.max(b1.rows_per_sec).max(b2.rows_per_sec);
        let (an, bn) = (a1.rows_per_sec * a2.rows_per_sec, b1.rows_per_sec * b2.rows_per_sec);
        ratios.push((an / bn.max(1e-12)).sqrt());
    }
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    (a_best, b_best, [ratios[n / 4], ratios[n / 2], ratios[3 * n / 4]])
}

/// Where an overhead bound (in percent) stands against the quartiles of
/// the per-block overheads: resolved only when both lie on one side of it.
fn verdict(q1: f64, q3: f64, bound: f64) -> String {
    if q3 < bound {
        format!("within {bound}%")
    } else if q1 > bound {
        format!("over {bound}%")
    } else {
        "unresolved".to_string()
    }
}

/// Prints one comparison's line, ending with its verdict on `bound` (in
/// percent) when the comparison has one.
fn report(name: &str, threads: usize, sides: (&str, &str), (a, b, ratios): (f64, f64, [f64; 3]), bound: Option<f64>) {
    let (a_name, b_name) = sides;
    let [q1, ratio, q3] = ratios.map(|r| (r - 1.0) * 100.0);
    let verdict = bound.map(|bound| format!(" {}", verdict(q1, q3, bound))).unwrap_or_default();
    println!(
        "{name} (S={STREAMS}, {threads} threads): {a_name} {a:.0} rows/s, {b_name} {b:.0} rows/s, \
         median paired ratio {:.4}, overhead of {b_name} {ratio:+.2}% [quartiles {q1:+.2}%, {q3:+.2}%]{verdict}",
        ratios[1]
    );
}

fn main() {
    let opts = Options::parse();
    let (blocks, handle_iters) = if opts.quick { (8, 1_000_000) } else { (25, 4_000_000) };
    report_handles(handle_iters);
    let exec = Arc::new(Executor::from_env());
    let threads = exec.threads();
    let det = fitted(&exec);
    let win = det.cfg.win_len;
    let hop = (win / 4).max(1);
    let datas: Vec<TimeSeries> =
        (0..STREAMS).map(|sid| series(win + hop * 8, 100 + sid as u64)).collect();
    let base = ServingConfig::new(f32::MAX, hop);
    let side = |cfg: ServingConfig| Side::new(&det, &datas, cfg);

    let (mut off, mut on) = (side(base.clone()), side(base.clone()));
    let obs = abba(
        blocks,
        true,
        || {
            tfmae_obs::set_enabled(false);
            off.replay()
        },
        || {
            tfmae_obs::set_enabled(true);
            on.replay()
        },
    );
    tfmae_obs::set_enabled(false);
    report("obs", threads, ("off", "on"), obs, Some(OBS_BOUND_PCT));

    let mut f32s = side(ServingConfig { precision: Precision::F32, ..base.clone() });
    let mut bf16 = side(ServingConfig { precision: Precision::Bf16, ..base });
    let quant = abba(blocks, false, || f32s.replay(), || bf16.replay());
    report("bf16", threads, ("f32", "bf16"), quant, None);
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn a_bound_is_resolved_only_outside_the_quartiles() {
        assert_eq!(verdict(-1.0, 1.5, 2.0), "within 2%");
        assert_eq!(verdict(2.5, 6.0, 2.0), "over 2%");
        assert_eq!(verdict(0.5, 6.0, 2.0), "unresolved");
        assert_eq!(verdict(-1.0, 2.0, 2.0), "unresolved", "a quartile on the bound is on neither side");
    }
}
