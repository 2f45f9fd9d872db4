//! Online scoring (Eq. 16, thresholded by Eq. 17): the multi-stream
//! serving engine, with cross-stream batched scoring and incremental
//! masking state.
//!
//! [`ServingEngine`] is the one online scorer. It owns one shared
//! [`TfmaeModel`](crate::model::TfmaeModel) + executor and multiplexes N
//! independent streams over them; one-stream serving is an engine with a
//! single registered stream. Each stream buffers its last `win_len`
//! observations, and every `hop` rows its newest window is scored, emitting
//! verdicts for the `hop` newest observations (amortized cost: one window
//! forward per `hop` rows). Everything is configured once, through
//! [`ServingConfig`], when the engine is built.
//!
//! * **Cross-stream batching** — windows that become due in the same
//!   [`ServingEngine::tick`] are coalesced into forward batches of up to
//!   `cfg.batch` windows when the executor has a worker pool (batch-of-one
//!   on a single-thread executor, where larger batches only hurt cache
//!   residency), so the blocked-matmul / fused-attention kernels amortize
//!   over streams instead of running `B = 1` per hop. Chunking is
//!   verdict-invariant: the forward kernels are batch-invariant, so a
//!   window scores the same bits in any chunk.
//! * **Incremental masking state** — each stream keeps a flat f32 ring
//!   buffer of normalized samples (no `VecDeque<Vec<f32>>`, no per-hop row
//!   copies), O(1) rolling sum/sum-of-squares accumulators for the
//!   trailing-window CV/Std statistic, and a sliding-DFT recurrence that
//!   advances the per-channel half-spectrum in O(L) per sample instead of a
//!   fresh O(L log L) rfft per hop.
//! * **Drift refresh** — the rolling recurrences accumulate floating-point
//!   drift, so every `REFRESH_EVERY` (64) scored hops (and on
//!   the first hop after warm-up or quarantine re-warm) the engine re-seeds
//!   them from the exact batch path: `temporal_statistic` for the temporal
//!   stat and a full rfft for the spectrum. Refresh-hop verdicts
//!   are therefore *bitwise identical* to the offline masking path;
//!   between refreshes the parity tests bound the drift at ≤ 1e-5.
//!
//! # Degraded mode
//!
//! Live feeds drop samples, emit NaN/±Inf and glitch row widths; a panic or
//! a NaN score is the worst possible response in exactly those moments, so
//! every incoming row is sanitized: non-finite channels are imputed by
//! carrying the last good value forward, up to a per-channel staleness
//! budget (`STALENESS_BUDGET` rows), and a wrong-width row counts as
//! all-bad. Every verdict carries a [`DataQuality`] flag so downstream
//! consumers can distinguish a real anomaly from a broken sensor, and
//! `Degraded` verdicts never set `is_anomaly` (don't page on a dead feed).
//! A run of `QUARANTINE_AFTER` consecutive bad rows trips quarantine: the
//! poisoned buffer is discarded and the stream re-warms automatically on
//! the next clean data. [`ServingEngine::health`] reports counters for all
//! of this.
//!
//! # Scoring lanes and ingest fan-out
//!
//! Scoring parallelism follows the detector's worker pool: the engine owns
//! one *lane* per pool thread, each a serial scratch executor with its own
//! tape arena and buffer pool (a one-thread detector has a single lane, its
//! own executor). [`ServingEngine::flush`] splits the staged windows in
//! staging order into at least one chunk per lane, and one dispatch on the
//! detector's pool runs the lanes: each scores its own share of chunks
//! through the one shared read-only model, then steals any chunk left
//! unclaimed. Scored rows merge back on the coordinating thread in staging
//! order.
//!
//! Stream state lives in one flat table; [`ServingEngine::remove_stream`]
//! frees a slot for the next [`ServingEngine::add_stream`]. A
//! [`ServingEngine::tick`] groups its rows by stream, and one task per
//! stream ingests that stream's rows in input order. The tasks fan out over
//! the detector's worker pool only when the tick's ingest work — rows ×
//! `dims` × `(win_len/2 + 1)` sliding-DFT bin updates — clears a gate
//! (`MIN_PAR_INGEST`, measured in DESIGN.md §18): wide rows pay for the
//! wake-up, narrow ones ingest inline on the coordinator.
//!
//! A window's scores depend neither on the chunk it lands in (the forward
//! kernels are batch-invariant) nor on the lane that runs it (each lane is
//! a serial executor, and kernels are thread-invariant), and ingest
//! outcomes merge back in input-row order, so verdicts are **bitwise
//! identical at any thread count** (test-asserted at threads 1/2/4, with
//! and without an ingest fan-out). Calibration, threshold adaptation and
//! background fine-tune stay on the coordinating thread: workers only exist
//! inside the blocking fan-out calls, so the fine-tune/rollback snapshot
//! handoff needs no locks — the next flush simply re-borrows the updated
//! detector. Per-lane counters (`serve.lane<k>.chunks/steals`) roll the
//! lane dimension up into the process registry.

use std::fmt;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use tfmae_data::TimeSeries;
use tfmae_fft::{Complex64, RollingStats, SlidingDft, CV_EPS};
use tfmae_obs::{LazyCounter, LazyGauge, LazyHistogram};
use tfmae_tensor::{gated_min_chunk, ExecStats, Executor, Graph, Precision, QuantStore};

use crate::adapt::{
    param_hash, AdaptationConfig, AdaptationStats, AdaptiveRuntime, AdaptiveSnapshot, HOLDOFF,
};
use crate::config::{TemporalMaskKind, TfmaeConfig};
use crate::detector::TfmaeDetector;
use crate::masking::frequency::{frequency_mask_from_spectra, FrequencyMaskData};
use crate::masking::temporal::{
    fold_stat_to_patches, temporal_mask_from_stat, temporal_mask_patched, temporal_statistic,
    TemporalMask,
};
use crate::model::{combine_scores_with, component_means};

/// Quality of the data behind one verdict (worst over its channels).
///
/// Ordered: `Clean < Imputed < Degraded`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DataQuality {
    /// All channels were finite, as received.
    Clean,
    /// At least one channel was non-finite and replaced by its last good
    /// value within the staleness budget. Scores remain meaningful;
    /// anomalies are still reported.
    Imputed,
    /// At least one channel had no usable value (staleness budget blown or
    /// never-seen channel), or the row was emitted from quarantine. The
    /// score is a placeholder and `is_anomaly` is forced `false`.
    Degraded,
}

/// How many consecutive non-finite samples a channel may impute via
/// last-observation-carried-forward before its rows are marked
/// [`DataQuality::Degraded`].
const STALENESS_BUDGET: usize = 8;
/// Consecutive bad rows (any channel non-finite) before a stream enters
/// quarantine and discards its buffer.
const QUARANTINE_AFTER: usize = 16;
/// Minimum ingest work of one tick, in sliding-DFT bin updates (rows ×
/// `dims` × `(win_len/2 + 1)`), before [`ServingEngine::tick`] fans its
/// per-stream ingest tasks out over the detector's worker pool; below it
/// the tick ingests inline on the coordinator.
///
/// Measured on a 2-core Xeon (AVX-512), `win_len` 100 (51 bins): the median
/// tick that stages no window, inline on a 1-thread executor against fanned
/// out over 2 threads, 11 alternating pairs per size. At 38 channels,
/// fan-out won 6/11 at 15,504 units (8 streams), 4/11 at 23,256, 9/11 at
/// 31,008, and 10–11/11 from 38,760 up (0.48–0.70x the inline time). At
/// 1 channel it won 2/11 at 13,056 and at 26,112, and 9/11 at 39,168 and
/// 52,224. The gate sits at that crossover: `serve_narrow` (64 × 1 × 51 =
/// 3,264) and the daemon's wide tenant (8 × 38 × 51 = 15,504) ingest
/// inline, `serve_wide` (128 × 38 × 51 = 248,064) fans out.
const MIN_PAR_INGEST: usize = 32 * 1024;
/// Scored hops between exact re-seeds of a stream's incremental masking
/// state (rolling stats + sliding DFT) from the batch path. Lower bounds
/// drift tighter at the price of a full `temporal_statistic` + rfft per
/// refresh; the parity tests pin the drift between refreshes at ≤ 1e-5.
const REFRESH_EVERY: usize = 64;

/// Stream operating mode (see [`StreamHealth`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamMode {
    /// Scoring normally.
    Normal,
    /// Too many consecutive bad rows: buffer discarded, all verdicts
    /// `Degraded` until clean data returns.
    Quarantine,
}

/// Running fault counters for one stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamHealth {
    /// Current mode.
    pub mode: StreamMode,
    /// Rows accepted with at least one imputed channel.
    pub imputed_rows: u64,
    /// Rows accepted past the staleness budget (scores untrustworthy).
    pub degraded_rows: u64,
    /// Rows swallowed while quarantined.
    pub quarantined_rows: u64,
    /// Times the stream entered quarantine.
    pub quarantine_entries: u64,
}

impl Default for StreamHealth {
    fn default() -> Self {
        Self {
            mode: StreamMode::Normal,
            imputed_rows: 0,
            degraded_rows: 0,
            quarantined_rows: 0,
            quarantine_entries: 0,
        }
    }
}

/// One scored observation of a stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamVerdict {
    /// Index of the observation in the stream (0-based from start).
    pub t: u64,
    /// Anomaly score (same scale as the offline detector).
    pub score: f32,
    /// Whether the score crossed the configured threshold (never `true`
    /// for [`DataQuality::Degraded`] observations).
    pub is_anomaly: bool,
    /// Quality of the data behind this verdict.
    pub quality: DataQuality,
}

impl StreamVerdict {
    /// Header of the verdict CSV whose data lines are
    /// [`StreamVerdict`]'s `Display`.
    pub const CSV_HEADER: &'static str = "t,score,is_anomaly,quality";
}

/// One verdict CSV line without its newline, `t,score,is_anomaly,quality`
/// (e.g. `17,0.0423,0,Clean`): the line format of `tfmae serve --out-dir`
/// files and of the daemon's poll bodies.
impl fmt::Display for StreamVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{},{},{:?}", self.t, self.score, u8::from(self.is_anomaly), self.quality)
    }
}

/// Serving-side policy shared by every stream of a [`ServingEngine`].
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// The δ of Eq. 17 (from `threshold_for_ratio` on validation scores).
    pub threshold: f32,
    /// Observations between scoring passes per stream (1 ≤ hop ≤ win_len).
    pub hop: usize,
    /// Drift adaptation (threshold recalibration, background fine-tune,
    /// guard-band rollback). **Off** by default; with
    /// `adaptation.enabled == false` verdicts are bitwise identical to the
    /// frozen-threshold engine (test-asserted). See [`crate::adapt`].
    pub adaptation: AdaptationConfig,
    /// Serving weight precision. The default `F32` scores through the f32
    /// weights, bitwise identical to the pre-quantization engine; `Bf16` /
    /// `Int8` quantize the detector's 2-D weights at construction
    /// ([`TfmaeDetector::set_precision`]) and score through the packed
    /// copies with f32 accumulation. Quantized serving disables background
    /// fine-tune (the f32 weights it would descend on are released);
    /// threshold recalibration still runs.
    pub precision: Precision,
    /// Ignored. The engine picks its ingest fan-out from each tick's work
    /// (see the module docs); the field stays only until the benchmark
    /// fixture, which still sets it, stops doing so.
    pub shards: usize,
}

impl ServingConfig {
    /// The hop a front-end serves at when none is given: a quarter
    /// window, at least one row.
    pub fn default_hop(win_len: usize) -> usize {
        (win_len / 4).max(1)
    }

    /// Defaults: degraded mode on, f32 weights, adaptation off.
    pub fn new(threshold: f32, hop: usize) -> Self {
        Self {
            threshold,
            hop,
            adaptation: AdaptationConfig::default(),
            precision: Precision::F32,
            shards: 1,
        }
    }
}

/// One verdict from the engine, tagged with the stream that produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingVerdict {
    /// Stream id (as returned by [`ServingEngine::add_stream`]).
    pub stream: usize,
    /// The scored observation.
    pub verdict: StreamVerdict,
}

/// Why a serving surface refused a row. The engine itself only emits
/// [`RejectReason::UnknownStream`]; the remaining variants type the
/// admission-control decisions of the network front-end (`tfmae-server`),
/// which shares this enum so every layer speaks one rejection vocabulary
/// and rows are never dropped silently or answered with a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The stream id was never registered (or was removed).
    UnknownStream,
    /// The row carries the wrong number of channels for the model it was
    /// routed to. Checked at the network boundary *before* ingestion — the
    /// engine's degraded mode would impute a malformed row, which is the
    /// right call for a flaky sensor but not for a client speaking the
    /// wrong schema.
    WidthMismatch,
    /// The stream's bounded ingest + verdict budget is exhausted: ingest
    /// has outrun scoring, or the consumer stopped polling verdicts. The
    /// row is refused (HTTP 429) rather than queued unboundedly or allowed
    /// to block the scoring tick.
    Backpressure,
    /// The request payload exceeds the server's configured size bound.
    PayloadTooLarge,
    /// The server is draining for shutdown: in-flight rows still score and
    /// their verdicts remain pollable, but no new rows are admitted.
    Draining,
}

impl RejectReason {
    /// Stable machine-readable token (used in wire responses and logs).
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::UnknownStream => "unknown_stream",
            RejectReason::WidthMismatch => "width_mismatch",
            RejectReason::Backpressure => "backpressure",
            RejectReason::PayloadTooLarge => "payload_too_large",
            RejectReason::Draining => "draining",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A row [`ServingEngine::tick`] could not ingest. Rejections are reported
/// per row — the remaining rows of the tick are processed normally — and
/// counted under `serve.rejected_rows`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRejection {
    /// The stream id the row was addressed to.
    pub stream: usize,
    /// Why it was refused.
    pub reason: RejectReason,
}

/// Outcome of one [`ServingEngine::tick`]: scored verdicts plus the typed
/// per-row rejections (rows addressed to unregistered stream ids used to be
/// a panic; a fleet-facing tick surface must not take the engine down over
/// one bad row).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickReport {
    /// Verdicts in deterministic input-row/staging order: quarantine
    /// verdicts in input-row order, then scored windows in staging order.
    pub verdicts: Vec<ServingVerdict>,
    /// Rows refused this tick, in input order.
    pub rejections: Vec<RowRejection>,
}

/// Incremental per-stream state: ring buffer + rolling statistics +
/// sliding-DFT spectra + fault counters.
struct StreamState {
    /// Normalized samples, slot-major `[win_len, dims]`; slot `head` is the
    /// next write position (= the oldest sample once full).
    ring: Vec<f32>,
    /// Per-slot data quality.
    quals: Vec<DataQuality>,
    head: usize,
    filled: usize,
    pushed: u64,
    since_score: usize,
    frozen_norms: Option<(f32, f32)>,
    last_good: Vec<Option<f32>>,
    staleness: Vec<usize>,
    consecutive_bad: usize,
    health: StreamHealth,
    /// Rolling trailing-`cv_window` accumulators, one per channel.
    roll: Vec<RollingStats>,
    /// Per-slot temporal statistic recorded at push time (valid for window
    /// positions whose trailing sub-sequence lies fully inside the window).
    stat_ring: Vec<f64>,
    /// Sliding half-spectrum of the last `win_len` samples, one per channel.
    sdft: Vec<SlidingDft>,
    /// Scored hops since the last exact re-seed (0 = refresh now).
    hops_since_refresh: usize,
    /// Scored windows this stream still sits out of calibration after a
    /// quarantine exit (a hysteresis; the stream must re-warm *and* prove
    /// itself before its scores feed the adaptive threshold again).
    calib_holdoff: usize,
}

impl StreamState {
    fn new(win_len: usize, dims: usize, cv_window: usize) -> Self {
        Self {
            ring: vec![0.0; win_len * dims],
            quals: vec![DataQuality::Clean; win_len],
            head: 0,
            filled: 0,
            pushed: 0,
            since_score: 0,
            frozen_norms: None,
            last_good: vec![None; dims],
            staleness: vec![0; dims],
            consecutive_bad: 0,
            health: StreamHealth::default(),
            roll: (0..dims).map(|_| RollingStats::new(cv_window.max(1))).collect(),
            stat_ring: vec![0.0; win_len],
            sdft: (0..dims).map(|_| SlidingDft::new(win_len)).collect(),
            hops_since_refresh: 0,
            calib_holdoff: 0,
        }
    }

    /// Quarantine entry / re-warm: drop buffered data and all incremental
    /// state (LOCF imputation memory deliberately survives, as in PR 1).
    fn clear_buffer(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.since_score = 0;
        self.hops_since_refresh = 0;
        for r in self.roll.iter_mut() {
            r.reset();
        }
        for s in self.sdft.iter_mut() {
            s.reset();
        }
    }

    /// Measured heap bytes of this stream's incremental state.
    fn heap_bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<f32>()
            + self.quals.capacity() * std::mem::size_of::<DataQuality>()
            + self.last_good.capacity() * std::mem::size_of::<Option<f32>>()
            + self.staleness.capacity() * std::mem::size_of::<usize>()
            + self.stat_ring.capacity() * std::mem::size_of::<f64>()
            + self.roll.iter().map(RollingStats::heap_bytes).sum::<usize>()
            + self.sdft.iter().map(SlidingDft::heap_bytes).sum::<usize>()
    }

    /// Copies the retained window into time order (oldest first).
    fn snapshot(&self, win_len: usize, dims: usize) -> Vec<f32> {
        debug_assert_eq!(self.filled, win_len);
        let mut values = Vec::with_capacity(win_len * dims);
        for i in 0..win_len {
            let slot = (self.head + i) % win_len;
            values.extend_from_slice(&self.ring[slot * dims..(slot + 1) * dims]);
        }
        values
    }
}

/// A window snapshot staged at its due tick; the forward pass is deferred to
/// [`ServingEngine::flush`] so windows from many streams share one batch.
struct PendingWindow {
    stream: usize,
    /// Normalized `[win_len, dims]` values in time order.
    values: Vec<f32>,
    mask_t: TemporalMask,
    mask_f: FrequencyMaskData,
    /// Stream index of the first reported verdict.
    base_t: u64,
    /// Number of newest positions to report (= `hop.min(win_len)`).
    newest: usize,
    /// Qualities of those newest positions, oldest first.
    qualities: Vec<DataQuality>,
    frozen: Option<(f32, f32)>,
    /// Whether this window's scores may feed calibration (false during the
    /// post-quarantine holdoff).
    calib: bool,
    /// Whether every retained sample of the window is `Clean` (reservoir
    /// eligibility for background fine-tune).
    window_clean: bool,
}

/// One scoring lane: a scratch executor whose buffer pool doubles as the
/// lane's persistent tape arena across flushes. An engine has one lane per
/// thread of the detector's worker pool; a single lane is the detector's
/// own executor. The shared model is deliberately *not* here — lanes
/// borrow it read-only during a flush.
struct Lane {
    exec: Arc<Executor>,
    /// Forward chunks this lane executed (`serve.lane<k>.chunks`).
    chunks: LazyCounter,
    /// Chunks claimed from another lane's share after this lane's ran dry
    /// (`serve.lane<k>.steals`).
    steals: LazyCounter,
}

impl Lane {
    fn new(lane: usize, exec: Arc<Executor>) -> Self {
        Self {
            exec,
            chunks: LazyCounter::new(tfmae_obs::intern(&format!("serve.lane{lane}.chunks"))),
            steals: LazyCounter::new(tfmae_obs::intern(&format!("serve.lane{lane}.steals"))),
        }
    }
}

/// What one ingested row produced in its stream's state; engine-level
/// effects (quarantine probation accounting, staging) are applied by the
/// coordinator in input-row order, so a fanned-out tick reproduces the
/// inline tick's `AdaptiveRuntime` call sequence exactly.
enum RowOutcome {
    /// Buffered; nothing due.
    Buffered,
    /// Quarantined: immediate `Degraded` verdict. The row also counts
    /// against a fine-tune update on probation
    /// (`AdaptiveRuntime::observe_unscored_degraded`, coordinator-applied).
    Quarantined(ServingVerdict),
    /// The row completed a hop: window snapshot staged for the next flush.
    Staged(Box<PendingWindow>),
}

/// One scored observation as produced on a lane; the coordinator
/// merges these in chunk order (= staging order) and replays the
/// order-sensitive effects (`AdaptiveRuntime::observe`, verdict emission).
struct ScoredRow {
    stream: usize,
    t: u64,
    score: f32,
    is_anomaly: bool,
    quality: DataQuality,
    calib: bool,
}

/// One row of a tick, routed to its stream's slot; `outcome` is filled by
/// the task that ingests the slot's rows.
struct RoutedRow<'a> {
    slot: usize,
    /// Index of the row in the tick's input.
    input: usize,
    stream: usize,
    row: &'a [f32],
    outcome: Option<RowOutcome>,
}

/// Multiplexes N independent streams over one shared fitted detector,
/// batching windows that become due in the same tick (see module docs).
pub struct ServingEngine {
    det: TfmaeDetector,
    cfg: ServingConfig,
    win_len: usize,
    dims: usize,
    /// The stream table: one slot of incremental state per stream.
    streams: Vec<StreamState>,
    /// Slots of removed streams, refilled before the table grows.
    free: Vec<usize>,
    /// Scoring lanes (one per worker-pool thread of the detector).
    lanes: Vec<Lane>,
    /// Public stream id → slot; `None` after removal.
    route: Vec<Option<usize>>,
    pending: Vec<PendingWindow>,
    /// Drift-adaptation state machine (present even when adaptation is
    /// disabled, so the calibration-anchored drift gauge still works).
    adapt: AdaptiveRuntime,
}

impl ServingEngine {
    /// Wraps a fitted detector. Streams are added with
    /// [`ServingEngine::add_stream`].
    ///
    /// # Panics
    /// Panics if the detector has not been fitted, if `cfg.hop ∉ 1..=win_len`,
    /// or if `cfg.precision` cannot be applied (e.g. `F32` requested on an
    /// already-quantized detector whose f32 weights are gone).
    pub fn new(mut det: TfmaeDetector, cfg: ServingConfig) -> Self {
        let model = det.model().expect("ServingEngine requires a fitted detector");
        let win_len = det.cfg.win_len;
        let dims = model.dims();
        assert!((1..=win_len).contains(&cfg.hop), "hop must be in 1..=win_len");
        if let Err(e) = det.set_precision(cfg.precision) {
            panic!("ServingConfig::precision: {e}");
        }
        precision_gauge(det.precision());
        let adapt = AdaptiveRuntime::new(cfg.adaptation.clone(), cfg.threshold);
        // One serial lane per pool thread, so a flush keeps every thread
        // busy with whole forwards; the pool itself only runs the lanes.
        // A one-thread detector scores on its own executor.
        let n_lanes = det.executor().threads();
        let lanes = (0..n_lanes)
            .map(|k| {
                let exec = if n_lanes == 1 {
                    det.executor().clone()
                } else {
                    Arc::new(Executor::serial())
                };
                Lane::new(k, exec)
            })
            .collect();
        Self {
            det,
            cfg,
            win_len,
            dims,
            streams: Vec::new(),
            free: Vec::new(),
            lanes,
            route: Vec::new(),
            pending: Vec::new(),
            adapt,
        }
    }

    /// Registers a new stream and returns its id. The stream refills a slot
    /// freed by [`ServingEngine::remove_stream`] before the table grows.
    pub fn add_stream(&mut self) -> usize {
        let state = StreamState::new(self.win_len, self.dims, self.det.cfg.cv_window);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.streams[slot] = state;
                slot
            }
            None => {
                self.streams.push(state);
                self.streams.len() - 1
            }
        };
        self.route.push(Some(slot));
        self.route.len() - 1
    }

    /// Unregisters a stream: its id is retired (never reused — subsequent
    /// rows for it are rejected, not misrouted) and its slot is recycled by
    /// the next [`ServingEngine::add_stream`]. Returns whether the id was
    /// live. Windows the stream already staged still score on the next
    /// flush.
    pub fn remove_stream(&mut self, stream: usize) -> bool {
        match self.route.get(stream).copied().flatten() {
            None => false,
            Some(slot) => {
                self.route[stream] = None;
                self.free.push(slot);
                true
            }
        }
    }

    /// Number of live (registered, not removed) streams.
    pub fn num_streams(&self) -> usize {
        self.route.iter().flatten().count()
    }

    /// Resolves a public stream id to its slot, panicking on unknown ids.
    fn slot(&self, stream: usize) -> usize {
        self.route
            .get(stream)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("unknown stream id {stream}"))
    }

    fn state(&self, stream: usize) -> &StreamState {
        &self.streams[self.slot(stream)]
    }

    fn state_mut(&mut self, stream: usize) -> &mut StreamState {
        let slot = self.slot(stream);
        &mut self.streams[slot]
    }

    /// Input feature count per stream.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Model window length.
    pub fn win_len(&self) -> usize {
        self.win_len
    }

    /// The shared fitted detector.
    pub fn detector(&self) -> &TfmaeDetector {
        &self.det
    }

    /// The serving policy.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// The serving weight precision currently applied.
    pub fn precision(&self) -> Precision {
        self.det.precision()
    }

    /// Measured resident bytes per live stream: the shared model's weight
    /// buffers (actual heap capacities, so quantization-released f32 panels
    /// count zero) plus the quantized panels, amortized over the streams,
    /// plus the mean per-stream incremental state (ring buffer, rolling
    /// stats, sliding DFT, fault bookkeeping). This is the number that
    /// decides how many streams fit on a box; activation scratch is shared
    /// and transient, so it is out of scope.
    ///
    /// Returns the model-only footprint when no stream was added yet.
    pub fn memory_bytes_per_stream(&self) -> usize {
        let model_bytes = self
            .det
            .model()
            .map(|m| m.ps.resident_bytes())
            .unwrap_or(0)
            + self.det.quant().map(QuantStore::bytes).unwrap_or(0);
        let stream_bytes: usize = self
            .route
            .iter()
            .flatten()
            .map(|&slot| self.streams[slot].heap_bytes())
            .sum();
        let n = self.num_streams().max(1);
        (model_bytes + stream_bytes) / n
    }

    /// Freezes one stream's score-normalization constants from a reference
    /// series (normally the validation split), so its online scores match
    /// the scale of offline [`Detector::score`](tfmae_data::Detector::score)
    /// output.
    ///
    /// The score's two components are divided by their means over the
    /// scored span ([`combine_scores`](crate::combine_scores)). Offline
    /// scoring normalizes over the whole series, but an uncalibrated stream
    /// normalizes each window over itself, which makes every window average
    /// the same value and blinds the detector to anomalies that span a
    /// whole window (adequate for point anomalies only). With the constants
    /// frozen, a `threshold_for_ratio` δ from offline validation scores
    /// transfers directly.
    ///
    /// # Panics
    /// Panics on an unregistered stream id.
    pub fn calibrate_stream(&mut self, stream: usize, series: &TimeSeries) {
        let (kl, dual) = self.det.score_components(series);
        self.state_mut(stream).frozen_norms = Some(component_means(&kl, &dual));
    }

    /// Fault counters and current mode of one stream.
    pub fn health(&self, stream: usize) -> &StreamHealth {
        &self.state(stream).health
    }

    /// Observations pushed to one stream so far.
    pub fn stream_len(&self, stream: usize) -> u64 {
        self.state(stream).pushed
    }

    /// Whether one stream's warm-up window has filled.
    pub fn warmed_up(&self, stream: usize) -> bool {
        self.state(stream).filled >= self.win_len
    }

    /// Execution-layer counters of the executors that do the engine's
    /// work: the detector's (ingest fan-out, lane dispatch, calibration,
    /// fine-tune) summed with every scoring lane's.
    pub fn exec_stats(&self) -> ExecStats {
        self.lanes
            .iter()
            .filter(|l| !Arc::ptr_eq(&l.exec, self.det.executor()))
            .fold(self.det.exec_stats(), |acc, l| acc + l.exec.stats())
    }

    /// Windows staged and awaiting [`ServingEngine::flush`].
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// The δ currently applied to verdicts: the adaptive threshold when
    /// adaptation is enabled, [`ServingConfig::threshold`] otherwise.
    pub fn effective_threshold(&self) -> f32 {
        if self.cfg.adaptation.enabled {
            self.adapt.threshold()
        } else {
            self.cfg.threshold
        }
    }

    /// Running counters of the adaptation loop (recalibrations, fine-tune
    /// updates, rollbacks, cadence backoff).
    pub fn adaptation_stats(&self) -> &AdaptationStats {
        self.adapt.stats()
    }

    /// Clean windows currently buffered for background fine-tuning.
    pub fn reservoir_len(&self) -> usize {
        self.adapt.reservoir_len()
    }

    /// The persistable slice of the adaptive state (current δ,
    /// recalibration count, last-good snapshot hash) — written into the
    /// checkpoint's optional adaptive section by
    /// [`TfmaeDetector::save_with_adaptive`](crate::TfmaeDetector::save_with_adaptive).
    pub fn adaptive_snapshot(&self) -> AdaptiveSnapshot {
        self.adapt.snapshot()
    }

    /// Restores a previously saved [`AdaptiveSnapshot`] (threshold,
    /// recalibration count, cadence backoff) into the adaptation loop.
    pub fn resume_adaptive(&mut self, snap: &AdaptiveSnapshot) {
        self.adapt.resume(snap);
    }

    /// Ingests one observation row for `stream` *without* scoring: fault
    /// handling runs immediately (quarantined rows return their `Degraded`
    /// verdict here), and a completed hop stages the stream's window for the
    /// next [`ServingEngine::flush`]. Any row is accepted (see the module
    /// docs' degraded mode); a row for an unregistered stream id is
    /// rejected (counted under `serve.rejected_rows`), never a panic.
    pub fn try_ingest(
        &mut self,
        stream: usize,
        row: &[f32],
    ) -> Result<Vec<ServingVerdict>, RowRejection> {
        let Some(slot) = self.route.get(stream).copied().flatten() else {
            return Err(reject(stream));
        };
        let (win_len, dims) = (self.win_len, self.dims);
        let state = &mut self.streams[slot];
        let outcome = ingest_row(&self.det, &self.cfg, win_len, dims, stream, state, row);
        Ok(match outcome {
            RowOutcome::Buffered => Vec::new(),
            RowOutcome::Quarantined(v) => {
                // Quarantined rows never reach the scoring path, but they
                // still count against a fine-tune update on probation.
                self.adapt.observe_unscored_degraded();
                vec![v]
            }
            RowOutcome::Staged(w) => {
                self.pending.push(*w);
                Vec::new()
            }
        })
    }

    /// Scores every staged window on the engine's lanes and returns their
    /// verdicts in staging order.
    ///
    /// The staged windows split, in staging order, into near-equal chunks
    /// of at most `cfg.batch` windows (one on a single-thread executor, see
    /// the module docs) — at least one per
    /// lane while windows last, and a multiple of the lane count so the
    /// lanes get equal shares (see `chunk_sizes`). One dispatch on the
    /// detector's worker pool runs the lanes: each scores its own share of
    /// chunks on its serial scratch executor, then steals any chunk still
    /// unclaimed. A window's scores do not depend on which chunk it lands
    /// in (the forward kernels are batch-invariant, DESIGN.md §18) nor on
    /// which lane runs it, so verdicts are bitwise identical at any lane
    /// and thread count; the scored rows merge back on the
    /// coordinator in staging order.
    pub fn flush(&mut self) -> Vec<ServingVerdict> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        static FLUSH_SPAN: LazyHistogram = LazyHistogram::new("serve.flush_ns");
        static VERDICTS: LazyCounter = LazyCounter::new("serve.verdicts");
        static ANOMALIES: LazyCounter = LazyCounter::new("serve.anomalies");
        static SCORE_HIST: LazyHistogram = LazyHistogram::new("serve.score_micro");
        static SCORE_DRIFT: LazyGauge = LazyGauge::new("serve.score_drift_millis");
        let _flush_span = FLUSH_SPAN.enter();
        let pending = std::mem::take(&mut self.pending);
        let (t, n) = (self.win_len, self.dims);
        // Batch-of-one on a single-thread executor: batching cannot reduce
        // per-element work there but inflates every per-node tensor past
        // cache residency (batch-of-32 windows measured ~15–30% slower per
        // window than batch-of-1 on a 1-core host). With a worker pool the
        // flush splits into at least one chunk per lane anyway.
        let batch_cap = if self.det.executor().threads() <= 1 {
            1
        } else {
            self.det.cfg.batch.max(1)
        };
        let adapt_on = self.cfg.adaptation.enabled;
        // The score window also backs the drift gauge, so feed it whenever
        // either consumer is live; it never influences verdicts directly.
        let track = adapt_on || tfmae_obs::enabled();
        // No reservoir when quantized: fine-tune has no f32 weights to
        // descend on, so buffering windows for it would only waste memory.
        let reservoir_on = adapt_on
            && self.cfg.adaptation.finetune.enabled
            && self.det.quant().is_none();
        let threshold = self.effective_threshold();

        // Reservoir offers happen on the coordinator in staging order (the
        // offer ring is order-sensitive), before the chunks are handed to
        // the lanes.
        if reservoir_on {
            for p in &pending {
                if p.calib && p.window_clean {
                    self.adapt.offer_window(p.values.clone());
                }
            }
        }

        // Each chunk sits in a `Mutex<Option>` slot: `take()` is the claim,
        // and it transfers ownership of the windows to exactly one lane. A
        // lane first drains its own share (chunks with index ≡ lane mod L),
        // then sweeps every slot — work-stealing at chunk granularity only.
        let mut slots: Vec<Mutex<Option<Vec<PendingWindow>>>> = Vec::new();
        let mut rest = pending.into_iter();
        for size in chunk_sizes(rest.len(), self.lanes.len(), batch_cap) {
            slots.push(Mutex::new(Some(rest.by_ref().take(size).collect())));
        }
        let n_chunks = slots.len();
        let results: Vec<Mutex<Vec<ScoredRow>>> =
            (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();
        let (det, lanes) = (&self.det, &self.lanes);
        let n_lanes = lanes.len().min(n_chunks);
        det.executor().parallel_for(n_lanes, 1, &|a, b| {
            for (li, lane) in lanes.iter().enumerate().take(b).skip(a) {
                let g = Graph::with_executor(lane.exec.clone());
                let claim = |ci: usize, stolen: bool| {
                    let Some(chunk) = slots[ci].lock().expect("chunk slot").take() else {
                        return;
                    };
                    g.reset();
                    let rows = score_chunk(det, &g, chunk, t, n, threshold);
                    *results[ci].lock().expect("chunk result") = rows;
                    lane.chunks.add(1);
                    if stolen {
                        lane.steals.add(1);
                    }
                };
                for ci in (li..n_chunks).step_by(n_lanes) {
                    claim(ci, false);
                }
                for ci in 0..n_chunks {
                    claim(ci, true);
                }
            }
        });
        let scored = results.into_iter().map(|m| m.into_inner().expect("chunk result"));

        // Merge on the coordinator in chunk order (= staging order): the
        // order-sensitive effects — `AdaptiveRuntime::observe` and verdict
        // emission — replay exactly as the serial engine interleaved them.
        let mut out = Vec::new();
        for rows in scored {
            for r in rows {
                SCORE_HIST.record_micro(r.score as f64);
                self.adapt.observe(r.score, r.quality, r.calib, track);
                if r.is_anomaly {
                    ANOMALIES.inc();
                }
                out.push(ServingVerdict {
                    stream: r.stream,
                    verdict: StreamVerdict {
                        t: r.t,
                        score: r.score,
                        is_anomaly: r.is_anomaly,
                        quality: r.quality,
                    },
                });
            }
        }
        VERDICTS.add(out.len() as u64);
        if adapt_on {
            self.run_adaptation();
        }
        // Drift indicator (kept under its historical name): the rolling
        // clean-score median relative to the *calibration-anchored* median,
        // in milli-units — 1000 means "at calibration", sustained growth
        // means the score distribution has drifted. The old statistic
        // divided the all-time score median by δ, which conflated threshold
        // magnitude with drift (a small δ read as permanent drift even on a
        // perfectly stationary stream).
        if tfmae_obs::enabled() {
            SCORE_DRIFT.set(self.adapt.drift_millis());
            if adapt_on {
                static ADAPT_THRESHOLD: LazyGauge = LazyGauge::new("serve.adapt_threshold_micro");
                let micro = f64::from(self.effective_threshold()) * 1e6;
                ADAPT_THRESHOLD.set(micro.clamp(0.0, 1e15) as i64);
            }
        }
        out
    }

    /// One adaptation turn, run at the end of every flush when adaptation
    /// is enabled: the probation guard band first (restoring the last-good
    /// snapshot on a harmful update), then threshold recalibration, then —
    /// outside probation — a guarded background fine-tune on the reservoir.
    fn run_adaptation(&mut self) {
        static RECALS: LazyCounter = LazyCounter::new("serve.adapt_recalibrations");
        static ROLLBACKS: LazyCounter = LazyCounter::new("serve.adapt_rollbacks");
        static TUNES: LazyCounter = LazyCounter::new("serve.adapt_finetune_updates");
        static TUNE_STEPS: LazyCounter = LazyCounter::new("serve.adapt_finetune_steps");
        if let Some(snap) = self.adapt.probation_action() {
            if let Some(model) = self.det.model_mut() {
                model.ps.restore(&snap);
            }
            ROLLBACKS.inc();
            tfmae_obs::event("serve.adapt_rollback");
        }
        if self.adapt.recalibration_due() && self.adapt.recalibrate() {
            RECALS.inc();
            tfmae_obs::event("serve.adapt_recalibrate");
        }
        if self.adapt.finetune_due() && self.det.quant().is_none() {
            let ft = self.cfg.adaptation.finetune.clone();
            let windows = self.adapt.drain_reservoir();
            if !windows.is_empty() {
                // Snapshot the pre-update weights: this is the last-good
                // state the guard band rolls back to.
                let (snap, hash) = {
                    let ps = &self.det.model().expect("checked at construction").ps;
                    (ps.snapshot(), param_hash(ps))
                };
                let salt = self.adapt.stats().finetune_updates;
                let report = self.det.finetune(&windows, &ft, salt);
                TUNES.inc();
                TUNE_STEPS.add(report.steps);
                tfmae_obs::event("serve.adapt_finetune");
                self.adapt.note_finetune(snap, hash, &report);
            }
        }
    }

    /// One serving tick: ingest a row per live stream (one task per
    /// stream, fanned out over the detector's worker pool when the tick's
    /// ingest work clears `MIN_PAR_INGEST`), then score all windows that
    /// became due in cross-stream batches on the engine's lanes. Rows
    /// addressed to unregistered stream ids are reported as typed
    /// [`RowRejection`]s — never a panic, and never silently dropped —
    /// while the remaining rows process normally. A one-stream caller ticks
    /// one row at a time: `tick(&[(id, row)])`.
    pub fn tick(&mut self, rows: &[(usize, &[f32])]) -> TickReport {
        let mut report = TickReport::default();
        self.ingest_tick(rows, &mut report);
        report.verdicts.extend(self.flush());
        report
    }

    /// Ingests a tick's rows: one sort of `(slot, input index)` groups them
    /// by stream, each stream's rows run in input order in one task, and the
    /// outcomes merge back in input-row order, so the engine-level effects
    /// (quarantine probation accounting, window staging) replay exactly as
    /// an inline loop over the rows applies them.
    fn ingest_tick(&mut self, rows: &[(usize, &[f32])], report: &mut TickReport) {
        let mut routed = Vec::with_capacity(rows.len());
        for (input, &(stream, row)) in rows.iter().enumerate() {
            match self.route.get(stream).copied().flatten() {
                None => report.rejections.push(reject(stream)),
                Some(slot) => routed.push(RoutedRow { slot, input, stream, row, outcome: None }),
            }
        }
        routed.sort_unstable_by_key(|r| (r.slot, r.input));
        let work = routed.len() * self.dims * (self.win_len / 2 + 1);

        // One task per stream: its slot's state and its rows. Slots ascend,
        // so splitting the table as the groups go hands out disjoint `&mut`.
        let mut tasks: Vec<(&mut StreamState, &mut [RoutedRow])> = Vec::new();
        let (mut table, mut base) = (&mut self.streams[..], 0);
        for group in routed.chunk_by_mut(|a, b| a.slot == b.slot) {
            let (state, rest) = std::mem::take(&mut table)[group[0].slot - base..]
                .split_first_mut()
                .expect("routed slots are in the table");
            (table, base) = (rest, group[0].slot + 1);
            tasks.push((state, group));
        }
        let (det, cfg) = (&self.det, &self.cfg);
        let (win_len, dims) = (self.win_len, self.dims);
        let n = tasks.len();
        let min = gated_min_chunk(n, 1, work, MIN_PAR_INGEST);
        det.executor().parallel_for_mut(n, min, [&mut tasks[..]], &|_, _, [part]| {
            for (state, group) in part.iter_mut() {
                for r in group.iter_mut() {
                    r.outcome = Some(ingest_row(det, cfg, win_len, dims, r.stream, state, r.row));
                }
            }
        });

        let mut by_input: Vec<Option<RowOutcome>> = (0..rows.len()).map(|_| None).collect();
        for r in routed {
            by_input[r.input] = r.outcome;
        }
        for o in by_input.into_iter().flatten() {
            match o {
                RowOutcome::Buffered => {}
                RowOutcome::Quarantined(v) => {
                    self.adapt.observe_unscored_degraded();
                    report.verdicts.push(v);
                }
                RowOutcome::Staged(w) => self.pending.push(*w),
            }
        }
    }
}

/// Chunk sizes for a flush of `pending` windows over `lanes` lanes, in
/// staging order: enough chunks that none exceeds `batch_cap`, at least one
/// per lane, rounded up to a multiple of the lane count so every lane gets
/// the same number of chunks — but never more chunks than windows. Sizes
/// differ by at most one, larger chunks first.
fn chunk_sizes(pending: usize, lanes: usize, batch_cap: usize) -> impl Iterator<Item = usize> {
    let need = pending.div_ceil(batch_cap).max(lanes);
    let chunks = (need.div_ceil(lanes) * lanes).min(pending).max(1);
    let (base, extra) = (pending / chunks, pending % chunks);
    (0..chunks).map(move |i| base + usize::from(i < extra))
}

/// Counts and builds one typed row rejection.
fn reject(stream: usize) -> RowRejection {
    static REJECTED: LazyCounter = LazyCounter::new("serve.rejected_rows");
    REJECTED.inc();
    RowRejection { stream, reason: RejectReason::UnknownStream }
}

/// Sanitizes, buffers, and (on a completed hop) stages one row for one
/// stream. This is the per-stream half of ingestion — it touches only the
/// stream's own state plus process-wide atomic counters, so ingest tasks
/// run it concurrently; the engine-level half (probation accounting,
/// staging into the engine's pending queue) is applied by the coordinator
/// from the returned [`RowOutcome`].
fn ingest_row(
    det: &TfmaeDetector,
    cfg: &ServingConfig,
    win_len: usize,
    dims: usize,
    stream: usize,
    s: &mut StreamState,
    row: &[f32],
) -> RowOutcome {
    static ROWS: LazyCounter = LazyCounter::new("serve.rows");
    ROWS.inc();
    let norm = det.norm().expect("fitted detector has a normalizer");

    // Sanitize: impute non-finite channels (a wrong-width row counts as
    // all-bad) and track the quarantine state machine.
    let width_ok = row.len() == dims;
    let mut quality = DataQuality::Clean;
    for (n, (good, stale)) in s.last_good.iter_mut().zip(&mut s.staleness).enumerate() {
        let v = if width_ok { row[n] } else { f32::NAN };
        if v.is_finite() {
            *good = Some(v);
            *stale = 0;
        } else {
            *stale += 1;
            let q = if good.is_some() && *stale <= STALENESS_BUDGET {
                DataQuality::Imputed
            } else {
                DataQuality::Degraded
            };
            quality = quality.max(q);
        }
    }

    if quality == DataQuality::Clean {
        s.consecutive_bad = 0;
        if s.health.mode == StreamMode::Quarantine {
            // Clean data ends quarantine; re-warm from empty. The stream
            // additionally sits out `HOLDOFF` scored windows before its
            // scores re-enter calibration (see `crate::adapt`).
            s.health.mode = StreamMode::Normal;
            s.calib_holdoff = HOLDOFF;
            static QUARANTINE_EXITS: LazyCounter = LazyCounter::new("serve.quarantine_exits");
            QUARANTINE_EXITS.inc();
            tfmae_obs::event("serve.quarantine_exit");
        }
    } else {
        s.consecutive_bad += 1;
        if s.health.mode == StreamMode::Normal && s.consecutive_bad >= QUARANTINE_AFTER {
            s.health.mode = StreamMode::Quarantine;
            s.health.quarantine_entries += 1;
            static QUARANTINE_ENTRIES: LazyCounter = LazyCounter::new("serve.quarantine_entries");
            QUARANTINE_ENTRIES.inc();
            tfmae_obs::event("serve.quarantine_enter");
            s.clear_buffer();
        }
    }

    if s.health.mode == StreamMode::Quarantine {
        s.health.quarantined_rows += 1;
        static QUARANTINED_ROWS: LazyCounter = LazyCounter::new("serve.quarantined_rows");
        QUARANTINED_ROWS.inc();
        s.pushed += 1;
        return RowOutcome::Quarantined(ServingVerdict {
            stream,
            verdict: StreamVerdict {
                t: s.pushed - 1,
                score: 0.0,
                is_anomaly: false,
                quality: DataQuality::Degraded,
            },
        });
    }

    // Buffer the sanitized row: normalize, write into the ring, advance
    // the incremental accumulators.
    let temporal_kind = det.cfg.temporal_mask;
    static IMPUTED_ROWS: LazyCounter = LazyCounter::new("serve.imputed_rows");
    static DEGRADED_ROWS: LazyCounter = LazyCounter::new("serve.degraded_rows");
    match quality {
        DataQuality::Clean => {}
        DataQuality::Imputed => {
            s.health.imputed_rows += 1;
            IMPUTED_ROWS.inc();
        }
        DataQuality::Degraded => {
            s.health.degraded_rows += 1;
            DEGRADED_ROWS.inc();
        }
    }
    let slot = s.head;
    // Slide the spectra before the evicted sample is overwritten.
    let slide = s.filled == win_len && s.sdft[0].is_warm();
    let cells = s.ring[slot * dims..(slot + 1) * dims].iter_mut();
    let channels = cells.zip(&s.last_good).zip(norm.mean.iter().zip(&norm.std));
    for (n, ((cell, good), (&mean, &std))) in channels.enumerate() {
        // The sanitized value: the sample itself, or the last good value
        // it is imputed with (0.0 for a channel that never produced one).
        let v = (good.unwrap_or(0.0) - mean) / std;
        if slide {
            s.sdft[n].slide(*cell as f64, v as f64);
        }
        s.roll[n].push(v as f64);
        *cell = v;
    }
    // Trailing statistic ending at this sample; meaningful once the
    // rolling window holds `cv_window` real samples, which covers every
    // window position whose trailing sub-sequence needs it.
    s.stat_ring[slot] = match temporal_kind {
        TemporalMaskKind::Cv => s.roll.iter().map(|r| r.cv()).sum(),
        TemporalMaskKind::Std => s.roll.iter().map(|r| r.var().sqrt()).sum(),
        TemporalMaskKind::Random | TemporalMaskKind::None => 0.0,
    };
    s.quals[slot] = quality;
    s.head = (s.head + 1) % win_len;
    if s.filled < win_len {
        s.filled += 1;
    }
    s.pushed += 1;
    s.since_score += 1;

    if s.filled < win_len || s.since_score < cfg.hop {
        return RowOutcome::Buffered;
    }
    s.since_score = 0;

    // Hop complete: snapshot the window, compute its masks from the
    // incremental state, and stage it for the next flush.
    let values = s.snapshot(win_len, dims);
    let newest = cfg.hop.min(win_len);
    let qualities: Vec<DataQuality> = (0..newest)
        .map(|i| s.quals[(s.head + win_len - newest + i) % win_len])
        .collect();
    let base_t = s.pushed - newest as u64;
    let frozen = s.frozen_norms;
    // Calibration eligibility: a stream fresh out of quarantine sits
    // out `HOLDOFF` scored windows; reservoir eligibility additionally
    // requires every retained sample to be Clean.
    let calib = if s.calib_holdoff > 0 {
        s.calib_holdoff -= 1;
        false
    } else {
        true
    };
    let window_clean = s.quals.iter().all(|&q| q == DataQuality::Clean);

    let refresh = s.hops_since_refresh == 0 || s.hops_since_refresh >= REFRESH_EVERY;
    if refresh {
        static SDFT_REFRESHES: LazyCounter = LazyCounter::new("serve.sdft_refreshes");
        SDFT_REFRESHES.inc();
    }
    // Once per staged window: the hop's statistic, spectra and mask
    // synthesis, the part of ingest a buffered row never pays.
    static MASKS_SPAN: LazyHistogram = LazyHistogram::new("serve.ingest.masks_ns");
    let (mask_t, mask_f) = {
        let _span = MASKS_SPAN.enter();
        incremental_masks(&det.cfg, s, &values, dims, refresh, &mut det.score_mask_rng())
    };
    s.hops_since_refresh = if refresh { 1 } else { s.hops_since_refresh + 1 };

    static WINDOWS: LazyCounter = LazyCounter::new("serve.windows");
    WINDOWS.inc();
    RowOutcome::Staged(Box::new(PendingWindow {
        stream,
        values,
        mask_t,
        mask_f,
        base_t,
        newest,
        qualities,
        frozen,
        calib,
        window_clean,
    }))
}

/// Runs one already-formed chunk through the shared model on graph `g` and
/// returns its scored rows. Touches nothing order-sensitive: every output
/// is a pure function of the chunk, the read-only detector, and the
/// pre-read threshold, so any lane may execute any chunk. Each window's
/// scores are a function of that window alone — the kernels are thread-
/// and batch-invariant — which is what makes chunking and work-stealing
/// verdict-neutral.
fn score_chunk(
    det: &TfmaeDetector,
    g: &Graph,
    chunk: Vec<PendingWindow>,
    t: usize,
    n: usize,
    threshold: f32,
) -> Vec<ScoredRow> {
    let model = det.model().expect("checked at construction");
    let b = chunk.len();
    static BATCHES: LazyCounter = LazyCounter::new("serve.batches");
    static BATCH_WINDOWS: LazyHistogram = LazyHistogram::new("serve.batch_windows");
    // Temporal tokens attended per scored window (win_len/patch_len):
    // makes the patch-tokenization reduction visible in /metrics next
    // to `serve.windows` (tokens/windows = T/P).
    static PATCH_TOKENS: LazyCounter = LazyCounter::new("serve.patch_tokens");
    BATCHES.inc();
    BATCH_WINDOWS.record(b as u64);
    PATCH_TOKENS.add((b * det.cfg.num_patch_tokens()) as u64);
    let mut values = Vec::with_capacity(b * t * n);
    let mut masks_t = Vec::with_capacity(b);
    let mut masks_f = Vec::with_capacity(b);
    let mut meta = Vec::with_capacity(b);
    for p in chunk {
        values.extend_from_slice(&p.values);
        masks_t.push(p.mask_t);
        masks_f.push(p.mask_f);
        meta.push((p.stream, p.base_t, p.newest, p.qualities, p.frozen, p.calib));
    }
    let batch = crate::model::BatchInputs { values, b, masks_t, masks_f };
    let ctx = det.eval_ctx(g);
    let fwd = model.forward(&ctx, &batch);
    let (kl, dual) = model.anomaly_score_components(&ctx, &fwd);
    let mut out = Vec::new();
    for (wi, (stream, base_t, newest, qualities, frozen, calib)) in meta.into_iter().enumerate() {
        let klw = &kl[wi * t..(wi + 1) * t];
        let dualw = &dual[wi * t..(wi + 1) * t];
        // Frozen calibration constants put scores on the offline
        // scale; the fallback normalizes window-locally (see
        // `ServingEngine::calibrate_stream`).
        let norms = frozen.unwrap_or_else(|| component_means(klw, dualw));
        let scores = combine_scores_with(klw, dualw, norms);
        for i in 0..newest {
            let mut score = scores[t - newest + i];
            let mut quality = qualities[i];
            if !score.is_finite() {
                // Last line of defense: never emit a non-finite score.
                score = 0.0;
                quality = DataQuality::Degraded;
            }
            let is_anomaly = score >= threshold && quality != DataQuality::Degraded;
            out.push(ScoredRow {
                stream,
                t: base_t + i as u64,
                score,
                is_anomaly,
                quality,
                calib,
            });
        }
    }
    out
}

/// Publishes the serving precision as bits per weight scalar (32/16/8):
/// cheap to read off a dashboard and unambiguous across the three modes.
fn precision_gauge(precision: Precision) {
    static PRECISION: LazyGauge = LazyGauge::new("serve.precision");
    PRECISION.set(match precision {
        Precision::F32 => 32,
        Precision::Bf16 => 16,
        Precision::Int8 => 8,
    });
}

/// Computes one window's masks from the stream's incremental state. On a
/// `refresh` hop, both the statistic and the spectra are re-derived through
/// the exact batch path (which also re-seeds the recurrences); otherwise the
/// stat ring and the sliding-DFT spectra are consumed as-is.
fn incremental_masks(
    cfg: &TfmaeConfig,
    s: &mut StreamState,
    values: &[f32],
    dims: usize,
    refresh: bool,
    rng: &mut StdRng,
) -> (TemporalMask, FrequencyMaskData) {
    let win_len = cfg.win_len;
    let w = cfg.cv_window;
    let i_t = cfg.masked_tokens();

    let mask_t = match cfg.temporal_mask {
        TemporalMaskKind::Cv | TemporalMaskKind::Std => {
            let stat: Vec<f64> = if refresh {
                temporal_statistic(values, win_len, dims, w, cfg.temporal_mask, cfg.use_fft_cv)
            } else {
                (0..win_len)
                    .map(|t| {
                        if t + 1 >= w {
                            // Trailing window fully inside: the rolling value
                            // recorded when this sample arrived.
                            s.stat_ring[(s.head + t) % win_len]
                        } else {
                            // Head positions edge-pad with the window's first
                            // row, which changes every hop — compute directly.
                            head_stat(values, dims, w, t, cfg.temporal_mask)
                        }
                    })
                    .collect()
            };
            // The incremental per-row statistic (ring + rolling stats)
            // stays at row resolution regardless of patch_len; only the
            // selection step folds it to patch tokens, exactly like the
            // batch path — so at patch_len = 1 this line is the legacy
            // selection bit for bit, and at patch_len > 1 the sliding
            // state machinery needs no patch awareness at all.
            temporal_mask_from_stat(&fold_stat_to_patches(&stat, cfg.patch_len), i_t)
        }
        // Random consumes the rng; None masks nothing. Neither reads the
        // incremental statistic.
        TemporalMaskKind::Random | TemporalMaskKind::None => temporal_mask_patched(
            values,
            win_len,
            dims,
            cfg.patch_len,
            i_t,
            w,
            cfg.temporal_mask,
            cfg.use_fft_cv,
            rng,
        ),
    };

    if refresh {
        // Exact re-seed: init IS a fresh rfft of the retained window, so the
        // masks (and the verdicts built on them) match the batch path
        // bitwise on refresh hops.
        for n in 0..dims {
            let ch: Vec<f64> = (0..win_len).map(|t| values[t * dims + n] as f64).collect();
            s.sdft[n].init(&ch);
        }
        for r in s.roll.iter_mut() {
            r.refresh();
        }
    }
    let spectra: Vec<&[Complex64]> = s.sdft.iter().map(SlidingDft::spectrum).collect();
    let mask_f = frequency_mask_from_spectra(
        &spectra,
        values,
        win_len,
        cfg.masked_freq_bins(),
        cfg.freq_mask,
        rng,
    );
    (mask_t, mask_f)
}

/// Direct trailing statistic for a head position `t < w − 1` of one window,
/// edge-padding with the window's first row — the same definition as
/// `sliding_cv_naive`/`sliding_var_naive` applied to the window.
fn head_stat(values: &[f32], dims: usize, w: usize, t: usize, kind: TemporalMaskKind) -> f64 {
    let mut total = 0.0;
    for n in 0..dims {
        let at = |idx: isize| -> f64 {
            if idx < 0 {
                values[n] as f64
            } else {
                values[idx as usize * dims + n] as f64
            }
        };
        let mut sum = 0.0;
        for k in 0..w {
            sum += at(t as isize - k as isize);
        }
        let mu = sum / w as f64;
        let mut acc = 0.0;
        for k in 0..w {
            let d = at(t as isize - k as isize) - mu;
            acc += d * d;
        }
        let var = acc / w as f64;
        total += match kind {
            TemporalMaskKind::Cv => var / (mu.abs() + CV_EPS),
            TemporalMaskKind::Std => var.max(0.0).sqrt(),
            TemporalMaskKind::Random | TemporalMaskKind::None => 0.0,
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tfmae_data::{render, Component, Detector};
    use tfmae_metrics::threshold_for_ratio;

    fn series(len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let ch = render(
            &[
                Component::Sine { period: 16.0, amp: 1.0, phase: 0.0 },
                Component::Noise { sigma: 0.05 },
            ],
            len,
            &mut rng,
        );
        TimeSeries::from_channels(&[ch])
    }

    fn fitted() -> TfmaeDetector {
        let train = series(512, 1);
        let mut det =
            TfmaeDetector::new(crate::config::TfmaeConfig { epochs: 4, ..crate::config::TfmaeConfig::tiny() });
        det.fit(&train, &train);
        det
    }

    fn replicate(det: &TfmaeDetector) -> TfmaeDetector {
        TfmaeDetector::from_checkpoint(det.to_checkpoint().expect("fitted"))
            .expect("roundtrip")
    }

    /// An engine with one registered stream (id 0).
    fn one_stream(det: TfmaeDetector, cfg: ServingConfig) -> ServingEngine {
        let mut eng = ServingEngine::new(det, cfg);
        eng.add_stream();
        eng
    }

    #[test]
    fn sliding_spectra_re_seed_exactly_every_refresh_every_hops() {
        // The verdict parity tests cannot see the cadence: the f64 drift of
        // the sliding DFT stays below f32 rounding, so an engine that never
        // re-seeds scores the same bits there. The spectra show it: after
        // hop k they equal a fresh rfft of the window iff k is a refresh hop.
        let det = fitted();
        let win = det.cfg.win_len;
        let hop = 2;
        let data = series(win + hop * 2 * REFRESH_EVERY, 9);
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, hop));
        let (mut k, mut drifted) = (0, 0);
        for t in 0..data.len() {
            if eng.tick(&[(0, data.row(t))]).verdicts.is_empty() {
                continue;
            }
            let s = &eng.streams[0];
            let window: Vec<f64> = s.snapshot(win, 1).into_iter().map(f64::from).collect();
            let mut fresh = SlidingDft::new(win);
            fresh.init(&window);
            let exact = s.sdft[0].spectrum() == fresh.spectrum();
            if k % REFRESH_EVERY == 0 {
                assert!(exact, "hop {k} must re-seed the spectra exactly");
            }
            drifted += usize::from(!exact);
            k += 1;
        }
        assert_eq!(k, 2 * REFRESH_EVERY + 1);
        assert!(
            drifted > REFRESH_EVERY,
            "only {drifted} of {k} hops drifted: the check is blind"
        );
    }

    #[test]
    fn verdict_csv_lines_keep_their_bytes() {
        // The front-ends' verdict files and poll bodies are these bytes:
        // f32 `Display` (shortest round-trip), the flag as 0/1 and the
        // quality's variant name.
        use DataQuality::{Clean, Degraded, Imputed};
        assert_eq!(StreamVerdict::CSV_HEADER, "t,score,is_anomaly,quality");
        for (t, score, is_anomaly, quality, line) in [
            (17, 0.0423, false, Clean, "17,0.0423,0,Clean"),
            (0, 1.5e-7, true, Imputed, "0,0.00000015,1,Imputed"),
            (40, -0.0, false, Degraded, "40,-0,0,Degraded"),
            (3, 25.0, true, Clean, "3,25,1,Clean"),
        ] {
            let v = StreamVerdict { t, score, is_anomaly, quality };
            assert_eq!(v.to_string(), line);
        }
    }

    #[test]
    fn default_hop_is_a_quarter_window_of_at_least_one_row() {
        assert_eq!(ServingConfig::default_hop(100), 25);
        assert_eq!(ServingConfig::default_hop(32), 8);
        assert_eq!(ServingConfig::default_hop(10), 2);
        assert_eq!(ServingConfig::default_hop(4), 1);
        assert_eq!(ServingConfig::default_hop(3), 1);
    }

    /// Ticks one row through stream 0, returning its verdicts.
    fn push(eng: &mut ServingEngine, row: &[f32]) -> Vec<StreamVerdict> {
        eng.tick(&[(0, row)]).verdicts.into_iter().map(|v| v.verdict).collect()
    }

    /// Ticks every row of `data` through stream 0, collecting all verdicts.
    fn push_all(eng: &mut ServingEngine, data: &TimeSeries) -> Vec<StreamVerdict> {
        (0..data.len()).flat_map(|t| push(eng, data.row(t))).collect()
    }

    #[test]
    fn warmup_emits_nothing_then_hops() {
        let det = fitted();
        let win = det.cfg.win_len;
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 4));
        let data = series(win + 12, 2);
        let mut verdicts = Vec::new();
        for t in 0..data.len() {
            let out = push(&mut eng, data.row(t));
            if t + 1 < win {
                assert!(out.is_empty(), "no verdicts during warm-up (t={t})");
            }
            verdicts.extend(out);
        }
        assert!(eng.warmed_up(0));
        // After warm-up, every hop of 4 rows yields 4 verdicts.
        assert!(!verdicts.is_empty());
        assert_eq!(verdicts.len() % 4, 0);
        // Verdict indices are contiguous and increasing.
        for pair in verdicts.windows(2) {
            assert!(pair[1].t > pair[0].t);
        }
        assert!(verdicts.iter().all(|v| v.quality == DataQuality::Clean));
    }

    #[test]
    fn spike_is_flagged_online() {
        let det = fitted();
        let win = det.cfg.win_len;
        // Calibrate a threshold from validation scores.
        let val = series(128, 3);
        let delta = threshold_for_ratio(&det.score(&val), 0.02);
        let mut eng = one_stream(det, ServingConfig::new(delta, 1));

        let mut data = series(win * 3, 4);
        let spike_t = win * 2;
        data.set(spike_t, 0, 12.0);
        let verdicts = push_all(&mut eng, &data);
        let hits: Vec<&StreamVerdict> = verdicts.iter().filter(|v| v.is_anomaly).collect();
        assert!(!hits.is_empty(), "online detector missed the spike");
        assert!(
            hits.iter().any(|v| (v.t as i64 - spike_t as i64).abs() <= 4),
            "flag not near the spike: {:?}",
            hits.iter().map(|v| v.t).collect::<Vec<_>>()
        );
    }

    #[test]
    fn streaming_matches_offline_on_last_window_positions() {
        let det = fitted();
        let win = det.cfg.win_len;
        let data = series(win, 5);
        let offline = det.score(&data);
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, win));
        let verdicts = push_all(&mut eng, &data);
        assert_eq!(verdicts.len(), win);
        for (v, &o) in verdicts.iter().zip(offline.iter()) {
            assert!((v.score - o).abs() < 1e-5, "stream {} vs offline {o}", v.score);
        }
    }

    #[test]
    fn calibrated_stream_detects_sustained_anomaly() {
        // A level shift spanning more than one full window: window-local
        // normalization absorbs it, frozen calibration norms must not.
        let det = fitted();
        let win = det.cfg.win_len;
        let val = series(256, 7);
        let delta = threshold_for_ratio(&det.score(&val), 0.02);
        let mut eng = one_stream(det, ServingConfig::new(delta, 1));
        eng.calibrate_stream(0, &val);

        let mut data = series(win * 4, 8);
        for t in win * 2..win * 3 + win / 2 {
            let v = data.get(t, 0);
            data.set(t, 0, v + 6.0); // sustained level shift
        }
        let verdicts = push_all(&mut eng, &data);
        let hits = verdicts
            .iter()
            .filter(|v| v.is_anomaly && (win * 2..win * 3 + win / 2).contains(&(v.t as usize)))
            .count();
        assert!(hits > 0, "calibrated stream missed a sustained level shift");
    }

    #[test]
    #[should_panic(expected = "fitted")]
    fn unfitted_detector_is_rejected() {
        let det = TfmaeDetector::new(crate::config::TfmaeConfig::tiny());
        ServingEngine::new(det, ServingConfig::new(0.0, 1));
    }

    #[test]
    fn wrong_row_width_is_imputed_not_fatal() {
        let det = fitted();
        let win = det.cfg.win_len;
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 1));
        let data = series(win, 9);
        for t in 0..win {
            push(&mut eng, data.row(t));
        }
        let out = push(&mut eng, &[1.0, 2.0, 3.0]); // wrong width: imputed, not fatal
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].quality, DataQuality::Imputed);
        assert!(out[0].score.is_finite());
        assert_eq!(eng.health(0).imputed_rows, 1);
    }

    #[test]
    fn nan_rows_are_imputed_and_flagged() {
        let det = fitted();
        let win = det.cfg.win_len;
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 1));
        let data = series(win * 2, 10);
        let mut verdicts = Vec::new();
        for t in 0..data.len() {
            // ~10% NaN storm in the second window.
            let row = if t >= win && t % 10 == 0 { vec![f32::NAN] } else { data.row(t).to_vec() };
            verdicts.extend(push(&mut eng, &row));
        }
        assert!(!verdicts.is_empty());
        assert!(verdicts.iter().all(|v| v.score.is_finite()), "no NaN may escape");
        let imputed: Vec<&StreamVerdict> =
            verdicts.iter().filter(|v| v.quality == DataQuality::Imputed).collect();
        assert!(!imputed.is_empty(), "NaN rows must be flagged as imputed");
        assert!(imputed.iter().all(|v| v.t >= win as u64 && v.t % 10 == 0));
        // Clean rows between the faults stay Clean.
        assert!(verdicts.iter().any(|v| v.t > win as u64 && v.quality == DataQuality::Clean));
        assert_eq!(eng.health(0).mode, StreamMode::Normal);
        assert!(eng.health(0).imputed_rows > 0);
    }

    #[test]
    fn staleness_budget_escalates_to_degraded() {
        let det = fitted();
        let win = det.cfg.win_len;
        let budget = STALENESS_BUDGET;
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 1));
        let data = series(win, 11);
        for t in 0..win {
            push(&mut eng, data.row(t));
        }
        let mut qualities = Vec::new();
        for _ in 0..budget + 2 {
            let out = push(&mut eng, &[f32::NAN]);
            qualities.push(out[0].quality);
        }
        assert!(qualities[..budget].iter().all(|&q| q == DataQuality::Imputed));
        assert!(qualities[budget..].iter().all(|&q| q == DataQuality::Degraded));
        assert_eq!(eng.health(0).mode, StreamMode::Normal, "still short of QUARANTINE_AFTER");
    }

    #[test]
    fn quarantine_trips_and_recovers() {
        let det = fitted();
        let win = det.cfg.win_len;
        let mut eng = one_stream(det, ServingConfig::new(f32::MAX, 1));
        let data = series(win * 3, 12);
        for t in 0..win {
            push(&mut eng, data.row(t));
        }
        // A dead feed: all-NaN until quarantine trips. The first
        // STALENESS_BUDGET rows are imputed, the rest Degraded, and the
        // QUARANTINE_AFTER-th bad row enters quarantine.
        for i in 0..QUARANTINE_AFTER + 4 {
            let out = push(&mut eng, &[f32::NAN]);
            assert_eq!(out.len(), 1);
            let imputed = i < STALENESS_BUDGET;
            assert_eq!(out[0].quality == DataQuality::Imputed, imputed, "bad row {i}");
            assert_eq!(out[0].quality == DataQuality::Degraded, !imputed, "bad row {i}");
            let quarantined = eng.health(0).mode == StreamMode::Quarantine;
            assert_eq!(quarantined, i + 1 >= QUARANTINE_AFTER, "bad row {i}");
            assert!(!out[0].is_anomaly, "a dead feed must never page");
            assert!(out[0].score.is_finite());
        }
        assert_eq!(eng.health(0).mode, StreamMode::Quarantine);
        assert_eq!(eng.health(0).quarantine_entries, 1);
        assert!(eng.health(0).quarantined_rows > 0);
        assert!(!eng.warmed_up(0), "quarantine discards the buffer");

        // Clean data returns: stream leaves quarantine and re-warms.
        let mut recovered = Vec::new();
        for t in win..win * 2 + 4 {
            recovered.extend(push(&mut eng, data.row(t)));
        }
        assert_eq!(eng.health(0).mode, StreamMode::Normal);
        assert!(!recovered.is_empty(), "stream must score again after recovery");
        assert!(recovered.iter().all(|v| v.quality == DataQuality::Clean));
        assert!(recovered.iter().all(|v| v.score.is_finite()));
    }

    #[test]
    fn multi_stream_batched_matches_solo_streams() {
        let det = fitted();
        let win = det.cfg.win_len;
        let n_streams = 3;
        // Solo reference: one single-stream engine per stream.
        let mut solo: Vec<Vec<StreamVerdict>> = Vec::new();
        for sid in 0..n_streams {
            let mut eng = one_stream(replicate(&det), ServingConfig::new(f32::MAX, 4));
            solo.push(push_all(&mut eng, &series(win + 16, 100 + sid as u64)));
        }
        // Batched: one engine, all streams ticked together on two lanes, so
        // each flush's three due windows chunk as
        // `chunk_sizes(3, 2, 16) == [2, 1]`: B > 1 scoring must be bitwise
        // identical to solo.
        let mut det = det;
        det.set_executor(Arc::new(Executor::with_threads(2)));
        let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, 4));
        let ids: Vec<usize> = (0..n_streams).map(|_| eng.add_stream()).collect();
        let datas: Vec<TimeSeries> =
            (0..n_streams).map(|sid| series(win + 16, 100 + sid as u64)).collect();
        let mut batched: Vec<Vec<StreamVerdict>> = vec![Vec::new(); n_streams];
        for t in 0..win + 16 {
            let rows: Vec<(usize, &[f32])> =
                ids.iter().map(|&id| (id, datas[id].row(t))).collect();
            let report = eng.tick(&rows);
            assert!(report.rejections.is_empty());
            for v in report.verdicts {
                batched[v.stream].push(v.verdict);
            }
        }
        for sid in 0..n_streams {
            assert_eq!(solo[sid].len(), batched[sid].len(), "stream {sid}");
            for (a, b) in solo[sid].iter().zip(batched[sid].iter()) {
                assert_eq!(a.t, b.t);
                assert_eq!(a.quality, b.quality);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "stream {sid} t={}: {} vs {}",
                    a.t,
                    a.score,
                    b.score
                );
            }
        }
    }

    #[test]
    fn chunk_sizes_cover_every_window_and_balance_the_lanes() {
        let sizes = |p, l, m| chunk_sizes(p, l, m).collect::<Vec<_>>();
        assert_eq!(sizes(1, 2, 32), [1]);
        assert_eq!(sizes(3, 2, 32), [2, 1]);
        assert_eq!(sizes(5, 1, 4), [3, 2]);
        assert_eq!(sizes(5, 2, 2), [2, 1, 1, 1]);
        assert_eq!(sizes(64, 2, 32), [32, 32]);
        assert_eq!(sizes(65, 2, 32), [17, 16, 16, 16]);
        for p in 1..80 {
            for l in 1..5 {
                for m in 1..10 {
                    let s = sizes(p, l, m);
                    assert_eq!(s.iter().sum::<usize>(), p);
                    assert!(s.iter().all(|&c| (1..=m).contains(&c)), "{p} {l} {m}: {s:?}");
                    assert!(s.len() >= l.min(p));
                    assert!(s.len() % l == 0 || s.len() == p, "{p} {l} {m}: {s:?}");
                }
            }
        }
    }

    #[test]
    fn exec_stats_count_the_lanes_that_do_the_scoring() {
        let mut det = fitted();
        det.set_executor(Arc::new(Executor::with_threads(2)));
        let win = det.cfg.win_len;
        let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, 2));
        let ids: Vec<usize> = (0..4).map(|_| eng.add_stream()).collect();
        let data = series(win * 2, 13);
        for t in 0..data.len() {
            let rows: Vec<(usize, &[f32])> = ids.iter().map(|&id| (id, data.row(t))).collect();
            eng.tick(&rows);
        }
        // Lanes are serial scratch executors: the detector's own pool only
        // dispatches them, so every tape buffer is counted on a lane.
        let (engine, detector) = (eng.exec_stats(), eng.detector().exec_stats());
        assert_eq!(engine.threads, 2);
        assert_eq!(detector.pool_hits + detector.pool_misses, 0);
        assert!(engine.pool_hits > 0, "{engine:?}");
        assert!(engine.parallel_tasks > 0, "flushes of 4 windows must run both lanes");
    }

    #[test]
    fn tick_ingest_fans_out_only_past_the_work_gate() {
        // Like the kernels' "large matmul must fan out / tiny bmm must stay
        // serial": ticks that stage no window (warm-up rows), so `flush`
        // dispatches nothing and every parallel task is the ingest fan-out.
        let mut det = fitted();
        det.set_executor(Arc::new(Executor::with_threads(2)));
        let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, 1));
        let per_row = eng.dims() * (eng.win_len() / 2 + 1);
        let below = (MIN_PAR_INGEST - 1) / per_row;
        let above = MIN_PAR_INGEST.div_ceil(per_row);
        let ids: Vec<usize> = (0..above).map(|_| eng.add_stream()).collect();
        let row = vec![0.5f32; eng.dims()];
        let mut tick = |n: usize| {
            let rows: Vec<(usize, &[f32])> = ids[..n].iter().map(|&id| (id, &row[..])).collect();
            let before = eng.exec_stats().parallel_tasks;
            assert!(eng.tick(&rows).verdicts.is_empty() && eng.pending_windows() == 0);
            eng.exec_stats().parallel_tasks - before
        };
        assert_eq!(tick(below), 0, "{below} rows x {per_row} bins must ingest inline");
        assert_eq!(tick(above), 1, "{above} rows x {per_row} bins must fan out once");
    }

    #[test]
    fn tick_coalesces_due_windows_into_batches() {
        let mut det = fitted();
        let win = det.cfg.win_len;
        // Two lanes: the five due windows chunk as
        // `chunk_sizes(5, 2, 16) == [3, 2]`.
        det.set_executor(Arc::new(Executor::with_threads(2)));
        let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, win));
        let ids: Vec<usize> = (0..5).map(|_| eng.add_stream()).collect();
        let datas: Vec<TimeSeries> = (0..5).map(|sid| series(win, 50 + sid as u64)).collect();
        // Ingest only: all five windows become due on the last row.
        for t in 0..win {
            for &id in &ids {
                let none = eng.try_ingest(id, datas[id].row(t)).expect("registered stream");
                assert!(none.is_empty());
            }
        }
        assert_eq!(eng.pending_windows(), 5);
        let verdicts = eng.flush();
        assert_eq!(eng.pending_windows(), 0);
        assert_eq!(verdicts.len(), 5 * win);
        for &id in &ids {
            assert_eq!(verdicts.iter().filter(|v| v.stream == id).count(), win);
        }
    }

    #[test]
    fn refresh_hop_masks_are_bitwise_the_batch_masks() {
        // A refresh hop re-derives the statistic and the spectra through the
        // exact batch path, so its masks are `window_masks`' to the bit. The
        // serving_parity suites rely on this when they take an engine that
        // refreshes every hop as the from-scratch reference.
        use crate::config::FreqMaskKind;
        use crate::model::TfmaeModel;
        let dims = 3;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for patch_len in [1, 4] {
            for temporal_mask in [TemporalMaskKind::Cv, TemporalMaskKind::Std, TemporalMaskKind::Random] {
                for freq_mask in [FreqMaskKind::Amplitude, FreqMaskKind::HighFreq, FreqMaskKind::Random] {
                    let cfg = TfmaeConfig { patch_len, temporal_mask, freq_mask, ..TfmaeConfig::tiny() };
                    let case = format!("P={patch_len} {temporal_mask:?}/{freq_mask:?}");
                    let win = cfg.win_len;
                    let values: Vec<f32> =
                        (0..win * dims).map(|i| (i as f32 * 0.37).sin() + (i % 7) as f32 * 0.1).collect();
                    let mut s = StreamState::new(win, dims, cfg.cv_window);
                    let (got_t, got_f) =
                        incremental_masks(&cfg, &mut s, &values, dims, true, &mut StdRng::seed_from_u64(5));
                    let model = TfmaeModel::new(cfg, dims);
                    let (want_t, want_f) = model.window_masks(&values, &mut StdRng::seed_from_u64(5));
                    assert_eq!(got_t, want_t, "{case}: temporal mask");
                    assert_eq!(got_f.masked_bins, want_f.masked_bins, "{case}: masked bins");
                    assert_eq!(bits(&got_f.base), bits(&want_f.base), "{case}: base");
                    assert_eq!(bits(&got_f.a), bits(&want_f.a), "{case}: A");
                    assert_eq!(bits(&got_f.b), bits(&want_f.b), "{case}: B");
                }
            }
        }
    }

    #[test]
    fn tick_rejects_unknown_stream_rows_and_keeps_scoring_the_rest() {
        // The fleet-facing tick surface must not panic (or silently drop
        // rows) over one bad stream id: the bad row comes back as a typed
        // rejection and every other row processes normally.
        let det = fitted();
        let win = det.cfg.win_len;
        let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, win));
        let id = eng.add_stream();
        let data = series(win, 9);
        let (mut verdicts, mut rejections) = (0usize, 0usize);
        for t in 0..win {
            let row = data.row(t);
            let report = eng.tick(&[(id, row), (id + 7, row)]);
            for r in &report.rejections {
                assert_eq!(*r, RowRejection { stream: id + 7, reason: RejectReason::UnknownStream });
            }
            rejections += report.rejections.len();
            verdicts += report.verdicts.len();
        }
        assert_eq!(rejections, win, "one typed rejection per bad row");
        assert_eq!(verdicts, win, "the registered stream still scores");
        assert_eq!(eng.stream_len(id), win as u64);
    }

    #[test]
    fn removed_streams_reject_and_their_slots_are_recycled() {
        let det = fitted();
        let win = det.cfg.win_len;
        let mut eng = ServingEngine::new(det, ServingConfig::new(f32::MAX, win));
        let a = eng.add_stream();
        let b = eng.add_stream();
        assert_eq!(eng.num_streams(), 2);
        assert!(eng.remove_stream(a));
        assert!(!eng.remove_stream(a), "double-remove reports not-live");
        assert_eq!(eng.num_streams(), 1);
        // A removed id is retired, not recycled: rows for it are rejected.
        let row = vec![0.0f32; eng.dims()];
        assert!(eng.try_ingest(a, &row).is_err());
        // The freed slot is reused by the next registration; the old id
        // keeps rejecting while the new stream scores end to end.
        let c = eng.add_stream();
        assert_ne!(a, c);
        assert_eq!(eng.num_streams(), 2);
        assert_eq!(eng.streams.len(), 2, "the freed slot is refilled, not appended");
        let data = series(win, 11);
        let mut verdicts = 0usize;
        for t in 0..win {
            let rows: Vec<(usize, &[f32])> = vec![(b, data.row(t)), (c, data.row(t))];
            let report = eng.tick(&rows);
            assert!(report.rejections.is_empty());
            verdicts += report.verdicts.len();
        }
        assert_eq!(verdicts, 2 * win);
    }

    #[test]
    fn stream_memory_holds_spectra_but_no_twiddles() {
        // A stream's sliding DFTs hold one half-spectrum per channel; the
        // advance twiddles are one process-wide table per window length,
        // which saves dims·(win/2+1)·16 bytes per stream.
        let (win, dims, w) = (100, 38, 10);
        let s = StreamState::new(win, dims, w);
        let spectra = dims * tfmae_fft::rfft_len(win) * std::mem::size_of::<Complex64>();
        assert_eq!(s.sdft.iter().map(SlidingDft::heap_bytes).sum::<usize>(), spectra);
        let rest = win * dims * std::mem::size_of::<f32>()
            + win * std::mem::size_of::<DataQuality>()
            + dims * (std::mem::size_of::<Option<f32>>() + std::mem::size_of::<usize>())
            + win * std::mem::size_of::<f64>()
            + dims * w * std::mem::size_of::<f64>();
        assert_eq!(s.heap_bytes(), rest + spectra);
    }

    #[test]
    fn bf16_memory_per_stream_is_under_the_0_6x_gate_at_s8() {
        // The PR's serving-memory acceptance criterion: at S = 8, a bf16
        // engine holds ≤ 0.6x the resident bytes per stream of the f32
        // engine (in practice ~0.25x-0.3x: data + grad → one u16 panel).
        let det = fitted();
        let at = |precision: Precision| {
            let mut cfg = ServingConfig::new(f32::MAX, 4);
            cfg.precision = precision;
            let mut eng = ServingEngine::new(replicate(&det), cfg);
            for _ in 0..8 {
                eng.add_stream();
            }
            eng.memory_bytes_per_stream()
        };
        let f32_bytes = at(Precision::F32);
        let bf16_bytes = at(Precision::Bf16);
        let int8_bytes = at(Precision::Int8);
        assert!(f32_bytes > 0);
        assert!(
            (bf16_bytes as f64) <= 0.6 * f32_bytes as f64,
            "bf16 {bf16_bytes} B/stream vs f32 {f32_bytes} B/stream"
        );
        assert!(
            int8_bytes < bf16_bytes,
            "int8 {int8_bytes} B/stream must undercut bf16 {bf16_bytes} B/stream"
        );
    }
}
