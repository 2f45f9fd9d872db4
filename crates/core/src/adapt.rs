//! Drift adaptation for the serving engine: online threshold
//! recalibration, guarded background fine-tuning and quarantine-aware
//! rollback.
//!
//! The paper calibrates δ once, as a validation-set quantile (Eq. 17), and
//! serves with it forever. Under distribution drift — a level shift, a
//! variance blow-up, a slowly ramping trend — the frozen δ either floods
//! the operator with false positives or goes blind. This module closes the
//! loop with three mechanisms, each defaulting **off** so that serving with
//! adaptation disabled stays bitwise identical to the frozen engine:
//!
//! 1. **Adaptive threshold** — a rolling quantile over the last `WINDOW`
//!    *clean* serving scores (two-generation log-bucket histograms, the
//!    same shape as the obs [`Histogram`]) re-derives δ at the Eq. 17 ratio
//!    every `RECALIBRATE_EVERY` clean scores, with hysteresis
//!    (`HYSTERESIS`) and a per-step clamp (`MAX_STEP`) so δ moves
//!    smoothly. Degraded and quarantined rows never feed the window, and a
//!    stream that exits quarantine sits out a holdoff before its scores
//!    re-enter calibration.
//! 2. **Guarded background fine-tune** — a reservoir of the last
//!    `RESERVOIR` fully-clean windows drives `FINETUNE_STEPS` optimizer
//!    steps every `FINETUNE_INTERVAL` clean scores through the same
//!    guarded step as `fit` (divergence rollback + LR backoff, see
//!    [`crate::robust`]), after snapshotting the model weights.
//! 3. **Quarantine-aware rollback** — every update opens a probation
//!    window; if the calibration-anchored drift statistic or the degraded
//!    row rate worsens past a fixed guard band (`MAX_DRIFT`,
//!    `MAX_DEGRADED_RATE` over `PROBATION` clean scores), the last-good
//!    snapshot is restored and the adaptation cadence backs off
//!    exponentially (capped at `MAX_BACKOFF`). A probation served cleanly
//!    halves the backoff again.
//!
//! The only settings are the switches and the Eq. 17 ratio
//! ([`AdaptationConfig`]); the cadence and sizes are the constants
//! `bench_adapt` measures. See DESIGN.md §15 for the full state machine and
//! failure-mode analysis.

use tfmae_obs::{HistSnapshot, Histogram};
use tfmae_tensor::{ParamSnapshot, ParamStore};

use crate::robust::TrainReport;
use crate::serving::DataQuality;

/// Recalibration dampers: relative δ moves below `HYSTERESIS` are skipped
/// as chatter, and applied moves are clamped to ±`MAX_STEP`.
const HYSTERESIS: f32 = 0.05;
const MAX_STEP: f32 = 0.5;
/// Guard band: an update is rolled back when, during probation, the
/// calibration-anchored drift ratio (rolling score median over the anchor
/// median) or dispersion ratio (rolling score IQR over the anchor IQR)
/// leaves `[1/MAX_DRIFT, MAX_DRIFT]`. Two-sided on purpose: a harmful
/// update can blow scores up (false-positive flood) *or* collapse them
/// (the model goes blind). The dispersion test catches a collapse to a
/// near-constant score that leaves the median where it was, once that
/// score fills half the window (DESIGN.md §15, "Guard reach").
const MAX_DRIFT: f64 = 4.0;
/// Guard band: an update is also rolled back when, over at least
/// `MIN_PROBATION_ROWS` probation rows, more than this fraction were
/// degraded or quarantined.
const MAX_DEGRADED_RATE: f64 = 0.5;
const MIN_PROBATION_ROWS: u64 = 8;
/// Clean calibration scores after an update before it counts as proven.
const PROBATION: usize = 64;
/// Cap on the exponential cadence backoff multiplier.
const MAX_BACKOFF: u32 = 16;
/// Scored windows a stream sits out after leaving quarantine before its
/// scores re-enter the calibration window and reservoir.
pub(crate) const HOLDOFF: usize = 4;
/// Windows per background fine-tune step; an update waits until the
/// reservoir holds this many.
pub(crate) const FINETUNE_BATCH: usize = 8;
/// Clean calibration scores between recalibration attempts (multiplied by
/// the current rollback backoff).
const RECALIBRATE_EVERY: usize = 64;
/// Minimum clean scores in the rolling window before δ may move (also
/// when the drift anchor is first frozen).
const MIN_SAMPLES: u64 = 64;
/// Rolling score-window size, kept as two half-window histogram
/// generations: quantiles reflect the last `WINDOW/2 .. WINDOW` clean
/// scores. By the end of one `PROBATION` an update's scores are a third of
/// this window, enough to move a quartile; at 1024 they would be at most a
/// fifth (DESIGN.md §15, "Guard reach").
const WINDOW: usize = 256;
/// Clean calibration scores between fine-tune updates (multiplied by the
/// current rollback backoff).
const FINETUNE_INTERVAL: usize = 256;
/// Capacity of the clean-window reservoir (newest windows win).
const RESERVOIR: usize = 32;
/// Optimizer steps per fine-tune update, of `FINETUNE_BATCH` windows each.
pub(crate) const FINETUNE_STEPS: usize = 2;
const _: () = assert!(RESERVOIR >= FINETUNE_BATCH, "the reservoir must hold one batch");

/// Drift-adaptation policy for [`ServingEngine`](crate::ServingEngine).
///
/// Disabled by default: with `enabled == false` the engine's verdicts are
/// bitwise identical to the frozen-threshold engine (test-asserted). The
/// cadence and sizes are fixed constants, the ones `bench_adapt` measures.
#[derive(Clone, Debug)]
pub struct AdaptationConfig {
    /// Master switch.
    pub enabled: bool,
    /// The Eq. 17 anomaly ratio `r`: δ is recalibrated to the `(1 − r)`
    /// rolling-score quantile.
    pub target_ratio: f32,
    /// Background fine-tune on a reservoir of clean windows; `false`
    /// recalibrates the threshold only.
    pub finetune: bool,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        Self { enabled: false, target_ratio: 0.02, finetune: false }
    }
}

impl AdaptationConfig {
    /// An enabled configuration at the default ratio, without fine-tune.
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// Running counters of the adaptation loop (see
/// [`ServingEngine::adaptation_stats`](crate::ServingEngine::adaptation_stats)).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdaptationStats {
    /// The δ currently applied to verdicts.
    pub threshold: f32,
    /// Recalibrations that actually moved δ.
    pub recalibrations: u64,
    /// Background fine-tune updates attempted.
    pub finetune_updates: u64,
    /// Optimizer steps applied across all updates.
    pub finetune_steps: u64,
    /// Guard-band rollbacks to the last-good snapshot.
    pub rollbacks: u64,
    /// Current cadence backoff multiplier (1 = no backoff).
    pub cadence_mult: u32,
    /// Clean scores admitted into the calibration window so far.
    pub clean_scores: u64,
    /// CRC32 of the last-good parameter snapshot (0 before any update).
    pub last_good_hash: u32,
}

/// The persistable slice of adaptive state, written as an optional
/// CRC-covered section of the checkpoint (see
/// [`TfmaeDetector::save_with_adaptive`](crate::TfmaeDetector::save_with_adaptive)).
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveSnapshot {
    /// The current δ.
    pub threshold: f32,
    /// Applied recalibrations so far.
    pub recalibrations: u64,
    /// Cadence backoff multiplier at save time.
    pub cadence_mult: u32,
    /// CRC32 of the last-good parameter snapshot (0 if none).
    pub last_good_hash: u32,
}

/// A rolling quantile window over anomaly scores, built from two
/// half-window generations of the obs log-bucket [`Histogram`] shape:
/// recording is O(1), and quantiles are computed on the merged snapshot of
/// both generations, so they always cover the last `window/2 .. window`
/// samples with ≤ 12.5% relative bucket error.
#[derive(Debug)]
struct ScoreWindow {
    cur: Histogram,
    prev: Option<HistSnapshot>,
    half: u64,
}

impl ScoreWindow {
    /// A window covering (at most) the last `window` samples.
    fn new(window: usize) -> Self {
        Self { cur: Histogram::new(), prev: None, half: (window as u64 / 2).max(1) }
    }

    /// Records one score (micro-unit fixed point, like
    /// [`Histogram::record_micro`]); rotates generations at half-window.
    fn record(&mut self, score: f64) {
        self.cur.record_micro(score);
        if self.cur.count() >= self.half {
            self.prev = Some(self.cur.snapshot());
            self.cur = Histogram::new();
        }
    }

    /// Samples currently covered (both generations).
    fn count(&self) -> u64 {
        self.cur.count() + self.prev.as_ref().map_or(0, |p| p.count)
    }

    /// Nearest-rank quantile in micro-units over the merged generations
    /// (0 when empty).
    fn quantile_micro(&self, q: f64) -> u64 {
        self.merged().quantile(q)
    }

    /// Drops all samples (quarantining the window after a rollback).
    fn reset(&mut self) {
        self.cur = Histogram::new();
        self.prev = None;
    }

    fn merged(&self) -> HistSnapshot {
        let a = self.cur.snapshot();
        let Some(b) = self.prev.as_ref().filter(|p| p.count > 0) else { return a };
        if a.count == 0 {
            return b.clone();
        }
        let mut buckets = Vec::with_capacity(a.buckets.len() + b.buckets.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.buckets.len() || j < b.buckets.len() {
            let na = a.buckets.get(i);
            let nb = b.buckets.get(j);
            match (na, nb) {
                (Some(&(ia, ca)), Some(&(ib, cb))) if ia == ib => {
                    buckets.push((ia, ca + cb));
                    i += 1;
                    j += 1;
                }
                (Some(&(ia, ca)), Some(&(ib, _))) if ia < ib => {
                    buckets.push((ia, ca));
                    i += 1;
                }
                (Some(_), Some(&(ib, cb))) => {
                    buckets.push((ib, cb));
                    j += 1;
                }
                (Some(&(ia, ca)), None) => {
                    buckets.push((ia, ca));
                    i += 1;
                }
                (None, Some(&(ib, cb))) => {
                    buckets.push((ib, cb));
                    j += 1;
                }
                (None, None) => break,
            }
        }
        HistSnapshot {
            count: a.count + b.count,
            sum: a.sum.wrapping_add(b.sum),
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            buckets,
        }
    }
}

/// CRC32 (IEEE) over the bit patterns of every parameter scalar — the
/// "last-good snapshot hash" persisted in [`AdaptiveSnapshot`].
pub fn param_hash(ps: &ParamStore) -> u32 {
    let mut bytes = Vec::with_capacity(ps.num_scalars() * 4);
    for p in ps.params() {
        for &v in &p.data {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    crate::checkpoint::crc32_ieee(&bytes)
}

struct Probation {
    remaining: usize,
    rows: u64,
    degraded: u64,
}

/// Engine-side adaptation state machine. One per [`ServingEngine`]
/// (constructed even when disabled, so the drift gauge can anchor itself);
/// all mutation happens on the flush path.
///
/// [`ServingEngine`]: crate::ServingEngine
pub(crate) struct AdaptiveRuntime {
    cfg: AdaptationConfig,
    window: ScoreWindow,
    anchor_micro: Option<u64>,
    /// Rolling score IQR (p75 − p25, micro-units) frozen with
    /// `anchor_micro`; 0 until frozen, and 0 skips the dispersion test.
    anchor_iqr_micro: u64,
    clean_since_recal: usize,
    clean_since_tune: usize,
    reservoir: Vec<Vec<f32>>,
    next_slot: usize,
    /// Pre-update weights (the state a guard-band rollback restores); the
    /// matching hash lives in `stats.last_good_hash`.
    last_good: Option<ParamSnapshot>,
    probation: Option<Probation>,
    stats: AdaptationStats,
}

impl AdaptiveRuntime {
    pub(crate) fn new(cfg: AdaptationConfig, threshold: f32) -> Self {
        Self {
            cfg,
            window: ScoreWindow::new(WINDOW),
            anchor_micro: None,
            anchor_iqr_micro: 0,
            clean_since_recal: 0,
            clean_since_tune: 0,
            reservoir: Vec::new(),
            next_slot: 0,
            last_good: None,
            probation: None,
            stats: AdaptationStats { threshold, cadence_mult: 1, ..AdaptationStats::default() },
        }
    }

    pub(crate) fn threshold(&self) -> f32 {
        self.stats.threshold
    }

    pub(crate) fn stats(&self) -> &AdaptationStats {
        &self.stats
    }

    #[cfg(test)]
    pub(crate) fn in_probation(&self) -> bool {
        self.probation.is_some()
    }

    /// Feeds one verdict. `calib` is the staging-time eligibility of the
    /// verdict's window (false during post-quarantine holdoff); `track`
    /// additionally gates window recording (adaptation or obs active).
    pub(crate) fn observe(&mut self, score: f32, quality: DataQuality, calib: bool, track: bool) {
        if let Some(p) = self.probation.as_mut() {
            p.rows += 1;
            if quality == DataQuality::Degraded {
                p.degraded += 1;
            }
        }
        if !(track && calib && quality == DataQuality::Clean) {
            return;
        }
        self.window.record(f64::from(score));
        self.stats.clean_scores += 1;
        if self.anchor_micro.is_none() && self.window.count() >= MIN_SAMPLES {
            self.freeze_anchor();
        }
        if self.cfg.enabled {
            self.clean_since_recal += 1;
            self.clean_since_tune += 1;
            if let Some(p) = self.probation.as_mut() {
                p.remaining = p.remaining.saturating_sub(1);
            }
        }
    }

    /// Counts a row that never reached the scoring path (quarantine) toward
    /// the probation degraded-rate statistic.
    pub(crate) fn observe_unscored_degraded(&mut self) {
        if let Some(p) = self.probation.as_mut() {
            p.rows += 1;
            p.degraded += 1;
        }
    }

    /// Offers a fully-clean window to the fine-tune reservoir (ring
    /// overwrite once at capacity).
    pub(crate) fn offer_window(&mut self, values: Vec<f32>) {
        if self.reservoir.len() < RESERVOIR {
            self.reservoir.push(values);
        } else {
            self.reservoir[self.next_slot] = values;
        }
        self.next_slot = (self.next_slot + 1) % RESERVOIR;
    }

    pub(crate) fn reservoir_len(&self) -> usize {
        self.reservoir.len()
    }

    pub(crate) fn drain_reservoir(&mut self) -> Vec<Vec<f32>> {
        self.next_slot = 0;
        std::mem::take(&mut self.reservoir)
    }

    fn cadence(&self, base: usize) -> usize {
        base.saturating_mul(self.stats.cadence_mult.max(1) as usize)
    }

    pub(crate) fn recalibration_due(&self) -> bool {
        self.cfg.enabled
            && self.clean_since_recal >= self.cadence(RECALIBRATE_EVERY)
            && self.window.count() >= MIN_SAMPLES
    }

    /// Re-derives δ from the rolling window at the Eq. 17 ratio, applying
    /// hysteresis and the per-step clamp, and re-freezes the drift anchor.
    /// Returns whether δ actually moved.
    pub(crate) fn recalibrate(&mut self) -> bool {
        self.clean_since_recal = 0;
        self.freeze_anchor();
        let q = 1.0 - f64::from(self.cfg.target_ratio.clamp(0.0, 1.0));
        let cand = self.window.quantile_micro(q) as f32 / 1e6;
        if !cand.is_finite() || cand <= 0.0 {
            return false;
        }
        let cur = self.stats.threshold;
        if (cand - cur).abs() / cur.max(1e-12) < HYSTERESIS {
            return false;
        }
        self.stats.threshold = cand.clamp(cur * (1.0 - MAX_STEP), cur * (1.0 + MAX_STEP));
        self.stats.recalibrations += 1;
        true
    }

    pub(crate) fn finetune_due(&self) -> bool {
        self.cfg.enabled
            && self.cfg.finetune
            && self.probation.is_none()
            && self.clean_since_tune >= self.cadence(FINETUNE_INTERVAL)
            && self.reservoir.len() >= FINETUNE_BATCH
    }

    /// Books an attempted update: stores the pre-update snapshot as
    /// last-good and opens the probation window.
    pub(crate) fn note_finetune(&mut self, snap: ParamSnapshot, hash: u32, report: &TrainReport) {
        self.clean_since_tune = 0;
        self.stats.finetune_updates += 1;
        self.stats.finetune_steps += report.steps;
        self.stats.last_good_hash = hash;
        self.last_good = Some(snap);
        self.probation = Some(Probation { remaining: PROBATION, rows: 0, degraded: 0 });
    }

    fn iqr_micro(&self) -> u64 {
        self.window.quantile_micro(0.75).saturating_sub(self.window.quantile_micro(0.25))
    }

    fn freeze_anchor(&mut self) {
        self.anchor_micro = Some(self.window.quantile_micro(0.5));
        self.anchor_iqr_micro = self.iqr_micro();
    }

    /// Calibration-anchored drift ratio: rolling score median over the
    /// anchor median (1.0 until the anchor is frozen).
    pub(crate) fn drift_ratio(&self) -> f64 {
        match self.anchor_micro {
            Some(a) if a > 0 && self.window.count() > 0 => {
                self.window.quantile_micro(0.5) as f64 / a as f64
            }
            _ => 1.0,
        }
    }

    /// Rolling score IQR over the anchor IQR (1.0 while the anchor IQR is
    /// 0 or the window is empty).
    fn dispersion_ratio(&self) -> f64 {
        match self.anchor_iqr_micro {
            a if a > 0 && self.window.count() > 0 => self.iqr_micro() as f64 / a as f64,
            _ => 1.0,
        }
    }

    /// The drift gauge value in milli-units (1000 = at calibration).
    pub(crate) fn drift_millis(&self) -> i64 {
        (self.drift_ratio() * 1e3).clamp(0.0, 1e12) as i64
    }

    /// Evaluates the probation guard band. Returns the snapshot to restore
    /// when the update must be rolled back (the caller restores it into the
    /// model); a cleanly served probation halves the cadence backoff.
    pub(crate) fn probation_action(&mut self) -> Option<ParamSnapshot> {
        let p = self.probation.as_ref()?;
        let outside = |ratio: f64| !(1.0 / MAX_DRIFT..=MAX_DRIFT).contains(&ratio);
        let drift_bad = outside(self.drift_ratio()) || outside(self.dispersion_ratio());
        let degraded_bad = p.rows >= MIN_PROBATION_ROWS
            && (p.degraded as f64 / p.rows as f64) > MAX_DEGRADED_RATE;
        if drift_bad || degraded_bad {
            self.probation = None;
            self.stats.rollbacks += 1;
            self.stats.cadence_mult = self
                .stats
                .cadence_mult
                .max(1)
                .saturating_mul(2)
                .min(MAX_BACKOFF);
            self.clean_since_tune = 0;
            self.clean_since_recal = 0;
            // The window is polluted with post-update scores; recalibrating
            // from it would chase the damage.
            self.window.reset();
            return self.last_good.take();
        }
        if p.remaining == 0 {
            self.probation = None;
            self.stats.cadence_mult = (self.stats.cadence_mult / 2).max(1);
        }
        None
    }

    pub(crate) fn snapshot(&self) -> AdaptiveSnapshot {
        AdaptiveSnapshot {
            threshold: self.stats.threshold,
            recalibrations: self.stats.recalibrations,
            cadence_mult: self.stats.cadence_mult,
            last_good_hash: self.stats.last_good_hash,
        }
    }

    pub(crate) fn resume(&mut self, snap: &AdaptiveSnapshot) {
        if snap.threshold.is_finite() && snap.threshold > 0.0 {
            self.stats.threshold = snap.threshold;
        }
        self.stats.recalibrations = snap.recalibrations;
        self.stats.cadence_mult = snap.cadence_mult.max(1);
        self.stats.last_good_hash = snap.last_good_hash;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_window_tracks_recent_distribution() {
        let mut w = ScoreWindow::new(64);
        for _ in 0..200 {
            w.record(1.0);
        }
        let p50_before = w.quantile_micro(0.5);
        assert!((900_000..=1_100_000).contains(&p50_before), "p50 was {p50_before}");
        // Shift the stream: after >window samples the old mass is gone.
        for _ in 0..200 {
            w.record(8.0);
        }
        let p50_after = w.quantile_micro(0.5);
        assert!(p50_after >= 7_000_000, "p50 after shift was {p50_after}");
        assert!(w.count() <= 64, "window retains at most `window` samples");
    }

    #[test]
    fn score_window_merges_generations() {
        let mut w = ScoreWindow::new(100);
        for i in 0..60 {
            w.record(if i < 30 { 1.0 } else { 2.0 });
        }
        // Both generations contribute: the merged count spans the rotation.
        assert!(w.count() > 30);
        let p99 = w.quantile_micro(0.99);
        assert!(p99 >= 1_700_000, "p99 was {p99}");
    }

    #[test]
    fn recalibration_respects_hysteresis_and_clamp() {
        // Recalibrate to the median, easy to reason about.
        let cfg = AdaptationConfig { target_ratio: 0.5, ..AdaptationConfig::enabled() };
        let mut rt = AdaptiveRuntime::new(cfg, 1.0);
        // Scores at the threshold scale: |Δ| below HYSTERESIS → no move.
        for _ in 0..RECALIBRATE_EVERY {
            rt.observe(1.01, DataQuality::Clean, true, true);
        }
        assert!(rt.recalibration_due());
        assert!(!rt.recalibrate(), "sub-hysteresis move must be skipped");
        assert_eq!(rt.threshold(), 1.0);
        // A big shift, past half the window, is clamped to MAX_STEP per
        // recalibration.
        for _ in 0..2 * RECALIBRATE_EVERY {
            rt.observe(10.0, DataQuality::Clean, true, true);
        }
        assert!(rt.recalibrate());
        assert!((rt.threshold() - (1.0 + MAX_STEP)).abs() < 1e-6, "clamped to 1 + MAX_STEP");
        assert_eq!(rt.stats().recalibrations, 1);
    }

    #[test]
    fn degraded_scores_never_enter_the_window() {
        let cfg = AdaptationConfig::enabled();
        let mut rt = AdaptiveRuntime::new(cfg, 1.0);
        for _ in 0..50 {
            rt.observe(99.0, DataQuality::Degraded, true, true);
            rt.observe(99.0, DataQuality::Clean, false, true); // holdoff
        }
        assert_eq!(rt.window.count(), 0);
        assert_eq!(rt.stats().clean_scores, 0);
    }

    /// One adaptation turn as the engine takes it after each flush
    /// (`ServingEngine::run_adaptation` without the fine-tune): the guard
    /// band first, then a due recalibration.
    fn turn(rt: &mut AdaptiveRuntime) -> Option<ParamSnapshot> {
        let restored = rt.probation_action();
        if rt.recalibration_due() {
            rt.recalibrate();
        }
        restored
    }

    /// A calibrated scorer's clean scores: spread over `[0.9, 1.1)` in a
    /// scrambled order.
    fn clean_score(i: usize) -> f32 {
        0.9 + 0.2 * ((i * 37) % 64) as f32 / 64.0
    }

    /// Feeds `clean` clean scores, books an update, then feeds
    /// `clean_score(i) * factor` for up to one probation, taking a turn
    /// after every score. Returns the post-update score at which the guard
    /// rolled back.
    fn rollback_after(rt: &mut AdaptiveRuntime, clean: usize, factor: f32) -> Option<usize> {
        for i in 0..clean {
            rt.observe(clean_score(i), DataQuality::Clean, true, true);
            assert!(turn(rt).is_none(), "no update to roll back yet");
        }
        rt.note_finetune(ParamStore::new().snapshot(), 0xDEAD, &TrainReport::default());
        assert!(rt.in_probation());
        (1..=PROBATION).find(|&k| {
            rt.observe(clean_score(clean + k) * factor, DataQuality::Clean, true, true);
            turn(rt).is_some()
        })
    }

    #[test]
    fn probation_rolls_back_on_drift_and_backs_off() {
        let mut rt = AdaptiveRuntime::new(AdaptationConfig::enabled(), 1.0);
        // Post-update scores explode (10x > MAX_DRIFT) mid-probation.
        let hit = rollback_after(&mut rt, MIN_SAMPLES as usize, 10.0);
        assert!(hit.is_some(), "guard band must hand back the snapshot");
        assert_eq!(rt.stats().rollbacks, 1);
        assert_eq!(rt.stats().cadence_mult, 2, "cadence backs off exponentially");
        assert!(!rt.in_probation());
        assert_eq!(rt.window.count(), 0, "polluted window is discarded");
    }

    #[test]
    fn probation_rolls_back_on_score_collapse_too() {
        // The other failure direction: a harmful update that *collapses*
        // scores (model goes blind) must trip the two-sided drift band.
        let mut rt = AdaptiveRuntime::new(AdaptationConfig::enabled(), 1.0);
        // 100x down: below 1/MAX_DRIFT.
        let hit = rollback_after(&mut rt, MIN_SAMPLES as usize, 0.01);
        assert!(hit.is_some(), "collapse must roll back");
        assert_eq!(rt.stats().rollbacks, 1);
    }

    #[test]
    fn the_guard_sees_a_harmful_update_after_a_long_clean_history() {
        // The first update waits for FINETUNE_INTERVAL clean scores, so the
        // guard judges it against a full window of history. Its scores must
        // still reach the quartiles within one probation, in either
        // direction.
        for factor in [10.0, 0.01] {
            for clean in [FINETUNE_INTERVAL, 300, 600, 2000] {
                let mut rt = AdaptiveRuntime::new(AdaptationConfig::enabled(), 1.0);
                let hit = rollback_after(&mut rt, clean, factor);
                assert!(hit.is_some(), "{factor}x after {clean} clean scores must roll back");
                assert_eq!(rt.stats().rollbacks, 1);
                assert!(!rt.in_probation());
            }
        }
    }

    #[test]
    fn probation_rolls_back_when_scores_collapse_to_the_anchor_median() {
        // A harmful update can flatten the scorer into a near-constant
        // function whose median stays at the anchor: only the dispersion
        // test sees it.
        let mut rt = AdaptiveRuntime::new(AdaptationConfig::enabled(), 1.0);
        let n = MIN_SAMPLES as usize;
        let clean: Vec<f32> = (0..n).map(|i| 0.5 + i as f32 / (n - 1) as f32).collect();
        for &v in &clean {
            rt.observe(v, DataQuality::Clean, true, true);
        }
        assert!(rt.anchor_micro.is_some(), "anchor frozen");
        assert!(rt.anchor_iqr_micro > 0);
        // The nearest-rank median of the ascending feed.
        let median = clean[n / 2 - 1];
        let ps = ParamStore::new();
        rt.note_finetune(ps.snapshot(), 0xF1A7, &TrainReport::default());
        // Booked MIN_SAMPLES scores in, mid-generation, a full probation at
        // the median fills half the merged window, so the IQR collapses
        // while the probation is still open. The engine books updates at or
        // just past a generation boundary instead, where a probation fills
        // only a third and this collapse goes unseen (DESIGN.md §15, "Guard
        // reach").
        for _ in 0..PROBATION {
            rt.observe(median, DataQuality::Clean, true, true);
        }
        assert!((rt.drift_ratio() - 1.0).abs() < 1e-3, "the median has not moved");
        assert!(rt.dispersion_ratio() < 1.0 / MAX_DRIFT, "{}", rt.dispersion_ratio());
        assert!(rt.probation_action().is_some(), "a collapsed scorer must roll back");
        assert_eq!(rt.stats().rollbacks, 1);
    }

    #[test]
    fn clean_probation_halves_backoff() {
        let cfg = AdaptationConfig::enabled();
        let mut rt = AdaptiveRuntime::new(cfg, 1.0);
        rt.stats.cadence_mult = 8;
        let ps = ParamStore::new();
        rt.note_finetune(ps.snapshot(), 1, &TrainReport::default());
        for _ in 0..PROBATION {
            rt.observe(1.0, DataQuality::Clean, true, true);
        }
        assert!(rt.probation_action().is_none());
        assert!(!rt.in_probation());
        assert_eq!(rt.stats().cadence_mult, 4);
    }

    #[test]
    fn probation_rolls_back_on_degraded_rate() {
        // No drift anchor (MIN_SAMPLES is out of reach), so only the
        // degraded-rate test can fire.
        let cfg = AdaptationConfig::enabled();
        let mut rt = AdaptiveRuntime::new(cfg, 1.0);
        let ps = ParamStore::new();
        rt.note_finetune(ps.snapshot(), 0xD06, &TrainReport::default());
        let feed = |rt: &mut AdaptiveRuntime, q| rt.observe(1.0, q, true, true);
        // 4 of 7 rows degraded: above the rate, but below MIN_PROBATION_ROWS.
        for q in [DataQuality::Degraded, DataQuality::Clean].repeat(3) {
            feed(&mut rt, q);
        }
        feed(&mut rt, DataQuality::Degraded);
        assert!(rt.probation_action().is_none(), "too few rows to judge the rate");
        // 4 of 8: exactly MAX_DEGRADED_RATE is not above it.
        feed(&mut rt, DataQuality::Clean);
        assert!(rt.probation_action().is_none(), "half degraded is tolerated");
        // A quarantined (unscored) row tips it over: 5 of 9.
        rt.observe_unscored_degraded();
        assert_eq!(rt.drift_ratio(), 1.0, "no drift signal");
        assert!(rt.probation_action().is_some(), "a degraded probation must roll back");
        assert_eq!(rt.stats().rollbacks, 1);
        assert_eq!(rt.stats().cadence_mult, 2);
        assert!(!rt.in_probation());
    }

    #[test]
    fn reservoir_is_a_ring() {
        let mut rt = AdaptiveRuntime::new(AdaptationConfig::enabled(), 1.0);
        let offers = RESERVOIR + 10;
        for i in 0..offers {
            rt.offer_window(vec![i as f32]);
        }
        assert_eq!(rt.reservoir_len(), RESERVOIR);
        let drained = rt.drain_reservoir();
        let mut vals: Vec<f32> = drained.iter().map(|w| w[0]).collect();
        vals.sort_by(f32::total_cmp);
        let newest: Vec<f32> = (10..offers).map(|i| i as f32).collect();
        assert_eq!(vals, newest, "newest windows survive");
        assert_eq!(rt.reservoir_len(), 0);
    }

    #[test]
    fn param_hash_changes_with_values() {
        let mut ps = ParamStore::new();
        ps.add("w", vec![1.0, 2.0], vec![2]);
        let h1 = param_hash(&ps);
        ps.get_mut(tfmae_tensor::ParamId(0)).data[0] = 1.5;
        let h2 = param_hash(&ps);
        assert_ne!(h1, h2);
    }
}
