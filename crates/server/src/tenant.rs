//! Per-model (tenant) runtime: bounded ingest/verdict queues in front of a
//! [`ServingEngine`], scored by one dedicated scorer thread per loaded
//! model (DESIGN.md §19.3).
//!
//! The split into two locks is the concurrency contract: `q` (queues) is
//! what HTTP workers touch — push, poll, register — and is only ever held
//! for O(queue) pointer work; `engine` is what the scorer holds across a
//! tick's transformer forwards. A client pushing rows therefore never
//! blocks behind a multi-millisecond forward pass, and backpressure is
//! decided from queue depths alone.
//!
//! Determinism: the scorer drains inboxes in lockstep — one row per stream
//! per tick, streams in id order — which is exactly the offline
//! `tfmae serve` replay order. The engine's verdicts are bitwise
//! independent of chunk composition, so the verdict stream a client polls
//! is byte-identical to the offline CSV for the same rows (test-asserted;
//! see DESIGN.md §19.5 for the full contract).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tfmae_core::{
    Precision, RejectReason, ServingConfig, ServingEngine, StreamVerdict, TfmaeDetector,
};
use tfmae_obs::{LazyCounter, LazyHistogram};

/// Cumulative counters a tenant contributes to the drain report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TenantTotals {
    /// Rows admitted past admission control.
    pub rows_in: u64,
    /// Verdicts the engine emitted into outboxes.
    pub verdicts: u64,
    /// Verdicts still sitting unpolled in outboxes.
    pub unpolled: u64,
    /// Rows (and whole requests) refused with a typed reason.
    pub rejected: u64,
    /// Rows queued or in flight, not yet scored.
    pub queued: u64,
    /// Registered streams.
    pub streams: u64,
}

/// Per-tenant instruments, named `server.tenant.<model>.<metric>` via the
/// obs name interner. Gated handles: each registers on its first recording
/// while the registry is enabled.
pub(crate) struct TenantObs {
    /// Requests routed to this tenant (push/poll/register/unregister).
    pub requests: LazyCounter,
    /// Rows admitted.
    pub rows_in: LazyCounter,
    /// Rows refused (any [`RejectReason`]).
    pub rejected: LazyCounter,
    /// Verdicts handed to pollers.
    pub verdicts_out: LazyCounter,
    /// Wall time of tenant-routed request handling.
    pub request_ns: LazyHistogram,
}

impl TenantObs {
    fn new(model: &str) -> Self {
        let name = |suffix: &str| tfmae_obs::intern(&format!("server.tenant.{model}.{suffix}"));
        Self {
            requests: LazyCounter::new(name("requests")),
            rows_in: LazyCounter::new(name("rows_in")),
            rejected: LazyCounter::new(name("rejected_rows")),
            verdicts_out: LazyCounter::new(name("verdicts_out")),
            request_ns: LazyHistogram::new(name("request_ns")),
        }
    }
}

/// Outcome of one push call against a tenant.
pub(crate) struct PushOutcome {
    /// Rows admitted by this call (a reject stops admission mid-request, so
    /// earlier rows of the same body may have been accepted).
    pub accepted: usize,
    /// Rows queued for this stream after the call (inbox + in flight).
    pub queued: usize,
    /// Why admission stopped, when it did.
    pub rejected: Option<RejectReason>,
}

#[derive(Default)]
struct StreamQ {
    inbox: VecDeque<Vec<f32>>,
    /// Rows handed to the scorer, not yet resolved into verdicts. Counted
    /// against the budget so a poll-less client cannot launder rows through
    /// the scorer to evade backpressure.
    inflight: usize,
    outbox: VecDeque<StreamVerdict>,
    rows_in: u64,
    verdicts: u64,
    rejected: u64,
}

#[derive(Default)]
struct Queues {
    streams: BTreeMap<usize, StreamQ>,
    /// Counters of streams that were unregistered, folded in so the drain
    /// report survives stream churn.
    retired: TenantTotals,
    /// Set by the scorer on exit: every admitted row has been scored.
    drained: bool,
}

/// One loaded model: engine + queues + scorer, shared by every worker.
pub(crate) struct ModelRt {
    /// Registry name the tenant was loaded under.
    pub name: String,
    /// Input feature count — the row width admission control enforces.
    pub dims: usize,
    /// Model window length.
    pub win_len: usize,
    /// Scoring hop.
    pub hop: usize,
    /// Decision threshold δ.
    pub threshold: f32,
    /// Serving precision.
    pub precision: Precision,
    /// Per-stream budget: inbox + in-flight + unpolled outbox may not
    /// exceed this.
    pub queue_cap: usize,
    /// Per-tenant instruments.
    pub obs: TenantObs,
    q: Mutex<Queues>,
    cv: Condvar,
    engine: Mutex<ServingEngine>,
}

impl ModelRt {
    /// Builds the tenant around a freshly constructed engine. The caller
    /// has validated `cfg` (hop range, finite threshold) — engine
    /// construction panics on contract violations by design.
    pub fn new(name: String, det: TfmaeDetector, cfg: ServingConfig, queue_cap: usize) -> Self {
        let hop = cfg.hop;
        let threshold = cfg.threshold;
        let precision = cfg.precision;
        let obs = TenantObs::new(&name);
        let engine = ServingEngine::new(det, cfg);
        Self {
            name,
            dims: engine.dims(),
            win_len: engine.win_len(),
            hop,
            threshold,
            precision,
            queue_cap,
            obs,
            q: Mutex::new(Queues::default()),
            cv: Condvar::new(),
            engine: Mutex::new(engine),
        }
    }

    /// Registers a stream; returns the engine-level stream id.
    pub fn add_stream(&self) -> usize {
        let sid = self.engine.lock().expect("tenant engine lock").add_stream();
        self.q
            .lock()
            .expect("tenant queue lock")
            .streams
            .insert(sid, StreamQ::default());
        sid
    }

    /// Unregisters a stream, discarding queued rows and unpolled verdicts.
    /// Returns how many verdicts were discarded, or `None` if unknown.
    pub fn remove_stream(&self, sid: usize) -> Option<usize> {
        let removed = {
            let mut q = self.q.lock().expect("tenant queue lock");
            let sq = q.streams.remove(&sid)?;
            q.retired.rows_in += sq.rows_in;
            q.retired.verdicts += sq.verdicts;
            q.retired.rejected += sq.rejected;
            sq.outbox.len()
        };
        self.engine
            .lock()
            .expect("tenant engine lock")
            .remove_stream(sid);
        Some(removed)
    }

    /// Admission control (DESIGN.md §19.4): rows are checked in order and
    /// admission stops at the first refusal, so a single request can be
    /// partially accepted — the response reports both the accepted count
    /// and the typed reason the rest was refused.
    pub fn push(&self, sid: usize, rows: &[Vec<f32>], draining: bool) -> Option<PushOutcome> {
        let mut accepted = 0usize;
        let mut rejected = None;
        let queued;
        {
            let mut q = self.q.lock().expect("tenant queue lock");
            let cap = self.queue_cap;
            let sq = q.streams.get_mut(&sid)?;
            for row in rows {
                if draining {
                    rejected = Some(RejectReason::Draining);
                } else if row.len() != self.dims {
                    rejected = Some(RejectReason::WidthMismatch);
                } else if sq.inbox.len() + sq.inflight + sq.outbox.len() >= cap {
                    rejected = Some(RejectReason::Backpressure);
                }
                if rejected.is_some() {
                    break;
                }
                sq.inbox.push_back(row.clone());
                accepted += 1;
            }
            sq.rows_in += accepted as u64;
            if rejected.is_some() {
                sq.rejected += (rows.len() - accepted) as u64;
            }
            queued = sq.inbox.len() + sq.inflight;
        }
        if accepted > 0 {
            self.cv.notify_all();
        }
        self.obs.rows_in.add(accepted as u64);
        if rejected.is_some() {
            self.obs.rejected.add((rows.len() - accepted) as u64);
        }
        Some(PushOutcome {
            accepted,
            queued,
            rejected,
        })
    }

    /// Pops up to `max` verdicts from the stream's outbox, oldest first.
    /// `None` means the stream id is unknown.
    pub fn poll(&self, sid: usize, max: usize) -> Option<Vec<StreamVerdict>> {
        let out = {
            let mut q = self.q.lock().expect("tenant queue lock");
            let sq = q.streams.get_mut(&sid)?;
            let n = max.min(sq.outbox.len());
            sq.outbox.drain(..n).collect::<Vec<_>>()
        };
        self.obs.verdicts_out.add(out.len() as u64);
        Some(out)
    }

    /// Live + retired totals for the models listing and the drain report.
    pub fn totals(&self) -> TenantTotals {
        let q = self.q.lock().expect("tenant queue lock");
        let mut t = q.retired;
        for sq in q.streams.values() {
            t.rows_in += sq.rows_in;
            t.verdicts += sq.verdicts;
            t.unpolled += sq.outbox.len() as u64;
            t.rejected += sq.rejected;
            t.queued += (sq.inbox.len() + sq.inflight) as u64;
            t.streams += 1;
        }
        t
    }

    /// Whether the scorer has exited with every admitted row scored.
    pub fn is_drained(&self) -> bool {
        self.q.lock().expect("tenant queue lock").drained
    }

    /// Wakes the scorer (used by the drain loop so a quiet tenant notices
    /// the draining flag promptly instead of on its next wait timeout).
    pub fn nudge(&self) {
        self.cv.notify_all();
    }
}

/// Spawns the tenant's scorer thread. The loop: wait for rows (or the
/// draining flag), take one row per non-empty stream in id order, tick the
/// engine, fan verdicts back into outboxes. On drain it keeps ticking until
/// every inbox is empty, then marks the tenant drained and exits — verdicts
/// produced during drain stay pollable.
pub(crate) fn spawn_scorer(rt: Arc<ModelRt>, draining: Arc<AtomicBool>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("tfmae-scorer-{}", rt.name))
        .spawn(move || loop {
            let batch: Vec<(usize, Vec<f32>)> = {
                let mut q = rt.q.lock().expect("tenant queue lock");
                loop {
                    if q.streams.values().any(|s| !s.inbox.is_empty()) {
                        break;
                    }
                    if draining.load(Ordering::Relaxed) {
                        q.drained = true;
                        return;
                    }
                    let (guard, _) = rt
                        .cv
                        .wait_timeout(q, Duration::from_millis(50))
                        .expect("tenant queue lock");
                    q = guard;
                }
                let mut batch = Vec::new();
                for (sid, sq) in q.streams.iter_mut() {
                    if let Some(row) = sq.inbox.pop_front() {
                        sq.inflight += 1;
                        batch.push((*sid, row));
                    }
                }
                batch
            };
            let report = {
                let rows: Vec<(usize, &[f32])> = batch
                    .iter()
                    .map(|(sid, row)| (*sid, row.as_slice()))
                    .collect();
                rt.engine.lock().expect("tenant engine lock").tick(&rows)
            };
            let mut q = rt.q.lock().expect("tenant queue lock");
            for (sid, _) in &batch {
                if let Some(sq) = q.streams.get_mut(sid) {
                    sq.inflight -= 1;
                }
            }
            for v in report.verdicts {
                if let Some(sq) = q.streams.get_mut(&v.stream) {
                    sq.outbox.push_back(v.verdict);
                    sq.verdicts += 1;
                }
            }
        })
        .expect("spawn tenant scorer thread")
}
