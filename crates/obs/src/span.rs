//! Span guards and the ring-buffer event journal.
//!
//! A span is [`LazyHistogram::enter`](crate::Lazy::enter): entering takes a
//! clock reading, dropping the guard records the elapsed nanoseconds into
//! that histogram (the span *name* carries the unit, e.g. `serve.flush_ns`)
//! and appends an event to the process journal — a fixed-capacity ring of
//! the most recent [`JOURNAL_CAPACITY`] events, cheap enough to leave on in
//! production and exactly what you want for post-hoc tracing of the last N
//! serving ticks. While the registry is disabled a span reads no clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::instruments::Histogram;
use crate::registry::{Lazy, Registry};

/// Events retained by a [`Journal`] ring.
pub const JOURNAL_CAPACITY: usize = 256;

/// One completed span occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotone sequence number (process-wide per journal).
    pub seq: u64,
    /// Span name (static — journal pushes never allocate).
    pub name: &'static str,
    /// Span start, microseconds since the registry epoch.
    pub start_us: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Fixed-capacity ring buffer of the most recent span events.
pub struct Journal {
    ring: Mutex<Vec<JournalEvent>>,
    head: AtomicU64,
    capacity: usize,
}

impl Journal {
    /// A fresh journal retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self { ring: Mutex::new(Vec::with_capacity(capacity)), head: AtomicU64::new(0), capacity }
    }

    /// Appends one event, evicting the oldest when full.
    pub fn push(&self, name: &'static str, start_us: u64, dur_ns: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let ev = JournalEvent { seq, name, start_us, dur_ns };
        let mut ring = self.ring.lock().expect("obs journal lock");
        if ring.len() < self.capacity {
            ring.push(ev);
        } else {
            let slot = (seq % self.capacity as u64) as usize;
            ring[slot] = ev;
        }
    }

    /// The retained events in chronological (sequence) order.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let ring = self.ring.lock().expect("obs journal lock");
        let mut out = ring.clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Total events ever pushed (≥ retained count).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }
}

/// Guard returned by [`LazyHistogram::enter`](crate::Lazy::enter); records
/// the elapsed nanoseconds and one journal event on drop.
pub struct SpanGuard<'a>(pub(crate) Option<(&'a Lazy<Histogram>, Instant)>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((span, start)) = self.0 {
            let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            span.handle().record(dur_ns);
            push(span.name, start, dur_ns);
        }
    }
}

/// Appends a zero-duration marker event to the global journal (e.g. a
/// training rollback, a quarantine transition). Gated like every global
/// call site: one relaxed load while disabled.
pub fn event(name: &'static str) {
    if crate::enabled() {
        push(name, Instant::now(), 0);
    }
}

/// Appends one event to the global journal, stamped from the registry epoch.
fn push(name: &'static str, start: Instant, dur_ns: u64) {
    let reg = Registry::global();
    let start_us = u64::try_from((start - reg.epoch()).as_micros()).unwrap_or(u64::MAX);
    reg.journal().push(name, start_us, dur_ns);
}
