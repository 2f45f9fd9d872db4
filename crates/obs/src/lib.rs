//! tfmae-obs: zero-dependency runtime observability for the TFMAE stack.
//!
//! Building blocks:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomics (relaxed `fetch_add` /
//!   `store`), usable standalone or registered by name.
//! * [`Histogram`] — fixed-bucket log-scale histogram with O(1) record and
//!   O(buckets) [`snapshot`](Histogram::snapshot) producing p50/p90/p99/max.
//! * [`Lazy`] — the one gated call-site handle ([`LazyCounter`],
//!   [`LazyGauge`], [`LazyHistogram`]): while disabled, every recording
//!   method costs exactly one relaxed atomic load. A span is
//!   [`LazyHistogram::enter`](Lazy::enter): two clock reads and one
//!   histogram record while enabled.
//! * [`Registry`] — named instruments, the process-global instance
//!   ([`global()`]) and the runtime on/off switch.
//! * [`export`] — Prometheus text and JSON snapshot exporters over a
//!   registry, plus the validators used by `promcheck` and CI.
//!
//! The instrument naming scheme, overhead contract and exporter formats are
//! documented in DESIGN.md §14. Typical call-site shape:
//!
//! ```
//! use tfmae_obs::{LazyCounter, LazyHistogram};
//!
//! static ROWS: LazyCounter = LazyCounter::new("serve.rows");
//! static FLUSH: LazyHistogram = LazyHistogram::new("serve.flush_ns");
//!
//! fn flush_batch(rows: u64) {
//!     let _span = FLUSH.enter(); // records duration on drop
//!     ROWS.add(rows);
//!     // ... work ...
//! }
//! # flush_batch(3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod instruments;
mod registry;
mod span;

pub use export::{json_snapshot, prometheus_text, validate_json_shape, validate_prometheus};
pub use instruments::{Counter, Gauge, HistSnapshot, Histogram, N_BUCKETS, OVERFLOW_BUCKET};
pub use registry::{intern, Instrument, Lazy, LazyCounter, LazyGauge, LazyHistogram, Registry};
pub use span::SpanGuard;

/// The process-global registry (shorthand for [`Registry::global`]).
pub fn global() -> &'static Registry {
    Registry::global()
}

/// Whether global recording is on — one relaxed atomic load. This is the
/// one gate every [`Lazy`] handle passes.
#[inline]
pub fn enabled() -> bool {
    Registry::global().enabled()
}

/// Turns global recording on or off at runtime.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on)
}
