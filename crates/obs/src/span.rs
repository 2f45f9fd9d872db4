//! Span guards.
//!
//! A span is [`LazyHistogram::enter`](crate::Lazy::enter): entering takes a
//! clock reading and dropping the guard records the elapsed nanoseconds into
//! that histogram (the span *name* carries the unit, e.g. `serve.flush_ns`)
//! — two clock reads and one lock-free histogram record, nothing shared
//! between threads beyond the histogram's atomics. While the registry is
//! disabled a span reads no clock.

use std::time::Instant;

use crate::instruments::Histogram;
use crate::registry::Lazy;

/// Guard returned by [`LazyHistogram::enter`](crate::Lazy::enter); records
/// the elapsed nanoseconds on drop.
pub struct SpanGuard<'a>(pub(crate) Option<(&'a Lazy<Histogram>, Instant)>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((span, start)) = self.0 {
            let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            span.handle().record(dur_ns);
        }
    }
}
