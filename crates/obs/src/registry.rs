//! The instrument [`Registry`]: named handles, a runtime on/off switch and
//! the process-global instance behind the cached call-site handles.
//!
//! Design contract (DESIGN.md §14):
//!
//! * **Names are the schema.** `layer.subsystem.metric[_unit]`, lowercase,
//!   dot-separated, with the unit spelled in the final segment (`_ns`,
//!   `_bytes`, `_micro`, `_millis`). Exporters map names mechanically, so
//!   no two instruments may differ only in characters the Prometheus
//!   mapping collapses (`.` and `-` both become `_`).
//! * **Get-or-create.** [`Registry::counter`] (and friends) return the
//!   existing instrument for a name, creating it on first use. Re-binding a
//!   name to a different instrument *kind* replaces the old entry (last
//!   wins) — a programming error surfaced by the round-trip tests rather
//!   than a panic on the hot path.
//! * **Disabled means one load.** Every [`Lazy`] handle method first passes
//!   one gate, a relaxed load of the registry switch — no locks, no map
//!   probes, no clock reads while it is off. Directly held instruments
//!   ([`Counter`](crate::Counter) etc.) are never gated.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::instruments::{Counter, Gauge, Histogram};
use crate::span::SpanGuard;

/// A named instrument, as stored in a [`Registry`].
#[derive(Clone, Debug)]
pub enum Instrument {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Up/down gauge.
    Gauge(Arc<Gauge>),
    /// Log-scale histogram.
    Histogram(Arc<Histogram>),
}

/// A set of named instruments plus the runtime switch.
///
/// Use [`Registry::global`] (via the crate-level [`global()`](crate::global)
/// convenience) for process-wide telemetry; construct private instances in
/// tests to avoid cross-test interference.
pub struct Registry {
    enabled: AtomicBool,
    instruments: Mutex<BTreeMap<&'static str, Instrument>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, **disabled** registry with no instruments.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global registry (created disabled on first use).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether recording through gated handles is on. A single relaxed
    /// atomic load — this IS the documented disabled-path cost.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the runtime switch. Instruments keep their values across
    /// off/on cycles; recording simply pauses while off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.get_or_create(name)
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.get_or_create(name)
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.get_or_create(name)
    }

    fn get_or_create<T: Kind>(&self, name: &'static str) -> Arc<T> {
        let mut map = self.instruments.lock().expect("obs registry lock");
        if let Some(found) = map.get(name).and_then(T::unwrap) {
            return found.clone();
        }
        let made = Arc::new(T::default());
        map.insert(name, T::wrap(made.clone()));
        made
    }

    /// Registers an externally owned instrument under `name` (last wins).
    /// This is how a subsystem that keeps per-instance instruments — e.g.
    /// the tensor executor's dispatch/pool counters — publishes the
    /// instance that matters into the process registry.
    pub fn register(&self, name: &'static str, instrument: Instrument) {
        let mut map = self.instruments.lock().expect("obs registry lock");
        map.insert(name, instrument);
    }

    /// Snapshot of every registered instrument, ordered by name.
    pub fn instruments(&self) -> Vec<(&'static str, Instrument)> {
        let map = self.instruments.lock().expect("obs registry lock");
        map.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.instruments.lock().expect("obs registry lock").len()
    }

    /// Whether no instruments are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interns a runtime-built instrument name, returning the `&'static str`
/// the registry requires as a key.
///
/// The registry keys instruments by `&'static str` so the cached call-site
/// handles ([`LazyCounter`] etc.) stay allocation-free, but labeled metrics
/// — `serve.lane<k>.chunks`, `server.tenant.<model>.requests` — only know
/// their names at runtime. Interning bounds the inherent leak to **one**
/// allocation per distinct name process-wide, however many engines,
/// tenants, or servers are constructed; re-interning an already-known name
/// returns the original allocation.
pub fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = NAMES.lock().expect("obs name intern lock");
    if let Some(&interned) = map.get(name) {
        return interned;
    }
    let interned: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), interned);
    interned
}

/// An instrument kind a [`Registry`] stores, one per [`Instrument`] variant.
pub trait Kind: Default {
    /// Wraps a shared instrument as its registry entry.
    fn wrap(this: Arc<Self>) -> Instrument;
    /// The instrument behind `entry`, when it is of this kind.
    fn unwrap(entry: &Instrument) -> Option<&Arc<Self>>;
}

macro_rules! kind {
    ($($t:ident),*) => {$(
        impl Kind for $t {
            fn wrap(this: Arc<Self>) -> Instrument {
                Instrument::$t(this)
            }
            fn unwrap(entry: &Instrument) -> Option<&Arc<Self>> {
                match entry {
                    Instrument::$t(found) => Some(found),
                    _ => None,
                }
            }
        }
    )*};
}
kind!(Counter, Gauge, Histogram);

/// An instrument handle cached at the call site: resolve once, then record
/// through the `Arc` forever. Gated — when the global registry is disabled
/// every recording method is a single relaxed atomic load.
pub struct Lazy<T> {
    name: &'static str,
    cell: OnceLock<Arc<T>>,
}

/// A gated handle on a global [`Counter`].
///
/// ```
/// static TICKS: tfmae_obs::LazyCounter = tfmae_obs::LazyCounter::new("serve.ticks");
/// TICKS.inc(); // no-op while disabled
/// ```
pub type LazyCounter = Lazy<Counter>;
/// A gated handle on a global [`Gauge`].
pub type LazyGauge = Lazy<Gauge>;
/// A gated handle on a global [`Histogram`]; [`enter`](Lazy::enter) is a span.
pub type LazyHistogram = Lazy<Histogram>;

impl<T: Kind> Lazy<T> {
    /// Declares a handle for the named instrument (no registration yet).
    /// Runtime-built names go through [`intern`].
    pub const fn new(name: &'static str) -> Self {
        Self { name, cell: OnceLock::new() }
    }

    /// The resolved instrument (registers on first use).
    pub fn handle(&self) -> &Arc<T> {
        self.cell.get_or_init(|| Registry::global().get_or_create(self.name))
    }

    /// The resolved instrument while the global registry is enabled: the
    /// one gate, a single relaxed atomic load while it is off.
    #[inline]
    pub(crate) fn live(&self) -> Option<&Arc<T>> {
        crate::enabled().then(|| self.handle())
    }
}

impl Lazy<Counter> {
    /// Adds one when the global registry is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` when the global registry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = self.live() {
            c.add(n);
        }
    }

    /// Current value (resolves the handle).
    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

impl Lazy<Gauge> {
    /// Overwrites the value when the global registry is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = self.live() {
            g.set(v);
        }
    }

    /// Adds `delta` when the global registry is enabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = self.live() {
            g.add(delta);
        }
    }

    /// Current value (resolves the handle).
    pub fn get(&self) -> i64 {
        self.handle().get()
    }
}

impl Lazy<Histogram> {
    /// Records a sample when the global registry is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = self.live() {
            h.record(v);
        }
    }

    /// Records `v * 1e6` (fixed-point micro-units) when enabled.
    #[inline]
    pub fn record_micro(&self, v: f64) {
        if let Some(h) = self.live() {
            h.record_micro(v);
        }
    }

    /// Starts a span timing into this histogram; the guard records on drop.
    /// While the registry is disabled this is a single relaxed atomic load
    /// and the guard does nothing.
    ///
    /// ```
    /// static FLUSH: tfmae_obs::LazyHistogram = tfmae_obs::LazyHistogram::new("serve.flush_ns");
    /// {
    ///     let _span = FLUSH.enter(); // records on drop, no-op while disabled
    /// }
    /// ```
    #[inline]
    pub fn enter(&self) -> SpanGuard<'_> {
        SpanGuard(self.live().map(|_| (self, Instant::now())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_with_one_name_resolve_to_one_instrument() {
        static A: LazyCounter = LazyCounter::new("test.same_name");
        let b = LazyCounter::new(intern("test.same_name"));
        assert!(Arc::ptr_eq(A.handle(), b.handle()));
        assert!(Arc::ptr_eq(A.handle(), &Registry::global().counter("test.same_name")));
    }
}
