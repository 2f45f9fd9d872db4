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
//! * **Disabled means one load.** Recording through the cached handles
//!   ([`LazyCounter`], [`LazyGauge`], [`LazyHistogram`]) first performs a
//!   single relaxed atomic load of the registry switch and returns
//!   immediately when it is off — no locks, no map probes, no clock reads.
//!   Directly held instruments ([`Counter`](crate::Counter) etc.) are never
//!   gated; gating is a property of the *global call sites*, not of the
//!   primitives.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::instruments::{Counter, Gauge, Histogram};
use crate::span::Journal;

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

/// A set of named instruments plus the runtime switch and the span journal.
///
/// Use [`Registry::global`] (via the crate-level [`global()`](crate::global)
/// convenience) for process-wide telemetry; construct private instances in
/// tests to avoid cross-test interference.
pub struct Registry {
    enabled: AtomicBool,
    instruments: Mutex<BTreeMap<&'static str, Instrument>>,
    journal: Journal,
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, **disabled** registry with an empty journal.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            instruments: Mutex::new(BTreeMap::new()),
            journal: Journal::new(crate::span::JOURNAL_CAPACITY),
            epoch: Instant::now(),
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

    /// Time origin for journal timestamps (registry creation).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The span event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.instruments.lock().expect("obs registry lock");
        if let Some(Instrument::Counter(c)) = map.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::new());
        map.insert(name, Instrument::Counter(c.clone()));
        c
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.instruments.lock().expect("obs registry lock");
        if let Some(Instrument::Gauge(g)) = map.get(name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::new());
        map.insert(name, Instrument::Gauge(g.clone()));
        g
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.instruments.lock().expect("obs registry lock");
        if let Some(Instrument::Histogram(h)) = map.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new());
        map.insert(name, Instrument::Histogram(h.clone()));
        h
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

/// A counter handle cached at the call site: resolve once, then record
/// through the `Arc` forever. Gated — when the global registry is disabled
/// the record path is a single relaxed atomic load.
///
/// ```
/// static TICKS: tfmae_obs::LazyCounter = tfmae_obs::LazyCounter::new("serve.ticks");
/// TICKS.inc(); // no-op while disabled
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Declares a handle for the named counter (no registration yet).
    pub const fn new(name: &'static str) -> Self {
        Self { name, cell: OnceLock::new() }
    }

    /// The resolved instrument (registers on first use).
    pub fn handle(&self) -> &Arc<Counter> {
        self.cell.get_or_init(|| Registry::global().counter(self.name))
    }

    /// Adds one when the global registry is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` when the global registry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !Registry::global().enabled() {
            return;
        }
        self.handle().add(n);
    }

    /// Current value (resolves the handle).
    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

/// A gauge handle cached at the call site (see [`LazyCounter`]).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// Declares a handle for the named gauge.
    pub const fn new(name: &'static str) -> Self {
        Self { name, cell: OnceLock::new() }
    }

    /// The resolved instrument (registers on first use).
    pub fn handle(&self) -> &Arc<Gauge> {
        self.cell.get_or_init(|| Registry::global().gauge(self.name))
    }

    /// Overwrites the value when the global registry is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !Registry::global().enabled() {
            return;
        }
        self.handle().set(v);
    }

    /// Adds `delta` when the global registry is enabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !Registry::global().enabled() {
            return;
        }
        self.handle().add(delta);
    }

    /// Current value (resolves the handle).
    pub fn get(&self) -> i64 {
        self.handle().get()
    }
}

/// A histogram handle cached at the call site (see [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Declares a handle for the named histogram.
    pub const fn new(name: &'static str) -> Self {
        Self { name, cell: OnceLock::new() }
    }

    /// The resolved instrument (registers on first use).
    pub fn handle(&self) -> &Arc<Histogram> {
        self.cell.get_or_init(|| Registry::global().histogram(self.name))
    }

    /// Records a sample when the global registry is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !Registry::global().enabled() {
            return;
        }
        self.handle().record(v);
    }

    /// Records `v * 1e6` (fixed-point micro-units) when enabled.
    #[inline]
    pub fn record_micro(&self, v: f64) {
        if !Registry::global().enabled() {
            return;
        }
        self.handle().record_micro(v);
    }
}
