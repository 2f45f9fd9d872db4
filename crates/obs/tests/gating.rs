//! Tests for the process-global registry switch. These live in their own
//! test binary — and in a single `#[test]` — because they toggle global
//! state that would race with any other test sharing the process.

use tfmae_obs::{LazyCounter, LazyGauge, LazyHistogram};

static HITS: LazyCounter = LazyCounter::new("gate.hits");
static DEPTH: LazyGauge = LazyGauge::new("gate.depth");
static LAT: LazyHistogram = LazyHistogram::new("gate.lat_ns");
static SPAN: LazyHistogram = LazyHistogram::new("gate.span_ns");

#[test]
fn disabled_registry_records_nothing_and_enabling_resumes() {
    // A handle on a runtime-built name, as the serving engine's per-lane
    // counters are declared.
    let lane = LazyCounter::new(tfmae_obs::intern(&format!("gate.lane{}.chunks", 3)));

    // Fresh process: the global registry starts disabled.
    assert!(!tfmae_obs::enabled());
    HITS.inc();
    HITS.add(10);
    DEPTH.set(99);
    DEPTH.add(5);
    LAT.record(1_000);
    LAT.record_micro(2.5);
    drop(SPAN.enter());
    lane.add(4);
    tfmae_obs::event("gate.marker");
    assert_eq!(HITS.get(), 0, "counter must not record while disabled");
    assert_eq!(DEPTH.get(), 0, "gauge must not record while disabled");
    assert_eq!(LAT.handle().count(), 0, "histogram must not record while disabled");
    assert_eq!(SPAN.handle().count(), 0, "span must not record while disabled");
    assert_eq!(lane.get(), 0, "runtime-named counter must not record while disabled");
    assert_eq!(tfmae_obs::global().journal().total(), 0, "journal must stay empty");

    // Flip the switch: the same call sites start recording.
    tfmae_obs::set_enabled(true);
    HITS.inc();
    DEPTH.set(7);
    DEPTH.add(2);
    LAT.record(2_000);
    LAT.record_micro(2.5);
    {
        let _guard = SPAN.enter();
    }
    lane.add(4);
    tfmae_obs::event("gate.marker");
    assert_eq!(HITS.get(), 1);
    assert_eq!(DEPTH.get(), 9);
    assert_eq!(LAT.handle().count(), 2);
    assert_eq!(SPAN.handle().count(), 1);
    assert_eq!(lane.get(), 4);
    assert_eq!(tfmae_obs::global().counter("gate.lane3.chunks").get(), 4);
    let journal = tfmae_obs::global().journal().snapshot();
    assert!(journal.iter().any(|e| e.name == "gate.span_ns"));
    assert!(journal.iter().any(|e| e.name == "gate.marker" && e.dur_ns == 0));

    // Off again: values freeze but remain readable.
    tfmae_obs::set_enabled(false);
    HITS.add(100);
    lane.add(100);
    drop(SPAN.enter());
    tfmae_obs::event("gate.marker");
    assert_eq!(HITS.get(), 1, "recording pauses while off");
    assert_eq!(lane.get(), 4, "recording pauses while off");
    assert_eq!(SPAN.handle().count(), 1, "spans pause while off");
    assert_eq!(tfmae_obs::global().journal().total(), 2, "journal pauses while off");
}
