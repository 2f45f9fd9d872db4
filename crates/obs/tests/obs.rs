//! Integration tests for tfmae-obs primitives and exporters. Everything
//! here uses *private* `Registry` instances so the tests are immune to the
//! process-global switch (exercised separately in `gating.rs`).

use std::sync::Arc;

use tfmae_obs::{
    json_snapshot, prometheus_text, validate_json_shape, validate_prometheus, Counter, Gauge,
    HistSnapshot, Histogram, Instrument, Registry, OVERFLOW_BUCKET,
};

#[test]
fn empty_histogram_snapshot() {
    let h = Histogram::new();
    let s = h.snapshot();
    assert!(s.is_empty());
    assert_eq!(s.count, 0);
    assert_eq!(s.sum, 0);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, 0);
    assert_eq!(s.mean(), 0.0);
    assert_eq!(s.quantile(0.5), 0);
    assert_eq!(s.quantile(1.0), 0);
    assert!(s.buckets.is_empty());
}

#[test]
fn single_sample_quantiles_are_exact() {
    let h = Histogram::new();
    h.record(1_234_567);
    let s = h.snapshot();
    assert_eq!(s.count, 1);
    assert_eq!(s.min, 1_234_567);
    assert_eq!(s.max, 1_234_567);
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(s.quantile(q), 1_234_567, "q={q}");
    }
}

#[test]
fn overflow_bucket_captures_huge_samples() {
    let h = Histogram::new();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    let s = h.snapshot();
    assert_eq!(s.count, 2);
    assert_eq!(s.max, u64::MAX);
    assert_eq!(s.buckets.len(), 1);
    assert_eq!(s.buckets[0].0, OVERFLOW_BUCKET);
    assert_eq!(s.buckets[0].1, 2);
    assert_eq!(HistSnapshot::bucket_upper(OVERFLOW_BUCKET), u64::MAX);
    assert_eq!(s.quantile(1.0), u64::MAX);
}

#[test]
fn quantiles_are_monotone_and_bounded() {
    let h = Histogram::new();
    // A skewed distribution across several octaves.
    for i in 0..10_000u64 {
        h.record(i * i % 1_000_003);
    }
    let s = h.snapshot();
    let mut last = 0u64;
    for i in 0..=100 {
        let q = i as f64 / 100.0;
        let v = s.quantile(q);
        assert!(v >= last, "quantile must be monotone at q={q}");
        assert!(v >= s.min && v <= s.max, "quantile within [min, max] at q={q}");
        last = v;
    }
    assert_eq!(s.quantile(1.0), s.max);
}

#[test]
fn quantile_error_is_bounded_by_bucket_width() {
    let h = Histogram::new();
    let mut values: Vec<u64> = (0..5_000u64).map(|i| (i * 7919) % 250_000 + 1).collect();
    for &v in &values {
        h.record(v);
    }
    values.sort_unstable();
    let s = h.snapshot();
    for q in [0.5, 0.9, 0.99] {
        let exact = values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
        let approx = s.quantile(q);
        let err = exact.abs_diff(approx) as f64 / exact as f64;
        assert!(err <= 0.125 + 1e-9, "q={q} exact={exact} approx={approx} err={err}");
    }
}

#[test]
fn record_micro_fixed_point() {
    let h = Histogram::new();
    h.record_micro(1.5); // 1_500_000
    h.record_micro(-3.0); // clamps to 0
    h.record_micro(f64::NAN); // clamps to 0
    let s = h.snapshot();
    assert_eq!(s.count, 3);
    assert_eq!(s.max, 1_500_000);
    assert_eq!(s.min, 0);
}

#[test]
fn concurrent_recording_sums_exactly() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let hist = Arc::new(Histogram::new());
    let counter = Arc::new(Counter::new());
    let gauge = Arc::new(Gauge::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (h, c, g) = (hist.clone(), counter.clone(), gauge.clone());
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t as u64 * PER_THREAD + i);
                    c.inc();
                    g.add(1);
                }
            })
        })
        .collect();
    for th in handles {
        th.join().expect("worker");
    }
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), total);
    assert_eq!(gauge.get(), total as i64);
    let s = hist.snapshot();
    assert_eq!(s.count, total);
    let bucket_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, total, "every sample lands in exactly one bucket");
    // Sum of 0..total
    assert_eq!(s.sum, total * (total - 1) / 2);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, total - 1);
}

#[test]
fn registry_get_or_create_returns_same_instrument() {
    let reg = Registry::new();
    let a = reg.counter("x.hits");
    let b = reg.counter("x.hits");
    a.add(3);
    b.add(4);
    assert_eq!(a.get(), 7);
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(reg.len(), 1);
    reg.gauge("x.depth").set(-2);
    reg.histogram("x.lat_ns").record(5);
    assert_eq!(reg.len(), 3);
}

#[test]
fn registry_register_last_wins() {
    let reg = Registry::new();
    let mine = Arc::new(Counter::new());
    mine.add(41);
    reg.register("exec.tasks", Instrument::Counter(mine.clone()));
    mine.inc();
    let listed = reg.instruments();
    assert_eq!(listed.len(), 1);
    match &listed[0].1 {
        Instrument::Counter(c) => assert_eq!(c.get(), 42),
        other => panic!("wrong kind: {other:?}"),
    }
    // Re-registering replaces (last wins).
    reg.register("exec.tasks", Instrument::Counter(Arc::new(Counter::new())));
    match &reg.instruments()[0].1 {
        Instrument::Counter(c) => assert_eq!(c.get(), 0),
        other => panic!("wrong kind: {other:?}"),
    }
}

fn populated_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("serve.rows").add(120);
    reg.counter("fft.plan_cache.hits").add(7);
    reg.gauge("exec.pool.arena_bytes").set(65_536);
    let h = reg.histogram("serve.tick_ns");
    for i in 1..=100u64 {
        h.record(i * 1_000);
    }
    reg
}

#[test]
fn prometheus_export_round_trips_all_instruments() {
    let reg = populated_registry();
    let text = prometheus_text(&reg);
    let samples = validate_prometheus(&text).expect("exporter output must validate");
    // 2 counters + 1 gauge + histogram (buckets + +Inf + sum + count).
    assert!(samples >= 7, "expected all instruments exported, got {samples}: {text}");
    assert!(text.contains("serve_rows 120"));
    assert!(text.contains("fft_plan_cache_hits 7"));
    assert!(text.contains("exec_pool_arena_bytes 65536"));
    assert!(text.contains("serve_tick_ns_count 100"));
    assert!(text.contains("serve_tick_ns_bucket{le=\"+Inf\"} 100"));
    assert!(text.contains("# TYPE serve_tick_ns histogram"));
}

#[test]
fn json_export_round_trips_all_instruments() {
    let reg = populated_registry();
    let text = json_snapshot(&reg);
    validate_json_shape(&text).expect("exporter output must be balanced JSON");
    assert!(text.contains("\"serve.rows\": 120"));
    assert!(text.contains("\"fft.plan_cache.hits\": 7"));
    assert!(text.contains("\"exec.pool.arena_bytes\": 65536"));
    assert!(text.contains("\"serve.tick_ns\""));
    assert!(text.contains("\"count\": 100"));
    assert!(text.contains("\"p99\":"));
    assert!(!text.contains("journal"), "the snapshot holds instruments only");
}

#[test]
fn validators_reject_malformed_input() {
    assert!(validate_prometheus("").is_err(), "empty input");
    assert!(validate_prometheus("1bad_name 3\n").is_err(), "name starting with digit");
    assert!(validate_prometheus("m 1\nm 2\n").is_err(), "duplicate sample");
    assert!(validate_prometheus("m notanumber\n").is_err(), "bad value");
    assert!(
        validate_prometheus("# TYPE m counter\n# TYPE m counter\nm 1\n").is_err(),
        "duplicate TYPE"
    );
    assert!(validate_prometheus("m{le=\"1\"} 2\nm{le=\"5\"} 3\n").is_ok(), "distinct labels OK");
    assert!(validate_json_shape("{\"a\": 1}").is_ok());
    assert!(validate_json_shape("{\"a\": [1, 2}").is_err());
    assert!(validate_json_shape("").is_err());
}
