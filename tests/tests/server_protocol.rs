//! Loopback protocol tests for the network serving front-end
//! (`tfmae-server`): a real `Server` bound to an ephemeral localhost port,
//! driven by a raw `TcpStream` HTTP client.
//!
//! The contracts under test (DESIGN.md §19):
//!
//! * **Byte parity** — the verdict CSV a client polls over the wire is
//!   byte-identical to the offline `tfmae serve` replay of the same rows,
//!   both at the engine's default batching.
//! * **Admission control** — a stalled consumer trips typed `429
//!   backpressure` refusals, and polling the outbox un-trips them; width
//!   mismatches, oversized payloads and unknown streams all get their
//!   typed token instead of a dropped row or a panic.
//! * **Graceful drain** — after `POST /v1/shutdown`, new rows are refused
//!   with `draining`, every admitted row still scores, and every verdict
//!   is delivered to a poller before the server exits.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfmae_core::{ServingConfig, ServingEngine, TfmaeConfig, TfmaeDetector};
use tfmae_data::{render, Component, Detector, TimeSeries};
use tfmae_server::{Server, ServerConfig};

const DIMS: usize = 2;
const HOP: usize = 8;
const THRESHOLD: f32 = 0.5;

fn series(len: usize, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = render(
        &[
            Component::Sine {
                period: 16.0,
                amp: 1.0,
                phase: 0.0,
            },
            Component::Noise { sigma: 0.05 },
        ],
        len,
        &mut rng,
    );
    let b = render(
        &[
            Component::Sine {
                period: 8.0,
                amp: 0.5,
                phase: 1.0,
            },
            Component::Noise { sigma: 0.05 },
        ],
        len,
        &mut rng,
    );
    TimeSeries::from_channels(&[a, b])
}

/// Fits a tiny detector and saves it as `<name>.json` in a fresh registry
/// directory; returns the directory.
fn registry_with_model(tag: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tfmae_srv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir registry");
    let train = series(256, 7);
    let mut det = TfmaeDetector::new(TfmaeConfig::tiny());
    det.fit(&train, &train);
    det.save(dir.join(format!("{name}.json")))
        .expect("save checkpoint");
    dir
}

fn server_on(
    dir: &std::path::Path,
    tweak: impl FnOnce(&mut ServerConfig),
) -> tfmae_server::ServerHandle {
    let mut cfg = ServerConfig::new("127.0.0.1:0", dir);
    cfg.drain_grace = Duration::from_secs(30);
    tweak(&mut cfg);
    Server::start(cfg).expect("server start")
}

/// One-shot HTTP request over a fresh connection (`Connection: close`).
fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("write head");
    // Best-effort body write: an early typed refusal (e.g. 413 before the
    // body is read) may legitimately close the stream mid-write.
    let _ = s.write_all(body);
    let mut resp = Vec::new();
    let _ = s.read_to_end(&mut resp);
    assert!(!resp.is_empty(), "server sent no response");
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body split");
    let head = std::str::from_utf8(&resp[..split]).expect("response head is UTF-8");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in response line");
    (status, resp[split + 4..].to_vec())
}

fn body_str(body: &[u8]) -> String {
    String::from_utf8(body.to_vec()).expect("UTF-8 body")
}

/// `{"stream":N,...}` → N. Good enough for the fixed responses under test.
fn json_field_u64(body: &[u8], key: &str) -> u64 {
    let text = body_str(body);
    let pat = format!("\"{key}\":");
    let at = text.find(&pat).unwrap_or_else(|| panic!("{key} in {text}"));
    text[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {text}"))
}

fn row_csv(series: &TimeSeries, t: usize) -> String {
    (0..DIMS)
        .map(|d| series.channel(d)[t].to_string())
        .collect::<Vec<_>>()
        .join(",")
        + "\n"
}

/// Offline reference: the exact `tfmae serve` replay — same checkpoint,
/// same config, one row per stream per tick — rendered per-stream in the
/// CSV line format the wire protocol emits.
fn offline_reference(dir: &std::path::Path, name: &str, inputs: &[TimeSeries]) -> Vec<String> {
    let (det, _, precision) =
        TfmaeDetector::load_full(dir.join(format!("{name}.json"))).expect("load checkpoint");
    let mut cfg = ServingConfig::new(THRESHOLD, HOP);
    if let Some(p) = precision {
        cfg.precision = p;
    }
    let mut eng = ServingEngine::new(det, cfg);
    let ids: Vec<usize> = inputs.iter().map(|_| eng.add_stream()).collect();
    let len = inputs.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = vec![String::new(); inputs.len()];
    for t in 0..len {
        let rows: Vec<(usize, Vec<f32>)> = inputs
            .iter()
            .zip(&ids)
            .filter(|(s, _)| t < s.len())
            .map(|(s, &id)| (id, (0..DIMS).map(|d| s.channel(d)[t]).collect()))
            .collect();
        let borrowed: Vec<(usize, &[f32])> = rows.iter().map(|(i, r)| (*i, r.as_slice())).collect();
        for v in eng.tick(&borrowed).verdicts {
            let slot = ids
                .iter()
                .position(|&id| id == v.stream)
                .expect("known stream");
            out[slot].push_str(&format!(
                "{},{},{},{:?}\n",
                v.verdict.t, v.verdict.score, v.verdict.is_anomaly as u8, v.verdict.quality
            ));
        }
    }
    out
}

/// Polls `stream` until its collected output stops short of `expected` no
/// longer, or the deadline passes.
fn poll_until(addr: SocketAddr, stream: u64, expected_lines: usize, deadline: Duration) -> String {
    let start = Instant::now();
    let mut got = String::new();
    while got.lines().count() < expected_lines {
        assert!(
            start.elapsed() < deadline,
            "poll timed out with {}/{expected_lines} lines:\n{got}",
            got.lines().count()
        );
        let (status, body) = http(addr, "GET", &format!("/v1/streams/{stream}/verdicts"), b"");
        assert_eq!(status, 200, "poll status");
        got.push_str(&body_str(&body));
        if got.lines().count() < expected_lines {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    got
}

// ------------------------------------------------------------- byte parity

#[test]
fn register_push_poll_matches_offline_serve_byte_for_byte() {
    let dir = registry_with_model("parity", "m0");
    // A format-2 JSON checkpoint next to it is listed as unloadable.
    std::fs::write(dir.join("old.json"), r#"{"version":2,"crc32":0,"payload":"{}"}"#)
        .expect("write");
    let handle = server_on(&dir, |_| {});
    let addr = handle.addr();

    // Health + listing before any tenant is loaded.
    let (status, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(body_str(&body).contains("\"status\":\"ok\""));
    let (status, body) = http(addr, "GET", "/v1/models", b"");
    assert_eq!(status, 200);
    let listing = body_str(&body);
    assert!(
        listing.contains("\"name\":\"m0\""),
        "registry scan lists the model: {listing}"
    );
    assert!(listing.contains("\"loaded\":false"));
    assert!(
        listing.contains("\"name\":\"old\",\"loadable\":false,\"error\":\"checkpoint corrupt: JSON"),
        "the JSON file is listed with its reason: {listing}"
    );

    // Load + activate, then the listing flips to loaded.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/models/m0/load?threshold={THRESHOLD}&hop={HOP}"),
        b"",
    );
    assert_eq!(status, 200, "load: {}", body_str(&body));
    assert_eq!(json_field_u64(&body, "dims") as usize, DIMS);
    let (_, body) = http(addr, "GET", "/v1/models", b"");
    assert!(body_str(&body).contains("\"loaded\":true"));
    // Idempotent re-load.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/models/m0/load?threshold={THRESHOLD}"),
        b"",
    );
    assert_eq!(status, 200);
    assert!(body_str(&body).contains("already_loaded"));

    // Two streams, interleaved chunked pushes, exactly like two live feeds.
    let inputs = [series(96, 11), series(96, 23)];
    let streams: Vec<u64> = (0..2)
        .map(|_| {
            let (status, body) = http(addr, "POST", "/v1/streams?model=m0", b"");
            assert_eq!(status, 200, "register: {}", body_str(&body));
            json_field_u64(&body, "stream")
        })
        .collect();
    for chunk_start in (0..96).step_by(16) {
        for (input, &sid) in inputs.iter().zip(&streams) {
            let batch: String = (chunk_start..(chunk_start + 16).min(96))
                .map(|t| row_csv(input, t))
                .collect();
            let (status, body) = http(
                addr,
                "POST",
                &format!("/v1/streams/{sid}/rows"),
                batch.as_bytes(),
            );
            assert_eq!(status, 200, "push: {}", body_str(&body));
            assert_eq!(json_field_u64(&body, "accepted"), 16);
        }
    }

    let expected = offline_reference(&dir, "m0", &inputs);
    assert!(
        expected.iter().all(|s| s.lines().count() >= 8),
        "reference replay must produce a real verdict stream"
    );
    for (slot, &sid) in streams.iter().enumerate() {
        let got = poll_until(
            addr,
            sid,
            expected[slot].lines().count(),
            Duration::from_secs(60),
        );
        assert_eq!(
            got, expected[slot],
            "stream {sid}: wire verdicts must be byte-identical to offline serve"
        );
    }

    // The Prometheus scrape is live, valid, and carries per-tenant metrics.
    let (status, body) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let prom = body_str(&body);
    tfmae_obs::validate_prometheus(&prom).expect("scrape passes promcheck validation");
    assert!(
        prom.contains("server_http_requests"),
        "global http metrics exported"
    );
    assert!(
        prom.contains("server_tenant_m0_rows_in"),
        "per-tenant metrics exported:\n{prom}"
    );

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.rows_scored, 192);
    assert_eq!(report.verdicts_unpolled, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------ admission control

#[test]
fn stalled_consumer_hits_typed_backpressure_and_polling_recovers() {
    let dir = registry_with_model("backp", "m0");
    let handle = server_on(&dir, |cfg| cfg.queue_cap = 8);
    let addr = handle.addr();
    let (status, _) = http(
        addr,
        "POST",
        &format!("/v1/models/m0/load?threshold={THRESHOLD}&hop={HOP}"),
        b"",
    );
    assert_eq!(status, 200);
    let (_, body) = http(addr, "POST", "/v1/streams?model=m0", b"");
    let sid = json_field_u64(&body, "stream");

    // Push rows one at a time and never poll: once the model warms up,
    // unpolled verdicts pile into the outbox and admission must refuse
    // with 429/backpressure (not block, not drop).
    let input = series(512, 31);
    let mut saw_backpressure = false;
    let mut admitted = 0u64;
    for t in 0..512 {
        let (status, body) = http(
            addr,
            "POST",
            &format!("/v1/streams/{sid}/rows"),
            row_csv(&input, t).as_bytes(),
        );
        match status {
            200 => admitted += 1,
            429 => {
                assert!(body_str(&body).contains("\"error\":\"backpressure\""));
                saw_backpressure = true;
                break;
            }
            other => panic!("unexpected status {other}: {}", body_str(&body)),
        }
    }
    assert!(
        saw_backpressure,
        "a never-polling consumer must trip backpressure"
    );
    assert!(
        admitted >= 8,
        "budget admits at least the queue_cap before tripping"
    );

    // Draining the outbox un-trips admission.
    let (status, body) = http(addr, "GET", &format!("/v1/streams/{sid}/verdicts"), b"");
    assert_eq!(status, 200);
    assert!(!body.is_empty(), "stalled outbox had verdicts to deliver");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) = http(
            addr,
            "POST",
            &format!("/v1/streams/{sid}/rows"),
            row_csv(&input, 0).as_bytes(),
        );
        if status == 200 {
            break;
        }
        assert_eq!(status, 429);
        assert!(
            Instant::now() < deadline,
            "admission must recover after polling"
        );
        let _ = http(addr, "GET", &format!("/v1/streams/{sid}/verdicts"), b"");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    let report = handle.join();
    assert!(report.rejected_rows >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn boundary_rejections_are_typed_not_panics() {
    let dir = registry_with_model("bounds", "m0");
    let handle = server_on(&dir, |cfg| cfg.max_body = 4096);
    let addr = handle.addr();
    let (status, _) = http(
        addr,
        "POST",
        &format!("/v1/models/m0/load?threshold={THRESHOLD}&hop={HOP}"),
        b"",
    );
    assert_eq!(status, 200);
    let (_, body) = http(addr, "POST", "/v1/streams?model=m0", b"");
    let sid = json_field_u64(&body, "stream");

    // Wrong channel count for the model: typed width_mismatch, nothing admitted.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/streams/{sid}/rows"),
        b"1.0,2.0,3.0\n",
    );
    assert_eq!(status, 400);
    let text = body_str(&body);
    assert!(text.contains("\"error\":\"width_mismatch\""), "{text}");
    assert!(text.contains("\"accepted\":0"));

    // Unparseable float is a protocol error, not an imputed row.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/streams/{sid}/rows"),
        b"1.0,not-a-number\n",
    );
    assert_eq!(status, 400);
    assert!(body_str(&body).contains("bad_row"));

    // Unknown and never-registered stream ids answer with the typed token.
    let (status, body) = http(addr, "POST", "/v1/streams/999/rows", b"1.0,2.0\n");
    assert_eq!(status, 404);
    assert!(body_str(&body).contains("unknown_stream"));

    // A body over the bound is refused up front from the declared length.
    let big = vec![b'7'; 8192];
    let (status, body) = http(addr, "POST", &format!("/v1/streams/{sid}/rows"), &big);
    assert_eq!(status, 413);
    assert!(body_str(&body).contains("payload_too_large"));

    // Unregistering routes the id to unknown_stream from then on.
    let (status, _) = http(addr, "DELETE", &format!("/v1/streams/{sid}"), b"");
    assert_eq!(status, 200);
    let (status, _) = http(
        addr,
        "POST",
        &format!("/v1/streams/{sid}/rows"),
        b"1.0,2.0\n",
    );
    assert_eq!(status, 404);

    handle.shutdown();
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_paths_are_404_and_known_paths_with_another_method_are_405() {
    let dir = std::env::temp_dir().join(format!("tfmae_srv_routes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir registry");
    let handle = server_on(&dir, |_| {});
    let addr = handle.addr();
    for (method, target, want, token) in [
        ("GET", "/v1/nope", 404, "no_such_route"),
        ("POST", "/v1/models/m/activate", 404, "no_such_route"),
        ("POST", "/v1/models/m/streams", 404, "no_such_route"),
        ("GET", "/nope", 404, "no_such_route"),
        ("GET", "/v1/shutdown", 405, "method_not_allowed"),
        ("POST", "/v1/models", 405, "method_not_allowed"),
        ("GET", "/v1/models/m/load", 405, "method_not_allowed"),
        ("PUT", "/v1/streams/3", 405, "method_not_allowed"),
        ("GET", "/v1/streams/3/rows", 405, "method_not_allowed"),
        ("POST", "/metrics", 405, "method_not_allowed"),
    ] {
        let (status, body) = http(addr, method, target, b"");
        assert_eq!(status, want, "{method} {target}");
        assert!(body_str(&body).contains(token), "{method} {target}: {}", body_str(&body));
    }
    handle.shutdown();
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------- graceful drain

#[test]
fn drain_refuses_new_rows_but_delivers_every_inflight_verdict() {
    let dir = registry_with_model("drain", "m0");
    let handle = server_on(&dir, |_| {});
    let addr = handle.addr();
    let (status, _) = http(
        addr,
        "POST",
        &format!("/v1/models/m0/load?threshold={THRESHOLD}&hop={HOP}"),
        b"",
    );
    assert_eq!(status, 200);
    let (_, body) = http(addr, "POST", "/v1/streams?model=m0", b"");
    let sid = json_field_u64(&body, "stream");

    let input = series(64, 41);
    let batch: String = (0..64).map(|t| row_csv(&input, t)).collect();
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/streams/{sid}/rows"),
        batch.as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(json_field_u64(&body, "accepted"), 64);

    // Begin the drain over the wire; new rows must now be typed-refused.
    let (status, _) = http(addr, "POST", "/v1/shutdown", b"");
    assert_eq!(status, 202);
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/streams/{sid}/rows"),
        row_csv(&input, 0).as_bytes(),
    );
    assert_eq!(status, 503);
    assert!(body_str(&body).contains("\"error\":\"draining\""));

    // Every verdict of every admitted row is still deliverable.
    let expected = offline_reference(&dir, "m0", &[input]);
    let got = poll_until(
        addr,
        sid,
        expected[0].lines().count(),
        Duration::from_secs(60),
    );
    assert_eq!(
        got, expected[0],
        "drain must deliver the full, exact verdict stream"
    );

    let report = handle.join();
    assert_eq!(
        report.rows_scored, 64,
        "every admitted row was scored during drain"
    );
    assert_eq!(
        report.verdicts_unpolled, 0,
        "clean drain leaves nothing unpolled"
    );
    assert!(
        report.rejected_rows >= 1,
        "the post-shutdown push was counted as rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
