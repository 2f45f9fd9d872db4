//! # tfmae-server
//!
//! The network serving front-end (DESIGN.md §19): a long-running TCP
//! service speaking a minimal HTTP/1.1 protocol over [`std::net`], through
//! which clients register streams, push rows and poll verdicts against a
//! **multi-tenant model registry** — a directory of versioned, CRC-checked
//! checkpoints, each activatable as an independent tenant backed by the
//! core [`ServingEngine`](tfmae_core::ServingEngine).
//!
//! Architecture (one process, all `std`):
//!
//! * one **acceptor** thread owns the listener, feeds accepted connections
//!   to a small **worker pool** over a channel, and runs the drain state
//!   machine;
//! * each loaded model gets one **scorer** thread that drains per-stream
//!   bounded inboxes in lockstep (one row per stream per tick, stream-id
//!   order — the offline replay order) through its engine;
//! * all tenants share one [`Executor`] (worker pool + buffer pools), so
//!   loading a second model does not double the thread count.
//!
//! Admission control is typed: a refused row gets a [`RejectReason`]
//! (`width_mismatch`, `backpressure`, `payload_too_large`, `draining`, ...)
//! mapped onto the obvious HTTP status — never a silent drop, never a
//! panic reachable from client bytes. Shutdown (SIGTERM, SIGINT or
//! `POST /v1/shutdown`) drains gracefully: admitted rows keep scoring,
//! verdicts stay pollable until collected or a grace deadline passes, new
//! rows are refused with `draining`.
//!
//! ```no_run
//! use tfmae_server::{Server, ServerConfig};
//!
//! let cfg = ServerConfig::new("127.0.0.1:0", "registry-dir");
//! let handle = Server::start(cfg).expect("bind");
//! println!("listening on {}", handle.addr());
//! handle.shutdown();
//! let report = handle.join();
//! assert_eq!(report.rows_scored, 0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod http;
mod registry;
mod tenant;

pub use registry::{models_table, scan_registry, valid_model_name, RegistryEntry};

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tfmae_core::{RejectReason, ServingConfig, TfmaeDetector};
use tfmae_obs::{LazyCounter, LazyHistogram};
use tfmae_tensor::Executor;

use http::{Conn, RecvOutcome, Request};
use tenant::{spawn_scorer, ModelRt};

static HTTP_REQUESTS: LazyCounter = LazyCounter::new("server.http.requests");
static HTTP_4XX: LazyCounter = LazyCounter::new("server.http.responses_4xx");
static HTTP_5XX: LazyCounter = LazyCounter::new("server.http.responses_5xx");
static HTTP_CONNS: LazyCounter = LazyCounter::new("server.http.connections");
static HTTP_NS: LazyHistogram = LazyHistogram::new("server.http.request_ns");

/// Everything `tfmae server` exposes as flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks an ephemeral port).
    pub listen: String,
    /// Model registry directory (must exist; scanned per listing).
    pub registry: PathBuf,
    /// HTTP worker threads (≥ 1).
    pub workers: usize,
    /// Per-stream admission budget: queued + in-flight + unpolled verdicts
    /// may not exceed this before pushes answer `429 backpressure`.
    pub queue_cap: usize,
    /// Request body bound; larger declared bodies answer
    /// `413 payload_too_large`.
    pub max_body: usize,
    /// After every admitted row is scored, how long unpolled verdicts stay
    /// collectable before shutdown stops waiting for pollers.
    pub drain_grace: Duration,
}

impl ServerConfig {
    /// Defaults: 4 workers, 1024-row stream budget, 1 MiB bodies,
    /// engine-chosen batching, 5 s drain grace.
    pub fn new(listen: impl Into<String>, registry: impl Into<PathBuf>) -> Self {
        Self {
            listen: listen.into(),
            registry: registry.into(),
            workers: 4,
            queue_cap: 1024,
            max_body: 1 << 20,
            drain_grace: Duration::from_secs(5),
        }
    }

    /// Rejects settings the server cannot run with, naming the `tfmae
    /// server` flag: `workers` and `queue_cap` must be at least 1,
    /// and `max_body` at least 1024 bytes. [`Server::start`] calls this
    /// before binding.
    pub fn validate(&self) -> Result<(), String> {
        for (flag, value, min) in [
            ("--workers", self.workers, 1),
            ("--queue-cap", self.queue_cap, 1),
            ("--max-body", self.max_body, 1024),
        ] {
            if value < min {
                return Err(format!("{flag} must be >= {min}, got {value}"));
            }
        }
        Ok(())
    }
}

/// What the server accounted for over its lifetime, reported by
/// [`ServerHandle::join`] after the drain completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Rows admitted and scored (after a clean drain these are equal).
    pub rows_scored: u64,
    /// Verdicts handed to pollers.
    pub verdicts_delivered: u64,
    /// Verdicts left uncollected when the grace deadline passed.
    pub verdicts_unpolled: u64,
    /// Rows refused with a typed [`RejectReason`].
    pub rejected_rows: u64,
}

#[derive(Clone, Copy)]
struct Route {
    model: usize,
    sid: usize,
}

#[derive(Default)]
struct ServerState {
    models: Vec<Arc<ModelRt>>,
    by_name: BTreeMap<String, usize>,
    scorers: Vec<JoinHandle<()>>,
    /// Wire-visible stream ids → (tenant, engine stream id); `None` =
    /// unregistered. Ids are never reused, so a stale client gets
    /// `unknown_stream` rather than someone else's verdicts.
    routes: Vec<Option<Route>>,
}

struct Inner {
    cfg: ServerConfig,
    draining: Arc<AtomicBool>,
    done: AtomicBool,
    exec: Arc<Executor>,
    state: Mutex<ServerState>,
    started: Instant,
}

/// The server constructor; see [`Server::start`].
pub struct Server;

/// A running server: address accessor plus the shutdown/join lifecycle.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    main: Option<JoinHandle<DrainReport>>,
}

impl Server {
    /// Binds `cfg.listen`, spawns the acceptor and worker threads and
    /// returns immediately; an invalid config ([`ServerConfig::validate`])
    /// fails with [`io::ErrorKind::InvalidInput`] before anything binds.
    /// Enables the global metrics registry — a server whose `/metrics`
    /// endpoint reads all zeros would be lying by omission.
    pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
        cfg.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if !cfg.registry.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "registry directory {} does not exist",
                    cfg.registry.display()
                ),
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        tfmae_obs::set_enabled(true);
        let inner = Arc::new(Inner {
            cfg,
            draining: Arc::new(AtomicBool::new(false)),
            done: AtomicBool::new(false),
            exec: Arc::new(Executor::from_env()),
            state: Mutex::new(ServerState::default()),
            started: Instant::now(),
        });
        let main = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("tfmae-acceptor".into())
                .spawn(move || acceptor_loop(inner, listener))?
        };
        Ok(ServerHandle {
            inner,
            addr,
            main: Some(main),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the graceful drain (idempotent; also triggered by SIGTERM /
    /// SIGINT and `POST /v1/shutdown`).
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::Relaxed);
    }

    /// Waits for the drain to complete and every thread to exit.
    pub fn join(mut self) -> DrainReport {
        match self.main.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => DrainReport::default(),
        }
    }
}

/// Latches SIGTERM/SIGINT into [`term_requested`] via the C `signal(2)`
/// entry point — the one async-signal-safe thing the handler does is a
/// relaxed atomic store. Call it before spawning any thread (`tfmae server`
/// does, ahead of [`Server::start`]). A failed install is reported on
/// stderr: the daemon still serves, but a SIGTERM then kills it without a
/// drain. No-op off Unix.
pub fn install_term_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_term(_sig: i32) {
            TERM.store(true, Ordering::Relaxed);
        }
        type Handler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: Handler) -> isize;
        }
        const SIG_ERR: isize = -1;
        for (signum, name) in [(15, "SIGTERM"), (2, "SIGINT")] {
            // SAFETY: `on_term` is an `extern "C" fn(i32)`, the C
            // `sighandler_t` ABI `signal` expects, and `signal` returns the
            // previous handler as a pointer-sized integer. The handler only
            // does a relaxed store to a static `AtomicBool`, which is
            // lock-free and async-signal-safe. POSIX leaves `signal` in a
            // multi-threaded process unspecified; callers install it before
            // any worker thread exists (see above).
            let prev = unsafe { signal(signum, on_term) };
            if prev == SIG_ERR {
                eprintln!(
                    "warning: could not install the {name} handler; \
                     {name} will stop the server without a drain"
                );
            }
        }
    }
}

static TERM: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been observed since
/// [`install_term_handler`]. The acceptor polls this to start the drain.
pub fn term_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}

fn acceptor_loop(inner: Arc<Inner>, listener: TcpListener) -> DrainReport {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..inner.cfg.workers)
        .map(|i| {
            let inner = inner.clone();
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("tfmae-http-{i}"))
                .spawn(move || worker_loop(inner, rx))
                .expect("spawn http worker thread")
        })
        .collect();

    let mut grace_start: Option<Instant> = None;
    loop {
        if term_requested() {
            inner.draining.store(true, Ordering::Relaxed);
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                HTTP_CONNS.inc();
                // Worker pool gone ⇒ we are past done; drop the connection.
                let _ = tx.send(stream);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        if inner.draining.load(Ordering::Relaxed) {
            let models = inner
                .state
                .lock()
                .expect("server state lock")
                .models
                .clone();
            for m in &models {
                m.nudge();
            }
            if models.iter().all(|m| m.is_drained()) {
                let unpolled: u64 = models.iter().map(|m| m.totals().unpolled).sum();
                let start = *grace_start.get_or_insert_with(Instant::now);
                if unpolled == 0 || start.elapsed() >= inner.cfg.drain_grace {
                    break;
                }
            }
        }
    }

    inner.done.store(true, Ordering::Relaxed);
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    let (models, scorers) = {
        let mut st = inner.state.lock().expect("server state lock");
        (st.models.clone(), std::mem::take(&mut st.scorers))
    };
    for s in scorers {
        let _ = s.join();
    }
    let mut report = DrainReport::default();
    for m in models {
        let t = m.totals();
        report.rows_scored += t.rows_in;
        report.verdicts_delivered += t.verdicts - t.unpolled;
        report.verdicts_unpolled += t.unpolled;
        report.rejected_rows += t.rejected;
    }
    report
}

fn worker_loop(inner: Arc<Inner>, rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let next = {
            let guard = rx.lock().expect("worker channel lock");
            guard.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(stream) => handle_conn(&inner, stream),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if inner.done.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) {
    let Ok(mut conn) = Conn::new(stream) else {
        return;
    };
    let stop = || inner.done.load(Ordering::Relaxed);
    loop {
        match conn.read_request(inner.cfg.max_body, &stop) {
            Ok(RecvOutcome::Request(req)) => {
                let t0 = Instant::now();
                HTTP_REQUESTS.inc();
                let close = req.close;
                let (resp, tenant) = route(inner, &req);
                let elapsed = t0.elapsed().as_nanos() as u64;
                HTTP_NS.record(elapsed);
                if resp.status >= 500 {
                    HTTP_5XX.inc();
                } else if resp.status >= 400 {
                    HTTP_4XX.inc();
                }
                if let Some(rt) = tenant {
                    rt.obs.requests.inc();
                    rt.obs.request_ns.record(elapsed);
                }
                if conn.respond(resp.status, resp.ctype, &resp.body).is_err() || close {
                    return;
                }
            }
            Ok(RecvOutcome::Closed) => return,
            Ok(RecvOutcome::TooLarge(n)) => {
                HTTP_4XX.inc();
                let body = format!(
                    "{{\"error\":\"{}\",\"declared_bytes\":{n},\"limit_bytes\":{}}}\n",
                    RejectReason::PayloadTooLarge.as_str(),
                    inner.cfg.max_body
                );
                let _ = conn.respond(413, "application/json", body.as_bytes());
                conn.linger_close();
                return;
            }
            Ok(RecvOutcome::Malformed(why)) => {
                HTTP_4XX.inc();
                let body = format!(
                    "{{\"error\":\"malformed\",\"detail\":\"{}\"}}\n",
                    json_escape(&why)
                );
                let _ = conn.respond(400, "application/json", body.as_bytes());
                conn.linger_close();
                return;
            }
            Err(_) => return,
        }
    }
}

struct Response {
    status: u16,
    ctype: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            ctype: "application/json",
            body: body.into_bytes(),
        }
    }

    fn error(status: u16, token: &str) -> Self {
        Self::json(status, format!("{{\"error\":\"{token}\"}}\n"))
    }

    fn reject(reason: RejectReason, accepted: usize) -> Self {
        let status = match reason {
            RejectReason::UnknownStream => 404,
            RejectReason::WidthMismatch => 400,
            RejectReason::Backpressure => 429,
            RejectReason::PayloadTooLarge => 413,
            RejectReason::Draining => 503,
        };
        Self::json(
            status,
            format!(
                "{{\"error\":\"{}\",\"accepted\":{accepted}}}\n",
                reason.as_str()
            ),
        )
    }
}

type Routed = (Response, Option<Arc<ModelRt>>);

fn route(inner: &Arc<Inner>, req: &Request) -> Routed {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => (healthz(inner), None),
        ("GET", ["metrics"]) => (
            Response {
                status: 200,
                ctype: "text/plain; version=0.0.4",
                body: tfmae_obs::prometheus_text(tfmae_obs::global()).into_bytes(),
            },
            None,
        ),
        ("GET", ["v1", "models"]) => (models_listing(inner), None),
        ("POST", ["v1", "models", name, "load"]) => (load_model(inner, name, req), None),
        ("POST", ["v1", "streams"]) => register_stream(inner, req),
        ("DELETE", ["v1", "streams", id]) => unregister_stream(inner, id),
        ("POST", ["v1", "streams", id, "rows"]) => push_rows(inner, id, req),
        ("GET", ["v1", "streams", id, "verdicts"]) => poll_verdicts(inner, id, req),
        ("POST", ["v1", "shutdown"]) => {
            inner.draining.store(true, Ordering::Relaxed);
            (Response::json(202, "{\"draining\":true}\n".into()), None)
        }
        // A known path called with another method.
        (
            _,
            ["healthz" | "metrics"]
            | ["v1", "models" | "streams" | "shutdown"]
            | ["v1", "models", _, "load"]
            | ["v1", "streams", _]
            | ["v1", "streams", _, "rows" | "verdicts"],
        ) => (Response::error(405, "method_not_allowed"), None),
        _ => (Response::error(404, "no_such_route"), None),
    }
}

fn healthz(inner: &Arc<Inner>) -> Response {
    let st = inner.state.lock().expect("server state lock");
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"draining\":{},\"models\":{},\"uptime_millis\":{}}}\n",
            inner.draining.load(Ordering::Relaxed),
            st.models.len(),
            inner.started.elapsed().as_millis()
        ),
    )
}

/// `GET /v1/models` — registry scan merged with live tenant state.
fn models_listing(inner: &Arc<Inner>) -> Response {
    let entries = match scan_registry(&inner.cfg.registry) {
        Ok(e) => e,
        Err(e) => {
            return Response::error(
                500,
                &format!("registry_scan: {}", json_escape(&e.to_string())),
            )
        }
    };
    let st = inner.state.lock().expect("server state lock");
    let mut rows = Vec::new();
    for e in &entries {
        let loaded = st.by_name.get(&e.name).map(|&i| st.models[i].clone());
        let live = match &loaded {
            Some(rt) => {
                let t = rt.totals();
                format!(
                    ",\"loaded\":true,\"hop\":{},\"threshold\":{},\"streams\":{},\"queued\":{},\"unpolled\":{}",
                    rt.hop, rt.threshold, t.streams, t.queued, t.unpolled
                )
            }
            None => ",\"loaded\":false".to_string(),
        };
        match &e.info {
            Ok(i) => rows.push(format!(
                "{{\"name\":\"{}\",\"version\":{},\"crc_ok\":{},\"loadable\":{},\
                 \"precision\":{},\"adaptive\":{},\"patch_len\":{},\"win_len\":{},\"dims\":{},\
                 \"file_bytes\":{}{live}}}",
                json_escape(&e.name),
                i.version,
                i.crc_ok,
                i.loadable,
                i.precision
                    .map_or("null".to_string(), |p| format!("\"{p}\"")),
                i.adaptive,
                i.patch_len,
                i.win_len,
                i.dims,
                i.file_bytes,
            )),
            Err(err) => rows.push(format!(
                "{{\"name\":\"{}\",\"loadable\":false,\"error\":\"{}\"{live}}}",
                json_escape(&e.name),
                json_escape(err),
            )),
        }
    }
    Response::json(
        200,
        format!(
            "{{\"registry\":\"{}\",\"draining\":{},\"models\":[{}]}}\n",
            json_escape(&inner.cfg.registry.display().to_string()),
            inner.draining.load(Ordering::Relaxed),
            rows.join(",")
        ),
    )
}

/// `POST /v1/models/{name}/load?threshold=F[&hop=N]` — load + activate.
/// Idempotent: re-loading an active model answers `200` with
/// `already_loaded` (the original engine keeps serving; hot swap is out of
/// scope for this protocol revision).
fn load_model(inner: &Arc<Inner>, name: &str, req: &Request) -> Response {
    if inner.draining.load(Ordering::Relaxed) {
        return Response::reject(RejectReason::Draining, 0);
    }
    if !valid_model_name(name) {
        return Response::error(400, "bad_model_name");
    }
    {
        let st = inner.state.lock().expect("server state lock");
        if st.by_name.contains_key(name) {
            return Response::json(
                200,
                format!(
                    "{{\"model\":\"{}\",\"already_loaded\":true}}\n",
                    json_escape(name)
                ),
            );
        }
    }
    let Some(threshold) = req.query("threshold") else {
        return Response::error(400, "missing_threshold");
    };
    let Ok(threshold) = threshold.parse::<f32>() else {
        return Response::error(400, "bad_threshold");
    };
    if !threshold.is_finite() {
        return Response::error(400, "bad_threshold");
    }
    let path = inner.cfg.registry.join(format!("{name}.json"));
    let (mut det, _adaptive, stored_precision) = match TfmaeDetector::load_full(&path) {
        Ok(loaded) => loaded,
        Err(tfmae_core::CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            return Response::error(404, "model_not_found");
        }
        Err(e) => {
            return Response::json(
                422,
                format!(
                    "{{\"error\":\"checkpoint\",\"detail\":\"{}\"}}\n",
                    json_escape(&e.to_string())
                ),
            );
        }
    };
    let win_len = det.cfg.win_len;
    let hop = match req.query("hop") {
        Some(h) => match h.parse::<usize>() {
            Ok(h) if (1..=win_len).contains(&h) => h,
            _ => return Response::error(400, "bad_hop"),
        },
        None => ServingConfig::default_hop(win_len),
    };
    det.set_executor(inner.exec.clone());
    let mut serving = ServingConfig::new(threshold, hop);
    serving.precision = stored_precision.unwrap_or(serving.precision);
    let rt = Arc::new(ModelRt::new(
        name.to_string(),
        det,
        serving,
        inner.cfg.queue_cap,
    ));
    let mut st = inner.state.lock().expect("server state lock");
    if st.by_name.contains_key(name) {
        // Lost a load race; the winner's engine serves.
        return Response::json(
            200,
            format!(
                "{{\"model\":\"{}\",\"already_loaded\":true}}\n",
                json_escape(name)
            ),
        );
    }
    let scorer = spawn_scorer(rt.clone(), inner.draining.clone());
    let idx = st.models.len();
    st.by_name.insert(name.to_string(), idx);
    st.models.push(rt.clone());
    st.scorers.push(scorer);
    Response::json(
        200,
        format!(
            "{{\"model\":\"{}\",\"win_len\":{},\"dims\":{},\"hop\":{},\"threshold\":{},\"precision\":\"{}\"}}\n",
            json_escape(name),
            rt.win_len,
            rt.dims,
            rt.hop,
            rt.threshold,
            rt.precision,
        ),
    )
}

/// `POST /v1/streams?model=NAME` — register a stream on a loaded model.
fn register_stream(inner: &Arc<Inner>, req: &Request) -> Routed {
    if inner.draining.load(Ordering::Relaxed) {
        return (Response::reject(RejectReason::Draining, 0), None);
    }
    let Some(model) = req.query("model") else {
        return (Response::error(400, "missing_model"), None);
    };
    let rt = {
        let st = inner.state.lock().expect("server state lock");
        match st.by_name.get(model) {
            Some(&i) => (i, st.models[i].clone()),
            None => return (Response::error(404, "model_not_loaded"), None),
        }
    };
    let (model_idx, rt) = rt;
    let sid = rt.add_stream();
    let id = {
        let mut st = inner.state.lock().expect("server state lock");
        st.routes.push(Some(Route {
            model: model_idx,
            sid,
        }));
        st.routes.len() - 1
    };
    (
        Response::json(
            200,
            format!(
                "{{\"stream\":{id},\"model\":\"{}\",\"dims\":{}}}\n",
                json_escape(model),
                rt.dims
            ),
        ),
        Some(rt),
    )
}

fn resolve_stream(inner: &Arc<Inner>, id: &str) -> Result<(Arc<ModelRt>, usize), Response> {
    let Ok(id) = id.parse::<usize>() else {
        return Err(Response::error(400, "bad_stream_id"));
    };
    let st = inner.state.lock().expect("server state lock");
    match st.routes.get(id).copied().flatten() {
        Some(route) => Ok((st.models[route.model].clone(), route.sid)),
        None => Err(Response::reject(RejectReason::UnknownStream, 0)),
    }
}

/// `DELETE /v1/streams/{id}` — unregister; unpolled verdicts are dropped.
fn unregister_stream(inner: &Arc<Inner>, id: &str) -> Routed {
    let (rt, sid) = match resolve_stream(inner, id) {
        Ok(x) => x,
        Err(resp) => return (resp, None),
    };
    let dropped = rt.remove_stream(sid).unwrap_or(0);
    if let Ok(idx) = id.parse::<usize>() {
        let mut st = inner.state.lock().expect("server state lock");
        if let Some(slot) = st.routes.get_mut(idx) {
            *slot = None;
        }
    }
    (
        Response::json(
            200,
            format!("{{\"removed\":{id},\"dropped_verdicts\":{dropped}}}\n"),
        ),
        Some(rt),
    )
}

/// `POST /v1/streams/{id}/rows` — body is CSV: one row per line, `dims`
/// comma-separated decimal floats. Admission is row-by-row; the response
/// reports the accepted prefix alongside any typed refusal.
fn push_rows(inner: &Arc<Inner>, id: &str, req: &Request) -> Routed {
    let (rt, sid) = match resolve_stream(inner, id) {
        Ok(x) => x,
        Err(resp) => return (resp, None),
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (Response::error(400, "body_not_utf8"), Some(rt));
    };
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for cell in line.split(',') {
            match cell.trim().parse::<f32>() {
                Ok(v) => row.push(v),
                Err(_) => {
                    return (
                        Response::json(
                            400,
                            format!("{{\"error\":\"bad_row\",\"line\":{}}}\n", lineno + 1),
                        ),
                        Some(rt),
                    );
                }
            }
        }
        rows.push(row);
    }
    let draining = inner.draining.load(Ordering::Relaxed);
    let Some(out) = rt.push(sid, &rows, draining) else {
        return (Response::reject(RejectReason::UnknownStream, 0), Some(rt));
    };
    let resp = match out.rejected {
        Some(reason) => Response::reject(reason, out.accepted),
        None => Response::json(
            200,
            format!(
                "{{\"accepted\":{},\"queued\":{}}}\n",
                out.accepted, out.queued
            ),
        ),
    };
    (resp, Some(rt))
}

/// `GET /v1/streams/{id}/verdicts[?max=N]` — drains up to `max` verdicts as
/// CSV data lines in scoring order, each a
/// [`StreamVerdict`](tfmae_core::StreamVerdict)'s `Display`: the
/// line format of the offline `tfmae serve` per-stream CSV (minus the
/// header line, which is the client's to write once).
fn poll_verdicts(inner: &Arc<Inner>, id: &str, req: &Request) -> Routed {
    let (rt, sid) = match resolve_stream(inner, id) {
        Ok(x) => x,
        Err(resp) => return (resp, None),
    };
    let max = match req.query("max") {
        Some(m) => match m.parse::<usize>() {
            Ok(m) => m,
            Err(_) => return (Response::error(400, "bad_max"), Some(rt)),
        },
        None => usize::MAX,
    };
    let Some(verdicts) = rt.poll(sid, max) else {
        return (Response::reject(RejectReason::UnknownStream, 0), Some(rt));
    };
    let mut body = Vec::new();
    for v in &verdicts {
        let _ = writeln!(body, "{v}");
    }
    (
        Response {
            status: 200,
            ctype: "text/csv",
            body,
        },
        Some(rt),
    )
}

/// Minimal JSON string escaping for the hand-written responses.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn config_defaults() {
        let cfg = ServerConfig::new("127.0.0.1:0", "/tmp/reg");
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_cap, 1024);
        assert_eq!(cfg.max_body, 1 << 20);
    }

    #[test]
    fn start_requires_registry_dir() {
        let cfg = ServerConfig::new("127.0.0.1:0", "/nonexistent-tfmae-registry");
        assert!(Server::start(cfg).is_err());
    }

    #[test]
    fn start_rejects_out_of_range_config_before_binding() {
        let base = ServerConfig::new("127.0.0.1:0", std::env::temp_dir());
        let cases = [
            (ServerConfig { workers: 0, ..base.clone() }, "--workers must be >= 1"),
            (ServerConfig { queue_cap: 0, ..base.clone() }, "--queue-cap must be >= 1"),
            (ServerConfig { max_body: 1023, ..base.clone() }, "--max-body must be >= 1024"),
        ];
        for (cfg, want) in cases {
            let Err(err) = Server::start(cfg) else { panic!("{want}: server started") };
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{want}");
            assert!(err.to_string().contains(want), "{want} missing from {err}");
        }
    }
}
