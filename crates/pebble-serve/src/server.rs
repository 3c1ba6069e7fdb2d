//! The scheduling service: accept DAGs over HTTP, answer with certified
//! schedules, backed by the content-addressed cache.
//!
//! Request flow (`POST /v1/schedule`): parse (any `pebble-io` format) →
//! canonical hash ([`pebble_dag::canon`]) → cache lookup (hits are
//! simulator-re-validated before they are served) → on a miss, the
//! certified compose solve ([`pebble_sched::compose_certified`]) under the
//! request's deadline, whose result is inserted for the next request of
//! the same shape.
//! Every response is either a validated certificate or a structured JSON
//! error; a deadline too small to produce any incumbent is the distinct
//! `"status":"deadline-no-incumbent"` outcome (HTTP 504), never a panic.

use crate::cache::{LookupOutcome, ScheduleCache};
use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::obs::{
    self, STAGE_CACHE, STAGE_CANON, STAGE_PARSE, STAGE_READ, STAGE_SOLVE, STAGE_VALIDATE,
    STAGE_WRITE,
};
use crate::pool::Pool;
use pebble_dag::canon::canonical_form;
use pebble_dag::Dag;
use pebble_io::json::escape;
use pebble_io::Format;
use pebble_obs::metrics::Registry;
use pebble_obs::trace::{emit, enabled, TraceEvent};
use pebble_sched::{compose_certified, ComposeConfig, ComposeError, ScheduleReport};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of a serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7117`; port 0 picks a free port).
    pub addr: String,
    /// Request-handling worker threads.
    pub workers: usize,
    /// Pending-connection backlog before the acceptor blocks.
    pub backlog: usize,
    /// Default per-request solve budget (query `deadline_ms` overrides).
    pub deadline: Duration,
    /// Threads scheduling the components of each cold solve
    /// ([`ComposeConfig::threads`]; 0 = available parallelism).
    pub solver_workers: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7117".to_string(),
            workers: 4,
            backlog: 64,
            deadline: Duration::from_millis(250),
            solver_workers: 0,
            max_body: 16 << 20,
        }
    }
}

struct Ctx {
    cache: Arc<ScheduleCache>,
    deadline: Duration,
    solver_workers: usize,
    max_body: usize,
    requests: AtomicU64,
    /// When this server started (for `/v1/stats` uptime).
    started: Instant,
    /// Per-route request counts for this server instance, indexed by
    /// [`obs::ROUTES`] (the `/metrics` counters are process-global; these
    /// keep `/v1/stats` scoped to one server even in test processes that
    /// run several).
    route_counts: [AtomicU64; 5],
    /// Requests currently inside `route` on this server.
    in_flight: AtomicU64,
    /// Cold solves forced by a present-but-invalid cache entry.
    cold_fallbacks: AtomicU64,
}

/// A running scheduling service. Dropping it without calling
/// [`Server::shutdown`] leaves the acceptor thread running for the rest of
/// the process; tests and the CLI always shut down explicitly.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    cache: Arc<ScheduleCache>,
}

impl Server {
    /// Bind, spawn the acceptor and worker pool, and return immediately.
    pub fn start(config: &ServeConfig, cache: Arc<ScheduleCache>) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            cache: Arc::clone(&cache),
            deadline: config.deadline,
            solver_workers: config.solver_workers,
            max_body: config.max_body,
            requests: AtomicU64::new(0),
            started: Instant::now(),
            route_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            in_flight: AtomicU64::new(0),
            cold_fallbacks: AtomicU64::new(0),
        });
        let pool = Pool::new(config.workers, config.backlog);
        let stop_flag = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("prbp-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            let ctx = Arc::clone(&ctx);
                            pool.submit(move || handle_connection(stream, &ctx));
                        }
                        Err(_) => continue,
                    }
                }
                pool.shutdown(); // drain pending requests before exiting
            })
            .expect("spawning the acceptor");
        Ok(Server {
            addr,
            stop,
            acceptor: Some(acceptor),
            cache,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cache this server answers from.
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &Ctx) {
    let arrived = Instant::now();
    let m = obs::metrics();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    let request = match read_request(&mut stream, ctx.max_body) {
        Ok(request) => request,
        Err(e) => {
            // Failed before routing: attribute to the `other` route.
            let other = obs::ROUTES.len() - 1;
            ctx.route_counts[other].fetch_add(1, Ordering::Relaxed);
            m.requests[other].inc();
            m.errors[other].inc();
            match e {
                HttpError::BodyTooLarge { declared, limit } => {
                    let body = error_body(&format!(
                        "body of {declared} bytes exceeds the {limit}-byte limit"
                    ));
                    let _ = write_response(
                        &mut stream,
                        413,
                        "Payload Too Large",
                        JSON,
                        body.as_bytes(),
                    );
                }
                HttpError::Malformed(msg) => {
                    let body = error_body(&format!("malformed request: {msg}"));
                    let _ = write_response(&mut stream, 400, "Bad Request", JSON, body.as_bytes());
                }
                HttpError::Io(_) => {} // client went away; nothing to say
            }
            return;
        }
    };
    let read_us = arrived.elapsed().as_micros() as u64;
    m.stages[STAGE_READ].observe(read_us);
    let ri = obs::route_index(&request.path);
    ctx.route_counts[ri].fetch_add(1, Ordering::Relaxed);
    m.requests[ri].inc();
    m.in_flight.add(1);
    ctx.in_flight.fetch_add(1, Ordering::Relaxed);
    // A panic inside a handler must never take down the worker: answer 500
    // and keep serving.
    let routed = catch_unwind(AssertUnwindSafe(|| route(&request, ctx, read_us)));
    m.in_flight.sub(1);
    ctx.in_flight.fetch_sub(1, Ordering::Relaxed);
    let (status, reason, body) = match routed {
        Ok(response) => response,
        Err(_) => (
            500,
            "Internal Server Error",
            error_body("internal error: request handler panicked"),
        ),
    };
    if status >= 400 {
        m.errors[ri].inc();
    }
    let ctype = if ri == 2 && status == 200 {
        PROMETHEUS // GET /metrics is the one non-JSON endpoint
    } else {
        JSON
    };
    let write_started = Instant::now();
    let _ = write_response(&mut stream, status, reason, ctype, body.as_bytes());
    m.stages[STAGE_WRITE].observe(write_started.elapsed().as_micros() as u64);
    let dur_us = arrived.elapsed().as_micros() as u64;
    m.request_us.observe(dur_us);
    if enabled() {
        emit(TraceEvent::Request {
            route: obs::ROUTES[ri].to_string(),
            status,
            dur_us,
        });
    }
}

const JSON: &str = "application/json";
const PROMETHEUS: &str = "text/plain; version=0.0.4";

fn error_body(message: &str) -> String {
    format!("{{\"status\":\"error\",\"error\":\"{}\"}}", escape(message))
}

type Response = (u16, &'static str, String);

fn route(request: &Request, ctx: &Ctx, read_us: u64) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "OK", "{\"status\":\"ok\"}".to_string()),
        ("GET", "/v1/stats") => stats_response(ctx),
        ("GET", "/metrics") => (200, "OK", Registry::global().render_prometheus()),
        ("POST", "/v1/schedule") => schedule_response(request, ctx, read_us),
        (_, "/healthz" | "/v1/stats" | "/metrics" | "/v1/schedule") => (
            405,
            "Method Not Allowed",
            error_body(&format!(
                "method {} not allowed on {}",
                request.method, request.path
            )),
        ),
        _ => (
            404,
            "Not Found",
            error_body(&format!("no such endpoint: {}", request.path)),
        ),
    }
}

fn stats_response(ctx: &Ctx) -> Response {
    let stats = ctx.cache.stats();
    let m = obs::metrics();
    let per_route: String = obs::ROUTES
        .iter()
        .enumerate()
        .map(|(i, route)| {
            format!(
                ",\"{route}\":{}",
                ctx.route_counts[i].load(Ordering::Relaxed)
            )
        })
        .collect();
    let body = format!(
        "{{\"status\":\"ok\",\"uptime_s\":{},\
         \"requests\":{{\"total\":{}{per_route}}},\
         \"in_flight\":{},\"pool_queue_depth\":{},\"cold_solve_fallbacks\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"entries\":{},\
         \"revalidation_failures\":{}}}}}",
        ctx.started.elapsed().as_secs(),
        ctx.requests.load(Ordering::Relaxed),
        ctx.in_flight.load(Ordering::Relaxed),
        m.pool_queue_depth.get(),
        ctx.cold_fallbacks.load(Ordering::Relaxed),
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.entries,
        stats.revalidation_failures
    );
    (200, "OK", body)
}

fn bad_request(message: &str) -> Response {
    (400, "Bad Request", error_body(message))
}

/// Per-stage wall-clock timings of one `/v1/schedule` request, microseconds.
/// Rendered into the response's `"stages"` object and observed into the
/// `serve_request_stage_us` histograms (the `write` stage only reaches the
/// histograms — the body is already built when the write happens).
#[derive(Default)]
struct Stages {
    read_us: u64,
    parse_us: u64,
    canon_us: u64,
    cache_us: u64,
    solve_us: u64,
    validate_us: u64,
}

impl Stages {
    fn to_json(&self) -> String {
        format!(
            "{{\"read_us\":{},\"parse_us\":{},\"canon_us\":{},\"cache_us\":{},\
             \"solve_us\":{},\"validate_us\":{}}}",
            self.read_us,
            self.parse_us,
            self.canon_us,
            self.cache_us,
            self.solve_us,
            self.validate_us
        )
    }
}

/// Time one stage: run `f`, observe the duration into the stage histogram,
/// and return it alongside the result.
fn timed<T>(stage: usize, f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let value = f();
    let us = started.elapsed().as_micros() as u64;
    obs::metrics().stages[stage].observe(us);
    (value, us)
}

fn schedule_response(request: &Request, ctx: &Ctx, read_us: u64) -> Response {
    let r: usize = match request.query.get("r").map(|v| v.parse()) {
        Some(Ok(r)) => r,
        Some(Err(_)) => return bad_request("query parameter `r` is not a number"),
        None => return bad_request("missing required query parameter `r`"),
    };
    let deadline = match request.query.get("deadline_ms").map(|v| v.parse::<u64>()) {
        Some(Ok(ms)) => Duration::from_millis(ms),
        Some(Err(_)) => return bad_request("query parameter `deadline_ms` is not a number"),
        None => ctx.deadline,
    };
    let mut stages = Stages {
        read_us,
        ..Stages::default()
    };
    let (parsed, parse_us) = timed(STAGE_PARSE, || {
        let text = std::str::from_utf8(&request.body)
            .map_err(|_| "request body is not valid UTF-8".to_string())?;
        let format = match request.query.get("format") {
            Some(name) => name.parse::<Format>()?,
            None => Format::sniff(text),
        };
        pebble_io::parse(text, format)
            .map(|dag| (dag, format))
            .map_err(|e| format!("parse error ({format}): {e}"))
    });
    stages.parse_us = parse_us;
    let (dag, format) = match parsed {
        Ok(parsed) => parsed,
        Err(message) => return bad_request(&message),
    };

    // Everything from here is what `solve_us` measures: hashing, cache
    // lookup (including re-validation) and — on a miss — the solve.
    let solve_started = Instant::now();
    let (form, canon_us) = timed(STAGE_CANON, || canonical_form(&dag));
    stages.canon_us = canon_us;
    let (looked_up, cache_us) = timed(STAGE_CACHE, || ctx.cache.lookup_outcome(&dag, &form, r));
    stages.cache_us = cache_us;
    match looked_up {
        LookupOutcome::Hit(hit) => {
            return ok_response(
                &dag,
                format,
                r,
                deadline,
                "hit",
                &hit.report,
                solve_started,
                &stages,
            )
        }
        LookupOutcome::MissInvalid => {
            // A stored entry failed re-validation: the request falls back to
            // a cold solve, which is worth counting separately from a plain
            // never-seen-this-shape miss.
            ctx.cold_fallbacks.fetch_add(1, Ordering::Relaxed);
            obs::metrics().cache_cold_solve_fallbacks.inc();
        }
        LookupOutcome::MissAbsent => {}
    }
    let config = ComposeConfig {
        deadline: Some(deadline),
        threads: ctx.solver_workers,
        ..ComposeConfig::default()
    };
    let (solved, solve_us) = timed(STAGE_SOLVE, || compose_certified(&dag, r, &config));
    stages.solve_us = solve_us;
    let certified = match solved {
        Ok(certified) => certified,
        Err(ComposeError::SmallR { r }) => {
            return bad_request(&format!("r = {r} is too small for PRBP (need r >= 2)"))
        }
        Err(ComposeError::DeadlineNoIncumbent) => {
            let body = format!(
                "{{\"status\":\"deadline-no-incumbent\",\"error\":\"deadline of {} ms expired \
                 before any incumbent schedule existed\",\"deadline_ms\":{}}}",
                deadline.as_millis(),
                deadline.as_millis()
            );
            return (504, "Gateway Timeout", body);
        }
        // Unreachable: stitched schedules are built move by move through
        // the simulator.
        Err(e @ ComposeError::Invalid(_)) => {
            return (500, "Internal Server Error", error_body(&e.to_string()))
        }
    };
    let report = certified.report;
    // A cache write failure degrades to cold-serving; the answer stands.
    let (_, validate_us) = timed(STAGE_VALIDATE, || {
        ctx.cache
            .insert(&dag, &form, r, &report, &certified.outcome.trace)
    });
    stages.validate_us = validate_us;
    ok_response(
        &dag,
        format,
        r,
        deadline,
        "miss",
        &report,
        solve_started,
        &stages,
    )
}

#[allow(clippy::too_many_arguments)]
fn ok_response(
    dag: &Dag,
    format: Format,
    r: usize,
    deadline: Duration,
    cache: &str,
    report: &ScheduleReport,
    solve_started: Instant,
    stages: &Stages,
) -> Response {
    let solve_us = solve_started.elapsed().as_micros();
    let report_json = serde_json::to_string(report).unwrap_or_else(|_| "null".to_string());
    let gap = serde_json::to_string(&report.gap()).unwrap_or_else(|_| "null".to_string());
    // `report` stays the last key: clients (and our own tests) compare the
    // certificate as the byte suffix from `"report":`.
    let body = format!(
        "{{\"status\":\"ok\",\"cache\":\"{cache}\",\"r\":{r},\"deadline_ms\":{},\
         \"input\":{{\"nodes\":{},\"edges\":{},\"format\":\"{}\"}},\
         \"solve_us\":{solve_us},\"stages\":{},\"gap\":{gap},\"report\":{report_json}}}",
        deadline.as_millis(),
        dag.node_count(),
        dag.edge_count(),
        format.name(),
        stages.to_json()
    );
    (200, "OK", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;
    use pebble_dag::generators::fft;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prbp-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn start_server(tag: &str) -> Server {
        let cache = Arc::new(ScheduleCache::open(scratch(tag)).unwrap());
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            deadline: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        Server::start(&config, cache).unwrap()
    }

    #[test]
    fn healthz_stats_and_a_cold_then_warm_schedule() {
        let server = start_server("basic");
        let addr = server.local_addr().to_string();
        let timeout = Duration::from_secs(30);

        let (status, body) = client_request(&addr, "GET", "/healthz", b"", timeout).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"status\":\"ok\"}");

        let doc = pebble_io::write(&fft(8).dag, Format::Json);
        let (status, cold) = client_request(
            &addr,
            "POST",
            "/v1/schedule?r=4&deadline_ms=2000",
            doc.as_bytes(),
            timeout,
        )
        .unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&cold));
        let cold = String::from_utf8(cold).unwrap();
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        assert!(cold.contains("\"status\":\"ok\""), "{cold}");

        let (status, warm) = client_request(
            &addr,
            "POST",
            "/v1/schedule?r=4&deadline_ms=2000",
            doc.as_bytes(),
            timeout,
        )
        .unwrap();
        assert_eq!(status, 200);
        let warm = String::from_utf8(warm).unwrap();
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        // The certified sub-document is byte-identical across cold and warm.
        assert_eq!(report_of(&cold), report_of(&warm));

        let (status, stats) = client_request(&addr, "GET", "/v1/stats", b"", timeout).unwrap();
        assert_eq!(status, 200);
        let stats = String::from_utf8(stats).unwrap();
        assert!(stats.contains("\"hits\":1"), "{stats}");
        assert!(stats.contains("\"uptime_s\":"), "{stats}");
        assert!(stats.contains("\"schedule\":2"), "{stats}");
        assert!(stats.contains("\"in_flight\":"), "{stats}");

        // The warm response carries the per-stage timing breakdown.
        assert!(warm.contains("\"stages\":{\"read_us\":"), "{warm}");

        // The Prometheus endpoint exposes the process-global registry. Other
        // tests in this process also bump these counters, so assert presence
        // and type lines, not exact values.
        let (status, prom) = client_request(&addr, "GET", "/metrics", b"", timeout).unwrap();
        assert_eq!(status, 200);
        let prom = String::from_utf8(prom).unwrap();
        assert!(
            prom.contains("# TYPE serve_requests_total counter"),
            "{prom}"
        );
        assert!(prom.contains("# TYPE serve_request_us histogram"), "{prom}");
        assert!(
            prom.contains("serve_requests_total{route=\"schedule\"}"),
            "{prom}"
        );
        assert!(prom.contains("cache_hits_total"), "{prom}");
        assert!(prom.contains("serve_request_us_count"), "{prom}");
        assert!(
            prom.contains("serve_request_stage_us_sum{stage=\"solve\"}"),
            "{prom}"
        );

        let dir = server.cache().dir().to_path_buf();
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn structured_errors_for_bad_requests() {
        let server = start_server("errors");
        let addr = server.local_addr().to_string();
        let timeout = Duration::from_secs(10);

        let (status, _) = client_request(&addr, "GET", "/nope", b"", timeout).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "GET", "/v1/schedule", b"", timeout).unwrap();
        assert_eq!(status, 405);
        let (status, body) =
            client_request(&addr, "POST", "/v1/schedule", b"0 1\n", timeout).unwrap();
        assert_eq!(status, 400, "missing r");
        assert!(String::from_utf8(body)
            .unwrap()
            .contains("\"status\":\"error\""));
        let (status, _) =
            client_request(&addr, "POST", "/v1/schedule?r=4", b"not { a graph", timeout).unwrap();
        assert_eq!(status, 400, "unparseable body");

        let dir = server.cache().dir().to_path_buf();
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn zero_deadline_is_the_structured_504() {
        let server = start_server("deadline");
        let addr = server.local_addr().to_string();
        let doc = pebble_io::write(&fft(64).dag, Format::Json);
        let (status, body) = client_request(
            &addr,
            "POST",
            "/v1/schedule?r=8&deadline_ms=0",
            doc.as_bytes(),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(status, 504);
        assert!(String::from_utf8(body)
            .unwrap()
            .contains("\"status\":\"deadline-no-incumbent\""));
        let dir = server.cache().dir().to_path_buf();
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Send `head` raw, ignoring a write the server cuts short, and return
    /// the response's status code.
    fn raw_status(addr: &str, head: &[u8]) -> u16 {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.write_all(head);
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        let code = response.get(9..12).and_then(|code| code.parse().ok());
        code.unwrap_or_else(|| panic!("no status line in {response:?}"))
    }

    #[test]
    fn oversized_request_heads_are_rejected() {
        let server = start_server("head");
        let addr = server.local_addr().to_string();
        let long_line = format!(
            "GET /healthz HTTP/1.1\r\nX-Long: {}\r\n\r\n",
            "a".repeat(1 << 20)
        );
        let flood = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Flood: 1\r\n".repeat(100_000)
        );
        for head in [long_line, flood] {
            assert_eq!(raw_status(&addr, head.as_bytes()), 400);
            let healthz = client_request(&addr, "GET", "/healthz", b"", Duration::from_secs(10));
            assert_eq!(healthz.unwrap().0, 200);
        }
        let dir = server.cache().dir().to_path_buf();
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Extract the `"report":{...}` suffix (it is the last key).
    fn report_of(body: &str) -> &str {
        let i = body.find("\"report\":").expect("report key");
        &body[i..]
    }
}
