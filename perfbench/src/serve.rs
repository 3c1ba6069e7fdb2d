//! `serve-mixed`: the service. An in-process `pebble_serve::Server` on
//! `127.0.0.1:0` with a fresh cache directory, the default 250 ms deadline,
//! two request workers and one solver thread per solve. Two client threads
//! drive it in a closed loop through `pebble_serve::http::client_request`.
//!
//! The seed draws a pool of distinct (shape, r) pairs and a skewed request
//! sequence over it. Every request is a fresh random relabelling of its
//! shape in a random interchange format, so canon and the cache's remap do
//! real work. The first request for a pair is a cold solve (a cache write);
//! the rest are hits (cache reads). A repeat is only sent once its pair's
//! first request has been answered, so each pair has exactly one cold
//! certificate for its hits to match.

use crate::check::{check_hit, check_report};
use crate::inputs::{relabel, Rng};
use crate::ledger::{Layers, Snapshot, SpanLedger};
use crate::stats::{geomean, median, tail_percentile, Tally};
use crate::{machine, metric, time_set_ups, Opts, Outcome, SETUPS};
use pebble_dag::canon::canonical_form;
use pebble_dag::generators::{
    attention_qk, binary_tree, fft, kary_tree, matmul, random_layered, RandomLayeredConfig,
};
use pebble_dag::Dag;
use pebble_io::Format;
use pebble_obs::metrics::Registry;
use pebble_sched::{
    certify_prbp_with, greedy_prbp, order, prbp_bound_ladder, BoundSet, FurthestInFuture,
    ScheduleReport,
};
use pebble_serve::http::client_request;
use pebble_serve::{ScheduleCache, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const DEADLINE_MS: f64 = 250.0;
const CLIENTS: usize = 2;
/// Repeat requests drawn by popularity: enough for 1000 hits per phase even
/// when some repeats fail the cache's re-validation and are solved cold.
const REPEATS: usize = 1300;
const TIMEOUT: Duration = Duration::from_secs(60);
const FORMATS: [Format; 3] = [Format::EdgeList, Format::Dot, Format::Json];
/// Seeded random-layered shapes, the last in the pool.
const RANDOM_SHAPES: usize = 21;
/// Seeds the fixed popularity ranking of the pairs.
const POPULARITY_SEED: u64 = 0x5EED;

/// The shapes of the pool; each is requested at r = 8 and r = 16.
fn shapes(rng: &mut Rng) -> Vec<Dag> {
    let mut out: Vec<Dag> = [32, 64, 128, 256].iter().map(|&m| fft(m).dag).collect();
    for (m1, m2, m3) in [
        (2, 2, 2),
        (2, 3, 4),
        (3, 3, 3),
        (4, 4, 4),
        (2, 8, 2),
        (4, 2, 8),
        (5, 5, 5),
        (6, 6, 6),
        (8, 8, 8),
        (3, 6, 8),
        (8, 4, 4),
        (7, 7, 7),
    ] {
        out.push(matmul(m1, m2, m3).dag);
    }
    for (m, d) in [
        (4, 2),
        (4, 4),
        (6, 3),
        (8, 2),
        (8, 4),
        (8, 8),
        (12, 4),
        (16, 4),
    ] {
        out.push(attention_qk(m, d).dag);
    }
    for depth in 3..=8 {
        out.push(binary_tree(depth));
    }
    for (k, depth) in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)] {
        out.push(kary_tree(k, depth).dag);
    }
    // Fixed sizes, seeded edges: the seed changes the graphs, not how much
    // work each request is.
    for i in 0..RANDOM_SHAPES {
        out.push(random_layered(RandomLayeredConfig {
            layers: 3 + i % 8,
            width: 4 + (i * 5) % 13,
            max_in_degree: 2 + i % 3,
            seed: rng.next_u64(),
        }));
    }
    out
}

/// One prepared request.
struct Request {
    /// Index of its (shape, r) pair.
    pair: usize,
    r: usize,
    body: String,
    /// The pair's first request: a cold solve.
    first: bool,
}

/// The seeded request sequence: every pair once, plus `REPEATS` repeats
/// shared out over the pairs by a Zipf(1) popularity (largest remainders).
/// The ranking is fixed, so the mix of shapes is the same for every seed;
/// the seed draws the order of the sequence, the relabellings, the formats
/// and the random-layered shapes.
fn requests(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let shapes = shapes(&mut rng);
    let pairs: Vec<(usize, usize)> = (0..shapes.len()).flat_map(|s| [(s, 8), (s, 16)]).collect();
    // The fixed kernels (FFT, matmul, attention, trees) are the popular
    // shapes, the seeded random DAGs the long tail.
    let fixed = 2 * (shapes.len() - RANDOM_SHAPES);
    let mut popularity = Rng::new(POPULARITY_SEED);
    let mut ranking: Vec<usize> = (0..pairs.len()).collect();
    popularity.shuffle(&mut ranking[..fixed]);
    popularity.shuffle(&mut ranking[fixed..]);
    let total: f64 = (1..=pairs.len()).map(|k| 1.0 / k as f64).sum();
    let quota: Vec<f64> = (1..=pairs.len())
        .map(|k| REPEATS as f64 / k as f64 / total)
        .collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pairs.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = REPEATS - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    for (k, &count) in counts.iter().enumerate() {
        order.extend(std::iter::repeat_n(ranking[k], count));
    }
    rng.shuffle(&mut order);
    // Each pair's requests rotate through the three formats from a seeded
    // starting point, so every seed parses about the same mix.
    let mut nth: Vec<usize> = (0..pairs.len()).map(|_| rng.below(FORMATS.len())).collect();
    let mut seen = vec![false; pairs.len()];
    order
        .into_iter()
        .map(|pair| {
            let (shape, r) = pairs[pair];
            let dag = relabel(&shapes[shape], &mut rng);
            let format = FORMATS[nth[pair] % FORMATS.len()];
            nth[pair] += 1;
            Request {
                pair,
                r,
                body: pebble_io::write(&dag, format),
                first: !std::mem::replace(&mut seen[pair], true),
            }
        })
        .collect()
}

/// Hands requests to the clients in sequence order, holding back a repeat
/// until its pair's cold request has been answered. Once the sequence is
/// exhausted and time remains, it cycles through the repeats again.
struct Dispatch {
    state: Mutex<DispatchState>,
    answered: Condvar,
}

struct DispatchState {
    next: usize,
    held: Vec<usize>,
    cold_done: Vec<bool>,
    extra: usize,
}

impl Dispatch {
    fn new(pairs: usize) -> Dispatch {
        Dispatch {
            state: Mutex::new(DispatchState {
                next: 0,
                held: Vec::new(),
                cold_done: vec![false; pairs],
                extra: 0,
            }),
            answered: Condvar::new(),
        }
    }

    fn take(&self, reqs: &[Request], repeats: &[usize], until: Instant) -> Option<usize> {
        let mut st = self.state.lock().expect("dispatch poisoned");
        loop {
            if let Some(pos) = st.held.iter().position(|&i| st.cold_done[reqs[i].pair]) {
                return Some(st.held.swap_remove(pos));
            }
            if st.next < reqs.len() {
                let i = st.next;
                st.next += 1;
                if reqs[i].first || st.cold_done[reqs[i].pair] {
                    return Some(i);
                }
                st.held.push(i);
                continue;
            }
            if !st.held.is_empty() {
                st = self.answered.wait(st).expect("dispatch poisoned");
                continue;
            }
            if Instant::now() < until && !repeats.is_empty() {
                let i = repeats[st.extra % repeats.len()];
                st.extra += 1;
                return Some(i);
            }
            return None;
        }
    }

    fn done(&self, req: &Request) {
        if req.first {
            let mut st = self.state.lock().expect("dispatch poisoned");
            st.cold_done[req.pair] = true;
            self.answered.notify_all();
        }
    }
}

/// One answered request.
struct Answer {
    request: usize,
    status: u16,
    latency_s: f64,
    body: String,
}

impl Answer {
    fn is_hit(&self) -> bool {
        self.body.contains("\"cache\":\"hit\"")
    }

    /// The certificate: the body's suffix from `"report":`.
    fn certificate(&self) -> Option<&str> {
        self.body.find("\"report\":").map(|i| &self.body[i..])
    }

    fn report(&self) -> Result<ScheduleReport, String> {
        let cert = self.certificate().ok_or("response has no report")?;
        let json = cert["\"report\":".len()..]
            .strip_suffix('}')
            .ok_or("truncated report")?;
        serde_json::from_str(json).map_err(|e| format!("unreadable report: {e:?}"))
    }

    /// A value of the response's `"stages"` object, in milliseconds.
    fn stage_ms(&self, key: &str) -> Option<f64> {
        let stages = &self.body[self.body.find("\"stages\":{")?..];
        let stages = &stages[..stages.find('}')?];
        let pat = format!("\"{key}\":");
        let rest = &stages[stages.find(&pat)? + pat.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse::<f64>().ok().map(|us| us / 1e3)
    }

    fn stages_ms(&self) -> f64 {
        [
            "read_us",
            "parse_us",
            "canon_us",
            "cache_us",
            "solve_us",
            "validate_us",
        ]
        .iter()
        .filter_map(|k| self.stage_ms(k))
        .sum()
    }
}

/// A scratch directory inside the working directory.
fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Program set-up: open an empty cache, start the server, and wait until
/// it answers.
fn start_server(tag: &str) -> Result<(Server, String), String> {
    let cache = ScheduleCache::open(work_dir(tag)).map_err(|e| e.to_string())?;
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        solver_workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(&config, Arc::new(cache)).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    match client_request(&addr, "GET", "/healthz", b"", TIMEOUT) {
        Ok((200, _)) => Ok((server, addr)),
        other => {
            stop_server(server);
            Err(format!("server did not come up: {other:?}"))
        }
    }
}

fn stop_server(server: Server) {
    let dir = server.cache().dir().to_path_buf();
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// One measured phase on a fresh server: the whole sequence, then repeats
/// until `seconds` have passed. Returns the answers and the phase's wall
/// time.
fn phase(
    reqs: &[Request],
    seconds: f64,
    depth_max: &AtomicI64,
) -> Result<(Vec<Answer>, f64), String> {
    let (server, addr) = start_server("phase")?;
    let repeats: Vec<usize> = (0..reqs.len()).filter(|&i| !reqs[i].first).collect();
    let dispatch = Dispatch::new(reqs.len());
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let running = AtomicBool::new(true);
    let depth = Registry::global().gauge(
        "serve_pool_queue_depth",
        "Jobs waiting in the worker pool",
        &[],
    );
    let answers: Vec<Answer> = std::thread::scope(|scope| {
        scope.spawn(|| {
            while running.load(Ordering::Relaxed) {
                depth_max.fetch_max(depth.get(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some(i) = dispatch.take(reqs, &repeats, until) {
                        let req = &reqs[i];
                        let path = format!("/v1/schedule?r={}", req.r);
                        let sent = Instant::now();
                        let result =
                            client_request(&addr, "POST", &path, req.body.as_bytes(), TIMEOUT);
                        let latency_s = sent.elapsed().as_secs_f64();
                        dispatch.done(req);
                        let (status, body) = match result {
                            Ok((status, body)) => {
                                (status, String::from_utf8_lossy(&body).into_owned())
                            }
                            Err(e) => (0, format!("{e:?}")),
                        };
                        out.push(Answer {
                            request: i,
                            status,
                            latency_s,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        let answers = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        running.store(false, Ordering::Relaxed);
        answers
    });
    let wall_s = started.elapsed().as_secs_f64();
    stop_server(server);
    Ok((answers, wall_s))
}

/// The checks of one phase, and the benchmark's own ladder time on each
/// pair's cold DAG.
struct Checked {
    gaps: Vec<f64>,
    ladder_s: f64,
}

/// Check every answer: status 200, a report whose ladder equals the
/// benchmark's recomputation on that request's DAG, and hits that serve
/// the cold certificate byte for byte.
fn check_phase(reqs: &[Request], answers: &[Answer], tally: &mut Tally) -> Checked {
    // Every cold certificate per pair: a repeat whose cached entry fails
    // re-validation is solved cold again and may replace the entry.
    let mut colds: Vec<Vec<&str>> = vec![Vec::new(); reqs.len()];
    for a in answers.iter().filter(|a| a.status == 200 && !a.is_hit()) {
        colds[reqs[a.request].pair].extend(a.certificate());
    }
    // Ladders are recomputed on two threads; they are the costly part.
    let verdicts: Vec<(Result<f64, String>, f64)> = std::thread::scope(|scope| {
        let half = answers.len().div_ceil(2);
        let workers: Vec<_> = answers
            .chunks(half.max(1))
            .map(|chunk| {
                let colds = &colds;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|a| check_answer(reqs, a, colds))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check thread panicked"))
            .collect()
    });
    let mut checked = Checked {
        gaps: Vec::new(),
        ladder_s: 0.0,
    };
    for (a, (verdict, ladder_s)) in answers.iter().zip(verdicts) {
        tally.record(verdict.is_ok());
        match verdict {
            Ok(gap) => checked.gaps.push(gap),
            Err(e) => eprintln!("serve-mixed: request {}: {e}", a.request),
        }
        if reqs[a.request].first {
            checked.ladder_s += ladder_s;
        }
    }
    checked
}

/// `(gap or failure, seconds spent recomputing the ladder)`.
fn check_answer(reqs: &[Request], a: &Answer, colds: &[Vec<&str>]) -> (Result<f64, String>, f64) {
    let req = &reqs[a.request];
    if a.status != 200 {
        return (Err(format!("status {}: {}", a.status, a.body)), 0.0);
    }
    let report = match a.report() {
        Ok(report) => report,
        Err(e) => return (Err(e), 0.0),
    };
    let dag = match pebble_io::parse(&req.body, Format::sniff(&req.body)) {
        Ok(dag) => dag,
        Err(e) => return (Err(format!("request does not parse: {e}")), 0.0),
    };
    let started = Instant::now();
    let (ladder, _) = prbp_bound_ladder(&dag, req.r, BoundSet::auto_for(&dag));
    let ladder_s = started.elapsed().as_secs_f64();
    let mut verdict = check_report(&report, req.r, &ladder, None);
    if verdict.is_ok() && a.is_hit() {
        let hit = a.certificate().unwrap_or_default();
        verdict = colds[req.pair]
            .iter()
            .map(|cold| check_hit(hit, cold))
            .find(Result::is_ok)
            .unwrap_or_else(|| Err(format!("hit certificate {hit} matches no cold certificate")));
    }
    (verdict.map(|()| report.gap()), ladder_s)
}

/// The benchmark's own `ScheduleCache::insert` calls: one per pair, with a
/// greedy certificate, into a private cache. Milliseconds per insert.
fn insert_probe(reqs: &[Request]) -> Result<Vec<f64>, String> {
    let cache = ScheduleCache::open(work_dir("insert-probe")).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for req in reqs.iter().filter(|r| r.first) {
        let dag =
            pebble_io::parse(&req.body, Format::sniff(&req.body)).map_err(|e| e.to_string())?;
        let form = canonical_form(&dag);
        let ord = order::dfs_postorder(&dag);
        let trace = greedy_prbp(&dag, req.r, &ord, &mut FurthestInFuture).ok_or("greedy failed")?;
        let report = certify_prbp_with(&dag, req.r, &trace, "probe", BoundSet::auto_for(&dag))
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        cache
            .insert(&dag, &form, req.r, &report, &trace)
            .map_err(|e| e.to_string())?;
        out.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(cache.dir());
    Ok(out)
}

/// The geometric mean of hit latency, the basis of `trace_overhead_pct`.
/// (The median sits between clusters of differently sized shapes and jumps
/// between them from run to run; the geometric mean does not.)
fn hit_geomean_ms(answers: &[Answer]) -> f64 {
    let hits = answers.iter().filter(|a| a.status == 200 && a.is_hit());
    geomean(&latencies_ms(hits)).unwrap_or(0.0)
}

fn latencies_ms<'a>(answers: impl Iterator<Item = &'a Answer>) -> Vec<f64> {
    answers.map(|a| a.latency_s * 1e3).collect()
}

/// Program set-up: open an empty cache, start the server and get its first
/// answer (`GET /healthz`; a first cold request would time the cache's
/// `fsync`, which varies more than the rest put together).
pub fn set_up(ready: impl FnOnce()) -> Result<(), String> {
    let (server, _) = start_server("setup")?;
    ready();
    stop_server(server);
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let reqs = requests(opts.seed);
    let mut setups = time_set_ups(&opts.workload, SETUPS / 2)?;
    let depth_max = AtomicI64::new(0);
    let rss = machine::RssSampler::start();
    let (untraced, _) = phase(&reqs, opts.seconds, &depth_max)?;
    let rss_mb = rss.finish();
    let peak_rss_mb = machine::peak_rss_mb();
    setups.extend(time_set_ups(&opts.workload, SETUPS - SETUPS / 2)?);
    let traced = if opts.trace {
        let before = Snapshot::take();
        let spans = SpanLedger::install();
        depth_max.store(0, Ordering::Relaxed);
        let result = phase(&reqs, opts.seconds, &depth_max);
        SpanLedger::uninstall();
        let (answers, wall_s) = result?;
        Some((spans, answers, wall_s, Snapshot::take().since(&before)))
    } else {
        None
    };

    let mut tally = Tally::default();
    let checked = check_phase(&reqs, &untraced, &mut tally);
    // One pass over the pool: each pair's first, cold request.
    let cold_s: f64 = untraced
        .iter()
        .filter(|a| a.status == 200 && reqs[a.request].first)
        .map(|a| a.latency_s)
        .sum();
    let end_to_end = vec![
        metric("setup_s", median(&setups).expect("set-ups ran"), "s"),
        metric("certify_s", cold_s, "s"),
        metric(
            "gap_geomean",
            geomean(&checked.gaps).unwrap_or(0.0),
            "ratio",
        ),
    ];

    let mut per_layer = Vec::new();
    if let Some((spans, answers, wall_s, counters)) = traced {
        let traced_checked = check_phase(&reqs, &answers, &mut tally);
        let ok: Vec<&Answer> = answers.iter().filter(|a| a.status == 200).collect();
        let hits: Vec<&Answer> = ok.iter().copied().filter(|a| a.is_hit()).collect();
        let colds: Vec<&Answer> = ok.iter().copied().filter(|a| !a.is_hit()).collect();
        let stage = |set: &[&Answer], key: &str| -> Vec<f64> {
            set.iter().filter_map(|a| a.stage_ms(key)).collect()
        };
        let parse_ms: f64 = stage(&ok, "parse_us").iter().sum();
        let bytes: usize = ok.iter().map(|a| reqs[a.request].body.len()).sum();
        let solve_ms = stage(&colds, "solve_us");
        let overshoot: Vec<f64> = solve_ms.iter().map(|s| s - DEADLINE_MS).collect();
        let proven = colds
            .iter()
            .filter(|a| a.report().is_ok_and(|r| r.scheduler == "anytime:optimal"))
            .count();
        let overhead: Vec<f64> = ok
            .iter()
            .map(|a| a.latency_s * 1e3 - a.stages_ms())
            .collect();
        let (hit_n, miss_n) = (counters.cache_hits, counters.cache_misses);
        let traced_op_ms = hit_geomean_ms(&answers);
        let latency_sum: f64 = ok.iter().map(|a| a.latency_s * 1e3).sum();
        let stages_sum: f64 = ok.iter().map(|a| a.stages_ms()).sum();
        let insert_ms = insert_probe(&reqs)?;

        let mut layers = Layers::default();
        layers.set("io.parse_s", parse_ms / 1e3);
        layers.set("io.parse_mb_per_s", bytes as f64 / 1e6 / (parse_ms / 1e3));
        layers.set_opt("canon.ms_p50", median(&stage(&ok, "canon_us")));
        layers.set("canon.calls", stage(&ok, "canon_us").len() as f64);
        layers.set_opt("cache.lookup_ms_p50", median(&stage(&hits, "cache_us")));
        layers.set_opt("cache.insert_ms_p50", median(&insert_ms));
        layers.set("cache.hit_ratio", hit_n / (hit_n + miss_n).max(1.0));
        layers.set(
            "cache.revalidation_failures",
            counters.revalidation_failures,
        );
        layers.set_opt("http.overhead_ms_p50", median(&overhead));
        layers.set(
            "pool.queue_depth_max",
            depth_max.load(Ordering::Relaxed) as f64,
        );
        layers.set_opt("anytime.solve_ms_p50", median(&solve_ms));
        layers.set_opt("anytime.overshoot_ms_p50", median(&overshoot));
        layers.set("anytime.seed_busy_s", spans.busy_s("anytime:seed"));
        layers.set("anytime.improve_busy_s", spans.busy_s("anytime:improve"));
        layers.set(
            "anytime.proven_ratio",
            proven as f64 / colds.len().max(1) as f64,
        );
        layers.set_portfolio(&spans, 1.0);
        layers.set("bounds.ladder_s", traced_checked.ladder_s);
        layers.set_engine(&counters, 1.0);
        layers.set(
            "sim.validate_s",
            stage(&colds, "validate_us").iter().sum::<f64>() / 1e3,
        );
        layers.set_opt(
            "serve.hit_ms_p50",
            median(&latencies_ms(hits.iter().copied())),
        );
        layers.set_opt(
            "serve.hit_ms_p99",
            tail_percentile(&latencies_ms(hits.iter().copied()), 99.0),
        );
        layers.set_opt(
            "serve.cold_ms_p50",
            median(&latencies_ms(colds.iter().copied())),
        );
        layers.set_opt(
            "serve.cold_ms_p90",
            tail_percentile(&latencies_ms(colds.iter().copied()), 90.0),
        );
        layers.set("serve.req_per_s", ok.len() as f64 / wall_s);
        layers.set("blocking_path_pct", 100.0 * stages_sum / latency_sum);
        let op_ms = hit_geomean_ms(&untraced);
        layers.set("trace_overhead_pct", 100.0 * (traced_op_ms - op_ms) / op_ms);
        layers.set_opt("mem.peak_rss_mb", peak_rss_mb);
        layers.set_opt("mem.rss_mb_p50", median(&rss_mb));
        layers.set("fail_ratio", tally.ratio());
        per_layer = layers.into_metrics();
    }
    let _ = std::fs::remove_dir(".bench_work");
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
    })
}
