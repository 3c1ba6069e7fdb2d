//! Cold requests under the server's default 250 ms deadline: the certified
//! compose solve answers fft-64 at the paper's blocked-strategy gap, and
//! answers the 11,264-node fft-1024 within twice the deadline instead of
//! timing out.
//!
//! Release-only: debug builds are slow enough to turn the deadline
//! assertions into noise.

#![cfg(not(debug_assertions))]

use pebble_dag::generators::fft;
use pebble_io::Format;
use pebble_sched::{prbp_bound_ladder, BoundSet, ScheduleReport};
use pebble_serve::http::client_request;
use pebble_serve::{ScheduleCache, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One test, so the two solves do not share the machine with each other.
#[test]
fn cold_requests_meet_the_default_deadline() {
    let dir = std::env::temp_dir().join(format!("prbp-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    };
    let deadline = config.deadline;
    assert_eq!(deadline, Duration::from_millis(250));
    let server = Server::start(&config, Arc::new(ScheduleCache::open(&dir).unwrap())).unwrap();
    let addr = server.local_addr().to_string();
    // A cold answer's certificate, checked against the request's own DAG:
    // every ladder entry but `compose` recomputed here, every bound at most
    // the cost.
    let solve = |m: usize| -> (ScheduleReport, Duration) {
        let dag = fft(m).dag;
        let doc = pebble_io::write(&dag, Format::EdgeList);
        let sent = Instant::now();
        let timeout = Duration::from_secs(60);
        let (status, body) =
            client_request(&addr, "POST", "/v1/schedule?r=16", doc.as_bytes(), timeout).unwrap();
        let latency = sent.elapsed();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 200, "fft-{m}: {body}");
        assert!(body.contains("\"cache\":\"miss\""), "{body}");
        let json = &body[body.find("\"report\":").unwrap() + "\"report\":".len()..body.len() - 1];
        let report: ScheduleReport = serde_json::from_str(json).unwrap();
        assert_eq!((report.r, report.scheduler.as_str()), (16, "compose"));
        let (ladder, _) = prbp_bound_ladder(&dag, 16, BoundSet::auto_for(&dag));
        let own = report.bounds.iter().filter(|b| b.name != "compose");
        assert!(own.eq(ladder.iter()), "{:?}", report.bounds);
        let best = report.bounds.iter().map(|b| b.value).max();
        assert_eq!(best, Some(report.best_bound));
        assert!(0 < report.best_bound && report.best_bound <= report.cost);
        (report, latency)
    };

    // The blocked FFT strategy's gap, certified inside the deadline.
    let (report, _) = solve(64);
    assert!(report.gap() <= 2.0, "fft-64 gap {}", report.gap());

    // Large enough that the whole-DAG portfolio runs into the deadline: the
    // best candidate stitched by then is served, certified.
    let (_, latency) = solve(1024);
    assert!(latency <= 2 * deadline, "fft-1024 answered in {latency:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
