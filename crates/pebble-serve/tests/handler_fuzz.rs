//! Fuzz-style robustness of the request handlers past `read_request`:
//! deterministic ChaCha8-seeded `POST /v1/schedule` requests against a live
//! server must never make a handler panic. A handler panic is caught and
//! answered with a 500, so no response may be a 500, and every response
//! must be one well-formed JSON object with a `"status"` field.
//!
//! The bodies are Figure 1 and fft-16 in the edge-list, JSON and DOT
//! formats, half of them byte-mutated (flip, insert, delete, truncate). The
//! query strings draw `r` from {0, 1, 2, 4, huge, non-numeric} and
//! `deadline_ms` from {0, 1, 20, huge, non-numeric, absent}, sometimes with
//! a `format` that does not match the body. Every failure is a
//! deterministic seed, so a regression reproduces exactly.

use pebble_dag::generators::{fft, fig1_full};
use pebble_io::Format;
use pebble_serve::http::client_request;
use pebble_serve::{ScheduleCache, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// Requests sent.
const ROUNDS: usize = if cfg!(debug_assertions) { 240 } else { 600 };

const RS: [&str; 8] = [
    "0",
    "1",
    "2",
    "4",
    "18446744073709551615",
    "1000000000000",
    "99999999999999999999999",
    "four",
];

const DEADLINES: [Option<&str>; 7] = [
    Some("0"),
    Some("1"),
    Some("20"),
    Some("18446744073709551615"),
    Some("99999999999999999999999"),
    Some("soon"),
    None,
];

const FORMATS: [&str; 4] = ["json", "dot", "edgelist", "yaml"];

/// The unmutated bodies: Figure 1 and fft-16 in every format.
fn bodies() -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    for dag in [fig1_full().dag, fft(16).dag] {
        for format in [Format::EdgeList, Format::Json, Format::Dot] {
            bodies.push(pebble_io::write(&dag, format).into_bytes());
        }
    }
    bodies
}

fn mutate(rng: &mut ChaCha8Rng, bytes: &[u8]) -> Vec<u8> {
    const NOISE: [u8; 16] = [
        b':', b'\r', b'\n', b' ', b'9', b'0', b'-', b'{', b'}', b'[', b']', b'"', b',', b';', 0x00,
        0xFF,
    ];
    let mut bytes = bytes.to_vec();
    for _ in 0..rng.gen_range(1usize..=4) {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0usize..4) {
            0 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = NOISE[rng.gen_range(0..NOISE.len())];
            }
            1 => {
                let i = rng.gen_range(0..=bytes.len());
                bytes.insert(i, NOISE[rng.gen_range(0..NOISE.len())]);
            }
            2 => {
                let i = rng.gen_range(0..bytes.len());
                bytes.remove(i);
            }
            _ => {
                let i = rng.gen_range(0..bytes.len());
                bytes.truncate(i);
            }
        }
    }
    bytes
}

/// The one field every response body carries.
#[derive(serde::Deserialize)]
struct Status {
    status: String,
}

#[test]
fn mutated_schedule_requests_never_panic_a_handler() {
    let dir = std::env::temp_dir().join(format!("prbp-handler-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ScheduleCache::open(&dir).expect("open the cache"));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        deadline: Duration::from_millis(200),
        solver_workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(&config, cache).expect("start the server");
    let addr = server.local_addr().to_string();
    let bodies = bodies();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4875_0001);
    let mut statuses = std::collections::BTreeMap::new();
    for round in 0..ROUNDS {
        let body = &bodies[rng.gen_range(0..bodies.len())];
        let body = if rng.gen_bool(0.5) {
            mutate(&mut rng, body)
        } else {
            body.clone()
        };
        let mut query = format!("r={}", RS[rng.gen_range(0..RS.len())]);
        if let Some(ms) = DEADLINES[rng.gen_range(0..DEADLINES.len())] {
            query.push_str(&format!("&deadline_ms={ms}"));
        }
        if rng.gen_bool(0.25) {
            query.push_str(&format!(
                "&format={}",
                FORMATS[rng.gen_range(0..FORMATS.len())]
            ));
        }
        let path = format!("/v1/schedule?{query}");
        let (status, response) =
            client_request(&addr, "POST", &path, &body, Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("round {round} ({path}): {e}"));
        let text = String::from_utf8_lossy(&response);
        assert_ne!(status, 500, "round {round} ({path}): {text}");
        let parsed: Status = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("round {round} ({path}): {e}: {text}"));
        assert!(!parsed.status.is_empty(), "round {round}: {text}");
        *statuses.entry(status).or_insert(0usize) += 1;
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    // The mix reaches both certificates and structured rejections.
    assert!(statuses.get(&200).is_some_and(|&n| n > 0), "{statuses:?}");
    assert!(statuses.get(&400).is_some_and(|&n| n > 0), "{statuses:?}");
}
