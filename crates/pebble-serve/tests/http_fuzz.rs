//! Fuzz-style robustness of the request reader: deterministic
//! ChaCha8-seeded mutations of valid request heads and bodies, sent over
//! loopback TCP, must never panic [`read_request`]. Every `Ok` carries a
//! body of at most `max_body` bytes, and a head longer than [`MAX_HEAD`]
//! is always [`HttpError::Malformed`].
//!
//! Mutations are byte-level (flip, insert, delete, truncate) over whole
//! requests; oversized heads (one long line, or many headers) and
//! oversized bodies (declared and actual) round out the suite. Every failure
//! is a deterministic seed, so a regression reproduces exactly.

use pebble_serve::http::{read_request, HttpError, Request, MAX_HEAD};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};

/// Body cap handed to the reader: small, so mutated lengths cross it.
const MAX_BODY: usize = 64;

/// Mutation count per seed request. Debug builds stay quick; the release CI
/// pass turns the screws.
const ROUNDS: usize = if cfg!(debug_assertions) { 150 } else { 600 };

const BODY: &str = "0 2\n1 2\n2 3\n";

/// Valid requests the mutations start from.
fn seeds() -> Vec<Vec<u8>> {
    let post = format!(
        "POST /v1/schedule?r=4&deadline_ms=250 HTTP/1.1\r\nHost: 127.0.0.1\r\n\
         Content-Type: text/plain\r\nContent-Length: {}\r\n\r\n{BODY}",
        BODY.len()
    );
    vec![
        post.into_bytes(),
        b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".to_vec(),
        b"GET /v1/stats?format=json HTTP/1.0\r\ncontent-length: 0\r\n\r\n".to_vec(),
    ]
}

/// Send `bytes` from a client thread and read one request from the accepted
/// connection. The client ignores write errors: the reader may close the
/// connection before the whole request is sent.
fn roundtrip(listener: &TcpListener, bytes: &[u8]) -> Result<Request, HttpError> {
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut client = TcpStream::connect(addr).expect("connect over loopback");
            let _ = client.write_all(bytes);
            let _ = client.shutdown(Shutdown::Write);
        });
        let (mut server, _) = listener.accept().expect("accept");
        read_request(&mut server, MAX_BODY)
    })
}

/// The properties every outcome must have.
fn check(seed: u64, bytes: &[u8], result: &Result<Request, HttpError>) {
    if let Ok(request) = result {
        assert!(
            request.body.len() <= MAX_BODY,
            "seed {seed}: {} body bytes exceed the {MAX_BODY}-byte cap",
            request.body.len()
        );
    }
    // The reader's head ends at the first blank line after the request line.
    let mut head_len = bytes.len();
    let mut start = 0;
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        if i > 0 && line.trim_ascii_end().is_empty() {
            head_len = start;
            break;
        }
        start += line.len();
    }
    if head_len > MAX_HEAD {
        assert!(
            matches!(result, Err(HttpError::Malformed(_))),
            "seed {seed}: a {head_len}-byte head gave {result:?}"
        );
    }
}

fn mutate(rng: &mut ChaCha8Rng, bytes: &[u8]) -> Vec<u8> {
    const NOISE: [u8; 12] = [
        b':', b'\r', b'\n', b' ', b'9', b'0', b'?', b'&', b'=', b'-', 0x00, 0xFF,
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

#[test]
fn byte_mutations_never_panic() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    for (i, seed) in seeds().iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4774_0001 + i as u64);
        for round in 0..ROUNDS {
            let mutated = mutate(&mut rng, seed);
            check(round as u64, &mutated, &roundtrip(&listener, &mutated));
        }
    }
}

#[test]
fn unmutated_seeds_parse() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    for seed in seeds() {
        let request = roundtrip(&listener, &seed).expect("a valid request parses");
        assert!(request.body.is_empty() || request.body == BODY.as_bytes());
    }
}

#[test]
fn oversized_heads_are_malformed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut rng = ChaCha8Rng::seed_from_u64(0x4774_0002);
    for round in 0..ROUNDS / 10 {
        let extra = rng.gen_range(1..4 * MAX_HEAD);
        let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
        if rng.gen_bool(0.5) {
            // One long line: a path or a header value.
            request.extend_from_slice(b"X-Long: ");
            request.extend(std::iter::repeat(b'a').take(MAX_HEAD + extra));
            request.extend_from_slice(b"\r\n");
        } else {
            // Many short headers.
            while request.len() <= MAX_HEAD + extra {
                request.extend_from_slice(b"X-Many: 0123456789\r\n");
            }
        }
        request.extend_from_slice(b"\r\n");
        let result = roundtrip(&listener, &request);
        assert!(
            matches!(result, Err(HttpError::Malformed(_))),
            "round {round}: {result:?}"
        );
        check(round as u64, &request, &result);
    }
}

#[test]
fn oversized_bodies_are_refused_or_capped() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut rng = ChaCha8Rng::seed_from_u64(0x4774_0003);
    for round in 0..ROUNDS / 4 {
        let declared = rng.gen_range(0..4 * MAX_BODY);
        let sent = rng.gen_range(0..4 * MAX_BODY);
        let mut request =
            format!("POST /v1/schedule HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n")
                .into_bytes();
        request.extend(std::iter::repeat(b'1').take(sent));
        let result = roundtrip(&listener, &request);
        check(round as u64, &request, &result);
        match (&result, declared > MAX_BODY, sent >= declared) {
            (Err(HttpError::BodyTooLarge { .. }), true, _) => {}
            (Ok(r), false, true) => assert_eq!(r.body.len(), declared),
            (Err(HttpError::Io(_)), false, false) => {}
            _ => panic!("round {round}: declared {declared}, sent {sent}: {result:?}"),
        }
    }
}
