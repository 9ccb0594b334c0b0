//! End-to-end service conformance over real loopback sockets.
//!
//! The contract under test: anything `um-serve` hands back is
//! byte-identical to what a direct in-process run of the same scenario
//! produces; repeat submissions are cache hits that skip re-simulation;
//! a full admission queue answers 429 with a `Retry-After` hint;
//! malformed submissions answer 400 with the scenario layer's field-path
//! errors; and an over-long request line answers 400 instead of hanging.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use um_bench::benchjson::{obj, Json};
use um_bench::scenario::{self, ScenarioKind};
use um_serve::client::{self, HttpResponse};
use um_serve::http::MAX_LINE_BYTES;
use um_serve::server;
use um_serve::service::{JobService, ServiceConfig};

/// A one-point grid scenario small enough for 32 concurrent copies.
fn tiny_scenario(seed: u64) -> scenario::Scenario {
    let mut s = scenario::registry::sweep_default();
    s.scale.horizon_us = 3_000.0;
    s.scale.warmup_us = 300.0;
    if let ScenarioKind::Grid(g) = &mut s.kind {
        g.loads = vec![2_000.0];
        g.seeds = vec![seed];
        g.policies.truncate(1);
    }
    s.validate().expect("tiny scenario is valid");
    s
}

fn start(config: ServiceConfig) -> (std::net::SocketAddr, Arc<JobService>) {
    let service = JobService::new(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server::spawn(listener, Arc::clone(&service));
    (addr, service)
}

fn get(addr: std::net::SocketAddr, path: &str) -> HttpResponse {
    client::request(addr, "GET", path, None).expect("GET over loopback")
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> HttpResponse {
    client::request(addr, "POST", path, Some(body)).expect("POST over loopback")
}

/// The envelope a direct in-process run produces — what `/result` must
/// match byte-for-byte.
fn direct_envelope(s: &scenario::Scenario) -> (String, String) {
    let out = scenario::run(s).expect("direct run succeeds");
    let points = out.points.clone().expect("grid scenarios emit points");
    let envelope = obj(vec![
        ("bench", Json::Str(s.name.clone())),
        ("scale", Json::Str("full".to_string())),
        ("points", points),
    ])
    .render();
    (envelope, out.text)
}

fn submitted_id(resp: &HttpResponse) -> u64 {
    assert_eq!(resp.status, 200, "submit failed: {}", resp.body);
    Json::parse(&resp.body)
        .expect("submit answers JSON")
        .get("id")
        .and_then(Json::as_num)
        .expect("submit answers an id") as u64
}

/// Polls `/jobs/<id>` until done, checking every intermediate answer is
/// a well-formed status document.
fn poll_until_done(addr: std::net::SocketAddr, id: u64) {
    loop {
        let resp = get(addr, &format!("/jobs/{id}"));
        assert_eq!(resp.status, 200, "status failed: {}", resp.body);
        let doc = Json::parse(&resp.body).expect("status answers JSON");
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => return,
            Some("queued") => {}
            Some("running") => {
                let done = doc.get("done").and_then(Json::as_num).expect("progress");
                let total = doc.get("total").and_then(Json::as_num).expect("progress");
                assert!(done <= total, "progress overshot: {done}/{total}");
            }
            other => panic!("unexpected status {other:?}: {}", resp.body),
        }
        thread::yield_now();
    }
}

#[test]
fn concurrent_submissions_match_direct_runs_byte_for_byte() {
    let (addr, _service) = start(ServiceConfig {
        workers: 4,
        queue_depth: 64,
        retry_after_secs: 1,
    });

    const CLIENTS: usize = 32;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let s = tiny_scenario(100 + c as u64);
                let id = submitted_id(&post(addr, "/jobs", &s.to_json_text()));
                poll_until_done(addr, id);

                let (envelope, text) = direct_envelope(&s);
                let result = get(addr, &format!("/jobs/{id}/result"));
                assert_eq!(result.status, 200);
                assert_eq!(
                    result.body, envelope,
                    "service envelope diverged from the direct run"
                );
                let result_text = get(addr, &format!("/jobs/{id}/result/text"));
                assert_eq!(result_text.status, 200);
                assert_eq!(
                    result_text.body, text,
                    "service text diverged from the direct run"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

#[test]
fn repeat_submission_is_a_cache_hit_that_skips_simulation() {
    let (addr, service) = start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        retry_after_secs: 1,
    });
    let body = tiny_scenario(7).to_json_text();

    let first = post(addr, "/jobs", &body);
    let first_id = submitted_id(&first);
    assert_eq!(
        Json::parse(&first.body).unwrap().get("cached"),
        Some(&Json::Bool(false))
    );
    poll_until_done(addr, first_id);
    let fresh = get(addr, &format!("/jobs/{first_id}/result"));

    let second = post(addr, "/jobs", &body);
    let second_id = submitted_id(&second);
    assert_eq!(
        Json::parse(&second.body).unwrap().get("cached"),
        Some(&Json::Bool(true)),
        "same canonical bytes must hit the cache"
    );
    let cached = get(addr, &format!("/jobs/{second_id}/result"));
    assert_eq!(
        cached.body, fresh.body,
        "cached result must be byte-identical"
    );

    let stats = service.stats();
    assert_eq!(
        stats.simulations_run, 1,
        "the cache hit must not re-simulate"
    );
    assert_eq!(stats.cache_hits, 1);

    // A different seed is a different key: the wrapper form folds it into
    // scale.seed before canonicalization.
    let wrapper = format!("{{\"scenario\": {body}, \"seed\": 8}}");
    let third = post(addr, "/jobs", &wrapper);
    assert_eq!(
        Json::parse(&third.body).unwrap().get("cached"),
        Some(&Json::Bool(false)),
        "a new seed must miss the cache"
    );
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // Zero workers: admitted jobs sit in the queue forever, so admission
    // is deterministic — depth 2 accepts exactly two jobs.
    let (addr, _service) = start(ServiceConfig {
        workers: 0,
        queue_depth: 2,
        retry_after_secs: 3,
    });

    for seed in [1, 2] {
        let resp = post(addr, "/jobs", &tiny_scenario(seed).to_json_text());
        assert_eq!(resp.status, 200, "queue has room: {}", resp.body);
    }
    let rejected = post(addr, "/jobs", &tiny_scenario(3).to_json_text());
    assert_eq!(rejected.status, 429);
    assert_eq!(
        rejected.header("retry-after"),
        Some("3"),
        "429 must carry the Retry-After hint"
    );
    let doc = Json::parse(&rejected.body).expect("429 answers JSON");
    assert!(doc.get("error").is_some(), "429 names the condition");
}

#[test]
fn invalid_submissions_answer_400_with_field_path_errors() {
    let (addr, _service) = start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        retry_after_secs: 1,
    });

    let not_json = post(addr, "/jobs", "this is not json");
    assert_eq!(not_json.status, 400);

    // An unknown field inside the scenario document: the error must carry
    // the scenario layer's field path.
    let mut s = tiny_scenario(1).to_json_text();
    assert!(s.contains("\"name\""), "canonical text names the scenario");
    s = s.replacen("\"name\"", "\"surprise\": 1, \"name\"", 1);
    let unknown = post(addr, "/jobs", &s);
    assert_eq!(unknown.status, 400);
    assert!(
        unknown.body.contains("surprise"),
        "error must name the offending field: {}",
        unknown.body
    );

    let bad_seed = format!(
        "{{\"scenario\": {}, \"seed\": -1}}",
        tiny_scenario(1).to_json_text()
    );
    let rejected = post(addr, "/jobs", &bad_seed);
    assert_eq!(rejected.status, 400);
    assert!(
        rejected.body.contains("seed"),
        "error must name the seed: {}",
        rejected.body
    );

    let unknown_wrapper = format!(
        "{{\"scenario\": {}, \"extra\": true}}",
        tiny_scenario(1).to_json_text()
    );
    let rejected = post(addr, "/jobs", &unknown_wrapper);
    assert_eq!(rejected.status, 400);
    assert!(rejected.body.contains("extra"), "{}", rejected.body);
}

#[test]
fn registry_and_healthz_answer() {
    let (addr, _service) = start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        retry_after_secs: 1,
    });

    let registry = get(addr, "/registry");
    assert_eq!(registry.status, 200);
    let doc = Json::parse(&registry.body).expect("registry answers JSON");
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .expect("registry lists scenarios");
    assert_eq!(scenarios.len(), scenario::registry::all().len());
    // Every listed document round-trips through the scenario codec.
    for s in scenarios {
        scenario::Scenario::from_json(s).expect("registry documents are canonical");
    }

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.body).expect("healthz answers JSON");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));

    let missing = get(addr, "/jobs/999");
    assert_eq!(missing.status, 404);
    let not_ready = get(addr, "/nope");
    assert_eq!(not_ready.status, 404);
}

#[test]
fn over_long_request_line_answers_400_instead_of_hanging() {
    let (addr, _service) = start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        retry_after_secs: 1,
    });
    let mut stream = TcpStream::connect(addr).expect("connect over loopback");
    // A server still waiting for the `\n` fails the read, not the suite.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    // A full line's worth of bytes, no terminator, write half left open:
    // the server must give up at the bound rather than wait for more.
    let line = format!("GET /{}", "a".repeat(MAX_LINE_BYTES - 5));
    stream
        .write_all(line.as_bytes())
        .expect("write request line");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("the server answers instead of waiting for a newline");
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("exceeds"), "{raw}");
}
