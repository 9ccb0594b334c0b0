//! `serve-mix`: `um-serve` as its own process, driven over HTTP by an
//! open-loop generator. Jobs arrive as a Poisson process; half are new
//! one-point grid documents (the service simulates them, on the fault and
//! mitigation paths), two fifths repeat earlier documents (the cache
//! answers), one tenth are invalid (a 400 naming the field). Every job is
//! timed from its scheduled send time until its correct answer arrives.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use um_bench::benchjson::Json;
use um_bench::scenario::{self, Scenario};
use um_serve::service::{result_envelope, JobService, ServiceConfig};

use crate::helpers::{goodput_ratio, median, proc_mb, quantile, tail, Metric, Outcome, Outcomes};
use crate::inputs::{self, JobKind, ServeInputs, POLICIES, SERVE_RATE};
use crate::spans::Spans;
use crate::Run;

/// Server start-ups timed per run; the median is reported.
const SETUP_REPS: usize = 9;
/// Seconds of traffic before timing starts. A fresh service answers
/// its first second of jobs an order of magnitude slower than later
/// ones; users of a long-running service do not pay that per job.
const WARMUP_S: f64 = 2.0;
/// Gap between polls of one unfinished job.
const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// A job unanswered this long after it was due has failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(10);
/// Socket timeout for one HTTP exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The goodput latency limit.
const GOODPUT_LIMIT_MS: f64 = 50.0;
/// `/healthz` calls timed for the HTTP floor.
const HEALTHZ_PROBES: usize = 200;
/// Documents timed through the in-process parse/expand/submit calls.
const DOC_PROBES: usize = 200;

fn workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// One HTTP/1.1 exchange on a fresh connection (the service closes each
/// one): status and body. Unlike `um_serve::client`, every socket call
/// has a timeout, so a stalled service fails the run instead of hanging
/// it past its time limit.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("no header/body separator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

/// A running `um-serve`; dropping it kills the process and waits for it.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts `um-serve` on a free loopback port and waits until
    /// `/healthz` answers.
    fn start(bin: &Path) -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("find a free port: {e}"))?
            .port();
        let child = Command::new(bin)
            .args([
                "--port",
                &port.to_string(),
                "--workers",
                &workers().to_string(),
            ])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok((200, _)) = http(server.addr, "GET", "/healthz", "") {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("um-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("um-serve did not answer /healthz".into());
            }
            // Fine-grained: the whole start-up takes about a millisecond.
            thread::sleep(Duration::from_micros(20));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `/healthz` counters: (simulations_run, cache_hits).
    fn counters(&self) -> Result<(u64, u64), String> {
        let (status, body) = http(self.addr, "GET", "/healthz", "")?;
        let doc = Json::parse(&body).map_err(|e| format!("healthz: {e}"))?;
        let n = |k: &str| doc.get(k).and_then(Json::as_num).map(|v| v as u64);
        match (status, n("simulations_run"), n("cache_hits")) {
            (200, Some(s), Some(c)) => Ok((s, c)),
            _ => Err(format!("healthz answered {status}: {body}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What happened to one job.
#[derive(Clone, Debug, Default)]
struct Record {
    sent_s: f64,
    done_s: Option<f64>,
    /// Final HTTP status: the submit's for refusals and 400s, else the
    /// result fetch's.
    status: u16,
    cached: Option<bool>,
    body: String,
    polls: u32,
    error: Option<String>,
    /// (name, start, end) of each HTTP exchange, for the trace.
    calls: Vec<(&'static str, Instant, Instant)>,
}

struct InFlight {
    job: usize,
    id: u64,
    next_poll: Instant,
}

/// One generator thread: sends every due job it claims, polls its jobs
/// in flight, and sleeps until the next of either is due.
fn generate(
    addr: SocketAddr,
    inputs: &ServeInputs,
    next: &AtomicUsize,
    start: Instant,
    traced: bool,
) -> Vec<(usize, Record)> {
    let jobs = &inputs.jobs;
    let mut records: Vec<(usize, Record)> = Vec::new();
    let mut flights: Vec<InFlight> = Vec::new();
    let at = |s: f64| start + Duration::from_secs_f64(s);
    loop {
        let now = Instant::now();
        let i = next.load(Ordering::Acquire);
        if i < jobs.len() && at(jobs[i].due_s) <= now {
            if next
                .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let mut rec = Record::default();
                let t0 = Instant::now();
                rec.sent_s = (t0 - start).as_secs_f64();
                let answer = http(addr, "POST", "/jobs", &jobs[i].body);
                let t1 = Instant::now();
                if traced {
                    rec.calls.push(("http.submit", t0, t1));
                }
                match answer {
                    Ok((200, body)) => {
                        let doc = Json::parse(&body).ok();
                        let id = doc
                            .as_ref()
                            .and_then(|d| d.get("id"))
                            .and_then(Json::as_num);
                        rec.cached = doc
                            .as_ref()
                            .and_then(|d| d.get("cached"))
                            .map(|c| *c == Json::Bool(true));
                        match id {
                            Some(id) => {
                                let wait = if rec.cached == Some(true) {
                                    Duration::ZERO
                                } else {
                                    POLL_INTERVAL
                                };
                                flights.push(InFlight {
                                    job: i,
                                    id: id as u64,
                                    next_poll: t1 + wait,
                                });
                            }
                            None => {
                                rec.status = 200;
                                rec.error = Some(format!("submit answered without an id: {body}"));
                                rec.done_s = Some((t1 - start).as_secs_f64());
                            }
                        }
                    }
                    Ok((status, body)) => {
                        rec.status = status;
                        rec.body = body;
                        rec.done_s = Some((t1 - start).as_secs_f64());
                    }
                    Err(e) => {
                        rec.error = Some(e);
                        rec.done_s = Some((t1 - start).as_secs_f64());
                    }
                }
                records.push((i, rec));
            }
            continue;
        }
        if let Some(k) = (0..flights.len()).min_by_key(|&k| flights[k].next_poll) {
            if flights[k].next_poll <= now {
                let f = &mut flights[k];
                let rec = &mut records
                    .iter_mut()
                    .rev()
                    .find(|(j, _)| *j == f.job)
                    .expect("record exists")
                    .1;
                let t0 = Instant::now();
                let answer = http(addr, "GET", &format!("/jobs/{}/result", f.id), "");
                let t1 = Instant::now();
                if traced {
                    rec.calls.push(("http.poll", t0, t1));
                }
                rec.polls += 1;
                let overdue = t1 > at(jobs[f.job].due_s) + JOB_TIMEOUT;
                match answer {
                    Ok((409, _)) if !overdue => f.next_poll = t1 + POLL_INTERVAL,
                    Ok((status, body)) => {
                        rec.status = status;
                        rec.body = body;
                        rec.done_s = Some((t1 - start).as_secs_f64());
                        flights.swap_remove(k);
                    }
                    Err(e) => {
                        rec.error = Some(e);
                        rec.done_s = Some((t1 - start).as_secs_f64());
                        flights.swap_remove(k);
                    }
                }
                continue;
            }
        }
        let next_due = (i < jobs.len()).then(|| at(jobs[i].due_s));
        let next_poll = flights.iter().map(|f| f.next_poll).min();
        let Some(wake) = next_due.into_iter().chain(next_poll).min() else {
            break; // nothing left to send or poll
        };
        // Sleeping, not spinning: on a small host a spinning generator
        // takes the cores the service under test needs.
        thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    records
}

/// The envelope a direct `scenario::run` produces for each document,
/// computed on every core after timing.
fn expected_envelopes(docs: &[String]) -> Vec<String> {
    let n = workers();
    let chunk = docs.len().div_ceil(n).max(1);
    thread::scope(|scope| {
        let handles: Vec<_> = docs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|doc| {
                            let s = Scenario::from_json_text(doc)
                                .expect("generated documents are valid");
                            let out =
                                scenario::run_with_threads(&s, 1).expect("valid scenarios run");
                            result_envelope(&s.name, &out).render()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread"))
            .collect()
    })
}

/// Judges one job against its expected answer.
fn judge(job: &inputs::Job, rec: &Record, expected: &[String]) -> Result<(), String> {
    if let Some(e) = &rec.error {
        return Err(e.clone());
    }
    match job.kind {
        JobKind::Invalid => {
            let path = job.bad_path.expect("invalid jobs name a path");
            let error = Json::parse(&rec.body)
                .ok()
                .and_then(|d| d.get("error").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            if rec.status == 400 && error.contains(path) {
                Ok(())
            } else {
                Err(format!(
                    "invalid document answered {} {:?}, not a 400 naming {path}",
                    rec.status, rec.body
                ))
            }
        }
        JobKind::Miss | JobKind::Hit => {
            let want_cached = job.kind == JobKind::Hit;
            let doc = job.doc.expect("valid jobs name a document");
            if rec.status != 200 {
                Err(format!("answered {}: {}", rec.status, rec.body))
            } else if rec.cached != Some(want_cached) {
                Err(format!("cached = {:?}, expected {want_cached}", rec.cached))
            } else if rec.body != expected[doc] {
                Err("result differs from a direct scenario::run".into())
            } else {
                Ok(())
            }
        }
    }
}

/// Everything one open-loop pass measured.
struct Pass {
    setup_s: Vec<f64>,
    records: Vec<Record>,
    peak_rss_mb: f64,
    rss_growth_mb: f64,
    counters: (u64, u64),
    healthz_ms: Vec<f64>,
}

/// Starts the service, drives the schedule through it, and reads its
/// counters and memory before stopping it. `traced` records every HTTP
/// exchange and times the `/healthz` floor first.
fn run_pass(bin: &Path, inputs: &ServeInputs, traced: bool) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t = Instant::now();
        server = Some(Server::start(bin)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("started at least once");
    let healthz_probes = if traced { HEALTHZ_PROBES } else { 0 };
    let healthz_ms = (0..healthz_probes)
        .map(|_| {
            let t = Instant::now();
            http(server.addr, "GET", "/healthz", "").map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rss_before = proc_mb(&server.pid(), "VmRSS").ok_or("um-serve VmRSS")?;

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut per_job: Vec<Option<Record>> = vec![None; inputs.jobs.len()];
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers())
            .map(|_| scope.spawn(|| generate(server.addr, inputs, &next, start, traced)))
            .collect();
        for h in handles {
            for (i, rec) in h.join().expect("generator thread") {
                per_job[i] = Some(rec);
            }
        }
    });
    let counters = server.counters()?;
    let peak_rss_mb = proc_mb(&server.pid(), "VmHWM").ok_or("um-serve VmHWM")?;
    let rss_after = proc_mb(&server.pid(), "VmRSS").ok_or("um-serve VmRSS")?;
    drop(server);
    Ok(Pass {
        setup_s,
        records: per_job
            .into_iter()
            .map(|r| r.expect("every job was sent"))
            .collect(),
        peak_rss_mb,
        rss_growth_mb: rss_after - rss_before,
        counters,
        healthz_ms,
    })
}

/// One judged job.
struct Judged {
    kind: JobKind,
    outcome: Outcome,
    /// From the job's due time to its answer.
    latency_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
    due_s: f64,
}

impl Judged {
    /// Due after the warm-up: counted in the latency metrics.
    fn timed(&self) -> bool {
        self.due_s >= WARMUP_S
    }
}

/// Checks every answer against a direct run after timing, and the
/// service's counters against the schedule.
fn judge_pass(inputs: &ServeInputs, pass: &Pass, outcomes: &mut Outcomes) -> Vec<Judged> {
    let expected = expected_envelopes(&inputs.docs);
    let mut judged = Vec::new();
    for (i, (job, rec)) in inputs.jobs.iter().zip(&pass.records).enumerate() {
        let verdict = judge(job, rec, &expected);
        let ok = verdict.is_ok();
        outcomes.check(ok, || {
            format!(
                "serve-mix: job {i} ({:?}): {}",
                job.kind,
                verdict.unwrap_err()
            )
        });
        judged.push(Judged {
            kind: job.kind,
            outcome: if ok {
                Outcome::Correct
            } else {
                Outcome::Failed
            },
            latency_ms: rec.done_s.map_or(f64::INFINITY, |d| (d - job.due_s) * 1e3),
            late_ms: (rec.sent_s - job.due_s).max(0.0) * 1e3,
            due_s: job.due_s,
        });
    }
    let hits = inputs
        .jobs
        .iter()
        .filter(|j| j.kind == JobKind::Hit)
        .count() as u64;
    let (sims, cache_hits) = pass.counters;
    outcomes.check(sims == inputs.docs.len() as u64 && cache_hits == hits, || {
        format!(
            "serve-mix: service ran {sims} simulations and {cache_hits} cache hits for {} documents and {hits} repeats",
            inputs.docs.len()
        )
    });
    judged
}

/// Latencies of the correctly answered timed jobs of these kinds.
fn latencies(judged: &[Judged], kinds: &[JobKind]) -> Vec<f64> {
    judged
        .iter()
        .filter(|j| j.timed() && kinds.contains(&j.kind) && j.outcome == Outcome::Correct)
        .map(|j| j.latency_ms)
        .collect()
}

/// p50 and p99 (nearest rank) of `v`, 0 when empty; the tail rule's
/// pick and the sample count go to stderr.
fn p50_p99(label: &str, mut v: Vec<f64>) -> (f64, f64) {
    match tail(&v) {
        Some(t) => eprintln!(
            "serve-mix: {label}: {} samples, highest percentile with >= 10 beyond: p{} = {:.3} ms ({} beyond)",
            t.count,
            t.quantile * 100.0,
            t.value,
            t.beyond
        ),
        None => eprintln!("serve-mix: {label}: {} samples, too few for a tail", v.len()),
    }
    v.sort_by(f64::total_cmp);
    (
        quantile(&v, 0.5).unwrap_or(0.0),
        quantile(&v, 0.99).unwrap_or(0.0),
    )
}

/// The median over one-second windows (by due time) of each window's
/// median latency: a burst of host noise spoils a window or two, not the
/// run.
fn windowed_p50(judged: &[Judged]) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for j in judged {
        let valid = matches!(j.kind, JobKind::Miss | JobKind::Hit);
        if j.timed() && valid && j.outcome == Outcome::Correct {
            let w = (j.due_s - WARMUP_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(j.latency_ms);
        }
    }
    let p50s: Vec<f64> = windows.iter().filter_map(|w| median(w)).collect();
    median(&p50s).unwrap_or(0.0)
}

fn e2e_metrics(pass: &Pass, judged: &[Judged]) -> Vec<Metric> {
    let last_done = pass
        .records
        .iter()
        .filter_map(|r| r.done_s)
        .fold(0.0, f64::max);
    vec![
        Metric::new("wall_s", last_done - WARMUP_S, "s"),
        Metric::new("setup_s", median(&pass.setup_s).expect("set-ups"), "s"),
        Metric::new("peak_rss_mb", pass.peak_rss_mb, "MB"),
        Metric::new("job_p50_ms", windowed_p50(judged), "ms"),
    ]
}

/// The schedule: a warm-up at the same rate and mix, then `seconds` of
/// timed jobs.
fn schedule(seed: u64, seconds: f64) -> ServeInputs {
    inputs::serve_inputs(seed, WARMUP_S + seconds, SERVE_RATE)
}

/// The timed run: end-to-end metrics only, tracing off.
pub fn e2e(seed: u64, seconds: f64, bin: &Path) -> Result<Run, String> {
    let inputs = schedule(seed, seconds);
    let pass = run_pass(bin, &inputs, false)?;
    let mut outcomes = Outcomes::default();
    let judged = judge_pass(&inputs, &pass, &mut outcomes);
    Ok(Run {
        metrics: e2e_metrics(&pass, &judged),
        outcomes,
    })
}

/// Median of the durations of spans called `name`, in `scale` units per
/// second.
fn median_span(spans: &Spans, name: &str, scale: f64) -> f64 {
    median(&spans.durations_s(name)).unwrap_or(0.0) * scale
}

/// The in-process layer probes: scenario parse/expand/run and
/// `JobService::submit` without HTTP.
fn in_process_probes(inputs: &ServeInputs, spans: &mut Spans) -> Vec<Metric> {
    let docs = &inputs.docs[..inputs.docs.len().min(DOC_PROBES)];
    let mut parsed = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        let span = spans.begin("scenario.parse", None, i as u64);
        let s = Scenario::from_json_text(doc).expect("generated documents are valid");
        spans.end(span);
        let span = spans.begin("scenario.expand", None, i as u64);
        std::hint::black_box(s.expand().expect("valid scenarios expand"));
        spans.end(span);
        parsed.push(s);
    }
    let mut metrics = vec![
        Metric::new(
            "scenario.parse_us",
            median_span(spans, "scenario.parse", 1e6),
            "us",
        ),
        Metric::new(
            "scenario.expand_us",
            median_span(spans, "scenario.expand", 1e6),
            "us",
        ),
    ];
    // Misses cycle the policies, so documents 0, 1, 2 are one of each.
    for (p, policy) in POLICIES.iter().enumerate() {
        let name = format!("scenario.run.{policy}");
        for rep in 0..3 {
            let span = spans.begin(&name, None, rep);
            std::hint::black_box(
                scenario::run_with_threads(&parsed[p], 1).expect("valid scenarios run"),
            );
            spans.end(span);
        }
        metrics.push(Metric::new(
            format!("scenario.run_ms.{policy}"),
            median_span(spans, &name, 1e3),
            "ms",
        ));
    }
    // No workers: submit only parses, keys and admits.
    let service = JobService::new(ServiceConfig {
        workers: 0,
        queue_depth: docs.len() + 1,
        retry_after_secs: 1,
    });
    for (i, doc) in docs.iter().enumerate() {
        let span = spans.begin("service.submit", None, i as u64);
        let outcome = service.submit(doc);
        spans.end(span);
        assert!(outcome.is_ok(), "in-process submit of a valid document");
    }
    metrics.push(Metric::new(
        "service.submit_us",
        median_span(spans, "service.submit", 1e6),
        "us",
    ));
    metrics
}

/// The traced run: per-layer metrics of the service from spans around
/// every HTTP exchange. With `overhead`, the schedule runs once more
/// untraced for `trace.overhead_ratio` of `job_p50_ms`.
pub fn traced(
    seed: u64,
    seconds: f64,
    bin: &Path,
    spans: &mut Spans,
    overhead: bool,
) -> Result<Run, String> {
    let inputs = schedule(seed, seconds);
    let pass = run_pass(bin, &inputs, true)?;
    let mut outcomes = Outcomes::default();
    let judged = judge_pass(&inputs, &pass, &mut outcomes);

    for (i, rec) in pass.records.iter().enumerate() {
        let (Some(first), Some(last)) = (rec.calls.first(), rec.calls.last()) else {
            continue;
        };
        let root = spans.record("job", first.1, last.2, None, i as u64);
        for &(name, a, b) in &rec.calls {
            let _ = spans.record(name, a, b, Some(&root), i as u64);
        }
    }

    let valid = latencies(&judged, &[JobKind::Miss, JobKind::Hit]);
    let (_, job_p99) = p50_p99("valid jobs", valid.clone());
    let polls: u32 = judged
        .iter()
        .zip(&pass.records)
        .filter(|(j, _)| j.timed() && j.kind != JobKind::Invalid)
        .map(|(_, r)| r.polls)
        .sum();
    let (miss_p50, miss_p99) = p50_p99("misses", latencies(&judged, &[JobKind::Miss]));
    let (hit_p50, hit_p99) = p50_p99("hits", latencies(&judged, &[JobKind::Hit]));
    let (invalid_p50, _) = p50_p99("invalid", latencies(&judged, &[JobKind::Invalid]));
    let (warmup_p50, _) = p50_p99(
        "warm-up jobs",
        judged
            .iter()
            .filter(|j| !j.timed() && j.outcome == Outcome::Correct)
            .map(|j| j.latency_ms)
            .collect(),
    );
    let timed: Vec<&Judged> = judged.iter().filter(|j| j.timed()).collect();
    let (_, late_p99) = p50_p99(
        "generator lateness",
        timed.iter().map(|j| j.late_ms).collect(),
    );
    let goodput: Vec<(Outcome, f64)> = timed.iter().map(|j| (j.outcome, j.latency_ms)).collect();
    let (sims, cache_hits) = pass.counters;

    let mut metrics = vec![
        Metric::new(
            "http.healthz_ms",
            median(&pass.healthz_ms).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "http.submit_ms",
            median_span(spans, "http.submit", 1e3),
            "ms",
        ),
        Metric::new("http.poll_ms", median_span(spans, "http.poll", 1e3), "ms"),
        // A job's self time: between its HTTP exchanges, waiting on the
        // service's queue and workers.
        Metric::new(
            "serve.job_wait_ms",
            median(&spans.self_s("job")).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        Metric::new("serve.job_p99_ms", job_p99, "ms"),
        Metric::new(
            "serve.polls_per_job",
            polls as f64 / valid.len().max(1) as f64,
            "1/job",
        ),
        Metric::new("serve.miss_p50_ms", miss_p50, "ms"),
        Metric::new("serve.miss_p99_ms", miss_p99, "ms"),
        Metric::new("serve.hit_p50_ms", hit_p50, "ms"),
        Metric::new("serve.hit_p99_ms", hit_p99, "ms"),
        Metric::new("serve.invalid_p50_ms", invalid_p50, "ms"),
        Metric::new("serve.warmup_p50_ms", warmup_p50, "ms"),
        Metric::new(
            "serve.cache_hit_ratio",
            cache_hits as f64 / (cache_hits + sims).max(1) as f64,
            "ratio",
        ),
        Metric::new("serve.sim_runs", sims as f64, "count"),
        Metric::new(
            "serve.rss_mb_per_1k_jobs",
            pass.rss_growth_mb * 1e3 / inputs.jobs.len().max(1) as f64,
            "MB",
        ),
        Metric::new(
            "serve.goodput_ratio",
            goodput_ratio(&goodput, GOODPUT_LIMIT_MS),
            "ratio",
        ),
        Metric::new("serve.valid_jobs", valid.len() as f64, "count"),
        Metric::new("gen.late_p99_ms", late_p99, "ms"),
    ];
    metrics.extend(in_process_probes(&inputs, spans));
    if overhead {
        let pass = run_pass(bin, &inputs, false)?;
        let untraced = windowed_p50(&judge_pass(&inputs, &pass, &mut outcomes));
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            windowed_p50(&judged) / untraced,
            "ratio",
        ));
    }
    Ok(Run { metrics, outcomes })
}
