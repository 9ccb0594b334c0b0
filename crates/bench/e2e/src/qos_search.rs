//! `qos-search`: the Figure 18 QoS-bounded throughput search for the
//! Text app on the three machines, serially on one thread, at the
//! committed full scale. It exercises the single-node `SystemSim` under
//! overload through `umanycore::qos`, with no cluster layer.

use std::time::Instant;

use um_bench::engine;
use um_sim::EventQueue;
use um_stats::Samples;
use um_workload::PoissonArrivals;
use umanycore::qos::{self, QosResult, QOS_MULTIPLIER, QOS_QUANTILE};
use umanycore::{RunReport, SimConfig, SystemSim};

use crate::helpers::{median, proc_mb, Metric, Outcomes};
use crate::inputs::{self, DEFAULT_SEED, QOS_HI, QOS_LO};
use crate::spans::Spans;
use crate::Run;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 9;

/// The committed `results/fig18.txt` Text row: uManycore KRPS, then
/// ScaleOut and uManycore throughput normalized to ServerClass, as the
/// table prints them.
const FIG18_TEXT_ROW: [&str; 3] = ["496.0", "0.6", "30.1"];

/// Builds what the search needs before its first simulated event: the
/// three machine configs and the opening 512k-RPS probe of each.
fn set_up(seed: u64) -> Vec<(&'static str, SimConfig)> {
    let bases = inputs::qos_bases(seed);
    for (_, base) in &bases {
        drop(std::hint::black_box(SystemSim::new(inputs::probe(
            base, QOS_HI,
        ))));
    }
    bases
}

fn search_all(bases: &[(&'static str, SimConfig)], spans: &mut Spans) -> Vec<QosResult> {
    bases
        .iter()
        .enumerate()
        .map(|(i, (_, base))| {
            let span = spans.begin("qos.search", None, i as u64);
            let r = qos::max_qos_throughput(base, QOS_LO, QOS_HI);
            spans.end(span);
            r
        })
        .collect()
}

/// The Figure 18 Text row as `fig18` formats it.
fn text_row(results: &[QosResult]) -> [String; 3] {
    let (sc, so, um) = (results[0].max_rps, results[1].max_rps, results[2].max_rps);
    [
        format!("{:.1}", um / 1000.0),
        format!("{:.1}", so / sc),
        format!("{:.1}", um / sc),
    ]
}

/// Why a run misattributed or dropped requests, if it did: latency must
/// be conserved exactly, no request may give up, and every recorded
/// request must have its latency sample. (The arrival schedule of a
/// single-node run is private to `SystemSim`; arrival-level completeness
/// is checked on `rack-512`, whose dispatch counts are public.)
fn conservation_problem(report: &RunReport) -> Option<String> {
    let ok = report.conservation.exact()
        && report.faults.gave_up_requests == 0
        && report.recorded > 0
        && report.latency_samples.len() as u64 == report.recorded;
    (!ok).then(|| {
        format!(
            "conservation exact: {}, {} gave up, {} recorded with {} samples",
            report.conservation.exact(),
            report.faults.gave_up_requests,
            report.recorded,
            report.latency_samples.len()
        )
    })
}

/// Checks one search result. Every seed: the range, the bound, and a
/// contention-free rerun agreeing exactly. With `probe_verdict`, a rerun
/// at the found rate must reproduce the search's verdict, conserve
/// latency and complete every arrival.
fn check_search(
    key: &str,
    base: &SimConfig,
    r: &QosResult,
    probe_verdict: bool,
    outcomes: &mut Outcomes,
) {
    let problem = if !(QOS_LO..=QOS_HI).contains(&r.max_rps) {
        Some("max_rps outside the search range".to_string())
    } else if r.bound_us.to_bits() != (r.contention_free_avg_us * QOS_MULTIPLIER).to_bits() {
        Some("bound is not the QoS multiple of the contention-free average".to_string())
    } else if qos::contention_free_avg_us(base).to_bits() != r.contention_free_avg_us.to_bits() {
        Some("a contention-free rerun disagrees".to_string())
    } else if probe_verdict && r.max_rps > QOS_LO {
        let report = SystemSim::new(inputs::probe(base, r.max_rps)).run();
        let tail = report.latency_samples.percentile(QOS_QUANTILE);
        if tail > r.bound_us {
            Some(format!(
                "a rerun at max_rps misses QoS: p95 {tail} us > {} us",
                r.bound_us
            ))
        } else {
            conservation_problem(&report)
        }
    } else {
        None
    };
    outcomes.check(problem.is_none(), || {
        format!(
            "qos-search: {key} search ({r:?}): {}",
            problem.unwrap_or_default()
        )
    });
}

fn check_row(seed: u64, results: &[QosResult], outcomes: &mut Outcomes) {
    if seed == DEFAULT_SEED {
        let row = text_row(results);
        outcomes.check(row == FIG18_TEXT_ROW, || {
            format!(
                "qos-search: Text row {row:?} differs from results/fig18.txt {FIG18_TEXT_ROW:?}"
            )
        });
    }
}

/// The timed run: end-to-end metrics only, tracing off.
pub fn e2e(seed: u64, seconds: f64) -> Run {
    let mut setups = Vec::new();
    let mut bases = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        bases = set_up(seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut off = Spans::new(false);
    let mut walls = Vec::new();
    let mut results = Vec::new();
    let begun = Instant::now();
    while walls.is_empty() || begun.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        results = search_all(&bases, &mut off);
        walls.push(t.elapsed().as_secs_f64());
    }
    let peak = proc_mb("self", "VmHWM").expect("VmHWM is readable");

    let mut outcomes = Outcomes::default();
    for ((key, base), r) in bases.iter().zip(&results) {
        check_search(key, base, r, true, &mut outcomes);
    }
    check_row(seed, &results, &mut outcomes);

    // One job is one regeneration of the Text row: set-up plus search.
    let setup_s = median(&setups).expect("set-ups ran");
    let jobs_ms: Vec<f64> = walls.iter().map(|w| (setup_s + w) * 1e3).collect();
    let metrics = vec![
        Metric::new("wall_s", median(&walls).expect("searches ran"), "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak, "MB"),
        Metric::new("job_p50_ms", median(&jobs_ms).expect("jobs ran"), "ms"),
    ];
    Run { metrics, outcomes }
}

/// Median host nanoseconds per event of an `engine::replay` of the fig7
/// workload through the calendar `EventQueue`: the queue's floor.
fn queue_ns_per_event(seed: u64, spans: &mut Spans) -> f64 {
    let workload = engine::Workload::fig7(50_000.0, 200_000.0, 8, seed);
    let per_event: Vec<f64> = (0..5)
        .map(|_| {
            let mut q = EventQueue::with_capacity(workload.arrivals.len() + 1);
            let span = spans.begin("sim.queue_replay", None, 0);
            let replay = engine::replay(&mut q, &workload);
            spans.end(span);
            assert_eq!(
                replay.events,
                workload.events_per_replay(),
                "replay delivers every event"
            );
            let ns = spans
                .durations_s("sim.queue_replay")
                .last()
                .expect("span recorded")
                * 1e9;
            ns / replay.events as f64
        })
        .collect();
    median(&per_event).expect("replays ran")
}

/// The traced run: per-layer metrics from spans around every public
/// call. With `overhead`, the searches run once more untraced for
/// `trace.overhead_ratio`.
pub fn traced(seed: u64, spans: &mut Spans, overhead: bool) -> Run {
    let bases = inputs::qos_bases(seed);
    let mut outcomes = Outcomes::default();
    let mut metrics = Vec::new();

    let results = search_all(&bases, spans);
    let searches = spans.durations_s("qos.search");
    for ((key, base), (r, s)) in bases.iter().zip(results.iter().zip(&searches)) {
        check_search(key, base, r, false, &mut outcomes);
        metrics.push(Metric::new(format!("qos.search_s.{key}"), *s, "s"));
    }
    check_row(seed, &results, &mut outcomes);
    if overhead {
        let t = Instant::now();
        search_all(&bases, &mut Spans::new(false));
        let untraced = t.elapsed().as_secs_f64();
        let traced: f64 = searches.iter().sum();
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            traced / untraced,
            "ratio",
        ));
    }

    for (i, (_, base)) in bases.iter().enumerate() {
        let span = spans.begin("qos.cf_avg", None, i as u64);
        std::hint::black_box(qos::contention_free_avg_us(base));
        spans.end(span);
    }
    metrics.push(Metric::new(
        "qos.cf_avg_s",
        spans.total_s("qos.cf_avg"),
        "s",
    ));

    // The search's opening probe, one public call at a time.
    let mut probe_samples = Samples::new();
    for (i, (key, base)) in bases.iter().enumerate() {
        let cfg = inputs::probe(base, QOS_HI);
        let root = spans.begin("qos.overload_probe", None, i as u64);
        let span = spans.begin("system.new", Some(&root), i as u64);
        let mut sim = SystemSim::new(cfg.clone());
        spans.end(span);
        let span = spans.begin("system.step_loop", Some(&root), i as u64);
        let mut steps = 0u64;
        while sim.step() {
            steps += 1;
        }
        spans.end(span);
        let span = spans.begin("system.finish", Some(&root), i as u64);
        let report = sim.finish();
        spans.end(span);
        spans.end(root);

        let problem = conservation_problem(&report);
        outcomes.check(problem.is_none(), || {
            format!(
                "qos-search: {key} overload probe: {}",
                problem.unwrap_or_default()
            )
        });
        let per_req = |n: u64| n as f64 / report.completed.max(1) as f64;
        let last = |name: &str| *spans.durations_s(name).last().expect("span recorded");
        metrics.extend([
            Metric::new(
                format!("qos.overload_probe_s.{key}"),
                last("qos.overload_probe"),
                "s",
            ),
            Metric::new(format!("system.events.{key}"), steps as f64, "count"),
            Metric::new(
                format!("system.ns_per_event.{key}"),
                last("system.step_loop") * 1e9 / steps.max(1) as f64,
                "ns",
            ),
            Metric::new(
                format!("system.new_ms.{key}"),
                last("system.new") * 1e3,
                "ms",
            ),
            Metric::new(
                format!("system.finish_ms.{key}"),
                last("system.finish") * 1e3,
                "ms",
            ),
            Metric::new(
                format!("sched.ctx_switches_per_req.{key}"),
                per_req(report.ctx_switches),
                "1/req",
            ),
            Metric::new(
                format!("net.icn_msgs_per_req.{key}"),
                per_req(report.icn_messages),
                "1/req",
            ),
            Metric::new(
                format!("net.icn_queue_cycles.{key}"),
                report.icn_mean_queue_cycles,
                "cycles",
            ),
        ]);
        // Only uManycore has hardware request queues to overflow.
        if *key == "umanycore" {
            metrics.push(Metric::new(
                "sched.rq_overflows_per_req.umanycore",
                per_req(report.rq_overflows),
                "1/req",
            ));
            probe_samples = report.latency_samples.values().iter().copied().collect();
        }
    }

    // The schedule a 512k-RPS probe draws, at the probe's rate and horizon.
    let base = &bases[2].1;
    let span = spans.begin("workload.arrivals", None, 0);
    std::hint::black_box(PoissonArrivals::new(QOS_HI, base.seed).within(base.horizon_us));
    spans.end(span);
    metrics.push(Metric::new(
        "workload.arrivals_ms",
        spans.total_s("workload.arrivals") * 1e3,
        "ms",
    ));

    let span = spans.begin("stats.summary", None, 0);
    std::hint::black_box((
        probe_samples.summary(),
        probe_samples.percentile(QOS_QUANTILE),
    ));
    spans.end(span);
    metrics.push(Metric::new(
        "stats.summary_ms.probe",
        spans.total_s("stats.summary") * 1e3,
        "ms",
    ));

    metrics.push(Metric::new(
        "sim.queue_ns_per_event",
        queue_ns_per_event(seed, spans),
        "ns",
    ));
    Run { metrics, outcomes }
}
