//! `rack-512`: the 512-node point of `BENCH_cluster.json` — 512
//! uManycore packages behind a JSQ(2) load balancer at 60k RPS per node
//! for 5 ms. The cluster layer drives each `SystemSim` through
//! `step`/`inject_arrival`, so the same node simulator is used in a
//! different way than in `qos-search`, and peak memory follows the
//! request state of the whole fleet.

use std::time::Instant;

use umanycore::{ClusterConfig, ClusterReport, ClusterSim};

use crate::helpers::{median, proc_mb, Metric, Outcomes};
use crate::inputs::{self, DEFAULT_SEED};
use crate::spans::Spans;
use crate::Run;

const NODES: usize = 512;
const HORIZON_US: f64 = 5_000.0;

/// The scale reference: 64 nodes for eight times the horizon, which
/// serves the same expected number of requests.
const REF_NODES: usize = 64;
const REF_HORIZON_US: f64 = 40_000.0;

/// Set-ups timed per pass; the median is reported.
const SETUP_REPS: usize = 9;

/// Passes per run, at least: identical work, so they also check that the
/// rack is deterministic.
const PASSES: usize = 2;

/// The committed 512-node point of `BENCH_cluster.json`: events,
/// recorded requests, and p99 in microseconds to one decimal.
const BENCH_CLUSTER_512: (u64, u64, &str) = (8_925_465, 138_809, "2088.8");

type Fingerprint = (u64, u64, u64, u64, u64);

fn fingerprint(r: &ClusterReport) -> Fingerprint {
    (
        r.events,
        r.recorded,
        r.completed,
        r.latency.p99.to_bits(),
        r.gave_up,
    )
}

/// Checks one rack run. Every request counts as one operation: a run
/// that loses requests fails those; a run whose accounting or
/// fingerprint is wrong fails all of them.
///
/// With no admission cap the load balancer dispatches each arrival as it
/// comes, so an unused LB queue means every arrival was dispatched, and
/// `completed` must then equal the dispatch total.
fn check(cfg: &ClusterConfig, r: &ClusterReport, passes_agree: bool, outcomes: &mut Outcomes) {
    let dispatched: u64 = r.dispatched_per_node.iter().sum();
    let served = r.completed.saturating_sub(r.gave_up).min(dispatched);
    let mut whole_run_ok = r.conservation.exact() && r.peak_lb_queue == 0;
    let mut why = format!(
        "conservation exact: {}, peak LB queue {}",
        r.conservation.exact(),
        r.peak_lb_queue
    );
    if cfg.seed == DEFAULT_SEED && cfg.nodes == NODES {
        let got = (r.events, r.recorded, format!("{:.1}", r.latency.p99));
        let want = BENCH_CLUSTER_512;
        whole_run_ok &= (got.0, got.1, got.2.as_str()) == want;
        why += &format!(", fingerprint {got:?} vs BENCH_cluster.json {want:?}");
    }
    whole_run_ok &= passes_agree;
    why += &format!(", passes agree: {passes_agree}");
    outcomes.attempted += dispatched;
    let failed = if whole_run_ok {
        dispatched - served
    } else {
        dispatched
    };
    if failed > 0 {
        outcomes.failed += failed;
        outcomes.problems.push(format!(
            "rack-{}: {failed} of {dispatched} requests failed ({} completed, {} gave up; {why})",
            cfg.nodes, r.completed, r.gave_up
        ));
    }
}

/// The timed run: end-to-end metrics only, tracing off.
pub fn e2e(seed: u64, seconds: f64) -> Run {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut jobs_ms = Vec::new();
    let mut fingerprints = Vec::new();
    let mut last = None;
    let begun = Instant::now();
    while walls.len() < PASSES || begun.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let mut sim = None;
        let mut setup_s = 0.0;
        for _ in 0..SETUP_REPS {
            drop(sim.take());
            let t = Instant::now();
            let cfg = inputs::rack(seed, NODES, HORIZON_US);
            sim = Some((ClusterSim::new(cfg.clone()), cfg));
            setup_s = t.elapsed().as_secs_f64();
            setups.push(setup_s);
        }
        let (sim, cfg) = sim.expect("set up at least once");
        let t = Instant::now();
        let report = sim.run();
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        jobs_ms.push((setup_s + wall) * 1e3);
        fingerprints.push(fingerprint(&report));
        last = Some((cfg, report));
    }
    let peak = proc_mb("self", "VmHWM").expect("VmHWM is readable");

    let (cfg, report) = last.expect("ran at least once");
    let mut outcomes = Outcomes::default();
    let passes_agree = fingerprints.windows(2).all(|w| w[0] == w[1]);
    check(&cfg, &report, passes_agree, &mut outcomes);

    let metrics = vec![
        Metric::new("wall_s", median(&walls).expect("runs"), "s"),
        Metric::new("setup_s", median(&setups).expect("set-ups"), "s"),
        Metric::new("peak_rss_mb", peak, "MB"),
        Metric::new("job_p50_ms", median(&jobs_ms).expect("jobs"), "ms"),
    ];
    Run { metrics, outcomes }
}

/// One traced rack: config, `new` and `run` as spans; also returns the
/// resident set right after `new`.
fn traced_rack(
    seed: u64,
    nodes: usize,
    horizon_us: f64,
    spans: &mut Spans,
    id: u64,
) -> (ClusterConfig, ClusterReport, f64) {
    let span = spans.begin("cluster.config", None, id);
    let cfg = inputs::rack(seed, nodes, horizon_us);
    spans.end(span);
    let span = spans.begin("cluster.new", None, id);
    let sim = ClusterSim::new(cfg.clone());
    spans.end(span);
    let rss_after_new = proc_mb("self", "VmRSS").expect("VmRSS is readable");
    let span = spans.begin("cluster.run", None, id);
    let report = sim.run();
    spans.end(span);
    (cfg, report, rss_after_new)
}

/// The traced run: per-layer metrics of the cluster layer from spans.
/// With `overhead`, the rack runs once more untraced for
/// `trace.overhead_ratio`.
pub fn traced(seed: u64, spans: &mut Spans, overhead: bool) -> Run {
    let mut outcomes = Outcomes::default();
    let (cfg, report, setup_rss) = traced_rack(seed, NODES, HORIZON_US, spans, 0);
    let peak = proc_mb("self", "VmHWM").expect("VmHWM is readable");
    check(&cfg, &report, true, &mut outcomes);
    let new_s = spans.durations_s("cluster.new")[0];
    let run_s = spans.durations_s("cluster.run")[0];

    let fleet = report
        .latency_samples
        .values()
        .iter()
        .copied()
        .collect::<um_stats::Samples>();
    let span = spans.begin("stats.summary", None, 0);
    std::hint::black_box((fleet.summary(), fleet.percentile(0.95)));
    spans.end(span);

    let dispatched = &report.dispatched_per_node;
    let mean = dispatched.iter().sum::<u64>() as f64 / dispatched.len() as f64;
    let max = dispatched.iter().copied().max().unwrap_or(0) as f64;
    let events_per_s = report.events as f64 / run_s;
    let kb_per_request = (peak - setup_rss) * 1024.0 / report.completed.max(1) as f64;
    let (peak_lb_queue, events) = (report.peak_lb_queue, report.events);
    drop(report);

    let mut metrics = Vec::new();
    if overhead {
        let sim = ClusterSim::new(cfg.clone());
        let t = Instant::now();
        drop(sim.run());
        let untraced = t.elapsed().as_secs_f64();
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            run_s / untraced,
            "ratio",
        ));
    }

    let (ref_cfg, ref_report, _) = traced_rack(seed, REF_NODES, REF_HORIZON_US, spans, 1);
    check(&ref_cfg, &ref_report, true, &mut outcomes);
    let ref_eps = ref_report.events as f64 / spans.durations_s("cluster.run")[1];

    metrics.extend([
        Metric::new("cluster.new_s", new_s, "s"),
        Metric::new("cluster.run_s", run_s, "s"),
        Metric::new("cluster.events", events as f64, "count"),
        Metric::new("cluster.events_per_s", events_per_s, "1/s"),
        Metric::new("cluster.setup_rss_mb", setup_rss, "MB"),
        Metric::new("cluster.kb_per_request", kb_per_request, "KB"),
        Metric::new("cluster.scale_retained", events_per_s / ref_eps, "ratio"),
        Metric::new("cluster.dispatch_imbalance", max / mean, "ratio"),
        Metric::new("cluster.peak_lb_queue", peak_lb_queue as f64, "count"),
        Metric::new(
            "stats.summary_ms.fleet",
            spans.total_s("stats.summary") * 1e3,
            "ms",
        ),
    ]);
    Run { metrics, outcomes }
}
