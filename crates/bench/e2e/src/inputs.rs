//! Every input the program receives, generated from the workload seed:
//! the QoS-search machine configs, the rack config, and the serve-mix
//! job schedule with its documents. The same seed gives identical
//! inputs; the program sees nothing else.

use std::collections::BTreeSet;

use rand::Rng;
use um_bench::benchjson::Json;
use um_bench::scenario::{registry, Scenario, ScenarioKind};
use um_sim::rng;
use um_workload::apps::SocialNetwork;
use umanycore::experiments::cluster::{rack_config, ClusterScale};
use umanycore::experiments::evaluation::machines;
use umanycore::experiments::Scale;
use umanycore::{ClusterConfig, RoutingPolicy, SimConfig, Workload};

/// The seed of the committed results (`results/fig18.txt`,
/// `BENCH_cluster.json`); at it the correctness gates compare against
/// those files' numbers.
pub const DEFAULT_SEED: u64 = 42;

/// The Figure 18 search range, requests per second per server.
pub const QOS_LO: f64 = 1_000.0;
pub const QOS_HI: f64 = 512_000.0;

/// Metric-name keys of the three Figure 18 machines, in figure order.
const MACHINE_KEYS: [&str; 3] = ["server_class", "scaleout", "umanycore"];

/// The Figure 18 **Text** search bases on the three machines, exactly as
/// `fig18_grid` builds them at full scale with master seed `seed`.
pub fn qos_bases(seed: u64) -> Vec<(&'static str, SimConfig)> {
    let scale = Scale::default();
    MACHINE_KEYS
        .iter()
        .zip(machines())
        .map(|(&key, (_, machine))| {
            let cfg = SimConfig {
                machine,
                workload: Workload::social_app(SocialNetwork::ALL[0]),
                servers: scale.servers,
                horizon_us: scale.horizon_us,
                warmup_us: scale.warmup_us,
                seed: rng::derive_seed(seed, 0),
                ..SimConfig::default()
            };
            (key, cfg)
        })
        .collect()
}

/// A probe of `base` at `rps`: what the search builds for one verdict.
pub fn probe(base: &SimConfig, rps: f64) -> SimConfig {
    SimConfig {
        rps_per_server: rps,
        ..base.clone()
    }
}

/// Offered load per rack node, requests per second.
const RACK_RPS_PER_NODE: f64 = 60_000.0;

/// The `BENCH_cluster.json` rack: `nodes` packages, JSQ(2), 60k RPS per
/// node, warm-up a tenth of the horizon.
pub fn rack(seed: u64, nodes: usize, horizon_us: f64) -> ClusterConfig {
    let scale = ClusterScale {
        nodes,
        loads: vec![RACK_RPS_PER_NODE],
        horizon_us,
        warmup_us: horizon_us / 10.0,
        seed,
    };
    rack_config(&scale, RACK_RPS_PER_NODE, RoutingPolicy::JsqD { d: 2 })
}

/// Mean serve-mix submission rate, jobs per second.
pub const SERVE_RATE: f64 = 400.0;

/// A repeat only re-submits documents first scheduled at least this long
/// before it, so the original has long finished and the repeat must hit
/// the cache.
const REPEAT_MIN_AGE_S: f64 = 0.25;

/// What a serve-mix job exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// A document never submitted before: the service simulates it.
    Miss,
    /// A document submitted earlier: served from the cache.
    Hit,
    /// A document that fails validation: must get a 400 naming a field.
    Invalid,
}

/// One scheduled serve-mix job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// When the job is due, seconds after the run starts.
    pub due_s: f64,
    pub kind: JobKind,
    /// The request body.
    pub body: String,
    /// Miss and hit jobs: index of the document in [`ServeInputs::docs`].
    pub doc: Option<usize>,
    /// Invalid jobs: the field path the 400 must name.
    pub bad_path: Option<&'static str>,
}

/// The serve-mix inputs: the job schedule and the distinct documents.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeInputs {
    pub jobs: Vec<Job>,
    /// Distinct valid documents, in first-submission order.
    pub docs: Vec<String>,
}

/// The three mitigation policies of `sweep_default`, cycled over misses.
pub const POLICIES: [&str; 3] = ["none", "retry", "hedge"];

/// A one-point `sweep_default` grid job: 20 ms horizon, 5k RPS, the
/// registry's 1% message drops, one mitigation policy, one grid seed.
pub fn one_point_job(policy: usize, grid_seed: u64) -> Scenario {
    let mut s = registry::sweep_default();
    s.scale.horizon_us = 20_000.0;
    s.scale.warmup_us = 2_000.0;
    if let ScenarioKind::Grid(g) = &mut s.kind {
        g.loads = vec![5_000.0];
        g.seeds = vec![grid_seed];
        let chosen = g.policies.swap_remove(policy % g.policies.len());
        g.policies = vec![chosen];
    }
    s
}

fn set_field(doc: &mut Json, path: &[&str], value: Json) {
    let Json::Obj(pairs) = doc else {
        unreachable!("scenario documents are objects")
    };
    let (head, rest) = path.split_first().expect("non-empty path");
    match pairs.iter_mut().find(|(k, _)| k == head) {
        Some((_, v)) if !rest.is_empty() => set_field(v, rest, value),
        Some((_, v)) => *v = value,
        None => pairs.push((head.to_string(), value)),
    }
}

/// A document that parses as JSON but fails validation, and the field
/// path its error must name.
fn invalid_doc(rng: &mut impl Rng, grid_seed: u64) -> (String, &'static str) {
    let mut doc = one_point_job(0, grid_seed).to_json();
    let path = match rng.gen_range(0..3u32) {
        0 => {
            let horizon = -f64::from(rng.gen_range(1..1_000u32));
            set_field(&mut doc, &["scale", "horizon_us"], Json::Num(horizon));
            "scenario.scale.horizon_us"
        }
        1 => {
            set_field(&mut doc, &["scale", "horizon_ms"], Json::Num(20.0));
            "scenario.scale"
        }
        _ => {
            let Json::Obj(pairs) = &mut doc else {
                unreachable!("scenario documents are objects")
            };
            let faults = pairs
                .iter_mut()
                .find(|(k, _)| k == "faults")
                .map(|(_, v)| v)
                .expect("sweep_default has faults");
            let Json::Arr(items) = faults else {
                unreachable!("faults is an array")
            };
            let p = 1.0 + f64::from(rng.gen_range(0..100u32)) / 100.0;
            set_field(&mut items[0], &["probability"], Json::Num(p));
            "scenario.faults[0].probability"
        }
    };
    (doc.render(), path)
}

/// Job kinds in every block of ten consecutive jobs: five new
/// documents, four repeats, one invalid document. Exact shares keep the
/// median job, which sits among the slower new documents, in the same
/// place on every seed; the order within a block is shuffled.
const BLOCK: [JobKind; 10] = [
    JobKind::Miss,
    JobKind::Miss,
    JobKind::Miss,
    JobKind::Miss,
    JobKind::Miss,
    JobKind::Hit,
    JobKind::Hit,
    JobKind::Hit,
    JobKind::Hit,
    JobKind::Invalid,
];

/// Draws the serve-mix schedule: Poisson arrivals at `rate` over
/// `seconds`, with kinds in shuffled blocks of [`BLOCK`]. A repeat with
/// no document old enough to repeat becomes a new document.
pub fn serve_inputs(seed: u64, seconds: f64, rate: f64) -> ServeInputs {
    let mut rng = rng::stream(seed, "benchmark-serve-mix");
    let mut used_seeds = BTreeSet::new();
    let mut fresh_seed = |rng: &mut rand::rngs::SmallRng| loop {
        let s = rng.gen_range(0..1u64 << 40);
        if used_seeds.insert(s) {
            return s;
        }
    };
    let mut jobs = Vec::new();
    let mut docs: Vec<String> = Vec::new();
    let mut first_due: Vec<f64> = Vec::new();
    let mut block = BLOCK;
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            break;
        }
        let slot = jobs.len() % BLOCK.len();
        if slot == 0 {
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        let eligible = first_due.partition_point(|&d| d <= t - REPEAT_MIN_AGE_S);
        let job = match block[slot] {
            JobKind::Invalid => {
                let grid_seed = fresh_seed(&mut rng);
                let (body, path) = invalid_doc(&mut rng, grid_seed);
                Job {
                    due_s: t,
                    kind: JobKind::Invalid,
                    body,
                    doc: None,
                    bad_path: Some(path),
                }
            }
            JobKind::Hit if eligible > 0 => {
                let d = rng.gen_range(0..eligible);
                Job {
                    due_s: t,
                    kind: JobKind::Hit,
                    body: docs[d].clone(),
                    doc: Some(d),
                    bad_path: None,
                }
            }
            JobKind::Hit | JobKind::Miss => {
                let body = one_point_job(docs.len(), fresh_seed(&mut rng)).to_json_text();
                docs.push(body.clone());
                first_due.push(t);
                Job {
                    due_s: t,
                    kind: JobKind::Miss,
                    body,
                    doc: Some(docs.len() - 1),
                    bad_path: None,
                }
            }
        };
        jobs.push(job);
    }
    ServeInputs { jobs, docs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(serve_inputs(7, 1.0, 400.0), serve_inputs(7, 1.0, 400.0));
        let a: Vec<_> = qos_bases(7)
            .into_iter()
            .map(|(k, c)| (k, c.seed, c.machine.total_cores()))
            .collect();
        let b: Vec<_> = qos_bases(7)
            .into_iter()
            .map(|(k, c)| (k, c.seed, c.machine.total_cores()))
            .collect();
        assert_eq!(a, b);
        let rack_seed = |seed| rack(seed, 8, 1_000.0).seed;
        assert_eq!(rack_seed(7), rack_seed(7));
    }

    #[test]
    fn different_seed_different_inputs() {
        let (a, b) = (serve_inputs(7, 1.0, 400.0), serve_inputs(8, 1.0, 400.0));
        assert_ne!(a.docs, b.docs);
        let due = |s: &ServeInputs| s.jobs.iter().map(|j| j.due_s).collect::<Vec<_>>();
        assert_ne!(due(&a), due(&b));
        assert_ne!(qos_bases(7)[0].1.seed, qos_bases(8)[0].1.seed);
        assert_ne!(rack(7, 8, 1_000.0).seed, rack(8, 8, 1_000.0).seed);
        let kinds = |s: &ServeInputs| s.jobs.iter().map(|j| j.kind).collect::<Vec<_>>();
        assert_ne!(kinds(&a), kinds(&b));
    }

    #[test]
    fn default_seed_matches_the_committed_fig18_text_row() {
        // fig18_grid seeds app `a` with derive_seed(master, a); Text is app 0.
        for (_, cfg) in qos_bases(DEFAULT_SEED) {
            assert_eq!(cfg.seed, rng::derive_seed(42, 0));
            assert_eq!(cfg.horizon_us, 200_000.0);
        }
    }

    #[test]
    fn serve_mix_has_the_stated_shares_and_unique_misses() {
        let inputs = serve_inputs(3, 10.0, 400.0);
        let n = inputs.jobs.len();
        assert!((3_600..4_400).contains(&n), "{n} jobs");
        // After the first REPEAT_MIN_AGE_S every block has the exact mix.
        let late = inputs
            .jobs
            .iter()
            .position(|j| j.due_s > 1.0)
            .expect("jobs after 1 s");
        let whole = &inputs.jobs[late.next_multiple_of(10)..n - n % 10];
        for block in whole.chunks(10) {
            let count = |k| block.iter().filter(|j| j.kind == k).count();
            assert_eq!(
                (
                    count(JobKind::Miss),
                    count(JobKind::Hit),
                    count(JobKind::Invalid)
                ),
                (5, 4, 1)
            );
        }
        let unique: BTreeSet<_> = inputs.docs.iter().collect();
        assert_eq!(
            unique.len(),
            inputs.docs.len(),
            "every miss is a new document"
        );
        for j in &inputs.jobs {
            match j.kind {
                JobKind::Hit => {
                    let d = j.doc.expect("hits name a document");
                    let first = inputs
                        .jobs
                        .iter()
                        .find(|o| o.kind == JobKind::Miss && o.doc == Some(d))
                        .expect("the original is scheduled");
                    assert!(j.due_s - first.due_s >= REPEAT_MIN_AGE_S);
                }
                JobKind::Miss => assert!(Scenario::from_json_text(&j.body).is_ok()),
                JobKind::Invalid => {
                    let err = Scenario::from_json_text(&j.body).expect_err("invalid");
                    assert!(
                        err.contains(j.bad_path.expect("invalid jobs name a path")),
                        "{err}"
                    );
                }
            }
        }
    }

    #[test]
    fn misses_cycle_the_three_policies() {
        let names: Vec<String> = (0..3)
            .map(|p| match one_point_job(p, 1).kind {
                ScenarioKind::Grid(g) => g.policies[0].name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, POLICIES);
    }
}
