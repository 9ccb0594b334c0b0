//! The declarative scenario layer: one serializable description of a
//! whole experiment — machine, workload, fault plan, mitigation policy,
//! cluster shape and scale — that expands into a fully-specified config
//! list.
//!
//! A [`Scenario`] round-trips through the zero-dependency
//! [`crate::benchjson`] model (`to_json_text` / `from_json_text`), so
//! experiments can be committed, diffed and replayed as data. Each
//! document type states its JSON shape once, as a [`crate::codec`]
//! table. The named built-in scenarios behind the committed `results/`
//! tables are such documents: the [`registry`] embeds the files under
//! `crates/bench/registry/` and has no other definition. `um-sweep
//! <name>` runs one, and CI byte-diffs its text against the committed
//! file.
//!
//! Every expansion derives per-point seeds from the scenario's master
//! seed, and every run goes through the deterministic sweep runner —
//! results are bit-identical at any `UM_THREADS`.

use std::sync::atomic::{AtomicUsize, Ordering};

use um_arch::config::{IcnKind, MachineConfig, TopologyShape};
use um_sched::{CtxSwitchModel, DequeuePolicy, HedgeConfig, MitigationConfig, RetryConfig};
use um_sim::fault::{FaultPlan, FaultRecipe};
use um_sim::rng;
use um_sim::trace::Component;
use um_stats::summary::{geomean, mean};
use um_stats::table::{f1, f2, Table};
use um_workload::apps::SocialNetwork;
use um_workload::synthetic::SyntheticWorkload;
use um_workload::{ServiceId, ServiceTimeDist};
use umanycore::cluster::ClusterNetConfig;
use umanycore::experiments::cluster::ClusterScale;
use umanycore::experiments::{parallel, Scale};
use umanycore::report::RunReport;
use umanycore::system::ArrivalProcess;
use umanycore::{
    ClusterConfig, ClusterReport, ClusterSim, RoutingPolicy, SimConfig, SystemSim, Workload,
};

use crate::benchjson::{obj, rounded, Json};
use crate::codec::{tag_of, Codec, Form, Pass, Schema, MAX_EXACT_INT};
use crate::header_text;

// ---------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------

/// Which paper machine a [`MachineSpec`] starts from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MachineBase {
    /// The 1024-core uManycore package.
    #[default]
    Umanycore,
    /// The 1024-core software-scheduled ScaleOut baseline.
    Scaleout,
    /// The iso-power server-class baseline.
    ServerClassIsoPower,
    /// The iso-area server-class baseline.
    ServerClassIsoArea,
}

/// A machine description: a paper machine plus the overrides the
/// experiments actually use. `build` applies them in a fixed order, so
/// equal specs yield identical [`MachineConfig`] values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MachineSpec {
    /// Base machine.
    pub base: MachineBase,
    /// Topology override `[cores_per_village, villages_per_cluster,
    /// clusters]`; only valid on [`MachineBase::Umanycore`].
    pub shape: Option<[usize; 3]>,
    /// Hardware Request Queue entries per village.
    pub rq_capacity: Option<usize>,
    /// Fixed context-switch cost override, cycles
    /// ([`CtxSwitchModel::Custom`]).
    pub ctx_switch_cycles: Option<u64>,
    /// On-package interconnect override.
    pub icn: Option<IcnKind>,
}

impl MachineSpec {
    /// A bare base machine with no overrides.
    pub fn of(base: MachineBase) -> Self {
        Self {
            base,
            ..Self::default()
        }
    }

    /// Materializes the [`MachineConfig`]. Call after validation: an
    /// invalid spec (e.g. a shape on a non-uManycore base) is ignored
    /// here, not rejected.
    pub fn build(&self) -> MachineConfig {
        let mut m = match (self.base, self.shape) {
            (MachineBase::Umanycore, Some(s)) => {
                MachineConfig::umanycore_shaped(TopologyShape::new(s[0], s[1], s[2]))
            }
            (MachineBase::Umanycore, None) => MachineConfig::umanycore(),
            (MachineBase::Scaleout, _) => MachineConfig::scaleout(),
            (MachineBase::ServerClassIsoPower, _) => MachineConfig::server_class_iso_power(),
            (MachineBase::ServerClassIsoArea, _) => MachineConfig::server_class_iso_area(),
        };
        if let Some(rq) = self.rq_capacity {
            m.rq_capacity = rq;
        }
        if let Some(cycles) = self.ctx_switch_cycles {
            m.ctx_switch = CtxSwitchModel::Custom(cycles);
        }
        if let Some(icn) = self.icn {
            m.icn = icn;
        }
        m
    }

    /// The RQ depth `build` would produce (override or the base
    /// machine's default) — what the cluster deadlock guard checks.
    pub fn effective_rq_capacity(&self) -> usize {
        self.build().rq_capacity
    }
}

/// Mean handler compute of the fixed-shape synthetic workloads
/// ([`SyntheticWorkload::paper_suite`]), microseconds.
const SUITE_MEAN_US: f64 = 100.0;

/// Which request workload the scenario draws from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum WorkloadSpec {
    /// The uniform SocialNetwork eight-app mix.
    #[default]
    SocialMix,
    /// One SocialNetwork root service (one of [`SocialNetwork::ALL`]);
    /// its nested calls still reach the whole graph.
    SocialApp(ServiceId),
    /// The uniform TrainTicket root-service mix.
    TrainMix,
    /// A synthetic uSuite-style workload: lognormal handler compute with
    /// the given mean/SCV and a uniform blocking-RPC count.
    Synthetic {
        /// Mean handler compute, microseconds.
        mean_us: f64,
        /// Squared coefficient of variation of the compute time.
        scv: f64,
        /// Minimum blocking RPCs per request.
        min_rpcs: u32,
        /// Maximum blocking RPCs per request.
        max_rpcs: u32,
    },
    /// [`SyntheticWorkload::paper_suite`]'s exponential workload.
    SyntheticExp,
    /// [`SyntheticWorkload::paper_suite`]'s bimodal workload: 90% short
    /// and 10% ten-times-longer requests.
    SyntheticBimodal,
}

impl WorkloadSpec {
    /// Materializes the [`Workload`].
    pub fn build(&self) -> Workload {
        match *self {
            WorkloadSpec::SocialMix => Workload::social_mix(),
            WorkloadSpec::SocialApp(root) => Workload::social_app(root),
            WorkloadSpec::TrainMix => Workload::train_mix(),
            WorkloadSpec::Synthetic {
                mean_us,
                scv,
                min_rpcs,
                max_rpcs,
            } => Workload::Synthetic(SyntheticWorkload::new(
                ServiceTimeDist::lognormal_with_mean(mean_us, scv),
                min_rpcs,
                max_rpcs,
            )),
            WorkloadSpec::SyntheticExp => {
                Workload::Synthetic(SyntheticWorkload::paper_suite(SUITE_MEAN_US)[0].1)
            }
            WorkloadSpec::SyntheticBimodal => {
                Workload::Synthetic(SyntheticWorkload::paper_suite(SUITE_MEAN_US)[2].1)
            }
        }
    }
}

/// A routing policy with the display name the tables print.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedRouting {
    /// Table/row label, e.g. `jsq(2)`.
    pub name: String,
    /// The policy itself.
    pub policy: RoutingPolicy,
}

/// Rack-fabric jitter: lognormal with the given mean and SCV.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JitterSpec {
    /// Mean one-way jitter, microseconds.
    pub mean_us: f64,
    /// Squared coefficient of variation.
    pub scv: f64,
}

/// The cluster/serving-layer knobs: rack width, routing policies,
/// admission control and fabric jitter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterSpec {
    /// Packages in the rack.
    pub nodes: usize,
    /// Routing policies swept (display order).
    pub routing: Vec<NamedRouting>,
    /// Per-node admission cap; `None` disables admission control (see
    /// the deadlock guard in [`Scenario::validate`]).
    pub max_in_flight: Option<usize>,
    /// Rack-fabric jitter; `None` keeps the fabric deterministic.
    pub jitter: Option<JitterSpec>,
    /// Load-balancer straggler steering.
    pub steer: bool,
}

/// A machine column of a breakdown or normalized table (a row of a
/// machine comparison).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NamedMachine {
    /// Column label.
    pub name: String,
    /// The machine under that column.
    pub machine: MachineSpec,
}

/// One autoscaling configuration of an [`ScenarioKind::Autoscale`] row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AutoscaleConfig {
    /// Row label, e.g. `autoscale + snapshot pool`.
    pub name: String,
    /// Instance autoscaling on village overload.
    pub autoscale: bool,
    /// Snapshot memory pool backing instance boots (cold boots when off).
    pub pool: bool,
}

/// A workload row of an [`ScenarioKind::SrptAblation`] or
/// [`ScenarioKind::Normalized`] sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NamedWorkload {
    /// Row label, e.g. `HeavyTail`.
    pub name: String,
    /// The workload under that label.
    pub workload: WorkloadSpec,
    /// Offered loads swept for this workload, requests per second.
    pub loads: Vec<f64>,
}

/// A mitigation policy axis value of a [`GridSpec`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NamedPolicy {
    /// Axis label, e.g. `retry`.
    pub name: String,
    /// The mitigation applied at this axis value.
    pub mitigation: MitigationConfig,
}

/// The generic sweep grid `um-sweep` expands: the cross product of
/// loads × (rack widths ×) (routings ×) policies × seeds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GridSpec {
    /// Offered loads, requests per second (per server / per node).
    pub loads: Vec<f64>,
    /// Seed axis; each value derives an independent replica stream.
    pub seeds: Vec<u64>,
    /// Rack widths. Empty runs single-node points; non-empty runs
    /// cluster points and requires [`Scenario::cluster`].
    pub nodes: Vec<usize>,
    /// Mitigation policy axis.
    pub policies: Vec<NamedPolicy>,
}

/// The per-point latency statistic a [`NormalizedSpec`] compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Metric {
    /// P99 end-to-end latency, one table section per load.
    #[default]
    P99,
    /// Mean end-to-end latency, one table section per load.
    Mean,
    /// The P99-to-mean ratio, averaged over each row's loads into one
    /// table.
    TailToAvg,
}

/// How a [`NormalizedSpec`] prints the baseline machine's absolute value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineUnit {
    /// Milliseconds.
    Ms,
    /// Microseconds.
    Us,
    /// The dimensionless metric itself (tail-to-average ratios).
    Abs,
}

/// A machine comparison normalized to its first machine (Figures 14, 16,
/// 17, 19 and 20): workload rows × machine columns, where every point of
/// row *i* runs on the seed `derive_seed(scale.seed, i)`, so the machines
/// of a row are seed-paired and distinct rows are independent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NormalizedSpec {
    /// Table title, e.g. `Figure 14`.
    pub title: String,
    /// Caption printed under the title.
    pub caption: String,
    /// Header of the row-label column.
    pub row_header: String,
    /// The paper's anchors, printed as the closing `paper:` line.
    pub paper: String,
    /// The statistic compared.
    pub metric: Metric,
    /// When set, the table prints the first machine's absolute value in
    /// this unit, and a geomean headline compares the last machine with
    /// each earlier one.
    pub baseline_unit: Option<BaselineUnit>,
    /// Workload rows, in display order; each sweeps its own loads.
    pub rows: Vec<NamedWorkload>,
    /// Machine columns; the first is the normalization baseline.
    pub machines: Vec<NamedMachine>,
}

impl NormalizedSpec {
    /// Whether the table splits into one section per load: rows sweep
    /// several loads and the metric is not averaged over them.
    fn per_load_sections(&self) -> bool {
        self.metric != Metric::TailToAvg && self.rows.iter().any(|r| r.loads.len() > 1)
    }
}

/// What the scenario measures — one variant per converted figure family
/// plus the generic grid.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// Figure 7: ICN-contention tail inflation, mesh vs fat tree,
    /// normalized against contention-free twins.
    Fig7 {
        /// Offered loads swept, requests per second per server.
        loads: Vec<f64>,
    },
    /// The measured per-component latency breakdown across machines.
    Breakdown {
        /// Offered load, requests per second per server.
        rps: f64,
        /// Machine columns, in display order.
        machines: Vec<NamedMachine>,
    },
    /// Tail vs message-loss rate, unmitigated vs timeout/retry.
    FaultTail {
        /// Offered load, requests per second per server.
        rps: f64,
        /// Per-leg drop probabilities swept.
        drop_rates: Vec<f64>,
        /// Timeout of the mitigated column's retry policy, microseconds.
        retry_timeout_us: f64,
    },
    /// Fleet tail by routing policy (requires [`Scenario::cluster`]).
    ClusterTail {
        /// Offered loads per node swept, requests per second.
        loads: Vec<f64>,
    },
    /// The abstract's headline comparison: several machines across a load
    /// sweep, with the first-vs-last geomean latency ratios as the
    /// headline (the `cluster10` table).
    MachineCompare {
        /// Offered loads swept, requests per second per server.
        loads: Vec<f64>,
        /// Machine rows, in display order; the headline ratios divide the
        /// first row's latency by the last row's.
        machines: Vec<NamedMachine>,
    },
    /// Autoscaling under bursty (MMPP) arrivals: pool-backed vs cold
    /// instance boots vs none (the `autoscale` table).
    Autoscale {
        /// Offered load, requests per second per server.
        rps: f64,
        /// Arrival-horizon multiplier over [`Scale::horizon_us`], so
        /// every configuration samples several burst cycles while
        /// `UM_SCALE=quick` still composes.
        horizon_factor: f64,
        /// Configurations, in display order.
        configs: Vec<AutoscaleConfig>,
    },
    /// FCFS vs SRPT dequeue on the hardware RQ, per workload and load
    /// (the `ablation_srpt` table). Each point runs both policies on a
    /// shared seed so the ratio stays paired.
    SrptAblation {
        /// Workload rows; each sweeps its own load list.
        workloads: Vec<NamedWorkload>,
    },
    /// Machines compared on workload rows, normalized to the first
    /// machine.
    Normalized(NormalizedSpec),
    /// The generic `um-sweep` grid.
    Grid(GridSpec),
}

impl ScenarioKind {
    /// The kind's `type` tag in scenario JSON.
    pub fn tag(&self) -> &'static str {
        tag_of(self)
    }
}

impl Default for ScenarioKind {
    /// An empty grid.
    fn default() -> Self {
        ScenarioKind::Grid(GridSpec::default())
    }
}

/// One self-contained experiment description.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scenario {
    /// Registry/display name.
    pub name: String,
    /// The machine every point runs (the breakdown, machine-compare and
    /// normalized kinds' machine lists override it).
    pub machine: MachineSpec,
    /// The request workload (the srpt-ablation and normalized kinds'
    /// workload rows override it).
    pub workload: WorkloadSpec,
    /// Horizons, fleet width, master seed.
    pub scale: Scale,
    /// Scheduled faults, replayed through the seeded
    /// [`FaultPlan`] builder per point. Must be empty for
    /// [`ScenarioKind::FaultTail`], which sweeps its own drop plan.
    pub faults: Vec<FaultRecipe>,
    /// Base mitigation policy (kinds that sweep mitigation — fault-tail,
    /// grid — override it per point).
    pub mitigation: MitigationConfig,
    /// Serving-layer knobs; required by cluster-running kinds.
    pub cluster: Option<ClusterSpec>,
    /// What to measure.
    pub kind: ScenarioKind,
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

fn validate_machine(path: &str, m: &MachineSpec) -> Result<(), String> {
    if let Some(shape) = m.shape {
        check(m.base == MachineBase::Umanycore, || {
            format!("{path}.shape: only valid with base `umanycore`")
        })?;
        check(shape.iter().all(|&d| d >= 1), || {
            format!("{path}.shape: every dimension must be at least 1")
        })?;
    }
    if let Some(rq) = m.rq_capacity {
        check(rq >= 1, || {
            format!("{path}.rq_capacity: must be at least 1")
        })?;
    }
    Ok(())
}

fn validate_mitigation(path: &str, m: &MitigationConfig) -> Result<(), String> {
    if let Some(d) = m.hedge.map(|h| h.delay_us) {
        check(d.is_finite() && d >= 0.0, || {
            format!("{path}.hedge_delay_us: must be a finite nonnegative delay")
        })?;
    }
    if let Some(r) = m.retry {
        check(r.timeout_us.is_finite() && r.timeout_us > 0.0, || {
            format!("{path}.retry.timeout_us: must be a positive timeout")
        })?;
        check(r.backoff.is_finite() && r.backoff >= 1.0, || {
            format!("{path}.retry.backoff: must be at least 1.0")
        })?;
        check(r.max_attempts >= 1, || {
            format!("{path}.retry.max_attempts: must be at least 1")
        })?;
        check((0.0..=1.0).contains(&r.budget_fraction), || {
            format!("{path}.retry.budget_fraction: must be within [0, 1]")
        })?;
    }
    Ok(())
}

fn validate_window(path: &str, from: u64, until: u64, slowdown: f64) -> Result<(), String> {
    check(from < until, || {
        format!("{path}: window start must precede its end")
    })?;
    check(slowdown.is_finite() && slowdown >= 1.0, || {
        format!("{path}: slowdown must be a finite factor >= 1 (serialize outages as a large finite slowdown)")
    })
}

fn validate_fault(path: &str, f: &FaultRecipe) -> Result<(), String> {
    match *f {
        FaultRecipe::MessageDrops { probability } => check(
            probability.is_finite() && (0.0..1.0).contains(&probability),
            || format!("{path}.probability: must be within [0, 1)"),
        ),
        FaultRecipe::CoreFailStop { .. } => Ok(()),
        FaultRecipe::CoreFailSlow {
            from_cycles,
            until_cycles,
            slowdown,
            cores,
            ..
        } => {
            check(cores >= 1, || format!("{path}.cores: must be at least 1"))?;
            validate_window(path, from_cycles, until_cycles, slowdown)
        }
        FaultRecipe::LinkFault {
            from_cycles,
            until_cycles,
            slowdown,
            ..
        } => validate_window(path, from_cycles, until_cycles, slowdown),
        FaultRecipe::FailSlowEveryVillage {
            servers,
            villages,
            cores,
            from_cycles,
            until_cycles,
            slowdown,
        } => {
            check(servers >= 1 && villages >= 1 && cores >= 1, || {
                format!("{path}: servers, villages and cores must be at least 1")
            })?;
            validate_window(path, from_cycles, until_cycles, slowdown)
        }
        FaultRecipe::RandomFailStops {
            servers,
            villages,
            horizon_cycles,
            ..
        } => check(servers >= 1 && villages >= 1 && horizon_cycles >= 1, || {
            format!("{path}: servers, villages and horizon_cycles must be at least 1")
        }),
        FaultRecipe::RandomLinkFaults {
            servers,
            links,
            horizon_cycles,
            mean_duration_cycles,
            slowdown,
            ..
        } => {
            check(
                servers >= 1 && links >= 1 && horizon_cycles >= 1 && mean_duration_cycles >= 1,
                || format!("{path}: index spaces and durations must be at least 1"),
            )?;
            check(slowdown.is_finite() && slowdown >= 1.0, || {
                format!("{path}.slowdown: must be a finite factor >= 1")
            })
        }
    }
}

fn validate_workload(path: &str, w: &WorkloadSpec) -> Result<(), String> {
    match *w {
        WorkloadSpec::SocialApp(root) => check(SocialNetwork::ALL.contains(&root), || {
            format!("{path}.app: not a SocialNetwork root service")
        }),
        WorkloadSpec::Synthetic {
            mean_us,
            scv,
            min_rpcs,
            max_rpcs,
        } => {
            check(mean_us.is_finite() && mean_us > 0.0, || {
                format!("{path}.mean_us: must be a positive time")
            })?;
            check(scv.is_finite() && scv > 0.0, || {
                format!("{path}.scv: must be positive")
            })?;
            check(min_rpcs <= max_rpcs, || {
                format!("{path}.min_rpcs: must not exceed max_rpcs")
            })
        }
        WorkloadSpec::SocialMix
        | WorkloadSpec::TrainMix
        | WorkloadSpec::SyntheticExp
        | WorkloadSpec::SyntheticBimodal => Ok(()),
    }
}

fn validate_loads(path: &str, loads: &[f64]) -> Result<(), String> {
    check(!loads.is_empty(), || format!("{path}: must not be empty"))?;
    check(loads.iter().all(|&l| l.is_finite() && l > 0.0), || {
        format!("{path}: every load must be a positive rate")
    })
}

/// A kind's machine list: at least `min` named, valid machines.
fn validate_machines(path: &str, machines: &[NamedMachine], min: usize) -> Result<(), String> {
    check(machines.len() >= min, || {
        format!("{path}: need at least {min} machine(s)")
    })?;
    for (i, m) in machines.iter().enumerate() {
        check(!m.name.is_empty(), || {
            format!("{path}[{i}].name: must not be empty")
        })?;
        validate_machine(&format!("{path}[{i}].machine"), &m.machine)?;
    }
    Ok(())
}

/// A kind's workload rows: at least one, each named, valid and with a
/// valid load list.
fn validate_workloads(path: &str, workloads: &[NamedWorkload]) -> Result<(), String> {
    check(!workloads.is_empty(), || {
        format!("{path}: must not be empty")
    })?;
    for (i, w) in workloads.iter().enumerate() {
        check(!w.name.is_empty(), || {
            format!("{path}[{i}].name: must not be empty")
        })?;
        validate_workload(&format!("{path}[{i}].workload"), &w.workload)?;
        validate_loads(&format!("{path}[{i}].loads"), &w.loads)?;
    }
    Ok(())
}

impl Scenario {
    /// Whether this scenario runs cluster simulations (and therefore
    /// needs a [`ClusterSpec`] and the RQ deadlock guard).
    pub fn runs_cluster(&self) -> bool {
        match &self.kind {
            ScenarioKind::ClusterTail { .. } => true,
            ScenarioKind::Grid(g) => !g.nodes.is_empty(),
            _ => false,
        }
    }

    /// Checks every knob before expansion.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on the first
    /// violation — scenarios fail validation, they do not panic inside
    /// the simulator.
    pub fn validate(&self) -> Result<(), String> {
        check(!self.name.is_empty(), || {
            "scenario.name: must not be empty".to_string()
        })?;
        let s = &self.scale;
        check(s.horizon_us.is_finite() && s.horizon_us > 0.0, || {
            "scenario.scale.horizon_us: must be a positive horizon".to_string()
        })?;
        check(
            s.warmup_us.is_finite() && s.warmup_us >= 0.0 && s.warmup_us < s.horizon_us,
            || "scenario.scale.warmup_us: must be nonnegative and below horizon_us".to_string(),
        )?;
        check(s.servers >= 1, || {
            "scenario.scale.servers: must be at least 1".to_string()
        })?;
        check(s.seed < MAX_EXACT_INT, || {
            "scenario.scale.seed: must stay below 2^53 (JSON-exact)".to_string()
        })?;
        validate_machine("scenario.machine", &self.machine)?;
        validate_workload("scenario.workload", &self.workload)?;
        validate_mitigation("scenario.mitigation", &self.mitigation)?;
        for (i, f) in self.faults.iter().enumerate() {
            validate_fault(&format!("scenario.faults[{i}]"), f)?;
        }
        if let Some(c) = &self.cluster {
            check(c.nodes >= 1, || {
                "scenario.cluster.nodes: must be at least 1".to_string()
            })?;
            check(!c.routing.is_empty(), || {
                "scenario.cluster.routing: must not be empty".to_string()
            })?;
            for (i, r) in c.routing.iter().enumerate() {
                check(!r.name.is_empty(), || {
                    format!("scenario.cluster.routing[{i}].name: must not be empty")
                })?;
                if let RoutingPolicy::JsqD { d } = r.policy {
                    check(d >= 1, || {
                        format!("scenario.cluster.routing[{i}].d: must be at least 1")
                    })?;
                }
            }
            if let Some(cap) = c.max_in_flight {
                check(cap >= 1, || {
                    "scenario.cluster.max_in_flight: must be at least 1 when set".to_string()
                })?;
            }
            if let Some(j) = c.jitter {
                check(j.mean_us.is_finite() && j.mean_us > 0.0, || {
                    "scenario.cluster.jitter.mean_us: must be a positive time".to_string()
                })?;
                check(j.scv.is_finite() && j.scv > 0.0, || {
                    "scenario.cluster.jitter.scv: must be positive".to_string()
                })?;
            }
        }
        self.validate_kind()?;
        if self.runs_cluster() {
            let c = self
                .cluster
                .as_ref()
                .expect("validate_kind requires a cluster spec for cluster kinds");
            // The RQ deadlock guard (DESIGN.md, "Cluster layer"): on a
            // shallow RQ, blocked parents can fill every entry of a hot
            // village while their children wait in the NIC buffer —
            // admission control bounds the blocked population instead
            // (each admitted root holds at most two RQ slots), and a
            // >= 512-entry RQ is the committed deep-RQ regime.
            let rq = self.machine.effective_rq_capacity();
            let capped = c.max_in_flight.is_some_and(|cap| 2 * cap <= rq);
            check(rq >= 512 || capped, || {
                format!(
                    "scenario.cluster.max_in_flight: cluster scenarios with a shallow RQ \
                     (machine.rq_capacity = {rq}) can deadlock on RQ overflow; set \
                     cluster.max_in_flight to at most rq_capacity/2, or raise \
                     machine.rq_capacity to >= 512 (see DESIGN.md, \"Cluster layer\")"
                )
            })?;
        }
        Ok(())
    }

    fn validate_kind(&self) -> Result<(), String> {
        match &self.kind {
            ScenarioKind::Fig7 { loads } => validate_loads("scenario.kind.loads", loads),
            ScenarioKind::Breakdown { rps, machines } => {
                check(rps.is_finite() && *rps > 0.0, || {
                    "scenario.kind.rps: must be a positive rate".to_string()
                })?;
                validate_machines("scenario.kind.machines", machines, 1)
            }
            ScenarioKind::FaultTail {
                rps,
                drop_rates,
                retry_timeout_us,
            } => {
                check(rps.is_finite() && *rps > 0.0, || {
                    "scenario.kind.rps: must be a positive rate".to_string()
                })?;
                check(!drop_rates.is_empty(), || {
                    "scenario.kind.drop_rates: must not be empty".to_string()
                })?;
                for (i, &p) in drop_rates.iter().enumerate() {
                    check(p.is_finite() && (0.0..1.0).contains(&p), || {
                        format!("scenario.kind.drop_rates[{i}]: must be within [0, 1)")
                    })?;
                }
                check(
                    retry_timeout_us.is_finite() && *retry_timeout_us > 0.0,
                    || "scenario.kind.retry_timeout_us: must be a positive timeout".to_string(),
                )?;
                check(self.faults.is_empty(), || {
                    "scenario.faults: fault-tail sweeps its own drop plan; faults must be empty"
                        .to_string()
                })
            }
            ScenarioKind::ClusterTail { loads } => {
                validate_loads("scenario.kind.loads", loads)?;
                check(self.cluster.is_some(), || {
                    "scenario.cluster: required by the cluster-tail kind".to_string()
                })
            }
            ScenarioKind::MachineCompare { loads, machines } => {
                validate_loads("scenario.kind.loads", loads)?;
                // The headline ratios divide the first row by the last.
                validate_machines("scenario.kind.machines", machines, 2)
            }
            ScenarioKind::Autoscale {
                rps,
                horizon_factor,
                configs,
            } => {
                check(rps.is_finite() && *rps > 0.0, || {
                    "scenario.kind.rps: must be a positive rate".to_string()
                })?;
                check(horizon_factor.is_finite() && *horizon_factor >= 1.0, || {
                    "scenario.kind.horizon_factor: must be a finite factor >= 1".to_string()
                })?;
                check(!configs.is_empty(), || {
                    "scenario.kind.configs: must not be empty".to_string()
                })?;
                for (i, c) in configs.iter().enumerate() {
                    check(!c.name.is_empty(), || {
                        format!("scenario.kind.configs[{i}].name: must not be empty")
                    })?;
                }
                Ok(())
            }
            ScenarioKind::SrptAblation { workloads } => {
                validate_workloads("scenario.kind.workloads", workloads)
            }
            ScenarioKind::Normalized(n) => {
                validate_workloads("scenario.kind.rows", &n.rows)?;
                // Every column is normalized to the first.
                validate_machines("scenario.kind.machines", &n.machines, 2)?;
                if n.per_load_sections() {
                    for (i, r) in n.rows.iter().enumerate() {
                        check(r.loads == n.rows[0].loads, || {
                            format!(
                                "scenario.kind.rows[{i}].loads: per-load sections need every \
                                 row to sweep rows[0].loads"
                            )
                        })?;
                    }
                }
                Ok(())
            }
            ScenarioKind::Grid(g) => {
                validate_loads("scenario.kind.loads", g.loads.as_slice())?;
                check(!g.seeds.is_empty(), || {
                    "scenario.kind.seeds: must not be empty".to_string()
                })?;
                for (i, &seed) in g.seeds.iter().enumerate() {
                    check(seed < MAX_EXACT_INT, || {
                        format!("scenario.kind.seeds[{i}]: must stay below 2^53 (JSON-exact)")
                    })?;
                }
                check(!g.policies.is_empty(), || {
                    "scenario.kind.policies: must not be empty".to_string()
                })?;
                for (i, p) in g.policies.iter().enumerate() {
                    check(!p.name.is_empty(), || {
                        format!("scenario.kind.policies[{i}].name: must not be empty")
                    })?;
                    validate_mitigation(
                        &format!("scenario.kind.policies[{i}].mitigation"),
                        &p.mitigation,
                    )?;
                }
                for (i, &n) in g.nodes.iter().enumerate() {
                    check(n >= 1, || {
                        format!("scenario.kind.nodes[{i}]: must be at least 1")
                    })?;
                }
                if !g.nodes.is_empty() {
                    check(self.cluster.is_some(), || {
                        "scenario.cluster: required by a grid with a nodes axis".to_string()
                    })?;
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------

/// One fully-specified sweep point.
#[derive(Clone, Debug)]
pub enum PointConfig {
    /// A single-node system run.
    Node(Box<SimConfig>),
    /// A whole-rack cluster run.
    Cluster(Box<ClusterConfig>),
}

/// Boxes a node config into a sweep point (keeps the enum variants the
/// same size, per clippy's `large_enum_variant`).
fn node_point(cfg: SimConfig) -> PointConfig {
    PointConfig::Node(Box::new(cfg))
}

impl PointConfig {
    /// The node config, when this is a single-node point.
    pub fn as_node(&self) -> Option<&SimConfig> {
        match self {
            PointConfig::Node(cfg) => Some(cfg),
            PointConfig::Cluster(_) => None,
        }
    }

    /// The cluster config, when this is a rack point.
    pub fn as_cluster(&self) -> Option<&ClusterConfig> {
        match self {
            PointConfig::Node(_) => None,
            PointConfig::Cluster(cfg) => Some(cfg),
        }
    }
}

impl Scenario {
    fn point_plan(&self, seed: u64) -> FaultPlan {
        if self.faults.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::from_recipes(seed, &self.faults)
        }
    }

    /// A single-node point: `machine` serving `workload` at `rps` per
    /// server on `seed`, at the scenario's scale and with its faults and
    /// mitigation. Kinds override the fields they sweep.
    fn node_config(
        &self,
        machine: MachineConfig,
        workload: &WorkloadSpec,
        rps: f64,
        seed: u64,
    ) -> SimConfig {
        SimConfig {
            machine,
            workload: workload.build(),
            rps_per_server: rps,
            servers: self.scale.servers,
            horizon_us: self.scale.horizon_us,
            warmup_us: self.scale.warmup_us,
            seed,
            fault_plan: self.point_plan(seed),
            mitigation: self.mitigation,
            ..SimConfig::default()
        }
    }

    fn cluster_config(
        &self,
        c: &ClusterSpec,
        nodes: usize,
        rps_per_node: f64,
        routing: RoutingPolicy,
        seed: u64,
        mitigation: MitigationConfig,
    ) -> ClusterConfig {
        ClusterConfig {
            node: SimConfig {
                machine: self.machine.build(),
                workload: self.workload.build(),
                mitigation,
                ..Default::default()
            },
            nodes,
            rps_per_node,
            horizon_us: self.scale.horizon_us,
            warmup_us: self.scale.warmup_us,
            seed,
            routing,
            max_in_flight: c.max_in_flight,
            steer: c.steer,
            net: ClusterNetConfig {
                jitter_us: c
                    .jitter
                    .map(|j| ServiceTimeDist::lognormal_with_mean(j.mean_us, j.scv)),
                ..ClusterNetConfig::default()
            },
            fault_plan: self.point_plan(seed),
            ..ClusterConfig::default()
        }
    }

    /// Expands the scenario into its fully-specified point list, in the
    /// committed-results row order. Changing an expansion changes the
    /// committed results, which CI byte-diffs.
    ///
    /// # Errors
    ///
    /// Returns the first [`Scenario::validate`] violation.
    pub fn expand(&self) -> Result<Vec<PointConfig>, String> {
        self.validate()?;
        let scale = self.scale;
        let mut points = Vec::new();
        match &self.kind {
            ScenarioKind::Fig7 { loads } => {
                // Per load: the mesh with and without ICN contention,
                // then the fat tree likewise. The four runs share the
                // load's derived seed, so each normalization is paired.
                for (li, &rps) in loads.iter().enumerate() {
                    for icn in [IcnKind::Mesh, IcnKind::FatTree] {
                        for contention in [true, false] {
                            let mut machine = self.machine.build();
                            machine.icn = icn;
                            let seed = rng::derive_seed(scale.seed, li as u64);
                            points.push(node_point(SimConfig {
                                icn_contention: contention,
                                ..self.node_config(machine, &self.workload, rps, seed)
                            }));
                        }
                    }
                }
            }
            ScenarioKind::Breakdown { rps, machines } => {
                for m in machines {
                    points.push(node_point(SimConfig {
                        trace: true,
                        ..self.node_config(m.machine.build(), &self.workload, *rps, scale.seed)
                    }));
                }
            }
            ScenarioKind::FaultTail {
                rps,
                drop_rates,
                retry_timeout_us,
            } => {
                for (i, &drop_p) in drop_rates.iter().enumerate() {
                    let seed = rng::derive_seed(scale.seed, i as u64);
                    let plan = if drop_p > 0.0 {
                        FaultPlan::from_recipes(
                            seed,
                            &[FaultRecipe::MessageDrops {
                                probability: drop_p,
                            }],
                        )
                    } else {
                        FaultPlan::none()
                    };
                    for mitigation in [
                        MitigationConfig::default(),
                        MitigationConfig {
                            retry: Some(RetryConfig::with_timeout_us(*retry_timeout_us)),
                            ..MitigationConfig::default()
                        },
                    ] {
                        points.push(node_point(SimConfig {
                            fault_plan: plan.clone(),
                            mitigation,
                            ..self.node_config(self.machine.build(), &self.workload, *rps, seed)
                        }));
                    }
                }
            }
            ScenarioKind::ClusterTail { loads } => {
                let c = self.cluster.as_ref().expect("validated: cluster present");
                for named in &c.routing {
                    for &rps in loads {
                        points.push(PointConfig::Cluster(Box::new(self.cluster_config(
                            c,
                            c.nodes,
                            rps,
                            named.policy,
                            scale.seed,
                            self.mitigation,
                        ))));
                    }
                }
            }
            ScenarioKind::MachineCompare { loads, machines } => {
                // The machines at one load share the seed so the
                // headline ratios stay paired.
                for &rps in loads {
                    for m in machines {
                        let machine = m.machine.build();
                        points.push(node_point(self.node_config(
                            machine,
                            &self.workload,
                            rps,
                            scale.seed,
                        )));
                    }
                }
            }
            ScenarioKind::Autoscale {
                rps,
                horizon_factor,
                configs,
            } => {
                for cfg in configs {
                    let mut machine = self.machine.build();
                    machine.memory_pool = cfg.pool;
                    points.push(node_point(SimConfig {
                        // Multiply at expansion so UM_SCALE=quick
                        // composes: quick sets the base horizon, the
                        // kind stretches it over several burst cycles.
                        horizon_us: scale.horizon_us * *horizon_factor,
                        arrivals: ArrivalProcess::Bursty,
                        autoscale: cfg.autoscale,
                        ..self.node_config(machine, &self.workload, *rps, scale.seed)
                    }));
                }
            }
            ScenarioKind::SrptAblation { workloads } => {
                // Both policies of one (workload, load) point share the
                // seed, so the SRPT/FCFS ratio is paired.
                for w in workloads {
                    for &rps in &w.loads {
                        for policy in [DequeuePolicy::Fcfs, DequeuePolicy::Srpt] {
                            let machine = self.machine.build();
                            points.push(node_point(SimConfig {
                                dequeue_policy: policy,
                                ..self.node_config(machine, &w.workload, rps, scale.seed)
                            }));
                        }
                    }
                }
            }
            ScenarioKind::Normalized(n) => {
                // Row i's points share its derived seed, so the machines
                // of a row are paired and distinct rows independent.
                for (i, row) in n.rows.iter().enumerate() {
                    let seed = rng::derive_seed(scale.seed, i as u64);
                    for &rps in &row.loads {
                        for m in &n.machines {
                            let machine = m.machine.build();
                            points.push(node_point(self.node_config(
                                machine,
                                &row.workload,
                                rps,
                                seed,
                            )));
                        }
                    }
                }
            }
            ScenarioKind::Grid(g) => {
                if g.nodes.is_empty() {
                    for (li, &rps) in g.loads.iter().enumerate() {
                        for policy in &g.policies {
                            for &axis_seed in &g.seeds {
                                let seed = rng::derive_seed(
                                    rng::derive_seed(scale.seed, axis_seed),
                                    li as u64,
                                );
                                let machine = self.machine.build();
                                points.push(node_point(SimConfig {
                                    mitigation: policy.mitigation,
                                    ..self.node_config(machine, &self.workload, rps, seed)
                                }));
                            }
                        }
                    }
                } else {
                    let c = self.cluster.as_ref().expect("validated: cluster present");
                    for (li, &rps) in g.loads.iter().enumerate() {
                        for &nodes in &g.nodes {
                            for named in &c.routing {
                                for policy in &g.policies {
                                    for &axis_seed in &g.seeds {
                                        let seed = rng::derive_seed(
                                            rng::derive_seed(scale.seed, axis_seed),
                                            li as u64,
                                        );
                                        points.push(PointConfig::Cluster(Box::new(
                                            self.cluster_config(
                                                c,
                                                nodes,
                                                rps,
                                                named.policy,
                                                seed,
                                                policy.mitigation,
                                            ),
                                        )));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(points)
    }
}

// ---------------------------------------------------------------------
// Running and rendering
// ---------------------------------------------------------------------

/// One finished sweep point.
enum PointReport {
    Node(Box<RunReport>),
    Cluster(Box<ClusterReport>),
}

impl PointReport {
    fn node(&self) -> &RunReport {
        match self {
            PointReport::Node(r) => r,
            PointReport::Cluster(_) => unreachable!("expansion produced a cluster point"),
        }
    }

    fn cluster(&self) -> &ClusterReport {
        match self {
            PointReport::Cluster(r) => r,
            PointReport::Node(_) => unreachable!("expansion produced a node point"),
        }
    }
}

/// What a scenario run produces: the text table (what `um-sweep` prints
/// and `results/` commits) and, for grid scenarios, the flat benchjson
/// point array.
pub struct ScenarioOutput {
    /// The rendered table + prose, exactly as `um-sweep` prints it.
    pub text: String,
    /// Grid scenarios: the benchjson `points` array (wrap it in the
    /// `validate_bench` envelope with a `bench` name and `scale` label).
    pub points: Option<Json>,
}

impl ScenarioOutput {
    /// A text-only output (every kind but the grid).
    fn text(text: String) -> Self {
        Self { text, points: None }
    }
}

/// Runs the scenario on the process-default worker pool (`UM_THREADS`).
///
/// # Errors
///
/// Returns the first validation violation.
pub fn run(s: &Scenario) -> Result<ScenarioOutput, String> {
    run_impl(s, None, None)
}

/// [`run`] with an explicit worker count; results are bit-identical at
/// any value.
///
/// # Errors
///
/// Returns the first validation violation.
pub fn run_with_threads(s: &Scenario, threads: usize) -> Result<ScenarioOutput, String> {
    run_impl(s, Some(threads), None)
}

/// [`run`] with a progress callback, invoked once per completed point
/// with `(completed, total)`. The callback runs on the sweep worker
/// threads, possibly concurrently; completion order is nondeterministic
/// but the result is still bit-identical at any `UM_THREADS`.
///
/// # Errors
///
/// Returns the first validation violation.
pub fn run_with_progress(
    s: &Scenario,
    on_progress: &(dyn Fn(usize, usize) + Sync),
) -> Result<ScenarioOutput, String> {
    run_impl(s, None, Some(on_progress))
}

fn run_impl(
    s: &Scenario,
    threads: Option<usize>,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Result<ScenarioOutput, String> {
    let points = s.expand()?;
    let total = points.len();
    let completed = AtomicUsize::new(0);
    let eval = |_: usize, p: PointConfig| {
        let report = match p {
            PointConfig::Node(cfg) => PointReport::Node(Box::new(SystemSim::new(*cfg).run())),
            PointConfig::Cluster(cfg) => {
                PointReport::Cluster(Box::new(ClusterSim::new(*cfg).run()))
            }
        };
        if let Some(cb) = progress {
            cb(completed.fetch_add(1, Ordering::Relaxed) + 1, total);
        }
        report
    };
    let reports = match threads {
        Some(n) => parallel::map_with_threads(n, points, eval),
        None => parallel::map(points, eval),
    };
    Ok(match &s.kind {
        ScenarioKind::Fig7 { loads } => render_fig7(loads, &reports),
        ScenarioKind::Breakdown { rps, machines } => render_breakdown(*rps, machines, &reports),
        ScenarioKind::FaultTail {
            rps, drop_rates, ..
        } => render_fault_tail(*rps, drop_rates, &reports),
        ScenarioKind::ClusterTail { loads } => render_cluster_tail(s, loads, &reports),
        ScenarioKind::MachineCompare { loads, machines } => {
            render_machine_compare(s, loads, machines, &reports)
        }
        ScenarioKind::Autoscale { configs, .. } => render_autoscale(s, configs, &reports),
        ScenarioKind::SrptAblation { workloads } => render_srpt_ablation(workloads, &reports),
        ScenarioKind::Normalized(n) => render_normalized(n, &reports),
        ScenarioKind::Grid(g) => render_grid(s, g, &reports),
    })
}

fn render_fig7(loads: &[f64], reports: &[PointReport]) -> ScenarioOutput {
    let mut out = header_text(
        "Figure 7",
        "Tail latency with ICN contention, normalized to the same system without\ncontention.",
    );
    let mut t = Table::with_columns(&["load", "2D mesh", "fat tree"]);
    // Each load's four points, in expansion order: mesh contended,
    // mesh contention-free, fat tree contended, fat tree contention-free.
    for (&rps, runs) in loads.iter().zip(reports.chunks_exact(4)) {
        let tail = |i: usize| runs[i].node().latency.p99;
        t.row(vec![
            format!("{:.0}K-RPS", rps / 1000.0),
            f2(tail(0) / tail(1)),
            f2(tail(2) / tail(3)),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("paper at 50K RPS: mesh 14.7x, fat tree 7.5x\n");
    ScenarioOutput::text(out)
}

/// An offered load in thousands of requests per second, e.g. `8K`.
fn krps(rps: f64) -> String {
    format!("{}K", rps / 1000.0)
}

fn render_breakdown(
    rps: f64,
    machines: &[NamedMachine],
    reports: &[PointReport],
) -> ScenarioOutput {
    let mut out = header_text(
        "Measured latency breakdown",
        &format!(
            "Mean microseconds per root request (downstream RPC tree merged in) at {} RPS\n\
             (SocialNetwork mix), attributed by the tracing layer. Components sum to the\n\
             mean end-to-end latency exactly.",
            krps(rps)
        ),
    );
    let mut cols = vec!["component"];
    cols.extend(machines.iter().map(|m| m.name.as_str()));
    let mut t = Table::with_columns(&cols);
    let breakdowns: Vec<_> = reports
        .iter()
        .map(|r| r.node().breakdown.as_ref().expect("traced run"))
        .collect();
    for c in Component::ALL {
        let mut row = vec![c.name().to_string()];
        row.extend(breakdowns.iter().map(|b| f1(b.component(c).mean)));
        t.row(row);
    }
    let mut row = vec!["= end-to-end mean".to_string()];
    row.extend(reports.iter().map(|r| f1(r.node().latency.mean)));
    t.row(row);
    out.push_str(&t.render());
    out.push('\n');
    for (m, r) in machines.iter().zip(reports) {
        let r = r.node();
        assert!(
            r.conservation.exact(),
            "{}: conservation violated: {:?}",
            m.name,
            r.conservation
        );
        out.push_str(&format!(
            "{}: conservation exact over {} requests ({} cycles attributed).\n",
            m.name, r.conservation.checked, r.conservation.breakdown_cycles
        ));
    }
    out.push('\n');
    out.push_str(
        "The software baselines' latency is RPC processing, memory stalls and (as\n\
         load grows) queueing; uManycore's is the handler compute plus the storage\n\
         tier, with scheduling, switching and RPC overheads at noise level — the\n\
         per-component rendering of Figures 3 and 6. Downstream RPC wait appears\n\
         as the callee's components (storage-service, compute, rpc-processing),\n\
         never as caller queue-wait: the rows sum to the mean latency exactly.\n",
    );
    ScenarioOutput::text(out)
}

fn render_fault_tail(rps: f64, drop_rates: &[f64], reports: &[PointReport]) -> ScenarioOutput {
    let mut out = header_text(
        "Tail vs fault rate",
        &format!(
            "uManycore, SocialNetwork mix at {} RPS, per-leg message-drop probability\n\
             swept. `none` = no mitigation (lost operations abandoned at the default\n\
             RPC timeout, their requests excluded from latency); `retry` = timeout +\n\
             exponential backoff with a 10% retry budget.",
            krps(rps)
        ),
    );
    let mut t = Table::with_columns(&[
        "drop_p",
        "none p50(us)",
        "none p99(us)",
        "none gave-up",
        "retry p50(us)",
        "retry p99(us)",
        "retry gave-up",
        "retries",
    ]);
    let pairs: Vec<(f64, &RunReport, &RunReport)> = drop_rates
        .iter()
        .zip(reports.chunks_exact(2))
        .map(|(&p, pair)| (p, pair[0].node(), pair[1].node()))
        .collect();
    for (drop_p, baseline, mitigated) in &pairs {
        t.row(vec![
            format!("{:.3}", drop_p),
            f1(baseline.latency.p50),
            f1(baseline.latency.p99),
            baseline.faults.gave_up_requests.to_string(),
            f1(mitigated.latency.p50),
            f1(mitigated.latency.p99),
            mitigated.faults.gave_up_requests.to_string(),
            mitigated.faults.retries.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let (drop_p, baseline, mitigated) = pairs.last().expect("nonempty sweep");
    out.push_str(&format!(
        "at drop_p={:.3}: retry keeps {} of {} lost operations alive (baseline abandons {})\n",
        drop_p, mitigated.faults.retries, mitigated.faults.drops, baseline.faults.gave_up_requests,
    ));
    out.push_str(&format!(
        "offered load {rps:.0} RPS/server; all runs conserve latency to the cycle (checked: {})\n",
        f2(baseline.conservation.checked as f64),
    ));
    ScenarioOutput::text(out)
}

fn render_cluster_tail(s: &Scenario, loads: &[f64], reports: &[PointReport]) -> ScenarioOutput {
    let c = s.cluster.as_ref().expect("validated: cluster present");
    let machine = s.machine.build();
    let mut out = header_text(
        "Cluster tail by routing policy",
        &format!(
            "{} uManycore package slices ({}-core villages, {} cores each) behind one\n\
             load balancer; SocialNetwork mix, 0.5 us rack fabric with lognormal\n\
             jitter; per-node offered load swept up to ~0.95 utilization.",
            c.nodes,
            machine.shape.cores_per_village,
            machine.total_cores()
        ),
    );
    let mut t = Table::with_columns(&[
        "policy",
        "rps/node",
        "avg (us)",
        "p99 (us)",
        "hop avg (us)",
        "hop p99 (us)",
        "peak LB queue",
    ]);
    let mut it = reports.iter();
    for named in &c.routing {
        for &rps in loads {
            let r = it.next().expect("one report per point").cluster();
            t.row(vec![
                named.name.clone(),
                format!("{rps:.0}"),
                f1(r.latency.mean),
                f1(r.latency.p99),
                f1(r.cluster_hop.mean),
                f1(r.cluster_hop.p99),
                r.peak_lb_queue.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "At low load the package's internal parallelism absorbs routing imbalance\n\
         and every policy ties; past ~0.9 utilization JSQ(2) tracks the central\n\
         queue while random routing pays at the p99 — the uqSim/CloudNativeSim-style\n\
         cluster result, with a many-core package (not a single worker) per node.\n",
    );
    ScenarioOutput::text(out)
}

fn render_machine_compare(
    s: &Scenario,
    loads: &[f64],
    machines: &[NamedMachine],
    reports: &[PointReport],
) -> ScenarioOutput {
    let mut out = header_text(
        &format!("Cluster of {} servers", s.scale.servers),
        &format!(
            "End-to-end latency of {}-server clusters under the SocialNetwork mix.",
            s.scale.servers
        ),
    );
    let mut t = Table::with_columns(&["machine", "load", "avg (us)", "p99 (us)", "cluster util"]);
    let mut avg_ratio = Vec::new();
    let mut tail_ratio = Vec::new();
    for (&rps, chunk) in loads.iter().zip(reports.chunks_exact(machines.len())) {
        for (m, r) in machines.iter().zip(chunk) {
            let r = r.node();
            t.row(vec![
                m.name.clone(),
                format!("{:.0}K/srv", rps / 1000.0),
                f1(r.latency.mean),
                f1(r.latency.p99),
                format!("{:.3}", r.utilization),
            ]);
        }
        let first = chunk
            .first()
            .expect("validated: two or more machines")
            .node();
        let last = chunk
            .last()
            .expect("validated: two or more machines")
            .node();
        avg_ratio.push(first.latency.mean / last.latency.mean);
        tail_ratio.push(first.latency.p99 / last.latency.p99);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "uManycore cluster vs iso-power ServerClass cluster: {:.1}x lower average,\n\
         {:.1}x lower tail (paper: 3.7x and 10.4x)\n",
        geomean(&avg_ratio),
        geomean(&tail_ratio)
    ));
    ScenarioOutput::text(out)
}

fn render_autoscale(
    s: &Scenario,
    configs: &[AutoscaleConfig],
    reports: &[PointReport],
) -> ScenarioOutput {
    let mut out = header_text(
        "Autoscaling with snapshot pools",
        &format!(
            "Bursty (MMPP) SocialNetwork traffic on uManycore; small {}-entry RQs so\n\
             bursts overflow a single instance.",
            s.machine.effective_rq_capacity()
        ),
    );
    let mut t = Table::with_columns(&[
        "configuration",
        "avg (us)",
        "p99 (us)",
        "boots",
        "RQ overflows",
    ]);
    for (c, r) in configs.iter().zip(reports) {
        let r = r.node();
        t.row(vec![
            c.name.clone(),
            f1(r.latency.mean),
            f1(r.latency.p99),
            r.instance_boots.to_string(),
            r.rq_overflows.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "paper: snapshots cut instance boot from >300 ms to <10 ms (§3.5), which\n\
         is what lets the system absorb the Figure 2 bursts without tail spikes.\n",
    );
    ScenarioOutput::text(out)
}

fn render_srpt_ablation(workloads: &[NamedWorkload], reports: &[PointReport]) -> ScenarioOutput {
    let mut out = header_text(
        "Ablation: FCFS vs SRPT",
        "Tail latency of the uManycore hardware RQ under both dequeue policies.",
    );
    let mut t = Table::with_columns(&[
        "workload",
        "load",
        "FCFS tail (us)",
        "SRPT tail (us)",
        "SRPT/FCFS",
    ]);
    let mut it = reports.iter();
    for w in workloads {
        for &rps in &w.loads {
            let fcfs = it.next().expect("one report per policy").node().latency.p99;
            let srpt = it.next().expect("one report per policy").node().latency.p99;
            t.row(vec![
                w.name.clone(),
                format!("{:.0}K", rps / 1000.0),
                f1(fcfs),
                f1(srpt),
                format!("{:.2}", srpt / fcfs),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(
        "paper claim (§4.3): SRPT is unlikely to improve over FCFS for\n\
         microservices. At evaluation loads the village queues stay shallow and\n\
         the policies coincide (ratio 1.00); near saturation SRPT actively\n\
         *hurts* the P99 by starving long requests. FCFS is the right choice.\n",
    );
    ScenarioOutput::text(out)
}

/// One normalized table: a row per `(label, per-machine values)`, each
/// value divided by the row's first; plus, when the spec prints the
/// baseline's absolute value, the geomean headline line.
fn render_normalized_table(
    n: &NormalizedSpec,
    rows: &[(&str, Vec<f64>)],
) -> (String, Option<String>) {
    let mut cols = vec![n.row_header.clone()];
    if let Some(unit) = n.baseline_unit {
        cols.push(format!("{}({})", n.machines[0].name, tag_of(&unit)));
    }
    cols.extend(n.machines.iter().map(|m| m.name.clone()));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut t = Table::with_columns(&cols);
    let last = n.machines.len() - 1;
    // vs_last[j]: per row, machine j's normalized value over the last's.
    let mut vs_last = vec![Vec::new(); last];
    for (label, values) in rows {
        let norm: Vec<f64> = values.iter().map(|v| v / values[0]).collect();
        let mut cells = vec![label.to_string()];
        match n.baseline_unit {
            Some(BaselineUnit::Ms) => cells.push(f1(values[0] / 1000.0)),
            Some(BaselineUnit::Us | BaselineUnit::Abs) => cells.push(f1(values[0])),
            None => {}
        }
        cells.extend(norm.iter().map(|&v| f2(v)));
        t.row(cells);
        for (j, ratios) in vs_last.iter_mut().enumerate() {
            ratios.push(norm[j] / norm[last]);
        }
    }
    let headline = n.baseline_unit.map(|_| {
        let (what, vs) = match n.metric {
            Metric::P99 => ("tail reduction:", "vs"),
            Metric::Mean => ("average reduction:", "vs"),
            Metric::TailToAvg => ("ratio is", "lower than"),
        };
        let parts: Vec<String> = vs_last
            .iter()
            .zip(&n.machines)
            .map(|(ratios, m)| {
                // A row with no recorded requests has no ratio to average.
                let g = if ratios.iter().all(|&r| r > 0.0) {
                    geomean(ratios)
                } else {
                    f64::NAN
                };
                format!("{g:.1}x {vs} {}", m.name)
            })
            .collect();
        format!("{} {what} {}\n", n.machines[last].name, parts.join(", "))
    });
    (t.render(), headline)
}

fn render_normalized(n: &NormalizedSpec, reports: &[PointReport]) -> ScenarioOutput {
    let m = n.machines.len();
    let value = |r: &PointReport| {
        let r = r.node();
        match n.metric {
            Metric::P99 => r.latency.p99,
            Metric::Mean => r.latency.mean,
            Metric::TailToAvg => r.tail_to_avg(),
        }
    };
    // Each row's reports in expansion order: per load, one per machine.
    let mut rest = reports;
    let runs: Vec<(&str, &[PointReport])> = n
        .rows
        .iter()
        .map(|row| {
            let (mine, tail) = rest.split_at(row.loads.len() * m);
            rest = tail;
            (row.name.as_str(), mine)
        })
        .collect();
    let mut out = header_text(&n.title, &n.caption);
    if n.per_load_sections() {
        for (l, &rps) in n.rows[0].loads.iter().enumerate() {
            let rows: Vec<(&str, Vec<f64>)> = runs
                .iter()
                .map(|&(name, r)| (name, r[l * m..(l + 1) * m].iter().map(value).collect()))
                .collect();
            let (table, headline) = render_normalized_table(n, &rows);
            out.push_str(&format!("-- load {:.0}K RPS --\n{table}", rps / 1000.0));
            out.push_str(&headline.unwrap_or_default());
            out.push('\n');
        }
    } else {
        // One value per (row, machine): its mean over the row's loads.
        let rows: Vec<(&str, Vec<f64>)> = runs
            .iter()
            .map(|&(name, r)| {
                let per_load = |j: usize| r[j..].iter().step_by(m).map(value).collect::<Vec<_>>();
                (name, (0..m).map(|j| mean(&per_load(j))).collect())
            })
            .collect();
        let (table, headline) = render_normalized_table(n, &rows);
        out.push_str(&table);
        out.push('\n');
        out.push_str(&headline.unwrap_or_default());
    }
    out.push_str(&format!("paper: {}\n", n.paper));
    ScenarioOutput::text(out)
}

fn render_grid(s: &Scenario, g: &GridSpec, reports: &[PointReport]) -> ScenarioOutput {
    let axes = if g.nodes.is_empty() {
        format!(
            "{} loads x {} policies x {} seeds",
            g.loads.len(),
            g.policies.len(),
            g.seeds.len()
        )
    } else {
        let routings = s
            .cluster
            .as_ref()
            .expect("validated: cluster present")
            .routing
            .len();
        format!(
            "{} loads x {} rack widths x {routings} routings x {} policies x {} seeds",
            g.loads.len(),
            g.nodes.len(),
            g.policies.len(),
            g.seeds.len()
        )
    };
    let mut out = header_text(
        &format!("Scenario sweep: {}", s.name),
        &format!(
            "{} grid points ({axes}), every point a fully specified config whose seed\n\
             derives from the scenario master seed; evaluated through the deterministic\n\
             sweep runner, bit-identical at any UM_THREADS.",
            reports.len()
        ),
    );
    let mut points = Vec::new();
    let mut it = reports.iter();
    if g.nodes.is_empty() {
        let mut t = Table::with_columns(&[
            "load",
            "policy",
            "seed",
            "p50 (us)",
            "p99 (us)",
            "mean (us)",
            "gave-up",
            "retries",
            "hedges",
        ]);
        for &rps in g.loads.iter() {
            for policy in &g.policies {
                for &axis_seed in &g.seeds {
                    let r = it.next().expect("one report per point").node();
                    t.row(vec![
                        format!("{rps:.0}"),
                        policy.name.clone(),
                        axis_seed.to_string(),
                        f1(r.latency.p50),
                        f1(r.latency.p99),
                        f1(r.latency.mean),
                        r.faults.gave_up_requests.to_string(),
                        r.faults.retries.to_string(),
                        r.faults.hedges.to_string(),
                    ]);
                    points.push(obj(vec![
                        ("load_rps", Json::Num(rps)),
                        ("policy", Json::Str(policy.name.clone())),
                        ("seed", Json::Num(axis_seed as f64)),
                        ("p50_us", Json::Num(rounded(r.latency.p50, 2))),
                        ("p99_us", Json::Num(rounded(r.latency.p99, 2))),
                        ("mean_us", Json::Num(rounded(r.latency.mean, 2))),
                        ("completed", Json::Num(r.completed as f64)),
                        ("gave_up", Json::Num(r.faults.gave_up_requests as f64)),
                        ("retries", Json::Num(r.faults.retries as f64)),
                        ("hedges", Json::Num(r.faults.hedges as f64)),
                    ]));
                }
            }
        }
        out.push_str(&t.render());
    } else {
        let c = s.cluster.as_ref().expect("validated: cluster present");
        let mut t = Table::with_columns(&[
            "load",
            "nodes",
            "routing",
            "policy",
            "seed",
            "p50 (us)",
            "p99 (us)",
            "mean (us)",
            "hop p99 (us)",
            "peak LB queue",
        ]);
        for &rps in &g.loads {
            for &nodes in &g.nodes {
                for named in &c.routing {
                    for policy in &g.policies {
                        for &axis_seed in &g.seeds {
                            let r = it.next().expect("one report per point").cluster();
                            t.row(vec![
                                format!("{rps:.0}"),
                                nodes.to_string(),
                                named.name.clone(),
                                policy.name.clone(),
                                axis_seed.to_string(),
                                f1(r.latency.p50),
                                f1(r.latency.p99),
                                f1(r.latency.mean),
                                f1(r.cluster_hop.p99),
                                r.peak_lb_queue.to_string(),
                            ]);
                            points.push(obj(vec![
                                ("load_rps", Json::Num(rps)),
                                ("nodes", Json::Num(nodes as f64)),
                                ("routing", Json::Str(named.name.clone())),
                                ("policy", Json::Str(policy.name.clone())),
                                ("seed", Json::Num(axis_seed as f64)),
                                ("p50_us", Json::Num(rounded(r.latency.p50, 2))),
                                ("p99_us", Json::Num(rounded(r.latency.p99, 2))),
                                ("mean_us", Json::Num(rounded(r.latency.mean, 2))),
                                ("hop_p99_us", Json::Num(rounded(r.cluster_hop.p99, 2))),
                                ("recorded", Json::Num(r.recorded as f64)),
                                ("peak_lb_queue", Json::Num(r.peak_lb_queue as f64)),
                            ]));
                        }
                    }
                }
            }
        }
        out.push_str(&t.render());
    }
    ScenarioOutput {
        text: out,
        points: Some(Json::Arr(points)),
    }
}

// ---------------------------------------------------------------------
// JSON schema: one table per type (see `crate::codec`)
// ---------------------------------------------------------------------

impl Schema for Scenario {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("name", &mut self.name)
            .field("kind", &mut self.kind)
            .field("machine", &mut self.machine)
            .field("workload", &mut self.workload)
            .field("scale", &mut self.scale)
            .field("faults", &mut self.faults)
            .field("mitigation", &mut self.mitigation)
            .opt("cluster", &mut self.cluster);
    }
}

impl Schema for Scale {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("horizon_us", &mut self.horizon_us)
            .field("warmup_us", &mut self.warmup_us)
            .field("servers", &mut self.servers)
            .field("seed", &mut self.seed);
    }
}

impl Schema for MachineBase {
    const FORM: Form<Self> = Form::Name("machine");

    fn tags() -> Vec<(&'static str, Self)> {
        vec![
            ("umanycore", MachineBase::Umanycore),
            ("scaleout", MachineBase::Scaleout),
            ("server-class-iso-power", MachineBase::ServerClassIsoPower),
            ("server-class-iso-area", MachineBase::ServerClassIsoArea),
        ]
    }
}

impl Schema for IcnKind {
    const FORM: Form<Self> = Form::Name("interconnect");

    fn tags() -> Vec<(&'static str, Self)> {
        vec![
            ("mesh", IcnKind::Mesh),
            ("fat-tree", IcnKind::FatTree),
            ("leaf-spine", IcnKind::LeafSpine),
        ]
    }
}

impl Schema for MachineSpec {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("base", &mut self.base)
            .opt("shape", &mut self.shape)
            .opt("rq_capacity", &mut self.rq_capacity)
            .opt("ctx_switch_cycles", &mut self.ctx_switch_cycles)
            .opt("icn", &mut self.icn);
    }
}

/// A SocialNetwork root service, by its app name.
impl Codec for ServiceId {
    fn encode(&self) -> Json {
        Json::Str(SocialNetwork::new().profile(*self).name.to_string())
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        let name = String::decode(v, path)?;
        let apps = SocialNetwork::new();
        SocialNetwork::ALL
            .into_iter()
            .find(|&root| apps.profile(root).name == name)
            .ok_or_else(|| format!("{path}: unknown SocialNetwork app `{name}`"))
    }
}

impl Schema for WorkloadSpec {
    const FORM: Form<Self> = Form::Tagged {
        key: "type",
        what: "workload",
    };

    fn tags() -> Vec<(&'static str, Self)> {
        vec![
            ("social-mix", WorkloadSpec::SocialMix),
            ("social-app", WorkloadSpec::SocialApp(SocialNetwork::ALL[0])),
            ("train-mix", WorkloadSpec::TrainMix),
            (
                "synthetic",
                WorkloadSpec::Synthetic {
                    mean_us: 0.0,
                    scv: 0.0,
                    min_rpcs: 0,
                    max_rpcs: 0,
                },
            ),
            ("synthetic-exp", WorkloadSpec::SyntheticExp),
            ("synthetic-bimodal", WorkloadSpec::SyntheticBimodal),
        ]
    }

    fn fields(&mut self, p: &mut Pass) {
        match self {
            WorkloadSpec::SocialApp(root) => {
                p.field("app", root);
            }
            WorkloadSpec::Synthetic {
                mean_us,
                scv,
                min_rpcs,
                max_rpcs,
            } => {
                p.field("mean_us", mean_us)
                    .field("scv", scv)
                    .field("min_rpcs", min_rpcs)
                    .field("max_rpcs", max_rpcs);
            }
            _ => {}
        }
    }
}

impl Schema for RetryConfig {
    // Decoding overwrites every field of the blank.
    const FORM: Form<Self> = Form::Record(|| RetryConfig::with_timeout_us(1.0));

    fn fields(&mut self, p: &mut Pass) {
        p.field("timeout_us", &mut self.timeout_us)
            .field("backoff", &mut self.backoff)
            .field("max_attempts", &mut self.max_attempts)
            .field("budget_fraction", &mut self.budget_fraction);
    }
}

/// A hedge, by its delay in microseconds.
impl Codec for HedgeConfig {
    fn encode(&self) -> Json {
        self.delay_us.encode()
    }

    fn decode(v: &Json, path: &str) -> Result<Self, String> {
        f64::decode(v, path).map(|delay_us| HedgeConfig { delay_us })
    }
}

impl Schema for MitigationConfig {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.opt("hedge_delay_us", &mut self.hedge)
            .opt("retry", &mut self.retry)
            .field("steer", &mut self.steer);
    }
}

impl Schema for RoutingPolicy {
    const FORM: Form<Self> = Form::Tagged {
        key: "policy",
        what: "policy",
    };

    fn tags() -> Vec<(&'static str, Self)> {
        vec![
            ("random", RoutingPolicy::Random),
            ("round-robin", RoutingPolicy::RoundRobin),
            ("jsq", RoutingPolicy::JsqD { d: 0 }),
            ("central-queue", RoutingPolicy::CentralQueue),
        ]
    }

    fn fields(&mut self, p: &mut Pass) {
        if let RoutingPolicy::JsqD { d } = self {
            p.field("d", d);
        }
    }
}

impl Schema for NamedRouting {
    const FORM: Form<Self> = Form::Record(|| NamedRouting {
        name: String::new(),
        policy: RoutingPolicy::Random,
    });

    fn fields(&mut self, p: &mut Pass) {
        p.field("name", &mut self.name).flatten(&mut self.policy);
    }
}

impl Schema for JitterSpec {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("mean_us", &mut self.mean_us)
            .field("scv", &mut self.scv);
    }
}

impl Schema for ClusterSpec {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("nodes", &mut self.nodes)
            .field("routing", &mut self.routing)
            .opt("max_in_flight", &mut self.max_in_flight)
            .opt("jitter", &mut self.jitter)
            .field("steer", &mut self.steer);
    }
}

impl Schema for FaultRecipe {
    const FORM: Form<Self> = Form::Tagged {
        key: "type",
        what: "fault",
    };

    fn tags() -> Vec<(&'static str, Self)> {
        use FaultRecipe::*;
        vec![
            ("message-drops", MessageDrops { probability: 0.0 }),
            (
                "core-fail-stop",
                CoreFailStop {
                    server: 0,
                    village: 0,
                    at_cycles: 0,
                },
            ),
            (
                "core-fail-slow",
                CoreFailSlow {
                    server: 0,
                    village: 0,
                    cores: 0,
                    from_cycles: 0,
                    until_cycles: 0,
                    slowdown: 0.0,
                },
            ),
            (
                "link-fault",
                LinkFault {
                    server: 0,
                    link: 0,
                    from_cycles: 0,
                    until_cycles: 0,
                    slowdown: 0.0,
                },
            ),
            (
                "fail-slow-every-village",
                FailSlowEveryVillage {
                    servers: 0,
                    villages: 0,
                    cores: 0,
                    from_cycles: 0,
                    until_cycles: 0,
                    slowdown: 0.0,
                },
            ),
            (
                "random-fail-stops",
                RandomFailStops {
                    count: 0,
                    servers: 0,
                    villages: 0,
                    horizon_cycles: 0,
                },
            ),
            (
                "random-link-faults",
                RandomLinkFaults {
                    count: 0,
                    servers: 0,
                    links: 0,
                    horizon_cycles: 0,
                    mean_duration_cycles: 0,
                    slowdown: 0.0,
                },
            ),
        ]
    }

    fn fields(&mut self, p: &mut Pass) {
        // Keys that several variants share, each spelled once.
        const SERVER: &str = "server";
        const VILLAGE: &str = "village";
        const SERVERS: &str = "servers";
        const VILLAGES: &str = "villages";
        const COUNT: &str = "count";
        const CORES: &str = "cores";
        const FROM: &str = "from_cycles";
        const UNTIL: &str = "until_cycles";
        const HORIZON: &str = "horizon_cycles";
        const SLOWDOWN: &str = "slowdown";
        match self {
            FaultRecipe::MessageDrops { probability } => p.field("probability", probability),
            FaultRecipe::CoreFailStop {
                server,
                village,
                at_cycles,
            } => p
                .field(SERVER, server)
                .field(VILLAGE, village)
                .field("at_cycles", at_cycles),
            FaultRecipe::CoreFailSlow {
                server,
                village,
                cores,
                from_cycles,
                until_cycles,
                slowdown,
            } => p
                .field(SERVER, server)
                .field(VILLAGE, village)
                .field(CORES, cores)
                .field(FROM, from_cycles)
                .field(UNTIL, until_cycles)
                .field(SLOWDOWN, slowdown),
            FaultRecipe::LinkFault {
                server,
                link,
                from_cycles,
                until_cycles,
                slowdown,
            } => p
                .field(SERVER, server)
                .field("link", link)
                .field(FROM, from_cycles)
                .field(UNTIL, until_cycles)
                .field(SLOWDOWN, slowdown),
            FaultRecipe::FailSlowEveryVillage {
                servers,
                villages,
                cores,
                from_cycles,
                until_cycles,
                slowdown,
            } => p
                .field(SERVERS, servers)
                .field(VILLAGES, villages)
                .field(CORES, cores)
                .field(FROM, from_cycles)
                .field(UNTIL, until_cycles)
                .field(SLOWDOWN, slowdown),
            FaultRecipe::RandomFailStops {
                count,
                servers,
                villages,
                horizon_cycles,
            } => p
                .field(COUNT, count)
                .field(SERVERS, servers)
                .field(VILLAGES, villages)
                .field(HORIZON, horizon_cycles),
            FaultRecipe::RandomLinkFaults {
                count,
                servers,
                links,
                horizon_cycles,
                mean_duration_cycles,
                slowdown,
            } => p
                .field(COUNT, count)
                .field(SERVERS, servers)
                .field("links", links)
                .field(HORIZON, horizon_cycles)
                .field("mean_duration_cycles", mean_duration_cycles)
                .field(SLOWDOWN, slowdown),
        };
    }
}

impl Schema for NamedMachine {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("name", &mut self.name)
            .field("machine", &mut self.machine);
    }
}

impl Schema for NamedWorkload {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("name", &mut self.name)
            .field("workload", &mut self.workload)
            .field("loads", &mut self.loads);
    }
}

impl Schema for AutoscaleConfig {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("name", &mut self.name)
            .field("autoscale", &mut self.autoscale)
            .field("pool", &mut self.pool);
    }
}

impl Schema for NamedPolicy {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("name", &mut self.name)
            .field("mitigation", &mut self.mitigation);
    }
}

impl Schema for Metric {
    const FORM: Form<Self> = Form::Name("metric");

    fn tags() -> Vec<(&'static str, Self)> {
        vec![
            ("p99", Metric::P99),
            ("mean", Metric::Mean),
            ("tail-to-avg", Metric::TailToAvg),
        ]
    }
}

impl Schema for BaselineUnit {
    const FORM: Form<Self> = Form::Name("unit");

    fn tags() -> Vec<(&'static str, Self)> {
        vec![
            ("ms", BaselineUnit::Ms),
            ("us", BaselineUnit::Us),
            ("abs", BaselineUnit::Abs),
        ]
    }
}

impl Schema for NormalizedSpec {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("title", &mut self.title)
            .field("caption", &mut self.caption)
            .field("row_header", &mut self.row_header)
            .field("paper", &mut self.paper)
            .field("metric", &mut self.metric)
            .opt("baseline_unit", &mut self.baseline_unit)
            .field("rows", &mut self.rows)
            .field("machines", &mut self.machines);
    }
}

impl Schema for GridSpec {
    const FORM: Form<Self> = Form::Record(Self::default);

    fn fields(&mut self, p: &mut Pass) {
        p.field("loads", &mut self.loads)
            .field("seeds", &mut self.seeds)
            .field("nodes", &mut self.nodes)
            .field("policies", &mut self.policies);
    }
}

impl Schema for ScenarioKind {
    const FORM: Form<Self> = Form::Tagged {
        key: "type",
        what: "scenario kind",
    };

    fn tags() -> Vec<(&'static str, Self)> {
        use ScenarioKind::*;
        vec![
            ("fig7", Fig7 { loads: Vec::new() }),
            (
                "breakdown",
                Breakdown {
                    rps: 0.0,
                    machines: Vec::new(),
                },
            ),
            (
                "fault-tail",
                FaultTail {
                    rps: 0.0,
                    drop_rates: Vec::new(),
                    retry_timeout_us: 0.0,
                },
            ),
            ("cluster-tail", ClusterTail { loads: Vec::new() }),
            (
                "machine-compare",
                MachineCompare {
                    loads: Vec::new(),
                    machines: Vec::new(),
                },
            ),
            (
                "autoscale",
                Autoscale {
                    rps: 0.0,
                    horizon_factor: 0.0,
                    configs: Vec::new(),
                },
            ),
            (
                "srpt-ablation",
                SrptAblation {
                    workloads: Vec::new(),
                },
            ),
            ("normalized", Normalized(NormalizedSpec::default())),
            ("grid", Grid(GridSpec::default())),
        ]
    }

    fn fields(&mut self, p: &mut Pass) {
        // Keys that several variants share, each spelled once.
        const LOADS: &str = "loads";
        const RPS: &str = "rps";
        const MACHINES: &str = "machines";
        match self {
            ScenarioKind::Fig7 { loads } | ScenarioKind::ClusterTail { loads } => {
                p.field(LOADS, loads);
            }
            ScenarioKind::Breakdown { rps, machines } => {
                p.field(RPS, rps).field(MACHINES, machines);
            }
            ScenarioKind::FaultTail {
                rps,
                drop_rates,
                retry_timeout_us,
            } => {
                p.field(RPS, rps)
                    .field("drop_rates", drop_rates)
                    .field("retry_timeout_us", retry_timeout_us);
            }
            ScenarioKind::MachineCompare { loads, machines } => {
                p.field(LOADS, loads).field(MACHINES, machines);
            }
            ScenarioKind::Autoscale {
                rps,
                horizon_factor,
                configs,
            } => {
                p.field(RPS, rps)
                    .field("horizon_factor", horizon_factor)
                    .field("configs", configs);
            }
            ScenarioKind::SrptAblation { workloads } => {
                p.field("workloads", workloads);
            }
            ScenarioKind::Normalized(n) => n.fields(p),
            ScenarioKind::Grid(g) => g.fields(p),
        }
    }
}

impl Scenario {
    /// The canonical JSON document (fixed field order; optional fields
    /// omitted when absent, so serialize → parse → serialize is
    /// byte-stable).
    pub fn to_json(&self) -> Json {
        self.encode()
    }

    /// [`Scenario::to_json`] rendered to text.
    pub fn to_json_text(&self) -> String {
        self.to_json().render()
    }

    /// Parses the canonical document, rejecting unknown and repeated
    /// fields with the offending path, then validates every knob.
    ///
    /// # Errors
    ///
    /// Returns the first structural or range violation.
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        let s = Scenario::decode(doc, "scenario")?;
        s.validate()?;
        Ok(s)
    }

    /// Parses and validates a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the first schema/range violation.
    pub fn from_json_text(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&Json::parse(text)?)
    }
}

// ---------------------------------------------------------------------
// Registry and environment
// ---------------------------------------------------------------------

/// The named built-in scenarios behind the committed `results/` tables.
///
/// The registry is the canonical JSON documents under
/// `crates/bench/registry/`, embedded at build time; there is no other
/// definition. A figure's experiment changes by editing its document.
/// EXPERIMENTS.md, "Scenario registry", gives each document's paper
/// anchors and the reasons for its values.
pub mod registry {
    use super::Scenario;

    /// Every built-in document, keyed by its `name`, in display order.
    pub(super) const DOCUMENTS: [(&str, &str); 13] = [
        ("fig7", include_str!("../registry/fig7.json")),
        ("fig14", include_str!("../registry/fig14.json")),
        ("fig16", include_str!("../registry/fig16.json")),
        ("fig17", include_str!("../registry/fig17.json")),
        ("fig19", include_str!("../registry/fig19.json")),
        ("fig20", include_str!("../registry/fig20.json")),
        ("breakdown", include_str!("../registry/breakdown.json")),
        ("fault_tail", include_str!("../registry/fault_tail.json")),
        (
            "cluster_tail",
            include_str!("../registry/cluster_tail.json"),
        ),
        ("cluster10", include_str!("../registry/cluster10.json")),
        ("autoscale", include_str!("../registry/autoscale.json")),
        (
            "ablation_srpt",
            include_str!("../registry/ablation_srpt.json"),
        ),
        (
            "sweep_default",
            include_str!("../registry/sweep_default.json"),
        ),
    ];

    /// Decodes an embedded document. Every one decodes and validates
    /// (the `documents_are_the_registry` unit test), so a failure here
    /// is a broken build, not bad input.
    fn decode(name: &str, text: &str) -> Scenario {
        Scenario::from_json_text(text)
            .unwrap_or_else(|e| panic!("registry document {name}.json: {e}"))
    }

    /// Every built-in scenario, in display order.
    pub fn all() -> Vec<Scenario> {
        DOCUMENTS
            .iter()
            .map(|&(name, text)| decode(name, text))
            .collect()
    }

    /// Looks a built-in scenario up by name, decoding only its document.
    pub fn by_name(name: &str) -> Option<Scenario> {
        DOCUMENTS
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(n, text)| decode(n, text))
    }

    /// The default `um-sweep` grid: 4 loads x 3 mitigation policies x 2
    /// seeds (24 points) on a uManycore under 1% message loss.
    pub fn sweep_default() -> Scenario {
        by_name("sweep_default").expect("the registry has sweep_default")
    }
}

/// Applies `UM_SCALE`/`UM_SEED` to a scenario, mirroring
/// [`crate::scale_from_env`] / [`crate::cluster_scale_from_env`] for the
/// figure binaries.
pub fn apply_env(s: &mut Scenario) {
    apply_scale_values(
        s,
        std::env::var("UM_SCALE").ok().as_deref(),
        std::env::var("UM_SEED").ok().as_deref(),
    );
}

/// [`apply_env`] with the environment values passed explicitly, for
/// tests. `quick` shrinks horizons (and, for cluster-tail scenarios,
/// the rack and load list) exactly the way the env helpers do.
///
/// # Panics
///
/// Panics when `seed` is set but not an integer (the env helpers'
/// contract).
pub fn apply_scale_values(s: &mut Scenario, scale: Option<&str>, seed: Option<&str>) {
    if scale == Some("quick") {
        match &mut s.kind {
            ScenarioKind::ClusterTail { loads } => {
                let q = ClusterScale::quick();
                s.scale.horizon_us = q.horizon_us;
                s.scale.warmup_us = q.warmup_us;
                *loads = q.loads;
                if let Some(c) = &mut s.cluster {
                    c.nodes = q.nodes;
                }
            }
            ScenarioKind::Grid(g) if !g.nodes.is_empty() => {
                let q = ClusterScale::quick();
                s.scale.horizon_us = q.horizon_us;
                s.scale.warmup_us = q.warmup_us;
            }
            _ => {
                let q = Scale::quick();
                s.scale.horizon_us = q.horizon_us;
                s.scale.warmup_us = q.warmup_us;
            }
        }
    }
    if let Some(seed) = seed {
        s.scale.seed = seed.parse().expect("UM_SEED must be an integer");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The embedded documents are the whole registry: each decodes,
    /// validates and expands, is stored in canonical form, and is listed
    /// under its own `name`, once.
    #[test]
    fn documents_are_the_registry() {
        let mut names = std::collections::BTreeSet::new();
        for (name, text) in registry::DOCUMENTS {
            let s = Scenario::from_json_text(text).unwrap_or_else(|e| panic!("{name}.json: {e}"));
            let points = s.expand().unwrap_or_else(|e| panic!("{name}.json: {e}"));
            assert!(!points.is_empty(), "{name}.json expands to no points");
            assert_eq!(s.to_json_text(), text, "{name}.json is not canonical");
            assert_eq!(s.name, name, "{name}.json is listed under another name");
            assert!(names.insert(name), "{name} is listed twice");
        }
    }

    fn named(name: &str) -> Scenario {
        registry::by_name(name).unwrap_or_else(|| panic!("no registry scenario {name}"))
    }

    #[test]
    fn registry_lookup_by_name() {
        assert_eq!(registry::by_name("fig7").expect("exists").name, "fig7");
        assert!(registry::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn unknown_fields_are_rejected_with_their_path() {
        let mut doc = named("fig7").to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("surprise".to_string(), Json::Num(1.0)));
        }
        let err = Scenario::from_json(&doc).expect_err("unknown field");
        assert!(err.contains("unknown field `surprise`"), "{err}");

        let mut doc = named("fig7").to_json();
        if let Some(Json::Obj(pairs)) = doc.get("machine").cloned().as_mut() {
            pairs.push(("warp_factor".to_string(), Json::Num(9.0)));
            if let Json::Obj(top) = &mut doc {
                top.iter_mut()
                    .find(|(k, _)| k == "machine")
                    .expect("machine field")
                    .1 = Json::Obj(pairs.clone());
            }
        }
        let err = Scenario::from_json(&doc).expect_err("unknown machine field");
        assert!(err.contains("scenario.machine"), "{err}");
        assert!(err.contains("unknown field `warp_factor`"), "{err}");
    }

    #[test]
    fn out_of_range_knobs_fail_validation_not_panic() {
        let mut s = named("fault_tail");
        if let ScenarioKind::FaultTail { drop_rates, .. } = &mut s.kind {
            drop_rates[1] = 1.5;
        }
        let err = s.validate().expect_err("bad drop rate");
        assert!(err.contains("drop_rates[1]"), "{err}");

        let mut s = named("fig7");
        s.scale.warmup_us = s.scale.horizon_us * 2.0;
        assert!(s.validate().is_err());

        let mut s = named("sweep_default");
        if let ScenarioKind::Grid(g) = &mut s.kind {
            g.policies[1].mitigation.retry = Some(RetryConfig {
                backoff: 0.5,
                ..RetryConfig::with_timeout_us(100.0)
            });
        }
        let err = s.validate().expect_err("bad backoff");
        assert!(err.contains("backoff"), "{err}");

        // An unknown app name fails on parse, a non-root service on
        // validation, both at the row's path.
        let text = named("fig14")
            .to_json_text()
            .replace("\"Text\"", "\"NoSuchApp\"");
        let err = Scenario::from_json_text(&text).expect_err("unknown app");
        assert!(
            err.contains("scenario.kind.rows[0].workload.app: unknown SocialNetwork app"),
            "{err}"
        );
        let mut s = named("fig19");
        normalized(&mut s).rows[0].workload = WorkloadSpec::SocialApp(SocialNetwork::REDIS);
        let err = s.validate().expect_err("a backend service as a root");
        assert!(err.contains("scenario.kind.rows[0].workload.app"), "{err}");

        let mut s = named("fig20");
        normalized(&mut s).machines.clear();
        let err = s.validate().expect_err("no machines");
        assert!(err.contains("scenario.kind.machines"), "{err}");

        for bad in [0.0, -5_000.0] {
            let mut s = named("fig14");
            normalized(&mut s).rows[2].loads[1] = bad;
            let err = s.validate().expect_err("non-positive load");
            assert!(err.contains("scenario.kind.rows[2].loads"), "{err}");
        }

        // Per-load sections need every row on the same loads.
        let mut s = named("fig16");
        normalized(&mut s).rows[3].loads.pop();
        let err = s.validate().expect_err("ragged per-load sections");
        assert!(err.contains("scenario.kind.rows[3].loads"), "{err}");
    }

    #[test]
    fn base_faults_and_mitigation_reach_every_node_point() {
        for mut s in [named("fig7"), named("breakdown"), named("fig20")] {
            s.faults = vec![FaultRecipe::MessageDrops { probability: 0.01 }];
            s.mitigation.hedge = Some(HedgeConfig::after_delay_us(150.0));
            for p in s.expand().expect("valid scenario") {
                let cfg = p.as_node().expect("node point");
                assert!(cfg.fault_plan.drop_probability() > 0.0, "{}", s.name);
                assert!(cfg.mitigation.hedge.is_some(), "{}", s.name);
            }
        }
    }

    fn normalized(s: &mut Scenario) -> &mut NormalizedSpec {
        match &mut s.kind {
            ScenarioKind::Normalized(n) => n,
            other => panic!("not a normalized scenario: {other:?}"),
        }
    }

    #[test]
    fn shallow_rq_cluster_without_admission_cap_is_refused() {
        let mut s = named("cluster_tail");
        s.machine.rq_capacity = None; // default 64-entry RQ
        let err = s.validate().expect_err("deadlock-prone scenario");
        assert!(err.contains("max_in_flight"), "{err}");
        assert!(err.contains("rq_capacity"), "{err}");
        assert!(err.contains("Cluster layer"), "{err}");

        // An admission cap within the pigeonhole bound is accepted...
        s.cluster.as_mut().expect("cluster spec").max_in_flight = Some(32);
        s.validate().expect("capped shallow-RQ rack is safe");
        // ...a cap past it is not.
        s.cluster.as_mut().expect("cluster spec").max_in_flight = Some(33);
        assert!(s.validate().is_err());
    }

    #[test]
    fn grid_expands_the_full_cross_product() {
        let mut s = named("sweep_default");
        apply_scale_values(&mut s, Some("quick"), Some("7"));
        assert_eq!(s.scale.seed, 7);
        let points = s.expand().expect("valid scenario");
        assert_eq!(points.len(), 24);
        assert!(points.iter().all(|p| p.as_node().is_some()));
        // Distinct axis seeds derive distinct per-point seeds.
        let seeds: std::collections::BTreeSet<u64> = points
            .iter()
            .map(|p| p.as_node().expect("node point").seed)
            .collect();
        assert_eq!(seeds.len(), 8, "4 loads x 2 seed-axis values");
    }
}
