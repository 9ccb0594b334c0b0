//! The declarative scenario layer: one serializable description of a
//! whole experiment — machine, workload, fault plan, mitigation policy,
//! cluster shape and scale — that expands into a fully-specified config
//! list.
//!
//! A [`Scenario`] round-trips through the zero-dependency
//! [`crate::benchjson`] model (`to_json_text` / `from_json_text`), so
//! experiments can be committed, diffed and replayed as data. The
//! [`registry`] is the only definition of the named built-in scenarios
//! behind the committed `results/` tables; `um-sweep <name>` runs one,
//! and CI byte-diffs its text against the committed file.
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
use um_stats::summary::geomean;
use um_stats::table::{f1, f2, Table};
use um_workload::synthetic::SyntheticWorkload;
use um_workload::ServiceTimeDist;
use umanycore::cluster::ClusterNetConfig;
use umanycore::experiments::cluster::ClusterScale;
use umanycore::experiments::{parallel, Scale};
use umanycore::report::RunReport;
use umanycore::system::ArrivalProcess;
use umanycore::{
    ClusterConfig, ClusterReport, ClusterSim, RoutingPolicy, SimConfig, SystemSim, Workload,
};

use crate::benchjson::{obj, rounded, Json};
use crate::header_text;

/// Largest integer JSON (f64) carries exactly; integer knobs above this
/// would silently lose precision through a round-trip, so validation
/// rejects them.
const MAX_EXACT_INT: u64 = 1 << 53;

// ---------------------------------------------------------------------
// Scenario model
// ---------------------------------------------------------------------

/// Run scale: horizons, fleet width and the master seed every per-point
/// seed derives from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleSpec {
    /// Arrival horizon per point, microseconds.
    pub horizon_us: f64,
    /// Warm-up cut-off, microseconds.
    pub warmup_us: f64,
    /// Servers per single-node point (cluster points size via
    /// [`ClusterSpec::nodes`]).
    pub servers: usize,
    /// Master seed.
    pub seed: u64,
}

impl ScaleSpec {
    /// The figure-quality single-node scale ([`Scale::default`]).
    pub fn full() -> Self {
        Self::from_scale(Scale::default())
    }

    /// Converts an experiment [`Scale`].
    pub fn from_scale(s: Scale) -> Self {
        Self {
            horizon_us: s.horizon_us,
            warmup_us: s.warmup_us,
            servers: s.servers,
            seed: s.seed,
        }
    }

    /// The experiment-layer [`Scale`] this spec describes.
    pub fn to_scale(self) -> Scale {
        Scale {
            horizon_us: self.horizon_us,
            warmup_us: self.warmup_us,
            servers: self.servers,
            seed: self.seed,
        }
    }
}

/// Which paper machine a [`MachineSpec`] starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineBase {
    /// The 1024-core uManycore package.
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
#[derive(Clone, Copy, Debug, PartialEq)]
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
            shape: None,
            rq_capacity: None,
            ctx_switch_cycles: None,
            icn: None,
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

/// Which request workload the scenario draws from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The uniform SocialNetwork eight-app mix.
    SocialMix,
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
}

impl WorkloadSpec {
    /// Materializes the [`Workload`].
    pub fn build(&self) -> Workload {
        match *self {
            WorkloadSpec::SocialMix => Workload::social_mix(),
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
        }
    }
}

/// Timeout/retry knobs ([`RetryConfig`] as plain serializable data).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetrySpec {
    /// Attempt timeout, microseconds.
    pub timeout_us: f64,
    /// Timeout multiplier per failed attempt.
    pub backoff: f64,
    /// Total attempts allowed, including the first.
    pub max_attempts: u32,
    /// Retry-budget earn rate per operation started.
    pub budget_fraction: f64,
}

impl RetrySpec {
    /// Mirrors [`RetryConfig::with_timeout_us`]: doubling backoff, three
    /// attempts, 10% budget.
    pub fn with_timeout_us(timeout_us: f64) -> Self {
        Self {
            timeout_us,
            backoff: 2.0,
            max_attempts: 3,
            budget_fraction: 0.1,
        }
    }
}

/// Tail-mitigation policy as serializable data.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MitigationSpec {
    /// Hedge after this fixed delay, microseconds.
    pub hedge_delay_us: Option<f64>,
    /// Timeout + exponential-backoff retry.
    pub retry: Option<RetrySpec>,
    /// Straggler-aware steering.
    pub steer: bool,
}

impl MitigationSpec {
    /// Materializes the [`MitigationConfig`].
    pub fn build(&self) -> MitigationConfig {
        MitigationConfig {
            hedge: self.hedge_delay_us.map(HedgeConfig::after_delay_us),
            retry: self.retry.map(|r| RetryConfig {
                timeout_us: r.timeout_us,
                backoff: r.backoff,
                max_attempts: r.max_attempts,
                budget_fraction: r.budget_fraction,
            }),
            steer: self.steer,
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
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitterSpec {
    /// Mean one-way jitter, microseconds.
    pub mean_us: f64,
    /// Squared coefficient of variation.
    pub scv: f64,
}

/// The cluster/serving-layer knobs: rack width, routing policies,
/// admission control and fabric jitter.
#[derive(Clone, Debug, PartialEq)]
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

/// A machine column of the breakdown table.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedMachine {
    /// Column label.
    pub name: String,
    /// The machine under that column.
    pub machine: MachineSpec,
}

/// One autoscaling configuration of an [`ScenarioKind::Autoscale`] row.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoscaleConfig {
    /// Row label, e.g. `autoscale + snapshot pool`.
    pub name: String,
    /// Instance autoscaling on village overload.
    pub autoscale: bool,
    /// Snapshot memory pool backing instance boots (cold boots when off).
    pub pool: bool,
}

/// A workload row of an [`ScenarioKind::SrptAblation`] sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct NamedWorkload {
    /// Row label, e.g. `HeavyTail`.
    pub name: String,
    /// The workload under that label.
    pub workload: WorkloadSpec,
    /// Offered loads swept for this workload, requests per second.
    pub loads: Vec<f64>,
}

/// A mitigation policy axis value of a [`GridSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct NamedPolicy {
    /// Axis label, e.g. `retry`.
    pub name: String,
    /// The mitigation applied at this axis value.
    pub mitigation: MitigationSpec,
}

/// The generic sweep grid `um-sweep` expands: the cross product of
/// loads × (rack widths ×) (routings ×) policies × seeds.
#[derive(Clone, Debug, PartialEq)]
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

/// What the scenario measures — one variant per converted figure binary
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
        /// Arrival-horizon multiplier over [`ScaleSpec::horizon_us`], so
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
    /// The generic `um-sweep` grid.
    Grid(GridSpec),
}

impl ScenarioKind {
    /// The kind's `type` tag in scenario JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            ScenarioKind::Fig7 { .. } => "fig7",
            ScenarioKind::Breakdown { .. } => "breakdown",
            ScenarioKind::FaultTail { .. } => "fault-tail",
            ScenarioKind::ClusterTail { .. } => "cluster-tail",
            ScenarioKind::MachineCompare { .. } => "machine-compare",
            ScenarioKind::Autoscale { .. } => "autoscale",
            ScenarioKind::SrptAblation { .. } => "srpt-ablation",
            ScenarioKind::Grid(_) => "grid",
        }
    }
}

/// One self-contained experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Registry/display name.
    pub name: String,
    /// The machine every point runs (the breakdown kind's per-column
    /// machines override it).
    pub machine: MachineSpec,
    /// The request workload.
    pub workload: WorkloadSpec,
    /// Horizons, fleet width, master seed.
    pub scale: ScaleSpec,
    /// Scheduled faults, replayed through the seeded
    /// [`FaultPlan`] builder per point. Must be empty for
    /// [`ScenarioKind::FaultTail`], which sweeps its own drop plan.
    pub faults: Vec<FaultRecipe>,
    /// Base mitigation policy (kinds that sweep mitigation — fault-tail,
    /// grid — override it per point).
    pub mitigation: MitigationSpec,
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

fn validate_mitigation(path: &str, m: &MitigationSpec) -> Result<(), String> {
    if let Some(d) = m.hedge_delay_us {
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
    if let WorkloadSpec::Synthetic {
        mean_us,
        scv,
        min_rpcs,
        max_rpcs,
    } = *w
    {
        check(mean_us.is_finite() && mean_us > 0.0, || {
            format!("{path}.mean_us: must be a positive time")
        })?;
        check(scv.is_finite() && scv > 0.0, || {
            format!("{path}.scv: must be positive")
        })?;
        check(min_rpcs <= max_rpcs, || {
            format!("{path}.min_rpcs: must not exceed max_rpcs")
        })?;
    }
    Ok(())
}

fn validate_loads(path: &str, loads: &[f64]) -> Result<(), String> {
    check(!loads.is_empty(), || format!("{path}: must not be empty"))?;
    check(loads.iter().all(|&l| l.is_finite() && l > 0.0), || {
        format!("{path}: every load must be a positive rate")
    })
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
                check(!machines.is_empty(), || {
                    "scenario.kind.machines: must not be empty".to_string()
                })?;
                for (i, m) in machines.iter().enumerate() {
                    check(!m.name.is_empty(), || {
                        format!("scenario.kind.machines[{i}].name: must not be empty")
                    })?;
                    validate_machine(&format!("scenario.kind.machines[{i}].machine"), &m.machine)?;
                }
                Ok(())
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
                check(machines.len() >= 2, || {
                    "scenario.kind.machines: need at least two rows (the headline ratios \
                     divide the first row by the last)"
                        .to_string()
                })?;
                for (i, m) in machines.iter().enumerate() {
                    check(!m.name.is_empty(), || {
                        format!("scenario.kind.machines[{i}].name: must not be empty")
                    })?;
                    validate_machine(&format!("scenario.kind.machines[{i}].machine"), &m.machine)?;
                }
                Ok(())
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
                check(!workloads.is_empty(), || {
                    "scenario.kind.workloads: must not be empty".to_string()
                })?;
                for (i, w) in workloads.iter().enumerate() {
                    check(!w.name.is_empty(), || {
                        format!("scenario.kind.workloads[{i}].name: must not be empty")
                    })?;
                    validate_workload(
                        &format!("scenario.kind.workloads[{i}].workload"),
                        &w.workload,
                    )?;
                    validate_loads(&format!("scenario.kind.workloads[{i}].loads"), &w.loads)?;
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
                            points.push(node_point(SimConfig {
                                machine,
                                workload: self.workload.build(),
                                rps_per_server: rps,
                                servers: scale.servers,
                                horizon_us: scale.horizon_us,
                                warmup_us: scale.warmup_us,
                                seed: rng::derive_seed(scale.seed, li as u64),
                                icn_contention: contention,
                                ..SimConfig::default()
                            }));
                        }
                    }
                }
            }
            ScenarioKind::Breakdown { rps, machines } => {
                for m in machines {
                    points.push(node_point(SimConfig {
                        machine: m.machine.build(),
                        workload: self.workload.build(),
                        rps_per_server: *rps,
                        servers: scale.servers,
                        horizon_us: scale.horizon_us,
                        warmup_us: scale.warmup_us,
                        seed: scale.seed,
                        trace: true,
                        fault_plan: self.point_plan(scale.seed),
                        ..SimConfig::default()
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
                            machine: self.machine.build(),
                            workload: self.workload.build(),
                            rps_per_server: *rps,
                            servers: scale.servers,
                            horizon_us: scale.horizon_us,
                            warmup_us: scale.warmup_us,
                            seed,
                            fault_plan: plan.clone(),
                            mitigation,
                            ..SimConfig::default()
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
                            self.mitigation.build(),
                        ))));
                    }
                }
            }
            ScenarioKind::MachineCompare { loads, machines } => {
                // The machines at one load share the seed so the
                // headline ratios stay paired.
                for &rps in loads {
                    for m in machines {
                        points.push(node_point(SimConfig {
                            machine: m.machine.build(),
                            workload: self.workload.build(),
                            rps_per_server: rps,
                            servers: scale.servers,
                            horizon_us: scale.horizon_us,
                            warmup_us: scale.warmup_us,
                            seed: scale.seed,
                            fault_plan: self.point_plan(scale.seed),
                            ..SimConfig::default()
                        }));
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
                        machine,
                        workload: self.workload.build(),
                        rps_per_server: *rps,
                        servers: scale.servers,
                        // Multiply at expansion so UM_SCALE=quick
                        // composes: quick sets the base horizon, the
                        // kind stretches it over several burst cycles.
                        horizon_us: scale.horizon_us * *horizon_factor,
                        warmup_us: scale.warmup_us,
                        seed: scale.seed,
                        arrivals: ArrivalProcess::Bursty,
                        autoscale: cfg.autoscale,
                        fault_plan: self.point_plan(scale.seed),
                        ..SimConfig::default()
                    }));
                }
            }
            ScenarioKind::SrptAblation { workloads } => {
                // Both policies of one (workload, load) point share the
                // seed, so the SRPT/FCFS ratio is paired.
                for w in workloads {
                    for &rps in &w.loads {
                        for policy in [DequeuePolicy::Fcfs, DequeuePolicy::Srpt] {
                            points.push(node_point(SimConfig {
                                machine: self.machine.build(),
                                workload: w.workload.build(),
                                rps_per_server: rps,
                                servers: scale.servers,
                                horizon_us: scale.horizon_us,
                                warmup_us: scale.warmup_us,
                                seed: scale.seed,
                                dequeue_policy: policy,
                                fault_plan: self.point_plan(scale.seed),
                                ..SimConfig::default()
                            }));
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
                                points.push(node_point(SimConfig {
                                    machine: self.machine.build(),
                                    workload: self.workload.build(),
                                    rps_per_server: rps,
                                    servers: scale.servers,
                                    horizon_us: scale.horizon_us,
                                    warmup_us: scale.warmup_us,
                                    seed,
                                    fault_plan: self.point_plan(seed),
                                    mitigation: policy.mitigation.build(),
                                    ..SimConfig::default()
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
                                                policy.mitigation.build(),
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
    /// `BENCH_*.json` envelope with a `bench` name and `scale` label).
    pub points: Option<Json>,
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
        ScenarioKind::Breakdown { machines, .. } => render_breakdown(machines, &reports),
        ScenarioKind::FaultTail {
            rps, drop_rates, ..
        } => render_fault_tail(*rps, drop_rates, &reports),
        ScenarioKind::ClusterTail { loads } => render_cluster_tail(s, loads, &reports),
        ScenarioKind::MachineCompare { loads, machines } => {
            render_machine_compare(s, loads, machines, &reports)
        }
        ScenarioKind::Autoscale { configs, .. } => render_autoscale(configs, &reports),
        ScenarioKind::SrptAblation { workloads } => render_srpt_ablation(workloads, &reports),
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
    ScenarioOutput {
        text: out,
        points: None,
    }
}

fn render_breakdown(machines: &[NamedMachine], reports: &[PointReport]) -> ScenarioOutput {
    let mut out = header_text(
        "Measured latency breakdown",
        "Mean microseconds per root request (downstream RPC tree merged in) at 10K RPS\n\
         (SocialNetwork mix), attributed by the tracing layer. Components sum to the\n\
         mean end-to-end latency exactly.",
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
    ScenarioOutput {
        text: out,
        points: None,
    }
}

fn render_fault_tail(rps: f64, drop_rates: &[f64], reports: &[PointReport]) -> ScenarioOutput {
    let mut out = header_text(
        "Tail vs fault rate",
        "uManycore, SocialNetwork mix at 8K RPS, per-leg message-drop probability\n\
         swept. `none` = no mitigation (lost operations abandoned at the default\n\
         RPC timeout, their requests excluded from latency); `retry` = timeout +\n\
         exponential backoff with a 10% retry budget.",
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
    ScenarioOutput {
        text: out,
        points: None,
    }
}

fn render_cluster_tail(s: &Scenario, loads: &[f64], reports: &[PointReport]) -> ScenarioOutput {
    let c = s.cluster.as_ref().expect("validated: cluster present");
    let mut out = header_text(
        "Cluster tail by routing policy",
        &format!(
            "{} uManycore package slices (8-core villages, 64 cores each) behind one\n\
             load balancer; SocialNetwork mix, 0.5 us rack fabric with lognormal\n\
             jitter; per-node offered load swept up to ~0.95 utilization.",
            c.nodes
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
    ScenarioOutput {
        text: out,
        points: None,
    }
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
    ScenarioOutput {
        text: out,
        points: None,
    }
}

fn render_autoscale(configs: &[AutoscaleConfig], reports: &[PointReport]) -> ScenarioOutput {
    let mut out = header_text(
        "Autoscaling with snapshot pools",
        "Bursty (MMPP) SocialNetwork traffic on uManycore; small 8-entry RQs so\n\
         bursts overflow a single instance.",
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
    ScenarioOutput {
        text: out,
        points: None,
    }
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
    ScenarioOutput {
        text: out,
        points: None,
    }
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
// JSON codec
// ---------------------------------------------------------------------

fn num_json(v: f64) -> Json {
    Json::Num(v)
}

fn uint_json(v: u64) -> Json {
    Json::Num(v as f64)
}

fn machine_to_json(m: &MachineSpec) -> Json {
    let base = match m.base {
        MachineBase::Umanycore => "umanycore",
        MachineBase::Scaleout => "scaleout",
        MachineBase::ServerClassIsoPower => "server-class-iso-power",
        MachineBase::ServerClassIsoArea => "server-class-iso-area",
    };
    let mut pairs = vec![("base", Json::Str(base.to_string()))];
    if let Some(shape) = m.shape {
        pairs.push((
            "shape",
            Json::Arr(shape.iter().map(|&d| uint_json(d as u64)).collect()),
        ));
    }
    if let Some(rq) = m.rq_capacity {
        pairs.push(("rq_capacity", uint_json(rq as u64)));
    }
    if let Some(c) = m.ctx_switch_cycles {
        pairs.push(("ctx_switch_cycles", uint_json(c)));
    }
    if let Some(icn) = m.icn {
        let name = match icn {
            IcnKind::Mesh => "mesh",
            IcnKind::FatTree => "fat-tree",
            IcnKind::LeafSpine => "leaf-spine",
        };
        pairs.push(("icn", Json::Str(name.to_string())));
    }
    obj(pairs)
}

fn workload_to_json(w: &WorkloadSpec) -> Json {
    match *w {
        WorkloadSpec::SocialMix => obj(vec![("type", Json::Str("social-mix".into()))]),
        WorkloadSpec::TrainMix => obj(vec![("type", Json::Str("train-mix".into()))]),
        WorkloadSpec::Synthetic {
            mean_us,
            scv,
            min_rpcs,
            max_rpcs,
        } => obj(vec![
            ("type", Json::Str("synthetic".into())),
            ("mean_us", num_json(mean_us)),
            ("scv", num_json(scv)),
            ("min_rpcs", uint_json(min_rpcs as u64)),
            ("max_rpcs", uint_json(max_rpcs as u64)),
        ]),
    }
}

fn scale_to_json(s: &ScaleSpec) -> Json {
    obj(vec![
        ("horizon_us", num_json(s.horizon_us)),
        ("warmup_us", num_json(s.warmup_us)),
        ("servers", uint_json(s.servers as u64)),
        ("seed", uint_json(s.seed)),
    ])
}

fn mitigation_to_json(m: &MitigationSpec) -> Json {
    let mut pairs = Vec::new();
    if let Some(d) = m.hedge_delay_us {
        pairs.push(("hedge_delay_us", num_json(d)));
    }
    if let Some(r) = m.retry {
        pairs.push((
            "retry",
            obj(vec![
                ("timeout_us", num_json(r.timeout_us)),
                ("backoff", num_json(r.backoff)),
                ("max_attempts", uint_json(r.max_attempts as u64)),
                ("budget_fraction", num_json(r.budget_fraction)),
            ]),
        ));
    }
    pairs.push(("steer", Json::Bool(m.steer)));
    obj(pairs)
}

fn routing_to_json(r: &NamedRouting) -> Json {
    let mut pairs = vec![("name", Json::Str(r.name.clone()))];
    match r.policy {
        RoutingPolicy::Random => pairs.push(("policy", Json::Str("random".into()))),
        RoutingPolicy::RoundRobin => pairs.push(("policy", Json::Str("round-robin".into()))),
        RoutingPolicy::JsqD { d } => {
            pairs.push(("policy", Json::Str("jsq".into())));
            pairs.push(("d", uint_json(d as u64)));
        }
        RoutingPolicy::CentralQueue => pairs.push(("policy", Json::Str("central-queue".into()))),
    }
    obj(pairs)
}

fn cluster_to_json(c: &ClusterSpec) -> Json {
    let mut pairs = vec![
        ("nodes", uint_json(c.nodes as u64)),
        (
            "routing",
            Json::Arr(c.routing.iter().map(routing_to_json).collect()),
        ),
    ];
    if let Some(cap) = c.max_in_flight {
        pairs.push(("max_in_flight", uint_json(cap as u64)));
    }
    if let Some(j) = c.jitter {
        pairs.push((
            "jitter",
            obj(vec![
                ("mean_us", num_json(j.mean_us)),
                ("scv", num_json(j.scv)),
            ]),
        ));
    }
    pairs.push(("steer", Json::Bool(c.steer)));
    obj(pairs)
}

fn fault_to_json(f: &FaultRecipe) -> Json {
    match *f {
        FaultRecipe::MessageDrops { probability } => obj(vec![
            ("type", Json::Str("message-drops".into())),
            ("probability", num_json(probability)),
        ]),
        FaultRecipe::CoreFailStop {
            server,
            village,
            at_cycles,
        } => obj(vec![
            ("type", Json::Str("core-fail-stop".into())),
            ("server", uint_json(server as u64)),
            ("village", uint_json(village as u64)),
            ("at_cycles", uint_json(at_cycles)),
        ]),
        FaultRecipe::CoreFailSlow {
            server,
            village,
            cores,
            from_cycles,
            until_cycles,
            slowdown,
        } => obj(vec![
            ("type", Json::Str("core-fail-slow".into())),
            ("server", uint_json(server as u64)),
            ("village", uint_json(village as u64)),
            ("cores", uint_json(cores as u64)),
            ("from_cycles", uint_json(from_cycles)),
            ("until_cycles", uint_json(until_cycles)),
            ("slowdown", num_json(slowdown)),
        ]),
        FaultRecipe::LinkFault {
            server,
            link,
            from_cycles,
            until_cycles,
            slowdown,
        } => obj(vec![
            ("type", Json::Str("link-fault".into())),
            ("server", uint_json(server as u64)),
            ("link", uint_json(link as u64)),
            ("from_cycles", uint_json(from_cycles)),
            ("until_cycles", uint_json(until_cycles)),
            ("slowdown", num_json(slowdown)),
        ]),
        FaultRecipe::FailSlowEveryVillage {
            servers,
            villages,
            cores,
            from_cycles,
            until_cycles,
            slowdown,
        } => obj(vec![
            ("type", Json::Str("fail-slow-every-village".into())),
            ("servers", uint_json(servers as u64)),
            ("villages", uint_json(villages as u64)),
            ("cores", uint_json(cores as u64)),
            ("from_cycles", uint_json(from_cycles)),
            ("until_cycles", uint_json(until_cycles)),
            ("slowdown", num_json(slowdown)),
        ]),
        FaultRecipe::RandomFailStops {
            count,
            servers,
            villages,
            horizon_cycles,
        } => obj(vec![
            ("type", Json::Str("random-fail-stops".into())),
            ("count", uint_json(count as u64)),
            ("servers", uint_json(servers as u64)),
            ("villages", uint_json(villages as u64)),
            ("horizon_cycles", uint_json(horizon_cycles)),
        ]),
        FaultRecipe::RandomLinkFaults {
            count,
            servers,
            links,
            horizon_cycles,
            mean_duration_cycles,
            slowdown,
        } => obj(vec![
            ("type", Json::Str("random-link-faults".into())),
            ("count", uint_json(count as u64)),
            ("servers", uint_json(servers as u64)),
            ("links", uint_json(links as u64)),
            ("horizon_cycles", uint_json(horizon_cycles)),
            ("mean_duration_cycles", uint_json(mean_duration_cycles)),
            ("slowdown", num_json(slowdown)),
        ]),
    }
}

fn named_machines_to_json(machines: &[NamedMachine]) -> Json {
    Json::Arr(
        machines
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", Json::Str(m.name.clone())),
                    ("machine", machine_to_json(&m.machine)),
                ])
            })
            .collect(),
    )
}

fn kind_to_json(k: &ScenarioKind) -> Json {
    let mut fields = vec![("type", Json::Str(k.tag().into()))];
    fields.extend(match k {
        ScenarioKind::Fig7 { loads } => vec![(
            "loads",
            Json::Arr(loads.iter().map(|&l| num_json(l)).collect()),
        )],
        ScenarioKind::Breakdown { rps, machines } => vec![
            ("rps", num_json(*rps)),
            ("machines", named_machines_to_json(machines)),
        ],
        ScenarioKind::FaultTail {
            rps,
            drop_rates,
            retry_timeout_us,
        } => vec![
            ("rps", num_json(*rps)),
            (
                "drop_rates",
                Json::Arr(drop_rates.iter().map(|&p| num_json(p)).collect()),
            ),
            ("retry_timeout_us", num_json(*retry_timeout_us)),
        ],
        ScenarioKind::ClusterTail { loads } => vec![(
            "loads",
            Json::Arr(loads.iter().map(|&l| num_json(l)).collect()),
        )],
        ScenarioKind::MachineCompare { loads, machines } => vec![
            (
                "loads",
                Json::Arr(loads.iter().map(|&l| num_json(l)).collect()),
            ),
            ("machines", named_machines_to_json(machines)),
        ],
        ScenarioKind::Autoscale {
            rps,
            horizon_factor,
            configs,
        } => vec![
            ("rps", num_json(*rps)),
            ("horizon_factor", num_json(*horizon_factor)),
            (
                "configs",
                Json::Arr(
                    configs
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", Json::Str(c.name.clone())),
                                ("autoscale", Json::Bool(c.autoscale)),
                                ("pool", Json::Bool(c.pool)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
        ScenarioKind::SrptAblation { workloads } => vec![(
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", Json::Str(w.name.clone())),
                            ("workload", workload_to_json(&w.workload)),
                            (
                                "loads",
                                Json::Arr(w.loads.iter().map(|&l| num_json(l)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )],
        ScenarioKind::Grid(g) => vec![
            (
                "loads",
                Json::Arr(g.loads.iter().map(|&l| num_json(l)).collect()),
            ),
            (
                "seeds",
                Json::Arr(g.seeds.iter().map(|&s| uint_json(s)).collect()),
            ),
            (
                "nodes",
                Json::Arr(g.nodes.iter().map(|&n| uint_json(n as u64)).collect()),
            ),
            (
                "policies",
                Json::Arr(
                    g.policies
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("name", Json::Str(p.name.clone())),
                                ("mitigation", mitigation_to_json(&p.mitigation)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
    });
    obj(fields)
}

impl Scenario {
    /// The canonical JSON document (fixed field order; optional fields
    /// omitted when absent, so serialize → parse → serialize is
    /// byte-stable).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("kind", kind_to_json(&self.kind)),
            ("machine", machine_to_json(&self.machine)),
            ("workload", workload_to_json(&self.workload)),
            ("scale", scale_to_json(&self.scale)),
            (
                "faults",
                Json::Arr(self.faults.iter().map(fault_to_json).collect()),
            ),
            ("mitigation", mitigation_to_json(&self.mitigation)),
        ];
        if let Some(c) = &self.cluster {
            pairs.push(("cluster", cluster_to_json(c)));
        }
        obj(pairs)
    }

    /// [`Scenario::to_json`] rendered to text.
    pub fn to_json_text(&self) -> String {
        self.to_json().render()
    }
}

fn p_obj<'a>(v: &'a Json, path: &str, allowed: &[&str]) -> Result<&'a Json, String> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| format!("{path}: expected an object"))?;
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{path}: unknown field `{k}`"));
        }
    }
    Ok(v)
}

fn p_get<'a>(v: &'a Json, path: &str, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{path}: missing field `{key}`"))
}

fn p_num(v: &Json, path: &str) -> Result<f64, String> {
    v.as_num()
        .ok_or_else(|| format!("{path}: expected a number"))
}

fn p_uint(v: &Json, path: &str) -> Result<u64, String> {
    let n = p_num(v, path)?;
    if !(n >= 0.0 && n.fract() == 0.0 && n < MAX_EXACT_INT as f64) {
        return Err(format!("{path}: expected an exact nonnegative integer"));
    }
    Ok(n as u64)
}

fn p_usize(v: &Json, path: &str) -> Result<usize, String> {
    Ok(p_uint(v, path)? as usize)
}

fn p_u32(v: &Json, path: &str) -> Result<u32, String> {
    u32::try_from(p_uint(v, path)?).map_err(|_| format!("{path}: value does not fit in 32 bits"))
}

fn p_str(v: &Json, path: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{path}: expected a string"))
}

fn p_bool(v: &Json, path: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{path}: expected a boolean")),
    }
}

fn p_arr<'a>(v: &'a Json, path: &str) -> Result<&'a [Json], String> {
    v.as_arr()
        .ok_or_else(|| format!("{path}: expected an array"))
}

fn p_f64_arr(v: &Json, path: &str) -> Result<Vec<f64>, String> {
    p_arr(v, path)?
        .iter()
        .enumerate()
        .map(|(i, e)| p_num(e, &format!("{path}[{i}]")))
        .collect()
}

fn machine_from_json(v: &Json, path: &str) -> Result<MachineSpec, String> {
    p_obj(
        v,
        path,
        &["base", "shape", "rq_capacity", "ctx_switch_cycles", "icn"],
    )?;
    let base = match p_str(p_get(v, path, "base")?, &format!("{path}.base"))?.as_str() {
        "umanycore" => MachineBase::Umanycore,
        "scaleout" => MachineBase::Scaleout,
        "server-class-iso-power" => MachineBase::ServerClassIsoPower,
        "server-class-iso-area" => MachineBase::ServerClassIsoArea,
        other => return Err(format!("{path}.base: unknown machine `{other}`")),
    };
    let shape = match v.get("shape") {
        None => None,
        Some(s) => {
            let spath = format!("{path}.shape");
            let dims = p_arr(s, &spath)?;
            if dims.len() != 3 {
                return Err(format!(
                    "{spath}: expected [cores_per_village, villages_per_cluster, clusters]"
                ));
            }
            let mut out = [0usize; 3];
            for (i, d) in dims.iter().enumerate() {
                out[i] = p_usize(d, &format!("{spath}[{i}]"))?;
            }
            Some(out)
        }
    };
    let rq_capacity = v
        .get("rq_capacity")
        .map(|n| p_usize(n, &format!("{path}.rq_capacity")))
        .transpose()?;
    let ctx_switch_cycles = v
        .get("ctx_switch_cycles")
        .map(|n| p_uint(n, &format!("{path}.ctx_switch_cycles")))
        .transpose()?;
    let icn = match v.get("icn") {
        None => None,
        Some(i) => Some(match p_str(i, &format!("{path}.icn"))?.as_str() {
            "mesh" => IcnKind::Mesh,
            "fat-tree" => IcnKind::FatTree,
            "leaf-spine" => IcnKind::LeafSpine,
            other => return Err(format!("{path}.icn: unknown interconnect `{other}`")),
        }),
    };
    Ok(MachineSpec {
        base,
        shape,
        rq_capacity,
        ctx_switch_cycles,
        icn,
    })
}

fn workload_from_json(v: &Json, path: &str) -> Result<WorkloadSpec, String> {
    let kind = p_str(p_get(v, path, "type")?, &format!("{path}.type"))?;
    match kind.as_str() {
        "social-mix" => {
            p_obj(v, path, &["type"])?;
            Ok(WorkloadSpec::SocialMix)
        }
        "train-mix" => {
            p_obj(v, path, &["type"])?;
            Ok(WorkloadSpec::TrainMix)
        }
        "synthetic" => {
            p_obj(v, path, &["type", "mean_us", "scv", "min_rpcs", "max_rpcs"])?;
            Ok(WorkloadSpec::Synthetic {
                mean_us: p_num(p_get(v, path, "mean_us")?, &format!("{path}.mean_us"))?,
                scv: p_num(p_get(v, path, "scv")?, &format!("{path}.scv"))?,
                min_rpcs: p_u32(p_get(v, path, "min_rpcs")?, &format!("{path}.min_rpcs"))?,
                max_rpcs: p_u32(p_get(v, path, "max_rpcs")?, &format!("{path}.max_rpcs"))?,
            })
        }
        other => Err(format!("{path}.type: unknown workload `{other}`")),
    }
}

fn scale_from_json(v: &Json, path: &str) -> Result<ScaleSpec, String> {
    p_obj(v, path, &["horizon_us", "warmup_us", "servers", "seed"])?;
    Ok(ScaleSpec {
        horizon_us: p_num(p_get(v, path, "horizon_us")?, &format!("{path}.horizon_us"))?,
        warmup_us: p_num(p_get(v, path, "warmup_us")?, &format!("{path}.warmup_us"))?,
        servers: p_usize(p_get(v, path, "servers")?, &format!("{path}.servers"))?,
        seed: p_uint(p_get(v, path, "seed")?, &format!("{path}.seed"))?,
    })
}

fn mitigation_from_json(v: &Json, path: &str) -> Result<MitigationSpec, String> {
    p_obj(v, path, &["hedge_delay_us", "retry", "steer"])?;
    let hedge_delay_us = v
        .get("hedge_delay_us")
        .map(|n| p_num(n, &format!("{path}.hedge_delay_us")))
        .transpose()?;
    let retry = match v.get("retry") {
        None => None,
        Some(r) => {
            let rpath = format!("{path}.retry");
            p_obj(
                r,
                &rpath,
                &["timeout_us", "backoff", "max_attempts", "budget_fraction"],
            )?;
            Some(RetrySpec {
                timeout_us: p_num(
                    p_get(r, &rpath, "timeout_us")?,
                    &format!("{rpath}.timeout_us"),
                )?,
                backoff: p_num(p_get(r, &rpath, "backoff")?, &format!("{rpath}.backoff"))?,
                max_attempts: p_u32(
                    p_get(r, &rpath, "max_attempts")?,
                    &format!("{rpath}.max_attempts"),
                )?,
                budget_fraction: p_num(
                    p_get(r, &rpath, "budget_fraction")?,
                    &format!("{rpath}.budget_fraction"),
                )?,
            })
        }
    };
    let steer = p_bool(p_get(v, path, "steer")?, &format!("{path}.steer"))?;
    Ok(MitigationSpec {
        hedge_delay_us,
        retry,
        steer,
    })
}

fn routing_from_json(v: &Json, path: &str) -> Result<NamedRouting, String> {
    p_obj(v, path, &["name", "policy", "d"])?;
    let name = p_str(p_get(v, path, "name")?, &format!("{path}.name"))?;
    let policy = p_str(p_get(v, path, "policy")?, &format!("{path}.policy"))?;
    let policy = match policy.as_str() {
        "random" => RoutingPolicy::Random,
        "round-robin" => RoutingPolicy::RoundRobin,
        "jsq" => RoutingPolicy::JsqD {
            d: p_usize(p_get(v, path, "d")?, &format!("{path}.d"))?,
        },
        "central-queue" => RoutingPolicy::CentralQueue,
        other => return Err(format!("{path}.policy: unknown policy `{other}`")),
    };
    if !matches!(policy, RoutingPolicy::JsqD { .. }) && v.get("d").is_some() {
        return Err(format!("{path}.d: only valid with the `jsq` policy"));
    }
    Ok(NamedRouting { name, policy })
}

fn cluster_from_json(v: &Json, path: &str) -> Result<ClusterSpec, String> {
    p_obj(
        v,
        path,
        &["nodes", "routing", "max_in_flight", "jitter", "steer"],
    )?;
    let routing = p_arr(p_get(v, path, "routing")?, &format!("{path}.routing"))?
        .iter()
        .enumerate()
        .map(|(i, r)| routing_from_json(r, &format!("{path}.routing[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let jitter = match v.get("jitter") {
        None => None,
        Some(j) => {
            let jpath = format!("{path}.jitter");
            p_obj(j, &jpath, &["mean_us", "scv"])?;
            Some(JitterSpec {
                mean_us: p_num(p_get(j, &jpath, "mean_us")?, &format!("{jpath}.mean_us"))?,
                scv: p_num(p_get(j, &jpath, "scv")?, &format!("{jpath}.scv"))?,
            })
        }
    };
    Ok(ClusterSpec {
        nodes: p_usize(p_get(v, path, "nodes")?, &format!("{path}.nodes"))?,
        routing,
        max_in_flight: v
            .get("max_in_flight")
            .map(|n| p_usize(n, &format!("{path}.max_in_flight")))
            .transpose()?,
        jitter,
        steer: p_bool(p_get(v, path, "steer")?, &format!("{path}.steer"))?,
    })
}

fn fault_from_json(v: &Json, path: &str) -> Result<FaultRecipe, String> {
    let kind = p_str(p_get(v, path, "type")?, &format!("{path}.type"))?;
    let num = |key: &str| p_num(p_get(v, path, key)?, &format!("{path}.{key}"));
    let uint = |key: &str| p_uint(p_get(v, path, key)?, &format!("{path}.{key}"));
    let idx = |key: &str| p_usize(p_get(v, path, key)?, &format!("{path}.{key}"));
    let u32_ = |key: &str| p_u32(p_get(v, path, key)?, &format!("{path}.{key}"));
    match kind.as_str() {
        "message-drops" => {
            p_obj(v, path, &["type", "probability"])?;
            Ok(FaultRecipe::MessageDrops {
                probability: num("probability")?,
            })
        }
        "core-fail-stop" => {
            p_obj(v, path, &["type", "server", "village", "at_cycles"])?;
            Ok(FaultRecipe::CoreFailStop {
                server: idx("server")?,
                village: idx("village")?,
                at_cycles: uint("at_cycles")?,
            })
        }
        "core-fail-slow" => {
            p_obj(
                v,
                path,
                &[
                    "type",
                    "server",
                    "village",
                    "cores",
                    "from_cycles",
                    "until_cycles",
                    "slowdown",
                ],
            )?;
            Ok(FaultRecipe::CoreFailSlow {
                server: idx("server")?,
                village: idx("village")?,
                cores: u32_("cores")?,
                from_cycles: uint("from_cycles")?,
                until_cycles: uint("until_cycles")?,
                slowdown: num("slowdown")?,
            })
        }
        "link-fault" => {
            p_obj(
                v,
                path,
                &[
                    "type",
                    "server",
                    "link",
                    "from_cycles",
                    "until_cycles",
                    "slowdown",
                ],
            )?;
            Ok(FaultRecipe::LinkFault {
                server: idx("server")?,
                link: idx("link")?,
                from_cycles: uint("from_cycles")?,
                until_cycles: uint("until_cycles")?,
                slowdown: num("slowdown")?,
            })
        }
        "fail-slow-every-village" => {
            p_obj(
                v,
                path,
                &[
                    "type",
                    "servers",
                    "villages",
                    "cores",
                    "from_cycles",
                    "until_cycles",
                    "slowdown",
                ],
            )?;
            Ok(FaultRecipe::FailSlowEveryVillage {
                servers: idx("servers")?,
                villages: idx("villages")?,
                cores: u32_("cores")?,
                from_cycles: uint("from_cycles")?,
                until_cycles: uint("until_cycles")?,
                slowdown: num("slowdown")?,
            })
        }
        "random-fail-stops" => {
            p_obj(
                v,
                path,
                &["type", "count", "servers", "villages", "horizon_cycles"],
            )?;
            Ok(FaultRecipe::RandomFailStops {
                count: idx("count")?,
                servers: idx("servers")?,
                villages: idx("villages")?,
                horizon_cycles: uint("horizon_cycles")?,
            })
        }
        "random-link-faults" => {
            p_obj(
                v,
                path,
                &[
                    "type",
                    "count",
                    "servers",
                    "links",
                    "horizon_cycles",
                    "mean_duration_cycles",
                    "slowdown",
                ],
            )?;
            Ok(FaultRecipe::RandomLinkFaults {
                count: idx("count")?,
                servers: idx("servers")?,
                links: idx("links")?,
                horizon_cycles: uint("horizon_cycles")?,
                mean_duration_cycles: uint("mean_duration_cycles")?,
                slowdown: num("slowdown")?,
            })
        }
        other => Err(format!("{path}.type: unknown fault `{other}`")),
    }
}

fn named_machines_from_json(v: &Json, path: &str) -> Result<Vec<NamedMachine>, String> {
    p_arr(v, path)?
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mpath = format!("{path}[{i}]");
            p_obj(m, &mpath, &["name", "machine"])?;
            Ok(NamedMachine {
                name: p_str(p_get(m, &mpath, "name")?, &format!("{mpath}.name"))?,
                machine: machine_from_json(
                    p_get(m, &mpath, "machine")?,
                    &format!("{mpath}.machine"),
                )?,
            })
        })
        .collect()
}

fn kind_from_json(v: &Json, path: &str) -> Result<ScenarioKind, String> {
    let kind = p_str(p_get(v, path, "type")?, &format!("{path}.type"))?;
    match kind.as_str() {
        "fig7" => {
            p_obj(v, path, &["type", "loads"])?;
            Ok(ScenarioKind::Fig7 {
                loads: p_f64_arr(p_get(v, path, "loads")?, &format!("{path}.loads"))?,
            })
        }
        "breakdown" => {
            p_obj(v, path, &["type", "rps", "machines"])?;
            Ok(ScenarioKind::Breakdown {
                rps: p_num(p_get(v, path, "rps")?, &format!("{path}.rps"))?,
                machines: named_machines_from_json(
                    p_get(v, path, "machines")?,
                    &format!("{path}.machines"),
                )?,
            })
        }
        "fault-tail" => {
            p_obj(v, path, &["type", "rps", "drop_rates", "retry_timeout_us"])?;
            Ok(ScenarioKind::FaultTail {
                rps: p_num(p_get(v, path, "rps")?, &format!("{path}.rps"))?,
                drop_rates: p_f64_arr(
                    p_get(v, path, "drop_rates")?,
                    &format!("{path}.drop_rates"),
                )?,
                retry_timeout_us: p_num(
                    p_get(v, path, "retry_timeout_us")?,
                    &format!("{path}.retry_timeout_us"),
                )?,
            })
        }
        "cluster-tail" => {
            p_obj(v, path, &["type", "loads"])?;
            Ok(ScenarioKind::ClusterTail {
                loads: p_f64_arr(p_get(v, path, "loads")?, &format!("{path}.loads"))?,
            })
        }
        "machine-compare" => {
            p_obj(v, path, &["type", "loads", "machines"])?;
            Ok(ScenarioKind::MachineCompare {
                loads: p_f64_arr(p_get(v, path, "loads")?, &format!("{path}.loads"))?,
                machines: named_machines_from_json(
                    p_get(v, path, "machines")?,
                    &format!("{path}.machines"),
                )?,
            })
        }
        "autoscale" => {
            p_obj(v, path, &["type", "rps", "horizon_factor", "configs"])?;
            let configs = p_arr(p_get(v, path, "configs")?, &format!("{path}.configs"))?
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let cpath = format!("{path}.configs[{i}]");
                    p_obj(c, &cpath, &["name", "autoscale", "pool"])?;
                    Ok(AutoscaleConfig {
                        name: p_str(p_get(c, &cpath, "name")?, &format!("{cpath}.name"))?,
                        autoscale: p_bool(
                            p_get(c, &cpath, "autoscale")?,
                            &format!("{cpath}.autoscale"),
                        )?,
                        pool: p_bool(p_get(c, &cpath, "pool")?, &format!("{cpath}.pool"))?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ScenarioKind::Autoscale {
                rps: p_num(p_get(v, path, "rps")?, &format!("{path}.rps"))?,
                horizon_factor: p_num(
                    p_get(v, path, "horizon_factor")?,
                    &format!("{path}.horizon_factor"),
                )?,
                configs,
            })
        }
        "srpt-ablation" => {
            p_obj(v, path, &["type", "workloads"])?;
            let workloads = p_arr(p_get(v, path, "workloads")?, &format!("{path}.workloads"))?
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let wpath = format!("{path}.workloads[{i}]");
                    p_obj(w, &wpath, &["name", "workload", "loads"])?;
                    Ok(NamedWorkload {
                        name: p_str(p_get(w, &wpath, "name")?, &format!("{wpath}.name"))?,
                        workload: workload_from_json(
                            p_get(w, &wpath, "workload")?,
                            &format!("{wpath}.workload"),
                        )?,
                        loads: p_f64_arr(p_get(w, &wpath, "loads")?, &format!("{wpath}.loads"))?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ScenarioKind::SrptAblation { workloads })
        }
        "grid" => {
            p_obj(v, path, &["type", "loads", "seeds", "nodes", "policies"])?;
            let seeds = p_arr(p_get(v, path, "seeds")?, &format!("{path}.seeds"))?
                .iter()
                .enumerate()
                .map(|(i, s)| p_uint(s, &format!("{path}.seeds[{i}]")))
                .collect::<Result<Vec<_>, _>>()?;
            let nodes = p_arr(p_get(v, path, "nodes")?, &format!("{path}.nodes"))?
                .iter()
                .enumerate()
                .map(|(i, n)| p_usize(n, &format!("{path}.nodes[{i}]")))
                .collect::<Result<Vec<_>, _>>()?;
            let policies = p_arr(p_get(v, path, "policies")?, &format!("{path}.policies"))?
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let ppath = format!("{path}.policies[{i}]");
                    p_obj(p, &ppath, &["name", "mitigation"])?;
                    Ok(NamedPolicy {
                        name: p_str(p_get(p, &ppath, "name")?, &format!("{ppath}.name"))?,
                        mitigation: mitigation_from_json(
                            p_get(p, &ppath, "mitigation")?,
                            &format!("{ppath}.mitigation"),
                        )?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ScenarioKind::Grid(GridSpec {
                loads: p_f64_arr(p_get(v, path, "loads")?, &format!("{path}.loads"))?,
                seeds,
                nodes,
                policies,
            }))
        }
        other => Err(format!("{path}.type: unknown scenario kind `{other}`")),
    }
}

impl Scenario {
    /// Parses the canonical document, rejecting unknown fields with the
    /// offending path, then validates every knob.
    ///
    /// # Errors
    ///
    /// Returns the first structural or range violation.
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        let path = "scenario";
        p_obj(
            doc,
            path,
            &[
                "name",
                "kind",
                "machine",
                "workload",
                "scale",
                "faults",
                "mitigation",
                "cluster",
            ],
        )?;
        let faults = p_arr(p_get(doc, path, "faults")?, &format!("{path}.faults"))?
            .iter()
            .enumerate()
            .map(|(i, f)| fault_from_json(f, &format!("{path}.faults[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let cluster = doc
            .get("cluster")
            .map(|c| cluster_from_json(c, &format!("{path}.cluster")))
            .transpose()?;
        let s = Scenario {
            name: p_str(p_get(doc, path, "name")?, &format!("{path}.name"))?,
            kind: kind_from_json(p_get(doc, path, "kind")?, &format!("{path}.kind"))?,
            machine: machine_from_json(p_get(doc, path, "machine")?, &format!("{path}.machine"))?,
            workload: workload_from_json(
                p_get(doc, path, "workload")?,
                &format!("{path}.workload"),
            )?,
            scale: scale_from_json(p_get(doc, path, "scale")?, &format!("{path}.scale"))?,
            faults,
            mitigation: mitigation_from_json(
                p_get(doc, path, "mitigation")?,
                &format!("{path}.mitigation"),
            )?,
            cluster,
        };
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
pub mod registry {
    use super::*;

    /// Figure 7: impact of on-package ICN contention on tail latency, 2D
    /// mesh vs fat tree on the 1024-core ScaleOut, committed as
    /// `results/fig7.txt`.
    ///
    /// Paper anchors: at 50K RPS contention inflates the tail 14.7x on
    /// the mesh and 7.5x on the fat tree; the effect shrinks with load.
    pub fn fig7() -> Scenario {
        Scenario {
            name: "fig7".to_string(),
            machine: MachineSpec {
                // ICN contention is the variable under study; scheduling
                // and context-switch overheads are studied separately.
                ctx_switch_cycles: Some(0),
                ..MachineSpec::of(MachineBase::Scaleout)
            },
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec::full(),
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::Fig7 {
                loads: vec![1_000.0, 5_000.0, 10_000.0, 50_000.0],
            },
        }
    }

    /// Where does request time go? The *measured* per-component latency
    /// breakdown across the three paper machines, from the tracing
    /// layer: every cycle of a root request's lifetime (its merged RPC
    /// tree included) charged to exactly one component, with
    /// conservation checked to the cycle. Committed as
    /// `results/breakdown.txt`.
    ///
    /// Paper context: §3.2/Figure 3 (queueing), §4.4/Figure 6 (context
    /// switching), §3.3/Table 1 (overhead sources). Components sum to
    /// end-to-end latency exactly, so each row is a disjoint share of
    /// the mean; a parent's blocked time is never counted on top of its
    /// callees' lifetimes.
    pub fn breakdown() -> Scenario {
        Scenario {
            name: "breakdown".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec::full(),
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::Breakdown {
                rps: 10_000.0,
                machines: vec![
                    NamedMachine {
                        name: "ServerClass-40".to_string(),
                        machine: MachineSpec::of(MachineBase::ServerClassIsoPower),
                    },
                    NamedMachine {
                        name: "ScaleOut".to_string(),
                        machine: MachineSpec::of(MachineBase::Scaleout),
                    },
                    NamedMachine {
                        name: "uManycore".to_string(),
                        machine: MachineSpec::of(MachineBase::Umanycore),
                    },
                ],
            },
        }
    }

    /// Tail latency vs fault rate: the cost of losing messages, with and
    /// without timeout/retry mitigation, committed as
    /// `results/fault_tail.txt`.
    ///
    /// An unmitigated operation that loses a request or response leg
    /// stalls until the default RPC timeout abandons it, so even
    /// sub-percent loss rates poison the tail. Timeout +
    /// exponential-backoff retry (with a retry budget) converts most
    /// losses into one extra round trip.
    pub fn fault_tail() -> Scenario {
        Scenario {
            name: "fault_tail".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec::full(),
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::FaultTail {
                // Moderate utilization, so latency shifts are
                // attributable to the faults, not to saturation.
                rps: 8_000.0,
                drop_rates: vec![0.0, 0.005, 0.01, 0.02, 0.05],
                retry_timeout_us: 1_500.0,
            },
        }
    }

    /// Fleet tail latency by load-balancer routing policy: a rack of
    /// uManycore packages behind one front end, committed as
    /// `results/cluster_tail.txt`.
    ///
    /// The paper's single-package story (hardware queues, village-local
    /// dispatch) meets the classic serving-layer question: with N
    /// packages behind a load balancer, how much fleet tail does the
    /// *routing policy* cost on top of the package itself? The sweep
    /// compares random, round-robin, JSQ(2) (power-of-two-choices) and
    /// an idealized central queue across offered loads, with every hop
    /// through the rack fabric charged to the cluster-hop breakdown
    /// component.
    pub fn cluster_tail() -> Scenario {
        let full = ClusterScale::full();
        Scenario {
            name: "cluster_tail".to_string(),
            machine: MachineSpec {
                shape: Some([8, 2, 4]),
                // Deep RQs keep the sweep inside the regime where every
                // request completes (see DESIGN.md, "Cluster layer").
                rq_capacity: Some(512),
                ..MachineSpec::of(MachineBase::Umanycore)
            },
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec {
                horizon_us: full.horizon_us,
                warmup_us: full.warmup_us,
                servers: 1,
                seed: full.seed,
            },
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: Some(ClusterSpec {
                nodes: full.nodes,
                // Display order is the committed-results row order.
                routing: [
                    ("random", RoutingPolicy::Random),
                    ("round-robin", RoutingPolicy::RoundRobin),
                    ("jsq(2)", RoutingPolicy::JsqD { d: 2 }),
                    ("central-queue", RoutingPolicy::CentralQueue),
                ]
                .into_iter()
                .map(|(name, policy)| NamedRouting {
                    name: name.to_string(),
                    policy,
                })
                .collect(),
                max_in_flight: None,
                jitter: Some(JitterSpec {
                    mean_us: 0.5,
                    scv: 4.0,
                }),
                steer: false,
            }),
            kind: ScenarioKind::ClusterTail { loads: full.loads },
        }
    }

    /// The abstract's headline experiment: a cluster of 10 servers, each
    /// with a 1024-core uManycore, against clusters of iso-power and
    /// iso-area conventional multicores, committed as
    /// `results/cluster10.txt`.
    ///
    /// Paper anchors: 3.7x lower average latency, 10.4x lower tail
    /// latency, 15.5x higher throughput than the iso-power ServerClass
    /// cluster (averages over the loads).
    pub fn cluster10() -> Scenario {
        Scenario {
            name: "cluster10".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec {
                servers: 10,
                ..ScaleSpec::full()
            },
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::MachineCompare {
                loads: vec![5_000.0, 10_000.0, 15_000.0],
                machines: vec![
                    NamedMachine {
                        name: "ServerClass-40".to_string(),
                        machine: MachineSpec::of(MachineBase::ServerClassIsoPower),
                    },
                    NamedMachine {
                        name: "ServerClass-128".to_string(),
                        machine: MachineSpec::of(MachineBase::ServerClassIsoArea),
                    },
                    NamedMachine {
                        name: "ScaleOut".to_string(),
                        machine: MachineSpec::of(MachineBase::Scaleout),
                    },
                    NamedMachine {
                        name: "uManycore".to_string(),
                        machine: MachineSpec::of(MachineBase::Umanycore),
                    },
                ],
            },
        }
    }

    /// Autoscaling under bursts: the snapshot memory pool in the request
    /// path, committed as `results/autoscale.txt`.
    ///
    /// §3.5/§4.1: when a burst overwhelms a service's village, the
    /// system boots another instance elsewhere. With a snapshot in the
    /// cluster pool the boot takes ~2 ms; without one it takes >300 ms —
    /// during which the burst's requests pile up. This drives uManycore
    /// with bursty (MMPP) arrivals and compares pool-backed and
    /// cold-boot autoscaling against no autoscaling at all.
    pub fn autoscale() -> Scenario {
        Scenario {
            name: "autoscale".to_string(),
            machine: MachineSpec {
                // Small RQs so bursts overflow a single instance.
                rq_capacity: Some(8),
                ..MachineSpec::of(MachineBase::Umanycore)
            },
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec::full(),
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::Autoscale {
                rps: 160_000.0,
                // The MMPP dwells ~220 ms low and ~30 ms bursting, so one
                // scale unit (200 ms) samples roughly one burst cycle and
                // the comparison would hinge on whether it happens to
                // burst. Run 5x longer so every configuration sees
                // several bursts regardless of the seed.
                horizon_factor: 5.0,
                configs: vec![
                    AutoscaleConfig {
                        name: "no autoscaling".to_string(),
                        autoscale: false,
                        pool: true,
                    },
                    AutoscaleConfig {
                        name: "autoscale, cold boots".to_string(),
                        autoscale: true,
                        pool: false,
                    },
                    AutoscaleConfig {
                        name: "autoscale + snapshot pool".to_string(),
                        autoscale: true,
                        pool: true,
                    },
                ],
            },
        }
    }

    /// Ablation: FCFS vs SRPT dequeue (paper §4.3), committed as
    /// `results/ablation_srpt.txt`.
    ///
    /// The paper argues SRPT is unlikely to beat FCFS for microservices
    /// because same-service requests have similar durations and frequent
    /// I/O blocking already interleaves requests. This tests the claim on
    /// the full system: the SocialNetwork mix (homogeneous per service)
    /// and a heavy-tailed synthetic workload (where SRPT classically
    /// shines).
    pub fn ablation_srpt() -> Scenario {
        Scenario {
            name: "ablation_srpt".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec::full(),
            faults: Vec::new(),
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::SrptAblation {
                workloads: vec![
                    NamedWorkload {
                        name: "SocialMix".to_string(),
                        workload: WorkloadSpec::SocialMix,
                        loads: vec![200_000.0, 1_200_000.0],
                    },
                    NamedWorkload {
                        name: "HeavyTail".to_string(),
                        workload: WorkloadSpec::Synthetic {
                            mean_us: 400.0,
                            scv: 9.0,
                            min_rpcs: 2,
                            max_rpcs: 6,
                        },
                        loads: vec![200_000.0, 1_000_000.0],
                    },
                ],
            },
        }
    }

    /// The default `um-sweep` grid: 4 loads x 3 mitigation policies x 2
    /// seeds (24 points) on a uManycore under 1% message loss.
    pub fn sweep_default() -> Scenario {
        Scenario {
            name: "sweep_default".to_string(),
            machine: MachineSpec::of(MachineBase::Umanycore),
            workload: WorkloadSpec::SocialMix,
            scale: ScaleSpec {
                horizon_us: 60_000.0,
                warmup_us: 6_000.0,
                servers: 1,
                seed: 42,
            },
            faults: vec![FaultRecipe::MessageDrops { probability: 0.01 }],
            mitigation: MitigationSpec::default(),
            cluster: None,
            kind: ScenarioKind::Grid(GridSpec {
                loads: vec![2_000.0, 5_000.0, 8_000.0, 11_000.0],
                seeds: vec![42, 43],
                nodes: Vec::new(),
                policies: vec![
                    NamedPolicy {
                        name: "none".to_string(),
                        mitigation: MitigationSpec::default(),
                    },
                    NamedPolicy {
                        name: "retry".to_string(),
                        mitigation: MitigationSpec {
                            retry: Some(RetrySpec::with_timeout_us(1_500.0)),
                            ..MitigationSpec::default()
                        },
                    },
                    NamedPolicy {
                        name: "hedge".to_string(),
                        mitigation: MitigationSpec {
                            hedge_delay_us: Some(150.0),
                            ..MitigationSpec::default()
                        },
                    },
                ],
            }),
        }
    }

    /// Every built-in scenario, in display order.
    pub fn all() -> Vec<Scenario> {
        vec![
            fig7(),
            breakdown(),
            fault_tail(),
            cluster_tail(),
            cluster10(),
            autoscale(),
            ablation_srpt(),
            sweep_default(),
        ]
    }

    /// Looks a built-in scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        all().into_iter().find(|s| s.name == name)
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

    #[test]
    fn every_registry_scenario_validates() {
        for s in registry::all() {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn registry_lookup_by_name() {
        assert_eq!(registry::by_name("fig7").expect("exists").name, "fig7");
        assert!(registry::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn canonical_json_round_trips_byte_stably() {
        for s in registry::all() {
            let text = s.to_json_text();
            let back =
                Scenario::from_json_text(&text).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(back, s, "{}", s.name);
            assert_eq!(back.to_json_text(), text, "{}", s.name);
        }
    }

    #[test]
    fn unknown_fields_are_rejected_with_their_path() {
        let mut doc = registry::fig7().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("surprise".to_string(), Json::Num(1.0)));
        }
        let err = Scenario::from_json(&doc).expect_err("unknown field");
        assert!(err.contains("unknown field `surprise`"), "{err}");

        let mut doc = registry::fig7().to_json();
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
        let mut s = registry::fault_tail();
        if let ScenarioKind::FaultTail { drop_rates, .. } = &mut s.kind {
            drop_rates[1] = 1.5;
        }
        let err = s.validate().expect_err("bad drop rate");
        assert!(err.contains("drop_rates[1]"), "{err}");

        let mut s = registry::fig7();
        s.scale.warmup_us = s.scale.horizon_us * 2.0;
        assert!(s.validate().is_err());

        let mut s = registry::sweep_default();
        if let ScenarioKind::Grid(g) = &mut s.kind {
            g.policies[1].mitigation.retry = Some(RetrySpec {
                backoff: 0.5,
                ..RetrySpec::with_timeout_us(100.0)
            });
        }
        let err = s.validate().expect_err("bad backoff");
        assert!(err.contains("backoff"), "{err}");
    }

    #[test]
    fn shallow_rq_cluster_without_admission_cap_is_refused() {
        let mut s = registry::cluster_tail();
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
        let mut s = registry::sweep_default();
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
