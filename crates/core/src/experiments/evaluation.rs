//! Drivers for the evaluation figures (§6) that keep their own binaries:
//! Figure 15, Figure 18 and the §6.8 iso-area table.

use super::{parallel, run_machine, Scale};
use crate::qos::{self, QosResult};
use crate::system::SimConfig;
use crate::workload::Workload;
use um_arch::config::{CoherenceDomain, IcnKind, MachineConfig, TopologyShape};
use um_sched::CtxSwitchModel;
use um_sim::rng;
use um_workload::apps::SocialNetwork;
use um_workload::ServiceId;

/// The paper's three load levels, RPS per server (§5).
pub const LOADS: [f64; 3] = [5_000.0, 10_000.0, 15_000.0];

/// The three machines in figure order.
pub fn machines() -> [(&'static str, MachineConfig); 3] {
    [
        ("ServerClass", MachineConfig::server_class_iso_power()),
        ("ScaleOut", MachineConfig::scaleout()),
        ("uManycore", MachineConfig::umanycore()),
    ]
}

// ---------------------------------------------------------------------
// Figure 15: ablation
// ---------------------------------------------------------------------

/// The cumulative ablation stages of Figure 15, applied to ScaleOut in
/// the paper's order: villages, leaf-spine ICN, hardware scheduling,
/// hardware context switching.
pub fn ablation_stages() -> Vec<(&'static str, MachineConfig)> {
    let mut stages = Vec::new();

    let scaleout = MachineConfig::scaleout();
    stages.push(("ScaleOut", scaleout.clone()));

    // + Villages: 8-core coherence domains; queues and migration shrink
    // from the 32-core cluster to the village.
    let mut villages = scaleout;
    villages.coherence = CoherenceDomain::Village;
    villages.shape = TopologyShape::new(8, 4, 32);
    villages.name = "+Villages";
    stages.push(("+Villages", villages.clone()));

    // + Leaf-spine ICN: the full on-package organization of Figure 12,
    // including the per-cluster memory-pool chiplets attached to the hubs
    // (Figures 10-11), which localize read-mostly traffic.
    let mut leafspine = villages;
    leafspine.icn = IcnKind::LeafSpine;
    leafspine.memory_pool = true;
    leafspine.name = "+Leaf-spine";
    stages.push(("+Leaf-spine", leafspine.clone()));

    // + Hardware scheduling: hardware RQs and NIC RPC processing (§4.3).
    let mut hw_sched = leafspine;
    hw_sched.hw_scheduling = true;
    hw_sched.sched_op_cost = MachineConfig::umanycore().sched_op_cost;
    hw_sched.rq_capacity = 64;
    hw_sched.name = "+HW-Sched";
    stages.push(("+HW-Sched", hw_sched.clone()));

    // + Hardware context switching: the full uManycore.
    let mut hw_cs = hw_sched;
    hw_cs.ctx_switch = CtxSwitchModel::Hardware;
    hw_cs.name = "+HW-CtxSw";
    stages.push(("+HW-CtxSw", hw_cs));

    stages
}

/// One Figure 15 column: per-stage tail-latency reduction over ScaleOut.
#[derive(Clone, Debug)]
pub struct Fig15Row {
    /// Application name.
    pub app: &'static str,
    /// Reduction factor (ScaleOut tail / stage tail) per cumulative stage,
    /// in `ablation_stages()[1..]` order.
    pub reductions: Vec<f64>,
}

/// Runs the Figure 15 ablation for one app at `rps` (the paper uses
/// 15 K RPS).
pub fn fig15_row(root: ServiceId, rps: f64, scale: Scale) -> Fig15Row {
    let apps = SocialNetwork::new();
    let name = apps.profile(root).name;
    // All stages share the seed: the reductions are paired ratios, so
    // every stage sees the same arrival draws.
    let tails: Vec<f64> = parallel::map(ablation_stages(), |_, (_, machine)| {
        run_machine(machine, Workload::social_app(root), rps, scale)
            .latency
            .p99
    });
    Fig15Row {
        app: name,
        reductions: tails[1..].iter().map(|t| tails[0] / t).collect(),
    }
}

/// Runs the Figure 15 ablation for all eight apps: 8 apps x 5 stages,
/// all 40 points in parallel.
///
/// Each app derives its own seed from `scale.seed`; the stages within
/// an app share it (the reductions are paired ratios).
pub fn fig15_grid(rps: f64, scale: Scale) -> Vec<Fig15Row> {
    let stages = ablation_stages();
    let points: Vec<(usize, MachineConfig)> = (0..SocialNetwork::ALL.len())
        .flat_map(|a| {
            stages
                .iter()
                .map(move |(_, m)| (a, m.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let tails = parallel::map(points, |_, (a, machine)| {
        let row_scale = Scale {
            seed: rng::derive_seed(scale.seed, a as u64),
            ..scale
        };
        run_machine(
            machine,
            Workload::social_app(SocialNetwork::ALL[a]),
            rps,
            row_scale,
        )
        .latency
        .p99
    });
    let apps = SocialNetwork::new();
    SocialNetwork::ALL
        .iter()
        .zip(tails.chunks_exact(stages.len()))
        .map(|(&root, t)| Fig15Row {
            app: apps.profile(root).name,
            reductions: t[1..].iter().map(|tail| t[0] / tail).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 18: QoS throughput
// ---------------------------------------------------------------------

/// One Figure 18 bar group.
#[derive(Clone, Debug)]
pub struct Fig18Row {
    /// Application name.
    pub app: &'static str,
    /// Max QoS-compliant throughput per machine, RPS.
    pub server_class: QosResult,
    /// ScaleOut result.
    pub scaleout: QosResult,
    /// uManycore result.
    pub umanycore: QosResult,
}

/// Runs the QoS throughput search for all eight apps: 8 apps x 3
/// machines, all 24 searches in parallel.
///
/// Each app derives its own seed from `scale.seed`; the three machines
/// within an app share it (the bars are normalized to ServerClass).
pub fn fig18_grid(scale: Scale, hi_rps: f64) -> Vec<Fig18Row> {
    let bases: Vec<SimConfig> = (0..SocialNetwork::ALL.len())
        .flat_map(|a| {
            machines().map(|(_, machine)| SimConfig {
                machine,
                workload: Workload::social_app(SocialNetwork::ALL[a]),
                servers: scale.servers,
                horizon_us: scale.horizon_us,
                warmup_us: scale.warmup_us,
                seed: rng::derive_seed(scale.seed, a as u64),
                ..SimConfig::default()
            })
        })
        .collect();
    let results = qos::max_qos_throughput_many(bases, hi_rps / 512.0, hi_rps);
    let apps = SocialNetwork::new();
    SocialNetwork::ALL
        .iter()
        .zip(results.chunks_exact(3))
        .map(|(&root, r)| Fig18Row {
            app: apps.profile(root).name,
            server_class: r[0],
            scaleout: r[1],
            umanycore: r[2],
        })
        .collect()
}

// ---------------------------------------------------------------------
// §6.8: iso-area comparison
// ---------------------------------------------------------------------

/// The iso-area comparison report.
#[derive(Clone, Debug)]
pub struct IsoAreaRow {
    /// Load in RPS.
    pub rps: f64,
    /// 128-core ServerClass tail, microseconds.
    pub server_class_128_tail_us: f64,
    /// ScaleOut tail, microseconds.
    pub scaleout_tail_us: f64,
    /// uManycore tail, microseconds.
    pub umanycore_tail_us: f64,
}

/// Runs the §6.8 iso-area comparison at the given loads, all machine
/// runs in parallel.
///
/// Each load row derives its own seed; the three machines within a row
/// share it so the comparison is paired.
pub fn iso_area_rows(scale: Scale, loads: &[f64]) -> Vec<IsoAreaRow> {
    let variants = || {
        [
            MachineConfig::server_class_iso_area(),
            MachineConfig::scaleout(),
            MachineConfig::umanycore(),
        ]
    };
    let points: Vec<(usize, MachineConfig)> = (0..loads.len())
        .flat_map(|li| variants().map(|m| (li, m)))
        .collect();
    let reports = parallel::map(points, |_, (li, machine)| {
        let row_scale = Scale {
            seed: rng::derive_seed(scale.seed, li as u64),
            ..scale
        };
        run_machine(machine, Workload::social_mix(), loads[li], row_scale)
    });
    loads
        .iter()
        .zip(reports.chunks_exact(3))
        .map(|(&rps, r)| IsoAreaRow {
            rps,
            server_class_128_tail_us: r[0].latency.p99,
            scaleout_tail_us: r[1].latency.p99,
            umanycore_tail_us: r[2].latency.p99,
        })
        .collect()
}

/// Area/power summary for the §6.8 table.
#[derive(Clone, Copy, Debug)]
pub struct AreaPowerRow {
    /// Machine label.
    pub name: &'static str,
    /// Cores.
    pub cores: usize,
    /// Package area, mm².
    pub area_mm2: f64,
    /// Package power, watts.
    pub power_w: f64,
}

/// Area and power of the four machine variants.
pub fn area_power_rows() -> Vec<AreaPowerRow> {
    [
        ("ServerClass-40", MachineConfig::server_class_iso_power()),
        ("ServerClass-128", MachineConfig::server_class_iso_area()),
        ("ScaleOut", MachineConfig::scaleout()),
        ("uManycore", MachineConfig::umanycore()),
    ]
    .into_iter()
    .map(|(name, m)| AreaPowerRow {
        name,
        cores: m.total_cores(),
        area_mm2: m.area_mm2(),
        power_w: m.power_watts(),
    })
    .collect()
}
