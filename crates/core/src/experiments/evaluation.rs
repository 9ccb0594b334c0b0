//! Drivers for the evaluation figures (§6).

use super::{parallel, run_machine, Scale};
use crate::qos::{self, QosResult};
use crate::report::RunReport;
use crate::system::SimConfig;
use crate::workload::Workload;
use um_arch::config::{CoherenceDomain, IcnKind, MachineConfig, TopologyShape};
use um_sched::CtxSwitchModel;
use um_sim::rng;
use um_workload::apps::SocialNetwork;
use um_workload::synthetic::SyntheticWorkload;
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

/// One application's results on the three machines at one load.
#[derive(Clone, Debug)]
pub struct AppRow {
    /// Application name.
    pub app: &'static str,
    /// Load in RPS.
    pub rps: f64,
    /// ServerClass report.
    pub server_class: RunReport,
    /// ScaleOut report.
    pub scaleout: RunReport,
    /// uManycore report.
    pub umanycore: RunReport,
}

impl AppRow {
    /// Tail latencies normalized to ServerClass (Figure 14 bars).
    pub fn norm_tails(&self) -> (f64, f64, f64) {
        let base = self.server_class.latency.p99;
        (
            1.0,
            self.scaleout.latency.p99 / base,
            self.umanycore.latency.p99 / base,
        )
    }

    /// Average latencies normalized to ServerClass (Figure 16 bars).
    pub fn norm_avgs(&self) -> (f64, f64, f64) {
        let base = self.server_class.latency.mean;
        (
            1.0,
            self.scaleout.latency.mean / base,
            self.umanycore.latency.mean / base,
        )
    }

    /// Tail-to-average ratios normalized to ServerClass (Figure 17 bars).
    pub fn norm_tail_to_avg(&self) -> (f64, f64, f64) {
        let base = self.server_class.tail_to_avg();
        (
            1.0,
            self.scaleout.tail_to_avg() / base,
            self.umanycore.tail_to_avg() / base,
        )
    }
}

/// Runs one app at one load on all three machines (a Figure 14/16/17
/// cell), fanned out across the sweep worker pool.
///
/// The three machines share the row's seed (common random numbers), so
/// the normalized bars compare machines on the same arrival draws.
pub fn app_row(root: ServiceId, rps: f64, scale: Scale) -> AppRow {
    let apps = SocialNetwork::new();
    let name = apps.profile(root).name;
    let reports = parallel::map(machines().to_vec(), |_, (_, machine)| {
        run_machine(machine, Workload::social_app(root), rps, scale)
    });
    let [sc, so, um]: [RunReport; 3] = reports.try_into().expect("three machines");
    AppRow {
        app: name,
        rps,
        server_class: sc,
        scaleout: so,
        umanycore: um,
    }
}

/// Runs the full Figure 14/16/17 grid at one load: 8 apps x 3 machines,
/// all 24 points in parallel.
///
/// Each app row gets its own seed derived from `scale.seed` and the
/// row's index, so rows are statistically independent while the three
/// machines within a row stay seed-paired.
pub fn app_grid(rps: f64, scale: Scale) -> Vec<AppRow> {
    let points: Vec<(usize, MachineConfig)> = (0..SocialNetwork::ALL.len())
        .flat_map(|a| machines().map(|(_, m)| (a, m)))
        .collect();
    let reports = parallel::map(points, |_, (a, machine)| {
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
    });
    let apps = SocialNetwork::new();
    SocialNetwork::ALL
        .iter()
        .zip(reports.chunks_exact(3))
        .map(|(&root, r)| AppRow {
            app: apps.profile(root).name,
            rps,
            server_class: r[0].clone(),
            scaleout: r[1].clone(),
            umanycore: r[2].clone(),
        })
        .collect()
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
// Figure 19: topology sensitivity
// ---------------------------------------------------------------------

/// One Figure 19 bar group: per-shape tails for one app, normalized to
/// the default 8x4x32 shape.
#[derive(Clone, Debug)]
pub struct Fig19Row {
    /// Application name.
    pub app: &'static str,
    /// Normalized tails in `TopologyShape::FIG19_SWEEP` order.
    pub norm_tails: Vec<f64>,
}

/// Runs the Figure 19 shape sweep for all eight apps: 8 apps x
/// `FIG19_SWEEP.len()` shapes, all points in parallel.
///
/// Each app derives its own seed from `scale.seed`; the shapes within
/// an app share it (tails are normalized to the first shape).
pub fn fig19_grid(rps: f64, scale: Scale) -> Vec<Fig19Row> {
    let shapes = TopologyShape::FIG19_SWEEP;
    let points: Vec<(usize, TopologyShape)> = (0..SocialNetwork::ALL.len())
        .flat_map(|a| shapes.iter().map(move |&s| (a, s)))
        .collect();
    let tails = parallel::map(points, |_, (a, shape)| {
        let row_scale = Scale {
            seed: rng::derive_seed(scale.seed, a as u64),
            ..scale
        };
        run_machine(
            MachineConfig::umanycore_shaped(shape),
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
        .zip(tails.chunks_exact(shapes.len()))
        .map(|(&root, t)| Fig19Row {
            app: apps.profile(root).name,
            norm_tails: t.iter().map(|tail| tail / t[0]).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 20: synthetic service-time distributions
// ---------------------------------------------------------------------

/// One Figure 20 bar group.
#[derive(Clone, Debug)]
pub struct Fig20Row {
    /// Distribution label (Exp/Lgn/Bim).
    pub dist: &'static str,
    /// Load in RPS.
    pub rps: f64,
    /// ServerClass tail, microseconds (the figure's absolute annotation).
    pub server_class_tail_us: f64,
    /// ScaleOut tail normalized to ServerClass.
    pub scaleout_norm: f64,
    /// uManycore tail normalized to ServerClass.
    pub umanycore_norm: f64,
}

/// Runs the Figure 20 grid: three distributions x the given loads, all
/// machine runs in parallel.
///
/// Each (distribution, load) row derives its own seed; the three
/// machines within a row share it so the normalization is paired.
pub fn fig20_rows(scale: Scale, loads: &[f64], mean_service_us: f64) -> Vec<Fig20Row> {
    let mut row_meta = Vec::new();
    let mut points = Vec::new();
    for (label, synth) in SyntheticWorkload::paper_suite(mean_service_us) {
        for &rps in loads {
            let row = row_meta.len();
            row_meta.push((label, rps));
            for (_, machine) in machines() {
                points.push((row, synth, rps, machine));
            }
        }
    }
    let reports = parallel::map(points, |_, (row, synth, rps, machine)| {
        let row_scale = Scale {
            seed: rng::derive_seed(scale.seed, row as u64),
            ..scale
        };
        run_machine(machine, Workload::Synthetic(synth), rps, row_scale)
    });
    row_meta
        .iter()
        .zip(reports.chunks_exact(3))
        .map(|(&(label, rps), r)| Fig20Row {
            dist: label,
            rps,
            server_class_tail_us: r[0].latency.p99,
            scaleout_norm: r[1].latency.p99 / r[0].latency.p99,
            umanycore_norm: r[2].latency.p99 / r[0].latency.p99,
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
