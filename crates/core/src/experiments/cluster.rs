//! Cluster-scale experiment drivers: the shared rack configuration and
//! rack-level autoscaling (the uqSim / CloudNativeSim-style multi-node
//! serving claims). Fleet tail by routing policy is the `cluster_tail`
//! registry scenario.

use super::parallel;
use crate::cluster::{
    ClusterAutoscale, ClusterConfig, ClusterNetConfig, ClusterReport, ClusterSim, RoutingPolicy,
};
use crate::system::ArrivalProcess;
use um_arch::{MachineConfig, TopologyShape};
use um_workload::ServiceTimeDist;

/// The per-node package slice the rack experiments simulate: 8-core
/// villages (the paper's coherence domain) in a 64-core package. A full
/// 1024-core package pushes the interesting per-node utilizations past
/// a million RPS per node, which a CI-regenerable 64-node sweep cannot
/// afford — and routing-policy tails depend on per-node load, not
/// package width.
pub const NODE_SHAPE: TopologyShape = TopologyShape::new(8, 2, 4);

/// Scale of a cluster experiment (the rack analogue of
/// [`super::Scale`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterScale {
    /// Packages in the rack.
    pub nodes: usize,
    /// Offered loads per node swept, requests per second.
    pub loads: Vec<f64>,
    /// Arrival horizon per run, microseconds.
    pub horizon_us: f64,
    /// Warm-up cut-off, microseconds.
    pub warmup_us: f64,
    /// Master seed.
    pub seed: u64,
}

impl ClusterScale {
    /// The figure-quality scale behind `results/cluster_tail.txt`: a
    /// 64-package rack, 20 ms of arrivals per point. The loads put the
    /// [`NODE_SHAPE`] slice at roughly 0.5, 0.8 and 0.95 utilization —
    /// routing policy only starts to matter once the package's internal
    /// parallelism stops absorbing the imbalance.
    pub fn full() -> Self {
        Self {
            nodes: 64,
            loads: vec![60_000.0, 100_000.0, 118_000.0],
            horizon_us: 20_000.0,
            warmup_us: 2_000.0,
            seed: 42,
        }
    }

    /// CI smoke scale: an 8-package rack, 6 ms of arrivals, the lowest
    /// and highest of the full-scale loads.
    pub fn quick() -> Self {
        Self {
            nodes: 8,
            loads: vec![60_000.0, 118_000.0],
            horizon_us: 6_000.0,
            warmup_us: 600.0,
            seed: 42,
        }
    }
}

/// The canonical rack configuration the cluster experiments share: one
/// μManycore package per node, SocialNetwork mix, a 0.5 µs rack fabric
/// with lognormal jitter, no admission cap.
pub fn rack_config(
    scale: &ClusterScale,
    rps_per_node: f64,
    routing: RoutingPolicy,
) -> ClusterConfig {
    let mut machine = MachineConfig::umanycore_shaped(NODE_SHAPE);
    // Provisioned hardware queues. The default 64-entry RQ is sized for
    // a full package's 128 villages; on an 8-village slice the skewed
    // service mix concentrates enough blocked parents in the hot
    // village to fill its RQ well before the cores saturate, and an RQ
    // full of requests blocked on RPCs into other full villages
    // deadlocks (their children wait in the NIC buffer forever). Deep
    // RQs keep the sweep inside the regime where every request
    // completes; the sanitizers verify that it does.
    machine.rq_capacity = 512;
    ClusterConfig {
        node: crate::system::SimConfig {
            machine,
            ..Default::default()
        },
        nodes: scale.nodes,
        rps_per_node,
        horizon_us: scale.horizon_us,
        warmup_us: scale.warmup_us,
        seed: scale.seed,
        routing,
        net: ClusterNetConfig {
            // A rack fabric hiccup distribution: mostly sub-µs, with a
            // heavy tail standing in for switch queueing the fabric
            // model's fixed NIC queues do not capture.
            jitter_us: Some(ServiceTimeDist::lognormal_with_mean(0.5, 4.0)),
            ..ClusterNetConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// One `cluster_autoscale` result row.
#[derive(Clone, Debug)]
pub struct ClusterAutoscaleRow {
    /// Configuration display name.
    pub name: &'static str,
    /// The full cluster report for the configuration.
    pub report: ClusterReport,
}

/// Rack-level autoscaling under bursty traffic: a fixed small rack, a
/// fixed full rack, and small racks that scale out with snapshot-backed
/// (~2 ms) vs cold (~300 ms) node boots — the §3.5 story at rack scale,
/// extending `results/autoscale.txt`.
pub fn cluster_autoscale_rows(scale: &ClusterScale, rps_per_node: f64) -> Vec<ClusterAutoscaleRow> {
    let small = (scale.nodes / 4).max(1);
    let base = |routing| {
        let mut cfg = rack_config(scale, rps_per_node, routing);
        cfg.arrivals = ArrivalProcess::Bursty;
        // The MMPP dwells ~220 ms low / ~30 ms bursting: a 20 ms tail
        // horizon would make the whole comparison hinge on whether one
        // burst lands in it. Run 15x longer (~300 ms), enough to cover a
        // full burst cycle the way the single-package autoscale figure does.
        cfg.horizon_us = scale.horizon_us * 15.0;
        cfg.warmup_us = scale.warmup_us * 15.0;
        // Admission control: a burst can hold the concentrated rack past
        // node saturation for tens of milliseconds, and an unprotected
        // node melts down (see `rack_config` on RQ deadlock). Capping
        // per-node in-flight makes the burst queue at the load balancer
        // instead — visible in the cluster-hop component and the
        // LB-queue column — which is also what trips the autoscaler.
        // 128 sits just above the node's natural in-flight count at
        // saturation (~125), so it barely throttles peak throughput,
        // and each admitted root holds at most two RQ slots (itself
        // plus one outstanding RPC child), so even a pathological
        // all-in-one-village skew tops out at 256 of the 512 RQ
        // entries — the overflow deadlock is impossible by pigeonhole.
        cfg.max_in_flight = Some(128);
        cfg
    };
    let autoscaled = |boot_us: f64| {
        let mut cfg = base(RoutingPolicy::JsqD { d: 2 });
        cfg.autoscale = Some(ClusterAutoscale {
            initial_nodes: small,
            // Roughly 2x the concentrated rack's steady-state in-flight
            // count, so only a burst trips the scale-out.
            hi_inflight_per_node: 64.0,
            boot_us,
        });
        cfg
    };
    let configs: Vec<(&'static str, ClusterConfig)> = vec![
        (
            // The burst has nowhere to go: the small rack takes the
            // aggregate load of the full rack.
            "fixed small rack",
            {
                let mut cfg = base(RoutingPolicy::JsqD { d: 2 });
                cfg.rps_per_node = rps_per_node * scale.nodes as f64 / small as f64;
                cfg.nodes = small;
                cfg
            },
        ),
        ("fixed full rack", base(RoutingPolicy::JsqD { d: 2 })),
        ("autoscale, snapshot boots", autoscaled(2_000.0)),
        ("autoscale, cold boots", autoscaled(300_000.0)),
    ];
    parallel::map(configs, |_, (name, cfg)| ClusterAutoscaleRow {
        name,
        report: ClusterSim::new(cfg).run(),
    })
}
