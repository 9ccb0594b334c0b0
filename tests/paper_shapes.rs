//! Integration tests asserting the paper's headline *shapes* — who wins,
//! by roughly what factor, where crossovers fall — at reduced simulation
//! scales. These span every crate in the workspace.

use um_arch::MachineConfig;
use um_bench::scenario::{self, registry, ScenarioKind};
use um_workload::apps::SocialNetwork;
use umanycore::experiments::{evaluation, motivation, parallel, Scale};
use umanycore::{RunReport, SimConfig, SystemSim, Workload};

fn quick() -> Scale {
    Scale::quick()
}

/// Runs the named normalized registry scenario at a 60 ms horizon with
/// its rows cut to those in `keep` (all when it is empty), each swept
/// over `loads`. Returns one report per machine column for every
/// (row, load) pair, in row-major order.
fn normalized_reports(name: &str, keep: &[&str], loads: &[f64]) -> Vec<Vec<RunReport>> {
    let mut s = registry::by_name(name).expect("registry scenario");
    s.scale.horizon_us = 60_000.0;
    s.scale.warmup_us = 6_000.0;
    let ScenarioKind::Normalized(n) = &mut s.kind else {
        panic!("{} is not a normalized scenario", s.name);
    };
    if !keep.is_empty() {
        n.rows.retain(|r| keep.contains(&r.name.as_str()));
    }
    for row in &mut n.rows {
        row.loads = loads.to_vec();
    }
    let machines = n.machines.len();
    let points = s.expand().expect("valid scenario");
    let reports = parallel::map(points, |_, p| {
        SystemSim::new(p.as_node().expect("node point").clone()).run()
    });
    reports.chunks_exact(machines).map(<[_]>::to_vec).collect()
}

/// Figure 14's core claim: uManycore's tail beats both baselines for
/// every application, and the gap is large.
#[test]
fn umanycore_tail_dominates_every_app() {
    let rows = normalized_reports("fig14", &[], &[10_000.0]);
    let apps = SocialNetwork::new();
    assert_eq!(rows.len(), SocialNetwork::ALL.len());
    for (&root, r) in SocialNetwork::ALL.iter().zip(&rows) {
        let app = apps.profile(root).name;
        let so = r[1].latency.p99 / r[0].latency.p99;
        let um = r[2].latency.p99 / r[0].latency.p99;
        assert!(
            um < 0.5,
            "{app}: uManycore normalized tail {um} should be well below ServerClass"
        );
        assert!(um < so, "{app}: uManycore ({um}) must beat ScaleOut ({so})");
    }
}

/// Figure 14/16: uManycore's advantage grows with load.
#[test]
fn umanycore_advantage_grows_with_load() {
    let rows = normalized_reports("fig14", &["HomeT"], &[5_000.0, 15_000.0]);
    let at = |r: &[RunReport]| r[0].latency.p99 / r[2].latency.p99;
    let low = at(&rows[0]);
    let high = at(&rows[1]);
    assert!(
        high > low,
        "tail advantage should grow with load: 5K {low}x vs 15K {high}x"
    );
}

/// Figure 15's ordering: each cumulative technique keeps or improves the
/// tail, and the full stack gives a large reduction.
#[test]
fn ablation_stages_are_cumulative() {
    let scale = Scale {
        horizon_us: 60_000.0,
        warmup_us: 6_000.0,
        ..quick()
    };
    let row = evaluation::fig15_row(SocialNetwork::SGRAPH, 15_000.0, scale);
    assert_eq!(row.reductions.len(), 4);
    let last = row.reductions[3];
    assert!(
        last > 3.0,
        "full uManycore should be >3x over ScaleOut, got {last}"
    );
    // The two hardware stages dominate the two organization stages.
    assert!(
        row.reductions[3] > row.reductions[1],
        "HW stages must add over the ICN stages: {:?}",
        row.reductions
    );
}

/// Figure 17: uManycore's tail-to-average ratio is substantially below
/// the software baselines'.
#[test]
fn tail_to_average_is_tamed() {
    let rows = normalized_reports("fig17", &["User"], &[10_000.0]);
    let (server_class, umanycore) = (&rows[0][0], &rows[0][2]);
    assert!(
        umanycore.tail_to_avg() < server_class.tail_to_avg(),
        "uManycore t/a {} vs ServerClass {}",
        umanycore.tail_to_avg(),
        server_class.tail_to_avg()
    );
}

/// Figure 6's crossover: sub-256-cycle context switches are near-free;
/// multi-thousand-cycle software switches blow the tail up at high load.
#[test]
fn context_switch_crossover() {
    // Saturation of the software scheduler needs time to accumulate
    // backlog; use a longer horizon than the other quick tests.
    let scale = Scale {
        horizon_us: 120_000.0,
        warmup_us: 12_000.0,
        ..quick()
    };
    let rows = motivation::fig6_rows(scale, &[50_000.0]);
    let at = |cs: u64| {
        rows.iter()
            .find(|r| r.cs_cycles == cs)
            .expect("swept value")
            .norm_tail
    };
    assert!(
        at(256) < 2.0,
        "256-cycle CS should be near-free: {}",
        at(256)
    );
    assert!(
        at(8192) > 5.0,
        "8K-cycle CS should devastate the 50K-RPS tail: {}",
        at(8192)
    );
    assert!(at(8192) > at(2048), "degradation grows with CS cost");
}

/// Figure 7: ICN contention matters at 50K RPS and the mesh suffers at
/// least as much as the fat tree.
#[test]
fn icn_contention_inflates_tails() {
    let mut s = registry::by_name("fig7").expect("registry scenario");
    scenario::apply_scale_values(&mut s, Some("quick"), None);
    s.scale.horizon_us = 40_000.0;
    s.scale.warmup_us = 4_000.0;
    s.kind = ScenarioKind::Fig7 {
        loads: vec![50_000.0],
    };
    // Expansion order: mesh contended, mesh contention-free, fat tree
    // contended, fat tree contention-free.
    let tails: Vec<f64> = s
        .expand()
        .expect("valid scenario")
        .iter()
        .map(|p| {
            SystemSim::new(p.as_node().expect("node point").clone())
                .run()
                .latency
                .p99
        })
        .collect();
    let mesh_norm_tail = tails[0] / tails[1];
    let fat_tree_norm_tail = tails[2] / tails[3];
    assert!(
        mesh_norm_tail > 2.0,
        "mesh contention should inflate the 50K tail: {mesh_norm_tail}"
    );
    assert!(
        fat_tree_norm_tail > 1.5,
        "fat-tree contention should inflate the 50K tail: {fat_tree_norm_tail}"
    );
}

/// Figure 3's endpoints: a single fully shared queue is catastrophically
/// worse than the sweet spot, and work stealing rescues per-core queues.
#[test]
fn queue_structure_extremes() {
    // The single queue's lock saturation builds backlog over time; give
    // it room to show.
    let scale = Scale {
        horizon_us: 150_000.0,
        warmup_us: 15_000.0,
        ..quick()
    };
    let rows = motivation::fig3_rows(scale, 50_000.0);
    let best = rows.iter().map(|r| r.tail_us).fold(f64::INFINITY, f64::min);
    let single = rows.last().expect("has rows");
    assert_eq!(single.queues, 1);
    // Full-scale runs show ~2.6x (results/fig3.txt); at this reduced
    // horizon the lock backlog is smaller but must still be visible.
    assert!(
        single.tail_us > 1.25 * best,
        "single queue {} should clearly exceed the best {}",
        single.tail_us,
        best
    );
    let per_core = &rows[0];
    assert_eq!(per_core.queues, 1024);
    assert!(
        per_core.tail_steal_us <= per_core.tail_us * 1.1,
        "stealing should not hurt per-core queues: {} vs {}",
        per_core.tail_steal_us,
        per_core.tail_us
    );
}

/// §6.8: the iso-area 128-core ServerClass helps but cannot reach
/// uManycore, while burning ~3x the power.
#[test]
fn iso_area_comparison() {
    let scale = Scale {
        horizon_us: 60_000.0,
        warmup_us: 6_000.0,
        ..quick()
    };
    let rows = evaluation::iso_area_rows(scale, &[10_000.0]);
    let row = &rows[0];
    assert!(
        row.server_class_128_tail_us > 2.0 * row.umanycore_tail_us,
        "128-core ServerClass tail {} vs uManycore {}",
        row.server_class_128_tail_us,
        row.umanycore_tail_us
    );
    let um = MachineConfig::umanycore();
    let sc128 = MachineConfig::server_class_iso_area();
    let power_ratio = sc128.power_watts() / um.power_watts();
    assert!(
        (2.8..3.7).contains(&power_ratio),
        "power ratio {power_ratio}, paper 3.2x"
    );
}

/// The run-to-completion mode (Figure 3's setup) conserves requests.
#[test]
fn hold_core_mode_completes_everything() {
    let mut machine = MachineConfig::scaleout();
    machine.ctx_switch = um_sched::CtxSwitchModel::Custom(0);
    let report = SystemSim::new(SimConfig {
        machine,
        workload: Workload::Synthetic(um_workload::synthetic::SyntheticWorkload::new(
            um_workload::ServiceTimeDist::exponential(200.0),
            2,
            6,
        )),
        rps_per_server: 20_000.0,
        horizon_us: 30_000.0,
        warmup_us: 3_000.0,
        seed: 9,
        queues_override: Some(64),
        hold_core_while_blocked: true,
        ..SimConfig::default()
    })
    .run();
    // ~20K RPS for 30 ms = ~600 requests, all of which must complete.
    assert!(
        (400..800).contains(&(report.completed as usize)),
        "completed {}",
        report.completed
    );
}
