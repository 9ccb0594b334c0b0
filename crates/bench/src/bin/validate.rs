//! Self-validation: checks the reproduction's headline claims against the
//! paper's published bands in one run and prints PASS/FAIL per claim.
//!
//! ```text
//! cargo run --release -p um-bench --bin validate          # figure scale
//! UM_SCALE=quick cargo run --release -p um-bench --bin validate
//! ```

use um_arch::MachineConfig;
use um_bench::scenario::{self, registry, ScenarioKind};
use um_bench::{banner, scale_from_env};
use um_stats::summary::geomean;
use umanycore::experiments::{evaluation, motivation, parallel};
use umanycore::SystemSim;

struct Check {
    name: &'static str,
    paper: f64,
    measured: f64,
    lo: f64,
    hi: f64,
}

impl Check {
    fn passed(&self) -> bool {
        (self.lo..=self.hi).contains(&self.measured)
    }
}

fn main() {
    let scale = scale_from_env();
    banner(
        "Validation",
        "Headline claims vs the paper's published numbers (bands are generous:\n\
         this is a shape reproduction, not a cycle-accurate replay).",
    );
    let mut checks: Vec<Check> = Vec::new();

    // Power/area anchors (§5, §6.8) — cheap and exact.
    let um = MachineConfig::umanycore();
    let sc40 = MachineConfig::server_class_iso_power();
    let sc128 = MachineConfig::server_class_iso_area();
    checks.push(Check {
        name: "uManycore area (mm2)",
        paper: 547.2,
        measured: um.area_mm2(),
        lo: 520.0,
        hi: 575.0,
    });
    checks.push(Check {
        name: "area ratio vs ServerClass-40",
        paper: 3.1,
        measured: um.area_mm2() / sc40.area_mm2(),
        lo: 2.8,
        hi: 3.4,
    });
    checks.push(Check {
        name: "iso-area power ratio (SC-128 / uM)",
        paper: 3.2,
        measured: sc128.power_watts() / um.power_watts(),
        lo: 2.9,
        hi: 3.5,
    });

    // Figure 1 (calibrated model).
    let fig1 = motivation::fig1_rows();
    checks.push(Check {
        name: "Fig1 D-prefetcher monolith speedup",
        paper: 1.19,
        measured: fig1[0].mono_speedup,
        lo: 1.15,
        hi: 1.23,
    });
    checks.push(Check {
        name: "Fig1 D-prefetcher microservice speedup",
        paper: 1.02,
        measured: fig1[0].micro_speedup,
        lo: 1.0,
        hi: 1.05,
    });

    // Alibaba marginals (Figs 2, 4, 5).
    checks.push(Check {
        name: "Fig2 median server RPS",
        paper: 500.0,
        measured: motivation::fig2_cdf(scale.seed, 50_000).inverse(0.5),
        lo: 440.0,
        hi: 560.0,
    });
    checks.push(Check {
        name: "Fig4 median CPU utilization",
        paper: 0.14,
        measured: motivation::fig4_cdf(scale.seed, 50_000).inverse(0.5),
        lo: 0.11,
        hi: 0.17,
    });
    checks.push(Check {
        name: "Fig5 median RPCs per request",
        paper: 4.2,
        measured: motivation::fig5_cdf(scale.seed, 50_000).inverse(0.5),
        lo: 3.0,
        hi: 5.5,
    });

    // End-to-end tails at 10K RPS (Figure 14 mid-load): the fig14
    // registry scenario with every app row cut to that load. Each row's
    // points are [ServerClass, ScaleOut, uManycore].
    let mut fig14 = registry::by_name("fig14").expect("registry scenario");
    scenario::apply_env(&mut fig14);
    if let ScenarioKind::Normalized(n) = &mut fig14.kind {
        for row in &mut n.rows {
            row.loads = vec![10_000.0];
        }
    }
    let points = fig14.expand().expect("registry scenarios are valid");
    let reports = parallel::map(points, |_, p| {
        SystemSim::new(p.as_node().expect("node point").clone()).run()
    });
    let grid: Vec<_> = reports.chunks_exact(3).collect();
    let vs_sc: Vec<f64> = grid
        .iter()
        .map(|row| row[0].latency.p99 / row[2].latency.p99)
        .collect();
    checks.push(Check {
        name: "Fig14 tail reduction vs ServerClass @10K",
        paper: 8.3,
        measured: geomean(&vs_sc),
        lo: 4.0,
        hi: 18.0,
    });
    let vs_so: Vec<f64> = grid
        .iter()
        .map(|row| row[1].latency.p99 / row[2].latency.p99)
        .collect();
    checks.push(Check {
        name: "Fig14 tail reduction vs ScaleOut @10K",
        paper: 6.5,
        measured: geomean(&vs_so),
        lo: 3.0,
        hi: 26.0,
    });

    // Figure 15 first stages.
    let ab = evaluation::fig15_row(um_workload::apps::SocialNetwork::SGRAPH, 15_000.0, scale);
    checks.push(Check {
        name: "Fig15 villages stage (SGraph)",
        paper: 1.1,
        measured: ab.reductions[0],
        lo: 0.8,
        hi: 2.5,
    });

    // Render.
    let mut failed = 0;
    println!(
        "{:44} {:>9} {:>10} {:>16}  verdict",
        "claim", "paper", "measured", "accepted band"
    );
    println!("{}", "-".repeat(92));
    for c in &checks {
        let verdict = if c.passed() { "PASS" } else { "FAIL" };
        if !c.passed() {
            failed += 1;
        }
        println!(
            "{:44} {:>9.2} {:>10.2} {:>7.2} ..{:>7.2}  {}",
            c.name, c.paper, c.measured, c.lo, c.hi, verdict
        );
    }
    println!();
    if failed == 0 {
        println!("all {} checks passed", checks.len());
    } else {
        println!("{failed} of {} checks FAILED", checks.len());
        std::process::exit(1);
    }
}
