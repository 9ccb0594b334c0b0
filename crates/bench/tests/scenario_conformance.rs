//! Tests for the declarative scenario layer: the sweep runner must render
//! byte-identical text at any `UM_THREADS`, the registry scenarios must
//! keep their shapes at reduced scale, and unsafe or malformed requests
//! must be refused before anything simulates.
//!
//! The registry's JSON documents are the only definition of its
//! figures; CI byte-diffs a full-scale `um-sweep <name>` regeneration of
//! each one against the committed `results/` file. Thread-identity runs
//! use reduced horizons so the suite stays fast in debug builds; the
//! determinism property being pinned does not depend on scale.

use um_bench::scenario::{self, registry, Scenario, ScenarioKind};
use umanycore::experiments::cluster::ClusterScale;
use umanycore::experiments::Scale;
use umanycore::{ClusterSim, SystemSim};

fn named(name: &str) -> Scenario {
    registry::by_name(name).unwrap_or_else(|| panic!("no registry scenario {name}"))
}

/// Applies `UM_SCALE=quick` semantics without touching the environment
/// (tests run in parallel; env mutation would race).
fn quick(mut s: Scenario) -> Scenario {
    scenario::apply_scale_values(&mut s, Some("quick"), None);
    s
}

// -----------------------------------------------------------------
// Thread identity: byte-identical text at UM_THREADS ∈ {1, 4}
// -----------------------------------------------------------------

fn assert_thread_identical(s: &Scenario) {
    let one = scenario::run_with_threads(s, 1).expect("scenario is valid");
    let four = scenario::run_with_threads(s, 4).expect("scenario is valid");
    assert_eq!(
        one.text, four.text,
        "{}: text differs across UM_THREADS",
        s.name
    );
    assert_eq!(
        one.points, four.points,
        "{}: benchjson points differ across UM_THREADS",
        s.name
    );
}

/// Shrinks a scenario's horizons so debug-profile runs stay fast.
fn tiny(mut s: Scenario, horizon_us: f64) -> Scenario {
    s.scale.horizon_us = horizon_us;
    s.scale.warmup_us = horizon_us / 10.0;
    s
}

#[test]
fn fig7_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(named("fig7"), 5_000.0);
    if let ScenarioKind::Fig7 { loads } = &mut s.kind {
        loads.truncate(2);
    }
    assert_thread_identical(&s);
}

#[test]
fn breakdown_text_is_bit_identical_across_thread_counts() {
    assert_thread_identical(&tiny(named("breakdown"), 5_000.0));
}

#[test]
fn fault_tail_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(named("fault_tail"), 5_000.0);
    if let ScenarioKind::FaultTail { drop_rates, .. } = &mut s.kind {
        *drop_rates = vec![0.0, 0.02];
    }
    assert_thread_identical(&s);
}

#[test]
fn cluster_tail_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(named("cluster_tail"), 2_000.0);
    if let ScenarioKind::ClusterTail { loads } = &mut s.kind {
        *loads = vec![60_000.0];
    }
    s.cluster.as_mut().expect("cluster scenario").nodes = 4;
    assert_thread_identical(&s);
}

#[test]
fn cluster10_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(named("cluster10"), 5_000.0);
    if let ScenarioKind::MachineCompare { loads, .. } = &mut s.kind {
        loads.truncate(1);
    }
    assert_thread_identical(&s);
}

#[test]
fn autoscale_text_is_bit_identical_across_thread_counts() {
    // horizon_factor 5 stretches this to 10 ms of bursty arrivals.
    assert_thread_identical(&tiny(named("autoscale"), 2_000.0));
}

#[test]
fn ablation_srpt_text_is_bit_identical_across_thread_counts() {
    let mut s = tiny(named("ablation_srpt"), 3_000.0);
    if let ScenarioKind::SrptAblation { workloads } = &mut s.kind {
        for w in workloads {
            w.loads.truncate(1);
        }
    }
    assert_thread_identical(&s);
}

#[test]
fn normalized_figures_are_bit_identical_across_thread_counts() {
    for s in [
        named("fig14"),
        named("fig16"),
        named("fig17"),
        named("fig19"),
        named("fig20"),
    ] {
        let mut s = tiny(s, 4_000.0);
        if let ScenarioKind::Normalized(n) = &mut s.kind {
            // Every third row: three apps, or fig20's three
            // distributions at 5K RPS; two loads keep fig14/16's
            // per-load sections.
            n.rows = n.rows.iter().step_by(3).cloned().collect();
            for row in &mut n.rows {
                row.loads.truncate(2);
            }
        }
        assert_thread_identical(&s);
    }
}

#[test]
fn sweep_grid_is_bit_identical_across_thread_counts() {
    let mut s = tiny(named("sweep_default"), 4_000.0);
    if let ScenarioKind::Grid(g) = &mut s.kind {
        g.loads = vec![2_000.0, 8_000.0];
        g.seeds = vec![42];
    }
    assert_thread_identical(&s);
}

// -----------------------------------------------------------------
// Shapes at reduced scale
// -----------------------------------------------------------------

#[test]
fn fault_tail_points_fault_and_retry_where_expected() {
    let mut s = named("fault_tail");
    s.scale.horizon_us = 15_000.0;
    s.scale.warmup_us = 1_500.0;
    let points = s.expand().expect("registry scenarios are valid");
    let drop_rates = match &s.kind {
        ScenarioKind::FaultTail { drop_rates, .. } => drop_rates.len(),
        other => panic!("fault_tail registry scenario has kind {other:?}"),
    };
    assert_eq!(points.len(), 2 * drop_rates, "one pair per drop rate");
    let reports: Vec<_> = points
        .iter()
        .map(|p| SystemSim::new(p.as_node().expect("node point").clone()).run())
        .collect();
    // Each pair is (unmitigated, retried). The zero-loss pair is
    // fault-free in both columns.
    assert_eq!(reports[0].faults.drops, 0);
    assert_eq!(reports[1].faults.retries, 0);
    // The heaviest-loss pair drops messages and the retried column
    // actually retries.
    let worst = &reports[reports.len() - 2..];
    assert!(worst[0].faults.drops > 0);
    assert!(worst[1].faults.retries > 0);
    for r in &reports {
        assert!(r.conservation.exact());
    }
}

#[test]
fn quick_cluster_tail_covers_the_policy_grid() {
    let mut s = quick(named("cluster_tail"));
    s.scale.horizon_us = 4_000.0;
    s.scale.warmup_us = 400.0;
    if let ScenarioKind::ClusterTail { loads } = &mut s.kind {
        *loads = vec![10_000.0];
    }
    let c = s.cluster.as_mut().expect("cluster scenario");
    c.nodes = 3;
    let policies: Vec<String> = c.routing.iter().map(|r| r.name.clone()).collect();
    let points = s.expand().expect("registry scenarios are valid");
    assert_eq!(points.len(), policies.len(), "one row per policy");
    for (p, policy) in points.iter().zip(&policies) {
        let report = ClusterSim::new(p.as_cluster().expect("cluster point").clone()).run();
        assert!(report.recorded > 0, "{policy}");
        assert!(report.conservation.exact(), "{policy}");
    }
}

// -----------------------------------------------------------------
// Captions state the scenario's own numbers
// -----------------------------------------------------------------

fn text_of(s: &Scenario) -> String {
    scenario::run_with_threads(s, 1)
        .expect("scenario is valid")
        .text
}

#[test]
fn fault_tail_caption_states_the_offered_load() {
    let mut s = tiny(named("fault_tail"), 2_000.0);
    if let ScenarioKind::FaultTail {
        rps, drop_rates, ..
    } = &mut s.kind
    {
        *rps = 6_500.0;
        *drop_rates = vec![0.0];
    }
    let text = text_of(&s);
    assert!(text.contains("SocialNetwork mix at 6.5K RPS,"), "{text}");
}

#[test]
fn breakdown_caption_states_the_offered_load() {
    let mut s = tiny(named("breakdown"), 2_000.0);
    if let ScenarioKind::Breakdown { rps, machines } = &mut s.kind {
        *rps = 5_000.0;
        machines.truncate(1);
    }
    let text = text_of(&s);
    assert!(text.contains("merged in) at 5K RPS\n"), "{text}");
}

#[test]
fn autoscale_caption_states_the_rq_depth() {
    let mut s = tiny(named("autoscale"), 1_000.0);
    s.machine.rq_capacity = Some(16);
    if let ScenarioKind::Autoscale { configs, .. } = &mut s.kind {
        configs.truncate(1);
    }
    let text = text_of(&s);
    assert!(text.contains("small 16-entry RQs"), "{text}");
}

#[test]
fn cluster_tail_caption_states_the_package_slice() {
    let mut s = tiny(named("cluster_tail"), 1_000.0);
    s.machine.shape = Some([4, 2, 2]);
    if let ScenarioKind::ClusterTail { loads } = &mut s.kind {
        *loads = vec![10_000.0];
    }
    let c = s.cluster.as_mut().expect("cluster scenario");
    c.nodes = 2;
    c.routing.truncate(1);
    let text = text_of(&s);
    assert!(
        text.contains("2 uManycore package slices (4-core villages, 16 cores each)"),
        "{text}"
    );
}

// -----------------------------------------------------------------
// Regression: the cluster RQ-deadlock guard refuses shallow racks
// -----------------------------------------------------------------

/// A rack of default-depth (64-entry) RQs with admission control
/// disabled can deadlock: every RQ fills with requests whose handlers
/// are blocked on downstream RPCs that need the same RQ slots. The
/// workaround (DESIGN.md, "Cluster layer") is deep RQs or an admission
/// cap with `2 * cap <= rq_capacity`; `Scenario::validate` must refuse
/// the configuration rather than let the sim wedge.
#[test]
fn shallow_rq_cluster_without_admission_cap_is_refused() {
    let mut s = named("cluster_tail");
    s.machine.rq_capacity = None; // default 64-entry RQs
    let err = s
        .validate()
        .expect_err("shallow uncapped rack must be refused");
    for needle in [
        "max_in_flight",
        "rq_capacity",
        "DESIGN.md, \"Cluster layer\"",
    ] {
        assert!(err.contains(needle), "error {err:?} missing {needle:?}");
    }

    // The documented workaround passes: cap with 2 * cap <= rq.
    s.cluster.as_mut().expect("cluster scenario").max_in_flight = Some(32);
    s.validate()
        .expect("capped shallow rack is the documented workaround");

    // One past the pigeonhole bound is refused again.
    s.cluster.as_mut().expect("cluster scenario").max_in_flight = Some(33);
    s.validate().expect_err("cap above rq/2 must be refused");
}

/// `--json`/`--csv` write grid points; a non-grid scenario has none, so
/// um-sweep must refuse the flag before it simulates anything.
#[test]
fn um_sweep_refuses_point_output_for_non_grid_scenarios() {
    for flag in ["--json", "--csv"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_um-sweep"))
            .args(["fig7", flag, "no-such-dir/points"])
            .env("UM_SCALE", "quick")
            .output()
            .expect("um-sweep starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(out.stdout.is_empty(), "{flag}: simulated before refusing");
        assert!(err.contains("need a grid scenario"), "{flag}: {err}");
    }
}

/// An unreadable or invalid `--scenario` document is a usage error: the
/// message (with the offending field's path) goes to stderr and the exit
/// status is 2, with no panic and nothing simulated.
#[test]
fn um_sweep_reports_bad_scenario_files_without_panicking() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let invalid = dir.join("um_sweep_missing_kind.json");
    std::fs::write(&invalid, r#"{"name":"x"}"#).expect("write scenario document");
    let duplicate = dir.join("um_sweep_duplicate_name.json");
    let text = named("fig7").to_json_text();
    let twice = text.replacen("\"name\"", "\"name\": \"first\", \"name\"", 1);
    std::fs::write(&duplicate, twice).expect("write scenario document");
    let missing = dir.join("um_sweep_no_such_scenario.json");
    let _ = std::fs::remove_file(&missing);
    for (path, needle) in [
        (invalid, "scenario: missing field `kind`"),
        (duplicate, "scenario: duplicate field `name`"),
        (missing, "cannot read"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_um-sweep"))
            .arg("--scenario")
            .arg(&path)
            .output()
            .expect("um-sweep starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: {err}", path.display());
        assert!(err.contains(needle), "{}: {err}", path.display());
        assert!(!err.contains("panicked"), "{}: {err}", path.display());
        assert!(out.stdout.is_empty(), "{}: simulated", path.display());
    }
}

// -----------------------------------------------------------------
// Registry hygiene
// -----------------------------------------------------------------

#[test]
fn every_registry_scenario_expands_and_round_trips() {
    for s in registry::all() {
        let points = s.expand().expect("registry scenarios are valid");
        assert!(!points.is_empty(), "{}: empty expansion", s.name);
        let text = s.to_json_text();
        let back = Scenario::from_json_text(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", s.name));
        assert_eq!(back, s, "{}: JSON round-trip changed the scenario", s.name);
        assert_eq!(
            back.to_json_text(),
            text,
            "{}: serialization not byte-stable",
            s.name
        );
    }
}

#[test]
fn quick_scale_matches_the_experiment_layer_values() {
    let s = quick(named("fig7"));
    assert_eq!(s.scale, Scale::quick());
    let c = quick(named("cluster_tail"));
    let q = ClusterScale::quick();
    assert_eq!(c.scale.horizon_us, q.horizon_us);
    assert_eq!(c.scale.warmup_us, q.warmup_us);
    assert_eq!(c.cluster.expect("cluster scenario").nodes, q.nodes);
    match &c.kind {
        ScenarioKind::ClusterTail { loads } => assert_eq!(*loads, q.loads),
        other => panic!("cluster_tail registry scenario has kind {other:?}"),
    }
}
