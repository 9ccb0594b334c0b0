//! End-to-end sanitizer runs: full system simulations with every runtime
//! checker compiled in must finish with a clean registry (the simulator
//! itself calls `assert_clean` at report time, so reaching the report at
//! all means no checker fired).
#![cfg(feature = "sim-sanitizer")]

use um_arch::MachineConfig;
use um_sched::{HedgeConfig, MitigationConfig, RetryConfig};
use um_sim::fault::{FaultPlan, FaultWindow};
use um_sim::sanitizer;
use um_sim::Cycles;
use umanycore::{RunReport, SimConfig, SystemSim, Workload};

fn run(seed: u64, machine: MachineConfig) -> RunReport {
    SystemSim::new(SimConfig {
        machine,
        workload: Workload::social_mix(),
        rps_per_server: 8_000.0,
        horizon_us: 25_000.0,
        warmup_us: 2_500.0,
        seed,
        ..SimConfig::default()
    })
    .run()
}

#[test]
fn full_runs_are_violation_free_on_every_machine() {
    for machine in [
        MachineConfig::umanycore(),
        MachineConfig::scaleout(),
        MachineConfig::server_class_iso_power(),
    ] {
        let r = run(7, machine);
        assert!(r.completed > 50, "run did work: {} completed", r.completed);
        assert_eq!(
            sanitizer::violation_count(),
            0,
            "registry empty after a checked run"
        );
    }
}

#[test]
fn faulted_mitigated_runs_are_violation_free() {
    // The fault-accounting checker (and every other checker) stays quiet
    // through the full resilience gauntlet: fail-stops, fail-slow
    // stragglers, link faults, message drops, hedging, retries, steering.
    let freq = MachineConfig::umanycore().core.frequency;
    let horizon = Cycles::from_micros(25_000.0, freq);
    let plan = FaultPlan::builder(21)
        .random_fail_stops(4, 1, 128, horizon)
        .fail_slow_every_village(1, 128, 1, FaultWindow::new(Cycles::ZERO, horizon, 5.0))
        .random_link_faults(3, 1, 16, horizon, Cycles::from_micros(500.0, freq), 4.0)
        .message_drops(0.02)
        .build();
    let r = SystemSim::new(SimConfig {
        machine: MachineConfig::umanycore(),
        workload: Workload::social_mix(),
        rps_per_server: 8_000.0,
        horizon_us: 25_000.0,
        warmup_us: 2_500.0,
        seed: 21,
        fault_plan: plan.clone(),
        mitigation: MitigationConfig {
            hedge: Some(HedgeConfig::after_quantile(0.95, 250.0)),
            retry: Some(RetryConfig::with_timeout_us(1_500.0)),
            steer: true,
        },
        ..SimConfig::default()
    })
    .run();
    assert!(r.completed > 50, "run did work: {} completed", r.completed);
    assert_eq!(
        r.faults.faults_applied + r.faults.faults_masked,
        plan.len() as u64,
        "every planned fault fired or was explicitly masked"
    );
    assert_eq!(sanitizer::violation_count(), 0);
}

#[test]
#[should_panic(expected = "fault-accounting")]
fn corrupted_fault_accounting_trips_the_checker() {
    // Deliberate-violation coverage: unbalance the applied/masked totals
    // and the fault-accounting checker must abort the run at report time.
    let mut sim = SystemSim::new(SimConfig {
        machine: MachineConfig::umanycore(),
        workload: Workload::social_mix(),
        rps_per_server: 5_000.0,
        horizon_us: 5_000.0,
        warmup_us: 500.0,
        seed: 3,
        ..SimConfig::default()
    });
    sim.corrupt_fault_accounting_for_sanitizer_test();
    let _ = sim.run();
}

#[test]
#[should_panic(expected = "request-conservation")]
fn leaked_request_reference_trips_the_checker() {
    // Deliberate-violation coverage: a reference that is never dropped
    // keeps a finished request's slot off the free list, and the
    // request-conservation checker must abort the run at report time.
    let mut sim = SystemSim::new(SimConfig {
        machine: MachineConfig::umanycore(),
        workload: Workload::social_mix(),
        rps_per_server: 5_000.0,
        horizon_us: 5_000.0,
        warmup_us: 500.0,
        seed: 3,
        ..SimConfig::default()
    });
    // The first event is the first client arrival: one request in flight.
    assert!(sim.step(), "the run has arrivals");
    sim.leak_request_ref_for_sanitizer_test();
    let _ = sim.run();
}

#[test]
fn checked_run_matches_unchecked_semantics() {
    // The checkers observe, never steer: two sanitized runs of the same
    // seed must still be bit-identical (the cross-feature comparison is
    // done by the results/ regeneration diff in CI).
    let a = run(99, MachineConfig::umanycore());
    let b = run(99, MachineConfig::umanycore());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
}
