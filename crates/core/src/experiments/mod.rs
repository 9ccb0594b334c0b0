//! Experiment drivers for the paper figures/tables that are not yet
//! scenario-registry entries, plus the deterministic sweep runner
//! ([`parallel`]) every experiment uses.
//!
//! Each driver returns plain data rows; the `um-bench` binaries render
//! them as tables, and the integration tests assert the paper's *shapes*
//! (who wins, by roughly what factor, where crossovers fall) on reduced
//! scales. The §6 machine comparisons (Figures 14, 16, 17, 19 and 20)
//! are defined only by the scenario registry's JSON documents
//! (`crates/bench/registry/`, embedded by `um_bench::scenario::registry`)
//! and run with `um-sweep <name>`.

pub mod cluster;
pub mod evaluation;
pub mod motivation;
pub mod parallel;
pub mod resilience;

use crate::report::RunReport;
use crate::system::{SimConfig, SystemSim};
use crate::workload::Workload;
use um_arch::MachineConfig;

/// Simulation scale shared across experiment drivers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Arrival horizon per run, microseconds.
    pub horizon_us: f64,
    /// Warm-up cut-off, microseconds.
    pub warmup_us: f64,
    /// Servers per cluster.
    pub servers: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Scale {
    /// The figure-quality scale used by the bench binaries: 0.2 s of
    /// arrivals (thousands of requests per run).
    fn default() -> Self {
        Self {
            horizon_us: 200_000.0,
            warmup_us: 20_000.0,
            servers: 1,
            seed: 42,
        }
    }
}

impl Scale {
    /// A fast scale for unit/integration tests (tens of milliseconds).
    pub fn quick() -> Self {
        Self {
            horizon_us: 30_000.0,
            warmup_us: 3_000.0,
            servers: 1,
            seed: 42,
        }
    }
}

/// Runs one machine/workload/load combination at the given scale.
pub fn run_machine(
    machine: MachineConfig,
    workload: Workload,
    rps_per_server: f64,
    scale: Scale,
) -> RunReport {
    SystemSim::new(SimConfig {
        machine,
        workload,
        rps_per_server,
        servers: scale.servers,
        horizon_us: scale.horizon_us,
        warmup_us: scale.warmup_us,
        seed: scale.seed,
        ..SimConfig::default()
    })
    .run()
}
