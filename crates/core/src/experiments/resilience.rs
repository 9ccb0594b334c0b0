//! Resilience experiment drivers: fault injection and tail mitigation.
//!
//! Two sweeps, one per `um-bench` binary (the third resilience figure,
//! tail vs message-loss rate, is the `fault_tail` registry scenario):
//!
//! - [`hedging_ablation`]: p99 with and without request hedging while one
//!   core in every village runs fail-slow — the paper's straggler
//!   scenario, and this repo's acceptance gate for the mitigation layer.
//! - [`degradation_sweep`]: throughput and tail under an increasing count
//!   of fail-stopped cores — graceful degradation.
//!
//! Every point is a fully-specified [`SimConfig`] whose seed and fault
//! plan derive from the sweep's master seed, so results are bit-identical
//! at any `UM_THREADS`.

use um_sched::{HedgeConfig, MitigationConfig};
use um_sim::fault::{FaultPlan, FaultWindow};
use um_sim::{rng, Cycles};

use super::{parallel, Scale};
use crate::report::RunReport;
use crate::system::SimConfig;
use crate::workload::Workload;
use um_arch::MachineConfig;

/// Offered load for the resilience sweeps, requests/s per server. Kept at
/// moderate utilization so latency shifts are attributable to the faults,
/// not to saturation.
pub const RESILIENCE_RPS: f64 = 8_000.0;

/// Fail-slow slowdown factors swept by [`hedging_ablation`].
pub const SLOWDOWNS: [f64; 4] = [2.0, 4.0, 6.0, 8.0];

/// Fail-stop counts swept by [`degradation_sweep`].
pub const FAIL_STOP_COUNTS: [usize; 5] = [0, 32, 64, 128, 256];

fn base_config(scale: Scale, seed: u64) -> SimConfig {
    SimConfig {
        machine: MachineConfig::umanycore(),
        workload: Workload::social_mix(),
        rps_per_server: RESILIENCE_RPS,
        servers: scale.servers,
        horizon_us: scale.horizon_us,
        warmup_us: scale.warmup_us,
        seed,
        ..SimConfig::default()
    }
}

fn horizon_cycles(scale: Scale) -> Cycles {
    Cycles::from_micros(scale.horizon_us, MachineConfig::umanycore().core.frequency)
}

/// One straggler-severity point: fail-slow everywhere, hedging on vs off.
#[derive(Clone, Debug)]
pub struct HedgingRow {
    /// Service-time multiplier of the slow core in every village.
    pub slowdown: f64,
    /// Stragglers, no mitigation.
    pub degraded: RunReport,
    /// Stragglers, hedged (backup request after the p95-equivalent delay).
    pub hedged: RunReport,
}

/// The hedging ablation: one fail-slow core per village for the whole
/// run, at increasing severities. Returns the healthy reference run and
/// one row per slowdown.
pub fn hedging_ablation(scale: Scale) -> (RunReport, Vec<HedgingRow>) {
    let villages = MachineConfig::umanycore().shape.total_villages();
    let window = |slowdown| FaultWindow::new(Cycles::ZERO, horizon_cycles(scale), slowdown);
    let hedge = MitigationConfig {
        hedge: Some(HedgeConfig::after_quantile(0.9, 150.0)),
        ..MitigationConfig::default()
    };

    let mut configs = vec![base_config(scale, rng::derive_seed(scale.seed, 1_000))];
    for (i, &slowdown) in SLOWDOWNS.iter().enumerate() {
        let seed = rng::derive_seed(scale.seed, 1_001 + i as u64);
        let plan = FaultPlan::builder(seed)
            .fail_slow_every_village(scale.servers, villages, 1, window(slowdown))
            .build();
        for mitigation in [MitigationConfig::default(), hedge] {
            configs.push(SimConfig {
                fault_plan: plan.clone(),
                mitigation,
                ..base_config(scale, seed)
            });
        }
    }
    let mut reports = parallel::run_reports(configs);
    let healthy = reports.remove(0);
    let rows = SLOWDOWNS
        .iter()
        .zip(reports.chunks_exact(2))
        .map(|(&slowdown, pair)| HedgingRow {
            slowdown,
            degraded: pair[0].clone(),
            hedged: pair[1].clone(),
        })
        .collect();
    (healthy, rows)
}

/// One degradation point: `fail_stops` random core failures.
#[derive(Clone, Debug)]
pub struct DegradationRow {
    /// Fail-stop events planned (some may be masked by the one-core-
    /// per-village liveness floor).
    pub fail_stops: usize,
    /// The run, with straggler-aware steering routing around the damage.
    pub report: RunReport,
}

/// Graceful degradation: random fail-stops at seeded times through the
/// run, with steering enabled. Tail and throughput should bend, not
/// break, as capacity shrinks.
pub fn degradation_sweep(scale: Scale) -> Vec<DegradationRow> {
    let villages = MachineConfig::umanycore().shape.total_villages();
    let configs: Vec<SimConfig> = FAIL_STOP_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let seed = rng::derive_seed(scale.seed, 2_000 + i as u64);
            let plan = if count > 0 {
                FaultPlan::builder(seed)
                    .random_fail_stops(count, scale.servers, villages, horizon_cycles(scale))
                    .build()
            } else {
                FaultPlan::none()
            };
            SimConfig {
                fault_plan: plan,
                mitigation: MitigationConfig {
                    steer: true,
                    ..MitigationConfig::default()
                },
                ..base_config(scale, seed)
            }
        })
        .collect();
    FAIL_STOP_COUNTS
        .iter()
        .zip(parallel::run_reports(configs))
        .map(|(&fail_stops, report)| DegradationRow { fail_stops, report })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_scale() -> Scale {
        Scale {
            horizon_us: 15_000.0,
            warmup_us: 1_500.0,
            servers: 1,
            seed: 42,
        }
    }

    #[test]
    fn hedging_ablation_shapes() {
        // p99 over the quick scale's ~100 samples is too noisy to order
        // reliably; the tail comparison needs a few thousand.
        let scale = Scale {
            horizon_us: 60_000.0,
            warmup_us: 6_000.0,
            ..test_scale()
        };
        let (healthy, rows) = hedging_ablation(scale);
        assert_eq!(rows.len(), SLOWDOWNS.len());
        assert_eq!(healthy.faults.hedges, 0);
        for row in &rows {
            assert_eq!(row.degraded.faults.hedges, 0);
            assert!(row.hedged.faults.hedges > 0, "hedging engaged");
        }
        // At the worst severity, hedging recovers a measurable part of
        // the straggler-inflated tail (the ISSUE acceptance shape; the
        // committed results file shows the full-scale version).
        let worst = rows.last().expect("nonempty sweep");
        assert!(
            worst.hedged.latency.p99 < worst.degraded.latency.p99,
            "hedged p99 {} must beat degraded p99 {}",
            worst.hedged.latency.p99,
            worst.degraded.latency.p99
        );
    }

    #[test]
    fn degradation_sweep_shapes() {
        let rows = degradation_sweep(test_scale());
        assert_eq!(rows.len(), FAIL_STOP_COUNTS.len());
        assert_eq!(rows[0].report.faults.cores_failed, 0);
        let worst = rows.last().expect("nonempty sweep");
        assert!(worst.report.faults.cores_failed > 0);
        // Losing a quarter of the cores degrades service but the machine
        // keeps completing requests.
        assert!(worst.report.completed > 0);
        for row in &rows {
            assert!(row.report.conservation.exact());
        }
    }
}
