//! Property tests for the scenario JSON codec: a randomized valid
//! [`Scenario`] must serialize → parse → serialize byte-stably, and
//! malformed documents (unknown fields, out-of-range knobs) must come
//! back as field-path errors, never panics.
//!
//! Every strategy below generates scenarios that are valid by
//! construction (validation invariants are encoded in the generators),
//! so a round-trip failure is a codec bug, not a rejected input.

use proptest::prelude::*;
use um_arch::config::IcnKind;
use um_bench::scenario::{
    BaselineUnit, ClusterSpec, GridSpec, JitterSpec, MachineBase, MachineSpec, Metric,
    NamedMachine, NamedPolicy, NamedRouting, NamedWorkload, NormalizedSpec, Scenario, ScenarioKind,
    WorkloadSpec,
};
use um_sched::{HedgeConfig, MitigationConfig, RetryConfig};
use um_sim::fault::FaultRecipe;
use um_workload::apps::SocialNetwork;
use umanycore::experiments::Scale;
use umanycore::RoutingPolicy;

// -----------------------------------------------------------------
// Generators
// -----------------------------------------------------------------

fn name_strategy() -> impl Strategy<Value = String> {
    (0u64..(1 << 32)).prop_map(|n| format!("s{n:x}"))
}

/// Positive finite times/rates, mixing fractional values with exact
/// integers so both `benchjson` number renderings are exercised.
fn pos_f64() -> impl Strategy<Value = f64> {
    prop_oneof![0.001f64..1.0e6, (1u32..1_000_000u32).prop_map(f64::from),]
}

fn seed_strategy() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn scale_strategy() -> impl Strategy<Value = Scale> {
    (pos_f64(), 0.0f64..0.99, 1usize..4, seed_strategy()).prop_map(
        |(horizon_us, warmup_frac, servers, seed)| Scale {
            horizon_us,
            warmup_us: horizon_us * warmup_frac,
            servers,
            seed,
        },
    )
}

fn icn_strategy() -> impl Strategy<Value = IcnKind> {
    prop_oneof![
        Just(IcnKind::Mesh),
        Just(IcnKind::FatTree),
        Just(IcnKind::LeafSpine),
    ]
}

fn machine_strategy() -> impl Strategy<Value = MachineSpec> {
    let base = prop_oneof![
        Just(MachineBase::Umanycore),
        Just(MachineBase::Scaleout),
        Just(MachineBase::ServerClassIsoPower),
        Just(MachineBase::ServerClassIsoArea),
    ];
    (
        base,
        proptest::option::of([1usize..8, 1usize..8, 1usize..8]),
        proptest::option::of(1usize..4096),
        proptest::option::of(0u64..20_000),
        proptest::option::of(icn_strategy()),
    )
        .prop_map(
            |(base, shape, rq_capacity, ctx_switch_cycles, icn)| MachineSpec {
                base,
                // Shape overrides are only valid on the uManycore base.
                shape: if base == MachineBase::Umanycore {
                    shape
                } else {
                    None
                },
                rq_capacity,
                ctx_switch_cycles,
                icn,
            },
        )
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        Just(WorkloadSpec::SocialMix),
        Just(WorkloadSpec::TrainMix),
        (0..SocialNetwork::ALL.len()).prop_map(|i| WorkloadSpec::SocialApp(SocialNetwork::ALL[i])),
        Just(WorkloadSpec::SyntheticExp),
        Just(WorkloadSpec::SyntheticBimodal),
        (0.1f64..100.0, 0.1f64..10.0, 0u32..4, 0u32..4).prop_map(|(mean_us, scv, a, b)| {
            WorkloadSpec::Synthetic {
                mean_us,
                scv,
                min_rpcs: a.min(b),
                max_rpcs: a.max(b),
            }
        }),
    ]
}

fn retry_strategy() -> impl Strategy<Value = RetryConfig> {
    (0.1f64..100_000.0, 1.0f64..4.0, 1u32..10, 0.0f64..1.0).prop_map(
        |(timeout_us, backoff, max_attempts, budget_fraction)| RetryConfig {
            timeout_us,
            backoff,
            max_attempts,
            budget_fraction,
        },
    )
}

fn mitigation_strategy() -> impl Strategy<Value = MitigationConfig> {
    (
        proptest::option::of(0.0f64..10_000.0),
        proptest::option::of(retry_strategy()),
        proptest::bool::ANY,
    )
        .prop_map(|(hedge_delay_us, retry, steer)| MitigationConfig {
            hedge: hedge_delay_us.map(|delay_us| HedgeConfig { delay_us }),
            retry,
            steer,
        })
}

fn fault_strategy() -> impl Strategy<Value = FaultRecipe> {
    prop_oneof![
        (0.0f64..0.99).prop_map(|probability| FaultRecipe::MessageDrops { probability }),
        (0usize..4, 0usize..32, 0u64..1_000_000).prop_map(|(server, village, at_cycles)| {
            FaultRecipe::CoreFailStop {
                server,
                village,
                at_cycles,
            }
        }),
        (
            0usize..4,
            0usize..32,
            1u32..8,
            0u64..1_000_000,
            1u64..1_000_000,
            1.0f64..20.0
        )
            .prop_map(
                |(server, village, cores, from_cycles, duration, slowdown)| {
                    FaultRecipe::CoreFailSlow {
                        server,
                        village,
                        cores,
                        from_cycles,
                        until_cycles: from_cycles + duration,
                        slowdown,
                    }
                }
            ),
    ]
}

fn loads_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(pos_f64(), 1..4)
}

fn routing_strategy() -> impl Strategy<Value = NamedRouting> {
    let policy = prop_oneof![
        Just(RoutingPolicy::Random),
        Just(RoutingPolicy::RoundRobin),
        (1usize..8).prop_map(|d| RoutingPolicy::JsqD { d }),
        Just(RoutingPolicy::CentralQueue),
    ];
    (name_strategy(), policy).prop_map(|(name, policy)| NamedRouting { name, policy })
}

/// Deep-RQ cluster spec: `rq_capacity >= 512` on the machine (see the
/// deadlock guard in `Scenario::validate`) keeps every generated
/// cluster scenario admissible without an admission cap.
fn cluster_strategy() -> impl Strategy<Value = ClusterSpec> {
    (
        1usize..8,
        proptest::collection::vec(routing_strategy(), 1..3),
        proptest::option::of((0.1f64..10.0, 0.1f64..10.0)),
        proptest::bool::ANY,
    )
        .prop_map(|(nodes, routing, jitter, steer)| ClusterSpec {
            nodes,
            routing,
            max_in_flight: None,
            jitter: jitter.map(|(mean_us, scv)| JitterSpec { mean_us, scv }),
            steer,
        })
}

fn policy_axis_strategy() -> impl Strategy<Value = Vec<NamedPolicy>> {
    proptest::collection::vec(
        (name_strategy(), mitigation_strategy())
            .prop_map(|(name, mitigation)| NamedPolicy { name, mitigation }),
        1..3,
    )
}

fn named_machines_strategy(min: usize) -> impl Strategy<Value = Vec<NamedMachine>> {
    proptest::collection::vec(
        (name_strategy(), machine_strategy())
            .prop_map(|(name, machine)| NamedMachine { name, machine }),
        min..min + 2,
    )
}

/// Normalized comparisons: every row sweeps the same loads, so any
/// metric may split the table into per-load sections. The text fields
/// carry a newline and quotes through the string codec.
fn normalized_strategy() -> impl Strategy<Value = ScenarioKind> {
    (
        name_strategy(),
        prop_oneof![
            Just(Metric::P99),
            Just(Metric::Mean),
            Just(Metric::TailToAvg)
        ],
        proptest::option::of(prop_oneof![
            Just(BaselineUnit::Ms),
            Just(BaselineUnit::Us),
            Just(BaselineUnit::Abs)
        ]),
        loads_strategy(),
        proptest::collection::vec((name_strategy(), workload_strategy()), 1..4),
        named_machines_strategy(2),
    )
        .prop_map(|(title, metric, baseline_unit, loads, rows, machines)| {
            ScenarioKind::Normalized(NormalizedSpec {
                caption: format!("{title} \"caption\"\nsecond line"),
                row_header: "row".to_string(),
                paper: format!("{title}: 2.7x and 2.3x"),
                title,
                metric,
                baseline_unit,
                rows: rows
                    .into_iter()
                    .map(|(name, workload)| NamedWorkload {
                        name,
                        workload,
                        loads: loads.clone(),
                    })
                    .collect(),
                machines,
            })
        })
}

fn node_kind_strategy() -> impl Strategy<Value = ScenarioKind> {
    prop_oneof![
        loads_strategy().prop_map(|loads| ScenarioKind::Fig7 { loads }),
        (pos_f64(), named_machines_strategy(1))
            .prop_map(|(rps, machines)| ScenarioKind::Breakdown { rps, machines }),
        normalized_strategy(),
        (
            loads_strategy(),
            proptest::collection::vec(seed_strategy(), 1..3),
            policy_axis_strategy()
        )
            .prop_map(|(loads, seeds, policies)| {
                ScenarioKind::Grid(GridSpec {
                    loads,
                    seeds,
                    nodes: vec![],
                    policies,
                })
            }),
    ]
}

/// Single-node scenarios: no cluster spec, any kind that runs per-node
/// points.
fn node_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        name_strategy(),
        machine_strategy(),
        workload_strategy(),
        scale_strategy(),
        proptest::collection::vec(fault_strategy(), 0..3),
        mitigation_strategy(),
        node_kind_strategy(),
    )
        .prop_map(
            |(name, machine, workload, scale, faults, mitigation, kind)| Scenario {
                name,
                machine,
                workload,
                scale,
                faults,
                mitigation,
                cluster: None,
                kind,
            },
        )
}

/// Fault-tail scenarios sweep their own drop plan, so `faults` must be
/// empty.
fn fault_tail_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        name_strategy(),
        machine_strategy(),
        workload_strategy(),
        scale_strategy(),
        mitigation_strategy(),
        (
            pos_f64(),
            proptest::collection::vec(0.0f64..0.99, 1..4),
            0.1f64..100_000.0,
        ),
    )
        .prop_map(
            |(name, machine, workload, scale, mitigation, (rps, drop_rates, retry_timeout_us))| {
                Scenario {
                    name,
                    machine,
                    workload,
                    scale,
                    faults: vec![],
                    mitigation,
                    cluster: None,
                    kind: ScenarioKind::FaultTail {
                        rps,
                        drop_rates,
                        retry_timeout_us,
                    },
                }
            },
        )
}

/// Cluster scenarios: deep RQ forced on the machine so the deadlock
/// guard admits them.
fn cluster_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        name_strategy(),
        machine_strategy(),
        workload_strategy(),
        scale_strategy(),
        mitigation_strategy(),
        cluster_strategy(),
        512usize..2048,
        prop_oneof![
            loads_strategy().prop_map(|loads| (loads, None)),
            (
                loads_strategy(),
                proptest::collection::vec(seed_strategy(), 1..3),
                proptest::collection::vec(1usize..6, 1..3),
                policy_axis_strategy()
            )
                .prop_map(|(loads, seeds, nodes, policies)| {
                    (
                        loads.clone(),
                        Some(GridSpec {
                            loads,
                            seeds,
                            nodes,
                            policies,
                        }),
                    )
                }),
        ],
    )
        .prop_map(
            |(name, mut machine, workload, scale, mitigation, cluster, rq, (loads, grid))| {
                machine.rq_capacity = Some(rq);
                Scenario {
                    name,
                    machine,
                    workload,
                    scale,
                    faults: vec![],
                    mitigation,
                    cluster: Some(cluster),
                    kind: match grid {
                        Some(g) => ScenarioKind::Grid(g),
                        None => ScenarioKind::ClusterTail { loads },
                    },
                }
            },
        )
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        3 => node_scenario_strategy(),
        1 => fault_tail_scenario_strategy(),
        2 => cluster_scenario_strategy(),
    ]
}

// -----------------------------------------------------------------
// Properties
// -----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Generated scenarios are valid by construction; if this fires the
    /// generator and the validator disagree about an invariant.
    #[test]
    fn generated_scenarios_validate(s in scenario_strategy()) {
        prop_assert!(s.validate().is_ok(), "{}: {:?}", s.name, s.validate());
    }

    /// serialize → parse → serialize is byte-stable, and the parsed
    /// value is structurally identical to the original.
    #[test]
    fn round_trip_is_byte_stable(s in scenario_strategy()) {
        let text = s.to_json_text();
        let back = Scenario::from_json_text(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(&back, &s, "round-trip changed the scenario");
        prop_assert_eq!(back.to_json_text(), text, "serialization not byte-stable");
    }

    /// An unknown field anywhere in the top-level object is rejected
    /// with an error naming the field — never a panic, never silently
    /// ignored.
    #[test]
    fn unknown_top_level_fields_are_rejected(
        s in scenario_strategy(),
        field in (0u64..(1 << 32)).prop_map(|n| format!("f{n:x}")),
    ) {
        let text = s.to_json_text();
        // The canonical rendering opens with `{\n`; splice a field the
        // schema has never heard of right after it. Prefix it so it can
        // never collide with a real key.
        let bogus = format!("zz_{field}");
        let broken = text.replacen('{', &format!("{{\n  \"{bogus}\": 1,"), 1);
        match Scenario::from_json_text(&broken) {
            Ok(_) => return Err(TestCaseError::fail("unknown field accepted")),
            Err(e) => prop_assert!(
                e.contains(&bogus),
                "error {e:?} does not name the unknown field {bogus:?}"
            ),
        }
    }

    /// Out-of-range knobs surface as validation errors with a field
    /// path, not panics.
    #[test]
    fn out_of_range_horizon_is_a_field_error(s in scenario_strategy(), bad in -1.0e6f64..0.0) {
        let mut s = s;
        s.scale.horizon_us = bad;
        let err = s.validate().expect_err("non-positive horizon must be rejected");
        prop_assert!(err.contains("scenario.scale.horizon_us"), "bad path in {err:?}");
        // The codec applies the same validation on parse.
        let err = Scenario::from_json_text(&s.to_json_text())
            .expect_err("non-positive horizon must be rejected on parse");
        prop_assert!(err.contains("scenario.scale.horizon_us"), "bad path in {err:?}");
    }
}
