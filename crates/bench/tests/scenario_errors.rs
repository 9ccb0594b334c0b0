//! Pins the scenario decoder's error messages. Each case edits one
//! registry document in exactly one place and asserts the full message
//! `Scenario::from_json` returns, so a change to the decoder cannot
//! quietly change a field path or its wording.

use um_bench::benchjson::Json;
use um_bench::scenario::{registry, Scenario};

/// One edit to a canonical document. Paths are dot-separated object
/// keys and array indices (`kind.rows.0.workload`); `""` is the root.
enum Edit {
    /// Replace the value at the path.
    Set(&'static str, Json),
    /// Add a field to the object at the path.
    Add(&'static str, &'static str, Json),
    /// Remove a field from the object at the path.
    Remove(&'static str, &'static str),
}

fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.')
        .filter(|step| !step.is_empty())
        .fold(doc, |v, step| match v {
            Json::Obj(pairs) => {
                &mut pairs
                    .iter_mut()
                    .find(|(k, _)| k == step)
                    .unwrap_or_else(|| panic!("no field `{step}` in {path}"))
                    .1
            }
            Json::Arr(items) => &mut items[step.parse::<usize>().expect("array index")],
            _ => panic!("cannot step into `{step}` of {path}"),
        })
}

fn fields(v: &mut Json) -> &mut Vec<(String, Json)> {
    match v {
        Json::Obj(pairs) => pairs,
        other => panic!("not an object: {other:?}"),
    }
}

fn apply(doc: &mut Json, edit: &Edit) {
    match edit {
        Edit::Set(path, value) => *at(doc, path) = value.clone(),
        Edit::Add(path, key, value) => fields(at(doc, path)).push((key.to_string(), value.clone())),
        Edit::Remove(path, key) => {
            let pairs = fields(at(doc, path));
            let before = pairs.len();
            pairs.retain(|(k, _)| k != key);
            assert_eq!(pairs.len() + 1, before, "{path} has no field `{key}`");
        }
    }
}

/// A registry scenario's canonical document.
fn document(name: &str) -> Json {
    registry::by_name(name)
        .unwrap_or_else(|| panic!("no registry scenario {name}"))
        .to_json()
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

#[rustfmt::skip]
fn cases() -> Vec<(&'static str, Edit, &'static str)> {
    use Edit::{Add, Remove, Set};
    let one = || num(1.0);
    vec![
        // An unknown field, at every nesting level.
        ("fig7", Add("", "surprise", one()), "scenario: unknown field `surprise`"),
        ("fig7", Add("kind", "surprise", one()), "scenario.kind: unknown field `surprise`"),
        ("fig7", Add("machine", "surprise", one()), "scenario.machine: unknown field `surprise`"),
        ("fig7", Add("workload", "surprise", one()), "scenario.workload: unknown field `surprise`"),
        ("fig7", Add("workload", "app", text("Text")), "scenario.workload: unknown field `app`"),
        ("fig7", Add("scale", "surprise", one()), "scenario.scale: unknown field `surprise`"),
        ("fig7", Add("mitigation", "surprise", one()), "scenario.mitigation: unknown field `surprise`"),
        ("sweep_default", Add("faults.0", "server", one()), "scenario.faults[0]: unknown field `server`"),
        ("sweep_default", Add("kind.policies.1", "surprise", one()), "scenario.kind.policies[1]: unknown field `surprise`"),
        ("sweep_default", Add("kind.policies.1.mitigation", "surprise", one()), "scenario.kind.policies[1].mitigation: unknown field `surprise`"),
        ("sweep_default", Add("kind.policies.1.mitigation.retry", "surprise", one()), "scenario.kind.policies[1].mitigation.retry: unknown field `surprise`"),
        ("cluster_tail", Add("cluster", "surprise", one()), "scenario.cluster: unknown field `surprise`"),
        ("cluster_tail", Add("cluster.routing.2", "surprise", one()), "scenario.cluster.routing[2]: unknown field `surprise`"),
        ("cluster_tail", Add("cluster.jitter", "surprise", one()), "scenario.cluster.jitter: unknown field `surprise`"),
        ("breakdown", Add("kind.machines.0", "surprise", one()), "scenario.kind.machines[0]: unknown field `surprise`"),
        ("breakdown", Add("kind.machines.0.machine", "surprise", one()), "scenario.kind.machines[0].machine: unknown field `surprise`"),
        ("fig14", Add("kind.rows.0", "surprise", one()), "scenario.kind.rows[0]: unknown field `surprise`"),
        ("fig14", Add("kind.rows.0.workload", "surprise", one()), "scenario.kind.rows[0].workload: unknown field `surprise`"),
        ("fig20", Add("kind.rows.0.workload", "surprise", one()), "scenario.kind.rows[0].workload: unknown field `surprise`"),
        ("autoscale", Add("kind.configs.1", "surprise", one()), "scenario.kind.configs[1]: unknown field `surprise`"),
        ("ablation_srpt", Add("kind.workloads.1.workload", "surprise", one()), "scenario.kind.workloads[1].workload: unknown field `surprise`"),
        // A missing required field.
        ("fig7", Remove("", "name"), "scenario: missing field `name`"),
        ("fig7", Remove("", "faults"), "scenario: missing field `faults`"),
        ("fig7", Remove("kind", "type"), "scenario.kind: missing field `type`"),
        ("fig7", Remove("kind", "loads"), "scenario.kind: missing field `loads`"),
        ("fig7", Remove("scale", "seed"), "scenario.scale: missing field `seed`"),
        ("fig7", Remove("mitigation", "steer"), "scenario.mitigation: missing field `steer`"),
        ("sweep_default", Remove("faults.0", "probability"), "scenario.faults[0]: missing field `probability`"),
        ("cluster_tail", Remove("cluster.routing.2", "d"), "scenario.cluster.routing[2]: missing field `d`"),
        ("fig14", Remove("kind.rows.0", "loads"), "scenario.kind.rows[0]: missing field `loads`"),
        // Each wrong primitive type.
        ("fig7", Set("scale.horizon_us", text("long")), "scenario.scale.horizon_us: expected a number"),
        ("fig7", Set("name", one()), "scenario.name: expected a string"),
        ("fig7", Set("machine.base", Json::Bool(true)), "scenario.machine.base: expected a string"),
        ("fig7", Set("kind.type", one()), "scenario.kind.type: expected a string"),
        ("fig7", Set("mitigation.steer", one()), "scenario.mitigation.steer: expected a boolean"),
        ("autoscale", Set("kind.configs.0.pool", text("yes")), "scenario.kind.configs[0].pool: expected a boolean"),
        ("fig7", Set("kind.loads", one()), "scenario.kind.loads: expected an array"),
        ("fig7", Set("faults", Json::Obj(Vec::new())), "scenario.faults: expected an array"),
        ("fig7", Set("kind.loads.1", text("5K")), "scenario.kind.loads[1]: expected a number"),
        ("sweep_default", Set("kind.seeds.0", Json::Null), "scenario.kind.seeds[0]: expected a number"),
        ("fig7", Set("scale", Json::Arr(Vec::new())), "scenario.scale: expected an object"),
        ("fig7", Set("machine", text("umanycore")), "scenario.machine: expected an object"),
        // A tagged object reads its tag first.
        ("fig7", Set("workload", one()), "scenario.workload: missing field `type`"),
        // A negative, fractional or oversized integer.
        ("fig7", Set("scale.servers", num(-1.0)), "scenario.scale.servers: expected an exact nonnegative integer"),
        ("fig7", Set("scale.servers", num(1.5)), "scenario.scale.servers: expected an exact nonnegative integer"),
        ("fig7", Set("scale.seed", num(9_007_199_254_740_992.0)), "scenario.scale.seed: expected an exact nonnegative integer"),
        ("fig7", Set("machine.ctx_switch_cycles", num(-3.0)), "scenario.machine.ctx_switch_cycles: expected an exact nonnegative integer"),
        ("ablation_srpt", Set("kind.workloads.1.workload.max_rpcs", num(4_294_967_296.0)), "scenario.kind.workloads[1].workload.max_rpcs: value does not fit in 32 bits"),
        // The topology shape.
        ("fig19", Set("kind.machines.0.machine.shape", Json::Arr(vec![num(8.0), num(4.0)])), "scenario.kind.machines[0].machine.shape: expected [cores_per_village, villages_per_cluster, clusters]"),
        ("fig19", Set("kind.machines.0.machine.shape.1", num(-4.0)), "scenario.kind.machines[0].machine.shape[1]: expected an exact nonnegative integer"),
        ("fig19", Set("kind.machines.0.machine.shape", one()), "scenario.kind.machines[0].machine.shape: expected an array"),
        // Every unknown tag.
        ("fig7", Set("machine.base", text("vax")), "scenario.machine.base: unknown machine `vax`"),
        ("fig7", Add("machine", "icn", text("torus")), "scenario.machine.icn: unknown interconnect `torus`"),
        ("fig7", Set("workload.type", text("media")), "scenario.workload.type: unknown workload `media`"),
        ("fig14", Set("kind.rows.0.workload.app", text("NoSuchApp")), "scenario.kind.rows[0].workload.app: unknown SocialNetwork app `NoSuchApp`"),
        ("cluster_tail", Set("cluster.routing.0.policy", text("p2c")), "scenario.cluster.routing[0].policy: unknown policy `p2c`"),
        ("sweep_default", Set("faults.0.type", text("gamma-rays")), "scenario.faults[0].type: unknown fault `gamma-rays`"),
        ("fig14", Set("kind.metric", text("p999")), "scenario.kind.metric: unknown metric `p999`"),
        ("fig14", Set("kind.baseline_unit", text("ns")), "scenario.kind.baseline_unit: unknown unit `ns`"),
        ("fig7", Set("kind.type", text("fig99")), "scenario.kind.type: unknown scenario kind `fig99`"),
        // `d` on a policy other than `jsq`.
        ("cluster_tail", Add("cluster.routing.0", "d", num(2.0)), "scenario.cluster.routing[0].d: only valid with the `jsq` policy"),
        // The invalid documents of the end-to-end benchmark's serve mix.
        ("sweep_default", Set("scale.horizon_us", num(-5.0)), "scenario.scale.horizon_us: must be a positive horizon"),
        ("sweep_default", Add("scale", "horizon_ms", num(20.0)), "scenario.scale: unknown field `horizon_ms`"),
        ("sweep_default", Set("faults.0.probability", num(1.5)), "scenario.faults[0].probability: must be within [0, 1)"),
    ]
}

#[test]
fn every_decoder_error_message_is_pinned() {
    let mut failures = Vec::new();
    for (name, edit, want) in cases() {
        let mut doc = document(name);
        apply(&mut doc, &edit);
        // The document and its rendered text decode the same way.
        for got in [
            Scenario::from_json(&doc),
            Scenario::from_json_text(&doc.render()),
        ] {
            match got {
                Ok(_) => failures.push(format!("{name}: accepted, want `{want}`")),
                Err(got) if got != want => {
                    failures.push(format!("{name}: got `{got}`, want `{want}`"))
                }
                Err(_) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn duplicate_fields_are_refused_at_every_level() {
    let cases = [
        (
            "fig7",
            "",
            "name",
            text("other"),
            "scenario: duplicate field `name`",
        ),
        (
            "fig7",
            "scale",
            "seed",
            num(7.0),
            "scenario.scale: duplicate field `seed`",
        ),
        (
            "fig7",
            "workload",
            "type",
            text("train-mix"),
            "scenario.workload: duplicate field `type`",
        ),
        (
            "cluster_tail",
            "cluster.routing.2",
            "d",
            num(3.0),
            "scenario.cluster.routing[2]: duplicate field `d`",
        ),
    ];
    for (name, path, key, value, want) in cases {
        let mut doc = document(name);
        apply(&mut doc, &Edit::Add(path, key, value));
        let err = Scenario::from_json_text(&doc.render()).expect_err("duplicate field");
        assert_eq!(err, want, "{name}");
    }
}
