//! `um-sweep`: the generic scenario sweep driver.
//!
//! Expands a declarative [`um_bench::scenario::Scenario`] grid into its
//! fully-specified point list, evaluates every point through the
//! deterministic `UM_THREADS` worker pool (results are bit-identical at
//! any value), prints the text table, and — for grid scenarios — emits a
//! benchjson document that passes `benchjson::validate_bench`.
//!
//! ```text
//! um-sweep                          # run the built-in sweep_default grid
//! um-sweep NAME                     # run a registry scenario by name
//! um-sweep --scenario FILE          # run a scenario from a JSON file
//! um-sweep --json PATH              # also write the benchjson document
//! um-sweep --csv PATH               # also write the points as CSV
//! um-sweep --list                   # list the registry
//! um-sweep --dump-registry DIR      # write every registry scenario to DIR
//! ```
//!
//! `UM_SCALE=quick` / `UM_SEED` apply to whichever scenario runs, the
//! same way they do for the figure binaries.

use um_bench::benchjson::{obj, validate_bench, Json};
use um_bench::{sanitizer_check, scenario};

fn usage() -> ! {
    eprintln!(
        "usage: um-sweep [NAME] [--scenario FILE] [--json PATH] [--csv PATH] [--list] \
         [--dump-registry DIR]"
    );
    std::process::exit(2);
}

/// One CSV cell: numbers exactly as benchjson renders them (so the CSV
/// and the JSON document agree byte-for-byte on every value), strings
/// raw — no point emits cells needing quoting, and the writer refuses
/// rather than quietly producing a misaligned file.
fn csv_cell(v: &Json) -> String {
    match v {
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{n:.0}")
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => {
            assert!(
                !s.contains([',', '"', '\n']),
                "CSV cell {s:?} would need quoting"
            );
            s.clone()
        }
        Json::Bool(b) => b.to_string(),
        other => panic!("CSV cells must be scalars, got {other:?}"),
    }
}

/// Renders the grid points as CSV: the header comes from the first
/// point's keys, and every point must carry exactly the same columns.
fn points_to_csv(points: &Json) -> String {
    let rows = points.as_arr().expect("points is an array");
    let first = rows.first().expect("grid expansion is non-empty");
    let header: Vec<&str> = first
        .as_obj()
        .expect("points are objects")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        let pairs = row.as_obj().expect("points are objects");
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, header, "every point must carry the same columns");
        let cells: Vec<String> = pairs.iter().map(|(_, v)| csv_cell(v)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_file: Option<String> = None;
    let mut registry_name: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for s in scenario::registry::all() {
                    let points = s.expand().expect("registry scenarios are valid").len();
                    println!("{:<16} {:<12} {points} points", s.name, s.kind.tag());
                }
                return;
            }
            "--dump-registry" => {
                let dir = it.next().unwrap_or_else(|| usage());
                std::fs::create_dir_all(dir).expect("create dump directory");
                for s in scenario::registry::all() {
                    let path = format!("{dir}/{}.json", s.name);
                    std::fs::write(&path, s.to_json_text()).expect("write scenario");
                    println!("wrote {path}");
                }
                return;
            }
            "--scenario" => scenario_file = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--json" => json_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--csv" => csv_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            name if !name.starts_with('-') && registry_name.is_none() => {
                registry_name = Some(name.to_string());
            }
            _ => usage(),
        }
    }
    if scenario_file.is_some() && registry_name.is_some() {
        usage();
    }

    sanitizer_check();
    let mut s = match (&scenario_file, &registry_name) {
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            scenario::Scenario::from_json_text(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        }
        (None, Some(name)) => scenario::registry::by_name(name).unwrap_or_else(|| {
            eprintln!("um-sweep: no registry scenario named '{name}' (see --list)");
            std::process::exit(2);
        }),
        (None, None) => scenario::registry::sweep_default(),
    };
    let wants_points = json_path.is_some() || csv_path.is_some();
    if wants_points && !matches!(s.kind, scenario::ScenarioKind::Grid(_)) {
        eprintln!(
            "um-sweep: --json/--csv need a grid scenario; '{}' is {}",
            s.name,
            s.kind.tag()
        );
        usage();
    }
    scenario::apply_env(&mut s);
    let out = scenario::run(&s).unwrap_or_else(|e| panic!("{}: {e}", s.name));
    print!("{}", out.text);

    if wants_points {
        let points = out.points.expect("grid scenarios emit benchjson points");
        if let Some(path) = json_path {
            let scale = match std::env::var("UM_SCALE").ok().as_deref() {
                Some("quick") => "quick",
                _ => "full",
            };
            let doc = obj(vec![
                ("bench", Json::Str(s.name.clone())),
                ("scale", Json::Str(scale.to_string())),
                ("points", points.clone()),
            ]);
            validate_bench(&doc).expect("sweep output satisfies the bench envelope");
            std::fs::write(&path, doc.render())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("um-sweep: wrote {path}");
        }
        if let Some(path) = csv_path {
            std::fs::write(&path, points_to_csv(&points))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("um-sweep: wrote {path}");
        }
    }
}
