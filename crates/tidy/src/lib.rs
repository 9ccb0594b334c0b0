//! `um-tidy`: the workspace's determinism-and-invariant static analysis
//! pass.
//!
//! The simulator's headline guarantees — bit-identical results at any
//! `UM_THREADS`, cycle-exact latency conservation, seeded fault plans —
//! are only as strong as the code's discipline about ordered iteration,
//! seeded randomness and overflow-safe cycle arithmetic. This crate
//! enforces that discipline statically, the way rust-lang/rust's `tidy`
//! pass guards its tree, with file:line diagnostics and an explicit
//! escape hatch:
//!
//! ```text
//! // um-tidy: allow(unordered-container) -- iteration order never escapes
//! ```
//!
//! The directive goes on the offending line or the line directly above it,
//! and the `-- <reason>` justification is mandatory — an allow without a
//! reason is itself a violation. Every allow that actually suppresses a
//! diagnostic is *debt*, tracked per rule in the committed ledger
//! `results/tidy_debt.txt` (regenerate with `um-tidy --debt`); CI diffs
//! the ledger against a fresh run so debt can only grow through an
//! explicit, reviewed commit.
//!
//! # Architecture (v2)
//!
//! The original pass stripped strings and `//` comments one line at a
//! time, which cannot see a `/* ... */` spanning lines, a raw string
//! carrying `HashMap`, or `'a'` vs `'a`. v2 lexes every file fully
//! ([`lexer`]) into per-line code/comment views plus a token stream, and
//! tracks `#[cfg(test)]` scopes by brace nesting, so test exemptions end
//! where the test module ends. On top of the per-file rules sits a
//! *workspace* pass ([`check_files`] / [`workspace_report`]) for hazards
//! no single file shows — today that is `duplicate-seed-stream`, which
//! collects every string tag passed to `um_sim::rng::stream` /
//! `stream_indexed` across the tree and flags the same tag reused by
//! distinct files (two components sharing a tag draw *identical* random
//! streams). Diagnostics and the debt ledger are byte-stable regardless
//! of directory iteration order because every output is keyed on the
//! sorted workspace-relative path.
//!
//! `um-tidy --json` emits the full report as JSON whose rendering
//! matches `um_bench::benchjson` byte for byte (parse → render is the
//! identity), so the lint gate's output round-trips through the same
//! document model as the rest of the repo's JSON.
//!
//! # Rules
//!
//! See [`Rule`] (one variant per rule) or `um-tidy --list-rules`; the
//! table in DESIGN.md is generated from `um-tidy --rule-table` and CI
//! diffs the two so they cannot drift.
//!
//! "Sim-state crates" are every `crates/*` member except `um-bench`
//! (which measures wall time by design) and `um-tidy` itself. Test code —
//! files under a `tests/` directory and regions inside `#[cfg(test)]`
//! items — is exempt from the rules that only protect simulation state,
//! because a test-local map whose iteration order never reaches an
//! assertion cannot break reproducibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{LineView, Tok};

/// Every rule the pass knows, in diagnostic-id order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in sim-state code.
    UnorderedContainer,
    /// `Instant::now` / `SystemTime` outside `um-bench`.
    WallClock,
    /// `thread_rng` / `from_entropy` outside `um-bench`.
    UnseededRng,
    /// Truncating cast on a cycle/latency-named value.
    CycleTruncCast,
    /// Float equality on a cycle/latency-named value.
    CycleFloatCmp,
    /// `FaultPlan::from_events` outside `um-sim` (bypasses seeded builder).
    RawFaultPlan,
    /// `BinaryHeap` for sim state outside the queue module.
    RawBinaryHeap,
    /// `dbg!` / `todo!` / `unimplemented!` in non-test code.
    DebugMacro,
    /// `#[ignore]` without a reason string.
    IgnoreWithoutReason,
    /// `unsafe` without a `// SAFETY:` comment.
    UnsafeWithoutSafety,
    /// The same RNG stream tag constructed in two different files.
    DuplicateSeedStream,
    /// Order-dependent float accumulation (`+=` / `sum()`) in sim state.
    FloatAccumulation,
    /// Float sorts via `partial_cmp().unwrap()` / unstable float sorts.
    PartialCmpSort,
    /// Environment reads inside the deterministic sim core.
    EnvRead,
    /// async/tokio types inside the std-only sim core.
    AsyncInSim,
    /// Inline `SimConfig`/`ClusterConfig` literals in um-bench binaries.
    ScenarioInlineConfig,
    /// Raw simulator types (`SimConfig`, `SystemSim`, …) in um-serve.
    ServeRawConfig,
    /// Malformed or unknown `um-tidy:` directive.
    AllowSyntax,
}

impl Rule {
    /// All rules, for `--list-rules` and the allow-directive parser.
    pub const ALL: [Rule; 18] = [
        Rule::UnorderedContainer,
        Rule::WallClock,
        Rule::UnseededRng,
        Rule::CycleTruncCast,
        Rule::CycleFloatCmp,
        Rule::RawFaultPlan,
        Rule::RawBinaryHeap,
        Rule::DebugMacro,
        Rule::IgnoreWithoutReason,
        Rule::UnsafeWithoutSafety,
        Rule::DuplicateSeedStream,
        Rule::FloatAccumulation,
        Rule::PartialCmpSort,
        Rule::EnvRead,
        Rule::AsyncInSim,
        Rule::ScenarioInlineConfig,
        Rule::ServeRawConfig,
        Rule::AllowSyntax,
    ];

    /// Number of rules (the debt ledger has one row per rule).
    pub const COUNT: usize = Rule::ALL.len();

    /// Position of this rule in [`Rule::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The id used in diagnostics and `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "unordered-container",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::CycleTruncCast => "cycle-trunc-cast",
            Rule::CycleFloatCmp => "cycle-float-cmp",
            Rule::RawFaultPlan => "raw-fault-plan",
            Rule::RawBinaryHeap => "raw-binary-heap",
            Rule::DebugMacro => "debug-macro",
            Rule::IgnoreWithoutReason => "ignore-without-reason",
            Rule::UnsafeWithoutSafety => "unsafe-without-safety",
            Rule::DuplicateSeedStream => "duplicate-seed-stream",
            Rule::FloatAccumulation => "float-accumulation",
            Rule::PartialCmpSort => "partial-cmp-sort",
            Rule::EnvRead => "env-read",
            Rule::AsyncInSim => "async-in-sim",
            Rule::ScenarioInlineConfig => "scenario-inline-config",
            Rule::ServeRawConfig => "serve-raw-config",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet \
                 in sim-state code"
            }
            Rule::WallClock => {
                "wall-clock reads (Instant::now, SystemTime) break reproducibility; only \
                 um-bench may time things"
            }
            Rule::UnseededRng => {
                "entropy-seeded RNGs (thread_rng, from_entropy) break reproducibility; derive \
                 seeds via um_sim::rng"
            }
            Rule::CycleTruncCast => {
                "truncating casts on cycle/latency values silently wrap; use u64/u128 totals \
                 or checked/saturating conversions"
            }
            Rule::CycleFloatCmp => {
                "float equality on cycle/latency values is precision-dependent; compare in \
                 integer Cycles or use an epsilon"
            }
            Rule::RawFaultPlan => {
                "FaultPlan::from_events bypasses the seeded builder; construct plans with \
                 FaultPlan::builder(seed) so sweeps stay derive_seed-reproducible"
            }
            Rule::RawBinaryHeap => {
                "BinaryHeap pop order is O(log n) per event and its internal layout is not the \
                 simulator's delivery contract; future-event state goes through um_sim::EventQueue \
                 (the pooled calendar queue)"
            }
            Rule::DebugMacro => "dbg!/todo!/unimplemented! must not reach non-test code",
            Rule::IgnoreWithoutReason => "#[ignore] needs a reason string: #[ignore = \"why\"]",
            Rule::UnsafeWithoutSafety => "unsafe blocks need a // SAFETY: comment justifying them",
            Rule::DuplicateSeedStream => {
                "two components constructing um_sim::rng streams with the same tag draw \
                 identical random sequences; every component needs a unique stream tag"
            }
            Rule::FloatAccumulation => {
                "float += / sum() folds are order-dependent; a parallel or reordered reduction \
                 changes the result bit-for-bit — accumulate via um-stats sample sets or \
                 justify the fixed serial order"
            }
            Rule::PartialCmpSort => {
                "sort_by(partial_cmp().unwrap()) panics on NaN and unstable float sorts \
                 reorder ties nondeterministically; use total_cmp with a stable sort"
            }
            Rule::EnvRead => {
                "std::env reads inside the sim core make results depend on ambient process \
                 state; plumb configuration through typed configs from the driver layer"
            }
            Rule::AsyncInSim => {
                "async/tokio inside the sim core pulls executor scheduling into the \
                 deterministic kernel; even um-serve serves with std threads only"
            }
            Rule::ScenarioInlineConfig => {
                "inline SimConfig/ClusterConfig literals in um-bench binaries bypass the \
                 declarative scenario layer; express the experiment as a um_bench::scenario \
                 so it can be committed, validated and replayed as data"
            }
            Rule::ServeRawConfig => {
                "um-serve must speak the public um_bench::scenario API; raw \
                 SimConfig/SystemSim types in the service layer would let jobs drift from \
                 what um-sweep runs and break the byte-identical-results contract"
            }
            Rule::AllowSyntax => {
                "um-tidy directives must be `um-tidy: allow(<rule>) -- <reason>` with a \
                 known rule id and a nonempty reason"
            }
        }
    }

    /// What the rule denies — the DESIGN.md table's second column.
    pub fn denies(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "`HashMap`/`HashSet` (unordered iteration)",
            Rule::WallClock => "`Instant::now`, `SystemTime`",
            Rule::UnseededRng => "`thread_rng`, `from_entropy`",
            Rule::CycleTruncCast => "`as u32`/`as usize`/… on cycle/latency values",
            Rule::CycleFloatCmp => "`==`/`!=` on float cycle/latency values",
            Rule::RawFaultPlan => "`FaultPlan::from_events` (bypasses the seeded builder)",
            Rule::RawBinaryHeap => {
                "`BinaryHeap` for sim state (bypasses the pooled calendar queue)"
            }
            Rule::DebugMacro => "`dbg!`, `todo!`, `unimplemented!`",
            Rule::IgnoreWithoutReason => "bare `#[ignore]`",
            Rule::UnsafeWithoutSafety => "`unsafe` without a `// SAFETY:` comment",
            Rule::DuplicateSeedStream => {
                "one `rng::stream`/`stream_indexed` tag constructed in two files"
            }
            Rule::FloatAccumulation => "float `+=`/`sum()` (order-dependent reduction)",
            Rule::PartialCmpSort => "`sort_by(…partial_cmp…)`, `sort_unstable_by` on float keys",
            Rule::EnvRead => "`std::env::var` and friends",
            Rule::AsyncInSim => "`async`/`await`/`tokio` in the sim core",
            Rule::ScenarioInlineConfig => {
                "`SimConfig {`/`ClusterConfig {` literals (bypass the scenario layer)"
            }
            Rule::ServeRawConfig => {
                "`SimConfig`/`ClusterConfig`/`SystemSim`/`ClusterSim` (bypass the scenario API)"
            }
            Rule::AllowSyntax => "malformed/unknown `um-tidy:` directives",
        }
    }

    /// Where the rule applies — the DESIGN.md table's third column.
    pub fn applies_where(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "sim-state crates, non-test code",
            Rule::WallClock => "everywhere but `um-bench`",
            Rule::UnseededRng => "everywhere but `um-bench`",
            Rule::CycleTruncCast => "non-test code",
            Rule::CycleFloatCmp => "non-test code",
            Rule::RawFaultPlan => "outside `um-sim`, non-test code",
            Rule::RawBinaryHeap => "sim-state crates outside the queue module, non-test code",
            Rule::DebugMacro => "non-test code",
            Rule::IgnoreWithoutReason => "everywhere",
            Rule::UnsafeWithoutSafety => "everywhere",
            Rule::DuplicateSeedStream => "workspace-wide (cross-file), non-test code",
            Rule::FloatAccumulation => "sim-state crates except `um-stats`, non-test code",
            Rule::PartialCmpSort => "sim-state crates, non-test code",
            Rule::EnvRead => "sim-state crates, non-test code",
            Rule::AsyncInSim => "sim-state crates, non-test code",
            Rule::ScenarioInlineConfig => "`crates/bench/src/bin/`, non-test code",
            Rule::ServeRawConfig => "`crates/serve`, non-test code",
            Rule::AllowSyntax => "everywhere",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

/// The markdown rule table DESIGN.md embeds between
/// `<!-- um-tidy:rule-table:begin -->` / `end` markers; CI diffs the
/// committed table against this output.
pub fn rule_table() -> String {
    let mut out = String::from("| Rule | Denies | Where |\n|------|--------|-------|\n");
    for rule in Rule::ALL {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            rule.id(),
            rule.denies(),
            rule.applies_where()
        ));
    }
    out
}

/// One finding: a rule violated at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// The result of a whole-workspace (or multi-file) run: diagnostics plus
/// the allow-debt accounting the ledger and `--json` report render.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All diagnostics, sorted by (path, line).
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressed-diagnostic count per rule, indexed by [`Rule::index`].
    pub debt: Vec<usize>,
    /// Files scanned.
    pub files: usize,
    /// Source lines scanned.
    pub lines: usize,
}

impl Report {
    /// Total allow-debt across all rules.
    pub fn total_debt(&self) -> usize {
        self.debt.iter().sum()
    }
}

/// Where a file sits in the workspace, deciding which rules apply.
#[derive(Clone, Debug)]
struct FileContext {
    /// `crates/<name>/…` member name, if any.
    krate: Option<String>,
    /// The whole file is test code (under a `tests/` directory).
    test_file: bool,
}

impl FileContext {
    fn from_path(rel_path: &str) -> Self {
        let norm = rel_path.replace('\\', "/");
        let krate = norm
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let test_file = norm.starts_with("tests/") || norm.contains("/tests/");
        Self { krate, test_file }
    }

    /// Sim-state crates: every workspace member under `crates/` except the
    /// bench harness (wall-clock by design), the service layer (env-sized
    /// worker pool, outside the determinism boundary) and this pass itself.
    fn is_sim_state_crate(&self) -> bool {
        matches!(&self.krate, Some(k) if k != "bench" && k != "tidy" && k != "serve")
    }

    /// Wall-clock and entropy rules run everywhere except `um-bench`
    /// (Criterion interop), `um-serve` (a host-side service outside the
    /// determinism boundary) and this crate.
    fn bans_wall_clock(&self) -> bool {
        !matches!(&self.krate, Some(k) if k == "bench" || k == "tidy" || k == "serve")
    }

    /// Raw fault-plan construction is banned outside `um-sim` (where the
    /// seeded builder lives and round-trips through `from_events` in its
    /// own tests) and this crate.
    fn bans_raw_fault_plan(&self) -> bool {
        !matches!(&self.krate, Some(k) if k == "sim" || k == "tidy")
    }

    /// Float accumulation is banned in sim-state crates except `um-stats`,
    /// whose whole job is exact, ordered sample-set folds.
    fn bans_float_accumulation(&self) -> bool {
        self.is_sim_state_crate() && !matches!(&self.krate, Some(k) if k == "stats")
    }

    /// Seed-stream tags are harvested everywhere except this crate (whose
    /// fixtures and messages mention tags deliberately).
    fn harvests_seed_streams(&self) -> bool {
        !matches!(&self.krate, Some(k) if k == "tidy")
    }
}

/// Whether a path is a um-bench binary — the driver layer the
/// `scenario-inline-config` rule fences. The scenario module itself
/// (`crates/bench/src/scenario.rs`) is the one place allowed to build
/// `SimConfig`/`ClusterConfig` literals from declarative specs; it lives
/// outside `src/bin/`, so a simple prefix check suffices.
fn is_bench_bin(path: &str) -> bool {
    path.starts_with("crates/bench/src/bin/")
}

/// Whether `hay` contains `needle` as a standalone word (no identifier
/// character on either side).
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Whether the line mentions a cycle/latency-ish quantity.
fn names_cycles(cleaned_lower: &str) -> bool {
    cleaned_lower.contains("cycle") || cleaned_lower.contains("latency")
}

/// Whether the line contains float evidence: an `as f64`/`as f32` cast or
/// a floating-point literal (`digit . digit`).
fn has_float(cleaned: &str) -> bool {
    if cleaned.contains(" as f64") || cleaned.contains(" as f32") {
        return true;
    }
    let bytes = cleaned.as_bytes();
    bytes
        .windows(3)
        .any(|w| w[1] == b'.' && w[0].is_ascii_digit() && w[2].is_ascii_digit())
}

/// Stronger float evidence for the accumulation rule: a float literal, a
/// float cast, or an `f64`/`f32` type mention.
fn has_float_type(cleaned: &str) -> bool {
    has_float(cleaned) || contains_word(cleaned, "f64") || contains_word(cleaned, "f32")
}

/// Whether the statement ending at line `idx` satisfies `pred` on any of
/// its lines. A statement is bounded above by a line whose code ends in
/// `;`, `{` or `}` (the previous statement/block), and the walk is capped
/// at 6 lines — enough for the workspace's formatted iterator chains.
fn statement_scan(lines: &[LineView], idx: usize, pred: impl Fn(&str) -> bool) -> bool {
    if pred(&lines[idx].code) {
        return true;
    }
    let mut i = idx;
    for _ in 0..6 {
        if i == 0 {
            break;
        }
        i -= 1;
        let code = lines[i].code.trim_end();
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            break;
        }
        if pred(&lines[i].code) {
            return true;
        }
    }
    false
}

/// Parses every `um-tidy:` directive in a line's comment text.
///
/// Returns the successfully parsed allowed rules and pushes `allow-syntax`
/// diagnostics for malformed ones.
fn parse_directives(
    raw: &str,
    path: &str,
    line_no: usize,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Rule> {
    let mut allowed = Vec::new();
    let mut search = 0;
    while let Some(pos) = raw[search..].find("um-tidy:") {
        let at = search + pos;
        let rest = &raw[at + "um-tidy:".len()..];
        search = at + "um-tidy:".len();
        let rest = rest.trim_start();
        if !rest.starts_with("allow") {
            // Prose mentioning "um-tidy:" (docs, this file) is not a
            // directive attempt; only `allow...` shapes are validated.
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            diags.push(Diagnostic {
                path: path.to_owned(),
                line: line_no,
                rule: Rule::AllowSyntax,
                message: "directive must be `um-tidy: allow(<rule>) -- <reason>`".into(),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            diags.push(Diagnostic {
                path: path.to_owned(),
                line: line_no,
                rule: Rule::AllowSyntax,
                message: "unterminated `allow(` directive".into(),
            });
            continue;
        };
        let ids = &args[..close];
        let tail = args[close + 1..].trim_start();
        let reason_ok = tail
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            diags.push(Diagnostic {
                path: path.to_owned(),
                line: line_no,
                rule: Rule::AllowSyntax,
                message: format!(
                    "allow({ids}) needs a justification: `-- <reason>` after the closing paren"
                ),
            });
            continue;
        }
        for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_id(id) {
                Some(rule) => allowed.push(rule),
                None => diags.push(Diagnostic {
                    path: path.to_owned(),
                    line: line_no,
                    rule: Rule::AllowSyntax,
                    message: format!("unknown rule `{id}` in allow directive"),
                }),
            }
        }
    }
    allowed
}

/// Tracks `#[cfg(test)]` scopes by brace nesting: the exemption starts at
/// the attribute and ends at the closing brace of the item it gates (or
/// at the item's `;` for brace-less items), instead of extending to the
/// end of the file the way the v1 line scanner did.
#[derive(Default)]
struct TestScope {
    depth: usize,
    /// Brace depths at which an active `#[cfg(test)]` scope opened.
    open_at: Vec<usize>,
    /// A `#[cfg(test)]` attribute was seen and its item has not started.
    armed: bool,
}

impl TestScope {
    /// Whether the *upcoming* line is test-scoped, then folds the line's
    /// braces into the tracker.
    fn observe(&mut self, code: &str) -> bool {
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            self.armed = true;
        }
        let in_test = !self.open_at.is_empty() || self.armed;
        for c in code.chars() {
            match c {
                '{' => {
                    if self.armed {
                        self.open_at.push(self.depth);
                        self.armed = false;
                    }
                    self.depth += 1;
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    if self.open_at.last() == Some(&self.depth) {
                        self.open_at.pop();
                    }
                }
                // A brace-less gated item (`#[cfg(test)] use …;`) ends at
                // its semicolon.
                ';' => self.armed = false,
                _ => {}
            }
        }
        in_test
    }
}

/// One `rng::stream`/`stream_indexed` construction site, harvested for
/// the cross-file duplicate-tag pass.
#[derive(Clone, Debug)]
struct SeedSite {
    tag: String,
    line: usize,
    allowed: bool,
}

/// Everything one file contributes to a workspace run.
#[derive(Debug, Default)]
struct FileAnalysis {
    diags: Vec<Diagnostic>,
    seed_sites: Vec<SeedSite>,
    /// Suppressed diagnostics per rule, indexed by [`Rule::index`].
    used_allows: Vec<usize>,
    lines: usize,
}

fn analyze_source(rel_path: &str, source: &str) -> FileAnalysis {
    let ctx = FileContext::from_path(rel_path);
    let path = rel_path.replace('\\', "/");
    let lexed = lexer::lex(source);
    let mut out = FileAnalysis {
        used_allows: vec![0; Rule::COUNT],
        lines: lexed.lines.len(),
        ..FileAnalysis::default()
    };
    let mut scope = TestScope::default();
    // Directives on their own comment line apply to the next code line.
    let mut pending_allows: Vec<Rule> = Vec::new();
    // Per-line flags the token-level seed-stream harvest consults.
    let mut line_test = vec![false; lexed.lines.len()];
    let mut line_allows_dup = vec![false; lexed.lines.len()];

    for (idx, view) in lexed.lines.iter().enumerate() {
        let line_no = idx + 1;
        let cleaned = view.code.as_str();
        let line_allows = if view.comment.is_empty() {
            Vec::new()
        } else {
            parse_directives(&view.comment, &path, line_no, &mut out.diags)
        };
        let in_test = ctx.test_file || scope.observe(cleaned);
        line_test[idx] = in_test;
        if cleaned.trim().is_empty() && !view.comment.trim().is_empty() {
            // Pure comment line: its allows stack for the next code line.
            pending_allows.extend(line_allows);
            continue;
        }
        let mut allows = line_allows;
        allows.append(&mut pending_allows);
        line_allows_dup[idx] = allows.contains(&Rule::DuplicateSeedStream);

        let mut firings: Vec<(Rule, String)> = Vec::new();

        // -- determinism rules ------------------------------------------
        if ctx.is_sim_state_crate()
            && !in_test
            && (contains_word(cleaned, "HashMap") || contains_word(cleaned, "HashSet"))
        {
            firings.push((
                Rule::UnorderedContainer,
                "unordered container in sim-state code: iteration order varies across runs; \
                 use BTreeMap/BTreeSet (or justify with an allow)"
                    .into(),
            ));
        }
        if ctx.bans_wall_clock() {
            for pat in ["Instant::now", "SystemTime"] {
                if cleaned.contains(pat) {
                    firings.push((
                        Rule::WallClock,
                        format!(
                            "`{pat}` reads the wall clock: simulation results must depend only \
                             on the seed; only um-bench may time things"
                        ),
                    ));
                }
            }
            for pat in ["thread_rng", "from_entropy"] {
                if contains_word(cleaned, pat) {
                    firings.push((
                        Rule::UnseededRng,
                        format!(
                            "`{pat}` seeds from OS entropy: derive a per-component stream from \
                             the master seed via um_sim::rng instead"
                        ),
                    ));
                }
            }
        }

        // -- event-queue provenance -------------------------------------
        // The calendar queue in crates/sim/src/queue.rs is the one place
        // allowed to own a future-event structure (it also hosts the
        // BinaryHeap reference baseline for differential tests).
        if ctx.is_sim_state_crate()
            && !in_test
            && path != "crates/sim/src/queue.rs"
            && contains_word(cleaned, "BinaryHeap")
        {
            firings.push((
                Rule::RawBinaryHeap,
                "raw BinaryHeap for sim state: time-ordered event state must go through \
                 um_sim::EventQueue, which owns the (time, seq) FIFO delivery contract the \
                 determinism tests pin"
                    .into(),
            ));
        }

        // -- scenario-layer provenance ----------------------------------
        // Figure binaries describe experiments; the scenario layer builds
        // configs. An inline struct literal in a bin is an experiment CI
        // cannot validate, diff or replay from JSON.
        if is_bench_bin(&path) && !in_test {
            for pat in ["SimConfig {", "ClusterConfig {"] {
                // A function signature's `-> SimConfig {` opens a body,
                // not a struct literal.
                let is_literal = |code: &str| {
                    let mut from = 0;
                    while let Some(pos) = code[from..].find(pat) {
                        let at = from + pos;
                        if !code[..at].ends_with("-> ") {
                            return true;
                        }
                        from = at + pat.len();
                    }
                    false
                };
                if is_literal(cleaned) && contains_word(cleaned, pat.trim_end_matches(" {")) {
                    firings.push((
                        Rule::ScenarioInlineConfig,
                        format!(
                            "inline `{}` literal in a um-bench binary: build the experiment as \
                             a um_bench::scenario::Scenario (registry or JSON) and expand it, \
                             so the config list is committed, validated data",
                            pat.trim_end_matches(" {")
                        ),
                    ));
                }
            }
        }

        // -- service-layer provenance -----------------------------------
        // um-serve exists to serve scenarios, not to run simulators by
        // hand: jobs must go through the public um_bench::scenario API so
        // a served result can never diverge from a direct um-sweep run.
        if matches!(&ctx.krate, Some(k) if k == "serve") && !in_test {
            for ty in ["SimConfig", "ClusterConfig", "SystemSim", "ClusterSim"] {
                if contains_word(cleaned, ty) {
                    firings.push((
                        Rule::ServeRawConfig,
                        format!(
                            "raw `{ty}` in the service layer: um-serve must run jobs through \
                             um_bench::scenario (validate/expand/run), the same path um-sweep \
                             takes, so served results stay byte-identical to direct runs"
                        ),
                    ));
                }
            }
        }

        // -- fault-plan provenance --------------------------------------
        if ctx.bans_raw_fault_plan() && !in_test && contains_word(cleaned, "from_events") {
            firings.push((
                Rule::RawFaultPlan,
                "raw fault-plan construction bypasses the seeded builder: use \
                 FaultPlan::builder(seed) so plans derive from the master seed and sweeps \
                 stay reproducible"
                    .into(),
            ));
        }

        // -- cycle-arithmetic rules -------------------------------------
        if !in_test {
            let lower = cleaned.to_lowercase();
            if names_cycles(&lower) {
                for cast in [" as u32", " as usize", " as u16", " as u8"] {
                    if cleaned.contains(cast) {
                        firings.push((
                            Rule::CycleTruncCast,
                            format!(
                                "truncating `{}` on a cycle/latency value can silently wrap at \
                                 long horizons; accumulate in u64/u128 or use try_into/checked \
                                 conversions",
                                cast.trim_start()
                            ),
                        ));
                        break;
                    }
                }
                if (cleaned.contains("==") || cleaned.contains("!="))
                    && !cleaned.contains("==>")
                    && has_float(cleaned)
                {
                    firings.push((
                        Rule::CycleFloatCmp,
                        "float equality on a cycle/latency value depends on rounding; compare \
                         integer Cycles or use an explicit tolerance"
                            .into(),
                    ));
                }
            }

            // -- hygiene: debug macros ----------------------------------
            for mac in ["dbg!", "todo!", "unimplemented!"] {
                // The '!' ends the identifier, so a plain substring match
                // with a left word-boundary suffices.
                if contains_word(cleaned, &mac[..mac.len() - 1]) && cleaned.contains(mac) {
                    firings.push((
                        Rule::DebugMacro,
                        format!("`{mac}` must not reach non-test code"),
                    ));
                }
            }

            // -- determinism: float reductions --------------------------
            if ctx.bans_float_accumulation() {
                let fires = (cleaned.contains("+=")
                    && statement_scan(&lexed.lines, idx, has_float_type))
                    || cleaned.contains(".sum::<f64>")
                    || cleaned.contains(".sum::<f32>")
                    || (cleaned.contains(".sum()")
                        && statement_scan(&lexed.lines, idx, has_float_type));
                if fires {
                    firings.push((
                        Rule::FloatAccumulation,
                        "order-dependent float accumulation in sim state: a parallel or \
                         reordered reduction changes the sum bit-for-bit; fold through \
                         um-stats' exact sample sets or justify the fixed serial order with \
                         an allow"
                            .into(),
                    ));
                }
            }

            // -- determinism: float sorts -------------------------------
            if ctx.is_sim_state_crate() {
                let has_sort =
                    |code: &str| code.contains("sort_by") || code.contains("sort_unstable_by");
                let fires = (cleaned.contains("partial_cmp")
                    && statement_scan(&lexed.lines, idx, has_sort))
                    || (cleaned.contains("sort_unstable_by")
                        && statement_scan(&lexed.lines, idx, has_float_type));
                if fires {
                    firings.push((
                        Rule::PartialCmpSort,
                        "float sort via partial_cmp/unstable ordering: partial_cmp().unwrap() \
                         panics on NaN and unstable sorts reorder equal keys \
                         nondeterministically; use total_cmp with a stable sort"
                            .into(),
                    ));
                }
            }

            // -- service-layer fences -----------------------------------
            if ctx.is_sim_state_crate() {
                if cleaned.contains("env::var") || contains_word(cleaned, "var_os") {
                    firings.push((
                        Rule::EnvRead,
                        "environment read inside the deterministic sim core: results must be \
                         a function of typed configs and the seed, not ambient process state; \
                         read the environment in the driver layer and pass values down"
                            .into(),
                    ));
                }
                if contains_word(cleaned, "async")
                    || cleaned.contains(".await")
                    || contains_word(cleaned, "tokio")
                    || contains_word(cleaned, "async_std")
                {
                    firings.push((
                        Rule::AsyncInSim,
                        "async construct inside the std-only sim core: executor scheduling is \
                         nondeterministic; the service layer lives outside crates/* and talks \
                         to the kernel through its synchronous API"
                            .into(),
                    ));
                }
            }
        }

        // -- hygiene: bare #[ignore] ------------------------------------
        if cleaned.contains("#[ignore]") {
            firings.push((
                Rule::IgnoreWithoutReason,
                "give the skip a reason: `#[ignore = \"why\"]`".into(),
            ));
        }

        // -- hygiene: unsafe without SAFETY -----------------------------
        if contains_word(cleaned, "unsafe") && !cleaned.contains("forbid") {
            let documented =
                (idx.saturating_sub(3)..=idx).any(|i| lexed.lines[i].comment.contains("SAFETY:"));
            if !documented {
                firings.push((
                    Rule::UnsafeWithoutSafety,
                    "unsafe needs a `// SAFETY:` comment on it or within the 3 lines above".into(),
                ));
            }
        }

        for (rule, message) in firings {
            if allows.contains(&rule) {
                out.used_allows[rule.index()] += 1;
            } else {
                out.diags.push(Diagnostic {
                    path: path.clone(),
                    line: line_no,
                    rule,
                    message,
                });
            }
        }
    }

    // -- seed-stream harvest (token level, for the cross-file pass) -----
    if ctx.harvests_seed_streams() {
        let toks = &lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            let Tok::Ident(name) = &tok.tok else { continue };
            if name != "stream" && name != "stream_indexed" {
                continue;
            }
            if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Open)) {
                continue;
            }
            // First string literal inside the call's own parens is the tag.
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Open => depth += 1,
                    Tok::Close => depth -= 1,
                    Tok::Str(s) if depth == 1 => {
                        let line = toks[j].line;
                        let at = line
                            .saturating_sub(1)
                            .min(line_test.len().saturating_sub(1));
                        if !ctx.test_file && !line_test.get(at).copied().unwrap_or(false) {
                            out.seed_sites.push(SeedSite {
                                tag: s.clone(),
                                line,
                                allowed: line_allows_dup.get(at).copied().unwrap_or(false),
                            });
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }

    out
}

/// Checks one file's source, returning diagnostics in line order.
///
/// `rel_path` decides which rules apply (crate membership, test files) and
/// appears verbatim in diagnostics. Cross-file rules (today:
/// `duplicate-seed-stream`) need [`check_files`] or [`workspace_report`];
/// a single file cannot collide with itself.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    analyze_source(rel_path, source).diags
}

/// Runs the whole pass — per-file rules plus the cross-file workspace
/// rules — over an in-memory set of `(relative path, source)` files.
///
/// Inputs are sorted internally, so callers need not pre-sort; the
/// returned report is byte-stable for a given file set.
pub fn check_files(files: &[(String, String)]) -> Report {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    let analyses: Vec<(String, FileAnalysis)> = sorted
        .iter()
        .map(|(rel, src)| (rel.replace('\\', "/"), analyze_source(rel, src)))
        .collect();
    aggregate(analyses)
}

/// Folds per-file analyses (already in sorted path order) into a report,
/// running the cross-file rules.
fn aggregate(analyses: Vec<(String, FileAnalysis)>) -> Report {
    let mut report = Report {
        debt: vec![0; Rule::COUNT],
        files: analyses.len(),
        ..Report::default()
    };
    // tag -> sites as (path, line, allowed), in sorted-path order.
    let mut streams: BTreeMap<String, Vec<(String, usize, bool)>> = BTreeMap::new();
    for (path, analysis) in analyses {
        report.diagnostics.extend(analysis.diags);
        report.lines += analysis.lines;
        for (i, used) in analysis.used_allows.iter().enumerate() {
            report.debt[i] += used;
        }
        for site in analysis.seed_sites {
            streams
                .entry(site.tag)
                .or_default()
                .push((path.clone(), site.line, site.allowed));
        }
    }

    // -- cross-file: duplicate-seed-stream ------------------------------
    for (tag, sites) in &streams {
        let mut paths: Vec<&str> = sites.iter().map(|(p, _, _)| p.as_str()).collect();
        paths.dedup();
        if paths.len() < 2 {
            continue;
        }
        for (path, line, allowed) in sites {
            if *allowed {
                report.debt[Rule::DuplicateSeedStream.index()] += 1;
                continue;
            }
            let others: Vec<&str> = paths.iter().copied().filter(|p| p != path).collect();
            report.diagnostics.push(Diagnostic {
                path: path.clone(),
                line: *line,
                rule: Rule::DuplicateSeedStream,
                message: format!(
                    "seed stream tag \"{tag}\" is also constructed in {}: components sharing \
                     a tag draw identical random sequences; give every component a unique tag",
                    others.join(", ")
                ),
            });
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    report
}

/// Recursively collects the workspace's own `.rs` files under `root`,
/// sorted by their workspace-relative path bytes so diagnostic order (and
/// with it the debt ledger) is identical across filesystems and directory
/// iteration orders.
///
/// Skips `vendor/` (third-party subsets), `target/`, `.git/`, and
/// `tests/fixtures/` trees (deliberate rule violations used as test data).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "vendor" | "target" | ".git") {
                    continue;
                }
                if name == "fixtures" && dir.ends_with("tests") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    // Sort by the *relative string* form (the form diagnostics print and
    // the ledger is keyed on), not PathBuf's component order, so output
    // is byte-stable everywhere.
    files.sort_by(|a, b| {
        let ka = a
            .strip_prefix(root)
            .unwrap_or(a)
            .to_string_lossy()
            .replace('\\', "/");
        let kb = b
            .strip_prefix(root)
            .unwrap_or(b)
            .to_string_lossy()
            .replace('\\', "/");
        ka.as_bytes().cmp(kb.as_bytes()).then_with(|| a.cmp(b))
    });
    Ok(files)
}

/// Runs the whole pass over a workspace root, returning the full report.
///
/// Files are analyzed in [`collect_rs_files`]'s sorted order, so the
/// report is byte-stable across filesystems.
///
/// # Errors
///
/// Propagates the first directory-walk or file-read error.
pub fn workspace_report(root: &Path) -> std::io::Result<Report> {
    let mut analyses = Vec::new();
    for file in collect_rs_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let analysis = analyze_source(&rel, &source);
        analyses.push((rel, analysis));
    }
    Ok(aggregate(analyses))
}

/// Renders the committed debt ledger (`results/tidy_debt.txt`): one row
/// per rule counting diagnostics suppressed by allow directives, plus a
/// total. CI regenerates this and diffs it against the committed file, so
/// allow-debt growth is always an explicit, reviewed change.
pub fn render_debt(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("# um-tidy allow-directive debt ledger\n");
    out.push_str("# One row per rule: diagnostics suppressed by `um-tidy: allow(...)`\n");
    out.push_str("# directives in the live tree. CI diffs this file against a fresh run;\n");
    out.push_str("# debt may only change together with a regenerated, committed ledger.\n");
    out.push_str(
        "# Regenerate: cargo run --release -p um-tidy -- --debt > results/tidy_debt.txt\n",
    );
    for rule in Rule::ALL {
        out.push_str(&format!(
            "{:<24} {}\n",
            rule.id(),
            report.debt[rule.index()]
        ));
    }
    out.push_str(&format!("{:<24} {}\n", "total", report.total_debt()));
    out
}

/// Renders the report as JSON whose text round-trips *byte-exactly*
/// through `um_bench::benchjson` (`Json::parse(s).render() == s`): same
/// 2-space indentation, integer formatting and string escaping. The lint
/// gate stays zero-dependency while its tests check the output with
/// `um_bench::benchjson`.
pub fn render_json(report: &Report) -> String {
    use jsonfmt::J;
    let violations = report
        .diagnostics
        .iter()
        .map(|d| {
            J::Obj(vec![
                ("path".into(), J::Str(d.path.clone())),
                ("line".into(), J::Num(d.line as f64)),
                ("rule".into(), J::Str(d.rule.id().into())),
                ("message".into(), J::Str(d.message.clone())),
            ])
        })
        .collect();
    let debt = Rule::ALL
        .iter()
        .map(|r| (r.id().to_string(), J::Num(report.debt[r.index()] as f64)))
        .collect();
    let doc = J::Obj(vec![
        ("tool".into(), J::Str("um-tidy".into())),
        ("rules".into(), J::Num(Rule::COUNT as f64)),
        ("files".into(), J::Num(report.files as f64)),
        ("lines".into(), J::Num(report.lines as f64)),
        (
            "violation_count".into(),
            J::Num(report.diagnostics.len() as f64),
        ),
        ("violations".into(), J::Arr(violations)),
        ("debt".into(), J::Obj(debt)),
        ("total_debt".into(), J::Num(report.total_debt() as f64)),
    ]);
    doc.render()
}

/// A minimal JSON emitter mirroring `um_bench::benchjson::Json::render`
/// exactly (2-space indent, `{n:.0}` integers, identical escapes), kept
/// here so the lint gate stays dependency-free. `crates/bench` round-trip
/// tests pin the byte equivalence.
mod jsonfmt {
    pub enum J {
        Num(f64),
        Str(String),
        Arr(Vec<J>),
        Obj(Vec<(String, J)>),
    }

    impl J {
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out, 0);
            out.push('\n');
            out
        }

        fn render_into(&self, out: &mut String, indent: usize) {
            match self {
                J::Num(n) => {
                    assert!(n.is_finite(), "cannot render non-finite number {n}");
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        out.push_str(&format!("{n:.0}"));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                }
                J::Str(s) => render_string(s, out),
                J::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        push_indent(out, indent + 1);
                        item.render_into(out, indent + 1);
                        out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                    }
                    push_indent(out, indent);
                    out.push(']');
                }
                J::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    for (i, (key, value)) in pairs.iter().enumerate() {
                        push_indent(out, indent + 1);
                        render_string(key, out);
                        out.push_str(": ");
                        value.render_into(out, indent + 1);
                        out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                    }
                    push_indent(out, indent);
                    out.push('}');
                }
            }
        }
    }

    fn push_indent(out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
    }

    fn render_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_line(line: &str) -> String {
        lexer::lex(line).lines[0].code.clone()
    }

    #[test]
    fn clean_strips_comments_and_strings() {
        assert_eq!(clean_line("let x = 1; // HashMap here"), "let x = 1; ");
        assert_eq!(clean_line(r#"let s = "HashMap";"#), r#"let s = "";"#);
        assert_eq!(clean_line(r#"let s = "a\"b HashMap";"#), r#"let s = "";"#);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("forbid(unsafe_code)", "unsafe"));
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("my_thread_rng_like", "thread_rng"));
    }

    #[test]
    fn sim_state_crate_classification() {
        assert!(FileContext::from_path("crates/net/src/mesh.rs").is_sim_state_crate());
        assert!(!FileContext::from_path("crates/bench/src/lib.rs").is_sim_state_crate());
        assert!(!FileContext::from_path("crates/tidy/src/lib.rs").is_sim_state_crate());
        assert!(!FileContext::from_path("tests/determinism.rs").is_sim_state_crate());
        assert!(FileContext::from_path("crates/net/tests/transit_math.rs").test_file);
        assert!(!FileContext::from_path("crates/stats/src/samples.rs").bans_float_accumulation());
        assert!(FileContext::from_path("crates/core/src/system.rs").bans_float_accumulation());
    }

    #[test]
    fn hashmap_flagged_only_outside_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].rule, Rule::UnorderedContainer);
    }

    #[test]
    fn test_scope_ends_at_module_close() {
        // v1 treated everything after the first #[cfg(test)] as test code;
        // the nesting-aware tracker resumes linting after the close brace.
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\nuse std::collections::HashMap;\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn braceless_cfg_test_item_scopes_one_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn block_comments_and_raw_strings_do_not_trip_rules() {
        let src = "/*\n  HashMap in a block comment\n*/\nlet s = r#\"HashMap in a raw string\"#;\nlet l: &'static str = \"x\";\n";
        assert!(check_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_same_line_and_above() {
        let same = "use std::collections::HashMap; // um-tidy: allow(unordered-container) -- keyed lookups only\n";
        assert!(check_source("crates/net/src/x.rs", same).is_empty());
        let above = "// um-tidy: allow(unordered-container) -- keyed lookups only\nuse std::collections::HashMap;\n";
        assert!(check_source("crates/net/src/x.rs", above).is_empty());
    }

    #[test]
    fn allow_without_reason_rejected() {
        let src = "use std::collections::HashMap; // um-tidy: allow(unordered-container)\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == Rule::AllowSyntax));
        assert!(diags.iter().any(|d| d.rule == Rule::UnorderedContainer));
    }

    #[test]
    fn unknown_allow_rule_rejected() {
        let src = "let x = 1; // um-tidy: allow(no-such-rule) -- because\n";
        let diags = check_source("crates/net/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::AllowSyntax);
    }

    #[test]
    fn cycle_cast_needs_cycle_name() {
        let flagged = "let x = total_cycles as u32;\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", flagged)[0].rule,
            Rule::CycleTruncCast
        );
        let fine = "let x = index as usize;\n";
        assert!(check_source("crates/core/src/x.rs", fine).is_empty());
    }

    #[test]
    fn cycle_float_cmp_needs_float_evidence() {
        let flagged = "if latency_us == 0.0 {\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", flagged)[0].rule,
            Rule::CycleFloatCmp
        );
        let fine = "if cycles == other_cycles {\n";
        assert!(check_source("crates/core/src/x.rs", fine).is_empty());
    }

    #[test]
    fn wall_clock_allowed_in_bench() {
        let src = "let t = std::time::Instant::now();\n";
        assert!(check_source("crates/bench/src/lib.rs", src).is_empty());
        assert_eq!(
            check_source("crates/sim/src/x.rs", src)[0].rule,
            Rule::WallClock
        );
        assert_eq!(check_source("src/lib.rs", src)[0].rule, Rule::WallClock);
    }

    #[test]
    fn ignore_needs_reason() {
        assert_eq!(
            check_source("tests/t.rs", "#[ignore]\n")[0].rule,
            Rule::IgnoreWithoutReason
        );
        assert!(check_source("tests/t.rs", "#[ignore = \"slow\"]\n").is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "unsafe { *p }\n";
        assert_eq!(
            check_source("crates/sim/src/x.rs", bad)[0].rule,
            Rule::UnsafeWithoutSafety
        );
        let good = "// SAFETY: p outlives the call\nunsafe { *p }\n";
        assert!(check_source("crates/sim/src/x.rs", good).is_empty());
        let forbid = "#![forbid(unsafe_code)]\n";
        assert!(check_source("crates/sim/src/x.rs", forbid).is_empty());
    }

    #[test]
    fn safety_in_a_string_does_not_count() {
        let src = "let s = \"SAFETY: not a comment\";\nunsafe { *p }\n";
        assert_eq!(
            check_source("crates/sim/src/x.rs", src)[0].rule,
            Rule::UnsafeWithoutSafety
        );
    }

    #[test]
    fn raw_fault_plan_flagged_outside_sim() {
        let src = "let plan = FaultPlan::from_events(7, events);\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", src)[0].rule,
            Rule::RawFaultPlan
        );
        // um-sim itself (builder internals, round-trip tests) is exempt,
        // as is test code anywhere.
        assert!(check_source("crates/sim/src/fault.rs", src).is_empty());
        assert!(check_source("tests/t.rs", src).is_empty());
    }

    #[test]
    fn raw_binary_heap_flagged_outside_queue_module() {
        let src = "use std::collections::BinaryHeap;\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", src)[0].rule,
            Rule::RawBinaryHeap
        );
        assert_eq!(
            check_source("crates/sim/src/fault.rs", src)[0].rule,
            Rule::RawBinaryHeap
        );
        // The queue module owns the future-event structure (and the heap
        // baseline); um-bench measures the baseline; tests model with it.
        assert!(check_source("crates/sim/src/queue.rs", src).is_empty());
        assert!(check_source("crates/bench/benches/engine.rs", src).is_empty());
        assert!(check_source("crates/sim/tests/queue_model.rs", src).is_empty());
    }

    #[test]
    fn debug_macros_flagged_outside_tests() {
        let src = "dbg!(x);\n";
        assert_eq!(
            check_source("crates/sim/src/x.rs", src)[0].rule,
            Rule::DebugMacro
        );
        assert!(check_source("tests/t.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_do_not_trip_rules() {
        let src = "/// Uses a HashMap-like structure; see Instant::now docs.\nlet x = 1;\n";
        assert!(check_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_accumulation_flagged_in_sim_state() {
        let src = "total += delta as f64;\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", src)[0].rule,
            Rule::FloatAccumulation
        );
        // um-stats owns the exact sample sets; integer folds are fine.
        assert!(check_source("crates/stats/src/x.rs", src).is_empty());
        assert!(check_source("crates/core/src/x.rs", "count += 1;\n").is_empty());
        let turbo = "let s = xs.iter().sum::<f64>();\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", turbo)[0].rule,
            Rule::FloatAccumulation
        );
    }

    #[test]
    fn float_accumulation_sees_multiline_statements() {
        let src = "let extra: f64 = (1..=n)\n    .map(|k| p.powi(k))\n    .sum();\n";
        let diags = check_source("crates/workload/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::FloatAccumulation);
        assert_eq!(diags[0].line, 3);
        // An integer chain with the same shape stays clean.
        let int = "let n: u64 = (1..=n)\n    .map(|k| k * 2)\n    .sum();\n";
        assert!(check_source("crates/workload/src/x.rs", int).is_empty());
    }

    #[test]
    fn partial_cmp_sort_flagged() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(
            check_source("crates/stats/src/x.rs", src)[0].rule,
            Rule::PartialCmpSort
        );
        let unstable = "v.sort_unstable_by(|a, b| (a.0 as f64).total_cmp(&(b.0 as f64)));\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", unstable)[0].rule,
            Rule::PartialCmpSort
        );
        // A stable integer sort is fine, as is total_cmp without floats.
        assert!(check_source("crates/core/src/x.rs", "v.sort_by_key(|x| x.id);\n").is_empty());
        // partial_cmp alone (a PartialOrd impl) is not a sort.
        assert!(check_source(
            "crates/sim/src/x.rs",
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n"
        )
        .is_empty());
    }

    #[test]
    fn env_read_fenced_out_of_sim_core() {
        let src = "let v = std::env::var(\"UM_THREADS\");\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", src)[0].rule,
            Rule::EnvRead
        );
        // The bench/driver layer and the lint itself read env by design.
        assert!(check_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(check_source("crates/tidy/src/main.rs", src).is_empty());
        assert!(check_source("src/lib.rs", src).is_empty());
    }

    #[test]
    fn async_fenced_out_of_sim_core() {
        for src in [
            "pub async fn serve() {}\n",
            "let h = tokio::spawn(work());\n",
            "let v = fut.await;\n",
        ] {
            let diags = check_source("crates/sched/src/x.rs", src);
            assert_eq!(
                diags.first().map(|d| d.rule),
                Some(Rule::AsyncInSim),
                "{src}"
            );
        }
        assert!(check_source("crates/sched/src/x.rs", "let asynchrony = 1;\n").is_empty());
        assert!(check_source("src/service.rs", "pub async fn serve() {}\n").is_empty());
    }

    #[test]
    fn raw_sim_types_flagged_only_in_serve() {
        let diags = check_source(
            "crates/serve/src/service.rs",
            "let r = SystemSim::new(cfg).run();\n",
        );
        assert_eq!(diags.first().map(|d| d.rule), Some(Rule::ServeRawConfig));
        // The scenario layer, tests, and the rest of the workspace build
        // and run simulators by design.
        assert!(check_source("crates/serve/tests/service.rs", "SystemSim::new(cfg)\n").is_empty());
        assert!(check_source("crates/bench/src/scenario.rs", "SystemSim::new(cfg)\n").is_empty());
        // um-serve reading UM_THREADS for its pool size is outside the
        // sim-core env fence.
        assert!(check_source(
            "crates/serve/src/service.rs",
            "std::env::var(\"UM_THREADS\")\n"
        )
        .is_empty());
    }

    #[test]
    fn inline_config_flagged_only_in_bench_bins() {
        let sim = "SystemSim::new(SimConfig {\n";
        let cluster = "let c = ClusterConfig {\n";
        for src in [sim, cluster] {
            let diags = check_source("crates/bench/src/bin/x.rs", src);
            assert_eq!(
                diags.first().map(|d| d.rule),
                Some(Rule::ScenarioInlineConfig),
                "{src}"
            );
        }
        // The scenario module, the experiment layer and tests all build
        // configs by design; `..Default()` updates and net-config
        // literals are not experiment definitions.
        assert!(check_source("crates/bench/src/scenario.rs", sim).is_empty());
        assert!(check_source("crates/core/src/experiments/motivation.rs", sim).is_empty());
        assert!(check_source("crates/bench/tests/t.rs", sim).is_empty());
        for fine in [
            "..SimConfig::default()\n",
            "net: ClusterNetConfig {\n",
            "fn base() -> SimConfig {\n",
        ] {
            assert!(
                check_source("crates/bench/src/bin/x.rs", fine).is_empty(),
                "{fine}"
            );
        }
    }

    #[test]
    fn duplicate_seed_streams_flagged_across_files() {
        let files = vec![
            (
                "crates/net/src/a.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"fabric\"); }\n".to_string(),
            ),
            (
                "crates/sched/src/b.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream_indexed(seed, \"fabric\", 0); }\n"
                    .to_string(),
            ),
            (
                "crates/mem/src/c.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"unique\"); }\n".to_string(),
            ),
        ];
        let report = check_files(&files);
        assert_eq!(report.diagnostics.len(), 2, "{:?}", report.diagnostics);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.rule == Rule::DuplicateSeedStream));
        assert_eq!(report.diagnostics[0].path, "crates/net/src/a.rs");
        assert_eq!(report.diagnostics[1].path, "crates/sched/src/b.rs");
    }

    #[test]
    fn duplicate_seed_stream_same_file_and_tests_exempt() {
        let files = vec![
            (
                "crates/net/src/a.rs".to_string(),
                "pub fn mk(seed: u64) { let _a = rng::stream(seed, \"t\"); let _b = rng::stream(seed, \"t\"); }\n"
                    .to_string(),
            ),
            (
                "crates/net/tests/t.rs".to_string(),
                "fn mk(seed: u64) { let _r = rng::stream(seed, \"t\"); }\n".to_string(),
            ),
        ];
        assert!(check_files(&files).diagnostics.is_empty());
    }

    #[test]
    fn duplicate_seed_stream_allow_feeds_debt() {
        let files = vec![
            (
                "crates/net/src/a.rs".to_string(),
                "pub fn mk(seed: u64) { let _r = rng::stream(seed, \"shared\"); } // um-tidy: allow(duplicate-seed-stream) -- intentional shared stream\n"
                    .to_string(),
            ),
            (
                "crates/sched/src/b.rs".to_string(),
                "// um-tidy: allow(duplicate-seed-stream) -- intentional shared stream\npub fn mk(seed: u64) { let _r = rng::stream(seed, \"shared\"); }\n"
                    .to_string(),
            ),
        ];
        let report = check_files(&files);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.debt[Rule::DuplicateSeedStream.index()], 2);
    }

    #[test]
    fn used_allows_count_as_debt() {
        let files = vec![(
            "crates/net/src/a.rs".to_string(),
            "use std::collections::HashMap; // um-tidy: allow(unordered-container) -- keyed lookups only\n"
                .to_string(),
        )];
        let report = check_files(&files);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.debt[Rule::UnorderedContainer.index()], 1);
        assert_eq!(report.total_debt(), 1);
        // An allow that suppresses nothing is not debt.
        let unused = vec![(
            "crates/net/src/a.rs".to_string(),
            "let x = 1; // um-tidy: allow(unordered-container) -- nothing here\n".to_string(),
        )];
        assert_eq!(check_files(&unused).total_debt(), 0);
    }

    #[test]
    fn debt_ledger_renders_every_rule() {
        let report = check_files(&[]);
        let ledger = render_debt(&report);
        for rule in Rule::ALL {
            assert!(ledger.contains(rule.id()), "ledger misses {}", rule.id());
        }
        assert!(ledger.ends_with("total                    0\n"));
    }

    #[test]
    fn json_report_is_deterministic_and_complete() {
        let files = vec![(
            "crates/net/src/a.rs".to_string(),
            "use std::collections::HashMap;\n".to_string(),
        )];
        let report = check_files(&files);
        let a = render_json(&report);
        let b = render_json(&check_files(&files));
        assert_eq!(a, b);
        assert!(a.contains("\"unordered-container\""));
        assert!(a.contains("\"violation_count\": 1"));
    }

    #[test]
    fn rule_table_covers_all_rules() {
        let table = rule_table();
        for rule in Rule::ALL {
            assert!(table.contains(rule.id()), "table misses {}", rule.id());
        }
        assert_eq!(table.lines().count(), 2 + Rule::COUNT);
    }

    #[test]
    fn rule_ids_roundtrip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
            assert!(!rule.summary().is_empty());
            assert!(!rule.denies().is_empty());
            assert!(!rule.applies_where().is_empty());
        }
        assert_eq!(Rule::from_id("nope"), None);
        assert_eq!(Rule::ALL[Rule::AllowSyntax.index()], Rule::AllowSyntax);
    }
}
