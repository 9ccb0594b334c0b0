//! Small measurement helpers shared by the workloads: order statistics,
//! the tail-percentile rule, `/proc` memory readings, goodput accounting
//! and the one-line result writer.

/// The percentiles a tail report may use, highest first.
const TAIL_QUANTILES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// A tail percentile picked by [`tail`]: which quantile, its value, and
/// how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub quantile: f64,
    pub value: f64,
    pub beyond: usize,
    pub count: usize,
}

/// Nearest-rank quantile of `sorted` (ascending), the rule `um_stats`
/// uses; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The highest of [`TAIL_QUANTILES`] with at least ten samples beyond
/// it, so a reported tail never rests on a handful of points.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_QUANTILES.iter().find_map(|&q| {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = n.checked_sub(rank)?;
        (beyond >= 10).then(|| Tail {
            quantile: q,
            value: v[rank - 1],
            beyond,
            count: n,
        })
    })
}

/// Parses a `kB` field (`VmHWM`, `VmRSS`, ...) out of a
/// `/proc/<pid>/status` text, in MiB.
pub fn status_field_mb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let kb: f64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb / 1024.0)
    })
}

/// Reads one memory field of a process (`"self"` or a pid), in MiB.
pub fn proc_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field_mb(&status, field)
}

/// How one open-loop job ended, for the goodput count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer checked out.
    Correct,
    /// Answered wrongly, refused (429), or never answered.
    Failed,
}

/// Jobs answered correctly within `limit_ms` of their scheduled send
/// time, over all jobs attempted. A failed or refused job misses the
/// limit whatever its latency.
pub fn goodput_ratio(jobs: &[(Outcome, f64)], limit_ms: f64) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    let good = jobs
        .iter()
        .filter(|&&(o, latency)| o == Outcome::Correct && latency <= limit_ms)
        .count();
    good as f64 / jobs.len() as f64
}

/// One named metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// The benchmark's verdict for one run.
#[derive(Clone, Debug, Default)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure was counted, for stderr.
    pub problems: Vec<String>,
}

impl Outcomes {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The single-line result object: `correct`, `attempted`, `failed` and
/// `metrics`, each metric `{"value": v, "unit": u}` with `v` printed at
/// full precision.
///
/// # Panics
///
/// Panics on a non-finite metric value: JSON cannot carry it.
pub fn result_line(outcomes: &Outcomes, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.failed == 0 && outcomes.attempted > 0,
        outcomes.attempted,
        outcomes.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("1000 samples have a tail");
        // p99.9 leaves 1 sample beyond; p99 leaves exactly 10.
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 1000);

        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).expect("tail").quantile, 0.95);
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).expect("tail").quantile, 0.999);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!((t.quantile, t.beyond), (0.9, 10));
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).expect("p50 of 20").beyond, 10);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).expect("tail").value, 990.0);
    }

    #[test]
    fn median_and_quantile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.0));
    }

    #[test]
    fn vmhwm_parses_from_proc_status() {
        let status =
            "Name:\tum-serve\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(status_field_mb(status, "VmHWM"), Some(20.0));
        assert_eq!(status_field_mb(status, "VmRSS"), Some(10.0));
        assert_eq!(status_field_mb(status, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(status_field_mb("VmHWMx:\t1 kB\n", "VmHWM"), None);
        assert_eq!(status_field_mb("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn own_process_reports_a_peak() {
        let peak = proc_mb("self", "VmHWM").expect("Linux exposes VmHWM");
        assert!(peak > 0.0);
    }

    #[test]
    fn goodput_counts_failed_and_refused_jobs_as_missing_the_limit() {
        let jobs = [
            (Outcome::Correct, 10.0),
            (Outcome::Correct, 50.0),
            (Outcome::Correct, 50.1),
            // A refused job answers fast, and still misses.
            (Outcome::Failed, 1.0),
        ];
        assert_eq!(goodput_ratio(&jobs, 50.0), 0.5);
        assert_eq!(goodput_ratio(&[], 50.0), 0.0);
    }

    #[test]
    fn result_line_is_one_line_with_exact_keys() {
        let mut o = Outcomes::default();
        o.check(true, || unreachable!());
        let line = result_line(&o, &[Metric::new("wall_s", 1.25, "s")]);
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "bad".into());
        assert!(result_line(&o, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
