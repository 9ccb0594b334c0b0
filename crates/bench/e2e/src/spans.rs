//! In-memory span recording for the traced run.
//!
//! Spans are taken by the benchmark's own code around each call into a
//! layer's public API — never inside the program — and written out as
//! JSON lines when the run ends. A span's self time is its duration
//! minus the part of it that its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
    /// The job or request the span belongs to (0 when it has none).
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder, or a no-op when tracing is off.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// A span that has begun and not yet ended.
#[must_use = "end the span with Spans::end"]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (an open span or `None` for a root).
    pub fn begin(&mut self, name: &str, parent: Option<&Open>, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: parent.and_then(|p| p.0),
            id,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records a span whose interval was timed elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<&Open>,
        id: u64,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: since(start),
            end_ns: since(end),
            parent: parent.and_then(|p| p.0),
            id,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Self times of every span called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e9)
            .collect()
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the length of the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                }
                reach = reach.max(hi);
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Concurrent children (two jobs in flight) cover [10, 50) once.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 50, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 60);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, 100, None),
            span(0, 50, Some(0)),
            span(0, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let open = spans.begin("x", None, 1);
        spans.end(open);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut spans = Spans::new(true);
        let root = spans.begin("root", None, 0);
        let child = spans.begin("child", Some(&root), 7);
        spans.end(child);
        spans.end(root);
        let s = spans.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].id, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let whole = spans.total_s("root");
        let own: f64 = spans.self_s("root").iter().sum();
        assert!((whole - own - spans.total_s("child")).abs() < 1e-12);
    }
}
