//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON when a traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by all spans of one request.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count nanoseconds from `origin`. Logs of
    /// concurrent clients share one origin so they can be merged.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let start_ns = since(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: since(end).max(start_ns),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Appends another log's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children and
    /// children sticking out of the parent are not counted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let outer = &self.spans[parent];
                let clipped = (
                    span.start_ns.max(outer.start_ns),
                    span.end_ns.min(outer.end_ns),
                );
                if clipped.0 < clipped.1 {
                    children[parent].push(clipped);
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let (mut covered, mut reach) = (0, span.start_ns);
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// `[{"name": .., "start_ns": .., "end_ns": .., "parent": .., "request_id": ..}, ..]`
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}{sep}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )
            .expect("String");
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        for &(name, start, end, parent) in spans {
            let at = |ns| origin + Duration::from_nanos(ns);
            log.record(name, at(start), at(end), parent, 7);
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let log = log_with(&[
            ("request", 0, 100, None),
            ("submit", 0, 30, Some(0)),
            ("execute", 40, 90, Some(0)),
            ("bfs", 45, 60, Some(2)),
        ]);
        assert_eq!(log.self_times_ns(), vec![20, 30, 35, 15]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let log = log_with(&[
            ("request", 10, 110, None),
            ("a", 0, 50, Some(0)),    // starts before the parent
            ("b", 40, 70, Some(0)),   // overlaps a
            ("c", 100, 150, Some(0)), // ends after the parent
            ("d", 45, 48, Some(0)),   // inside a and b
        ]);
        // Covered: [10, 70) and [100, 110) = 70 of 100.
        assert_eq!(log.self_times_ns()[0], 30);
    }

    #[test]
    fn absorbing_a_log_rebases_parents() {
        let mut a = log_with(&[("request", 0, 10, None)]);
        let b = log_with(&[("request", 0, 10, None), ("execute", 2, 8, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 4, 6]);
    }

    #[test]
    fn json_lists_every_field() {
        let log = log_with(&[("request", 0, 10, None), ("execute", 2, 8, Some(0))]);
        let path =
            std::env::temp_dir().join(format!("pathenum-bench-spans-{}.json", std::process::id()));
        log.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains(
            "{\"name\": \"execute\", \"start_ns\": 2, \"end_ns\": 8, \"parent\": 0, \"request_id\": 7}"
        ));
        assert!(text.contains("\"parent\": null"));
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
    }
}
