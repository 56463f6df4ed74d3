//! Span records for the traced pass. Spans are kept in memory while a
//! workload replays and written out as JSON lines when it ends.

use std::io::{self, Write};

/// One timed interval. `parent == 0` marks the workload's root span; ids
/// start at 1. Times are nanoseconds since the replay started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its direct children cover. Overlapping children
/// are counted once, and a child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, t)) => *t += own,
            None => totals.push((span.name, own)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

/// Writes one JSON object per span: name, start, end, parent and the
/// workload id every span of the run shares.
pub fn write_jsonl<W: Write>(mut out: W, workload_id: &str, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        let line = serde_json::json!({
            "workload": workload_id,
            "id": (s.id),
            "parent": (s.parent),
            "name": (s.name),
            "start_ns": (s.start_ns),
            "end_ns": (s.end_ns),
        });
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(1, 0, "workload", 0, 100),
            span(2, 1, "batch", 10, 60),
            span(3, 2, "walk", 10, 30),
            span(4, 2, "render", 25, 50), // overlaps walk by 5
            span(5, 1, "batch", 70, 120), // runs past its parent
        ];
        let own = self_times(&spans);
        // workload: 100 − (50 + 30 clipped) = 20
        assert_eq!(own[0], 20);
        // batch: 50 − union([10,30],[25,50]) = 50 − 40 = 10
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 25);
        assert_eq!(own[4], 50);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span(1, 0, "workload", 0, 100),
            span(2, 1, "batch", 0, 40),
            span(3, 1, "batch", 50, 100),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("batch", 90), ("workload", 10)]
        );
    }

    #[test]
    fn jsonl_lines_carry_the_required_keys() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "dark-7", &[span(2, 1, "send", 5, 9)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(v["workload"], "dark-7");
        assert_eq!(v["name"], "send");
        assert_eq!(v["parent"], 1u64);
        assert_eq!(v["start_ns"], 5u64);
        assert_eq!(v["end_ns"], 9u64);
    }
}
