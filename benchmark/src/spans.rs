//! Spans recorded from the benchmark's own files around its calls into
//! each layer: kept in memory during a traced run, written out as JSON
//! lines afterwards.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Adds a finished span and returns its index.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start, Instant::now(), parent);
        out
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of span `id` in seconds: its duration minus what its
/// direct children cover. Children are logged after their parent.
pub fn self_time_s(spans: &[Span], id: usize) -> f64 {
    let children: u64 = spans[id + 1..]
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (spans[id].end_ns - spans[id].start_ns).saturating_sub(children) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            span("root", 0, 1_000_000_000, None),
            span("child", 100_000_000, 300_000_000, Some(0)),
            span("child", 500_000_000, 600_000_000, Some(0)),
            span("grandchild", 150_000_000, 200_000_000, Some(1)),
        ];
        assert!((self_time_s(&spans, 0) - 0.7).abs() < 1e-12);
        assert!((self_time_s(&spans, 1) - 0.15).abs() < 1e-12);
        assert!((self_time_s(&spans, 3) - 0.05).abs() < 1e-12);
    }
}
