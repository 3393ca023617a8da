//! Benchmark-side spans: one record per call into a layer, kept in memory
//! and written out when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started (`None` for a root).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans against one clock. Spans nest: `open` makes the new span a
/// child of the innermost open one and `close` ends that innermost one.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            rep: self.rep,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without an open span");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// One JSON object per line: id, parent, name, rep, start, end, self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.name, s.rep, s.start_ns, s.end_ns, self_ns
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn log_nests_spans_under_the_innermost_open_one() {
        let mut log = SpanLog::new();
        log.set_rep(2);
        log.open("rep");
        log.open("setup");
        log.close();
        log.open("run");
        log.open("run_until");
        log.close();
        log.close();
        log.close();
        let parents: Vec<Option<u32>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(log
            .spans()
            .iter()
            .all(|s| s.rep == 2 && s.end_ns >= s.start_ns));
        let text = to_jsonl(log.spans());
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"rep\",\"rep\":2,"));
    }
}
