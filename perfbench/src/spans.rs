//! In-memory spans of the traced run, and self-time arithmetic.
//!
//! A span is a named interval with an optional parent and the id of
//! the request it belongs to. Spans are kept in memory and written out
//! once, when the run ends. A span's self time is its duration minus
//! the part of its interval its children cover (overlapping children
//! count once, and nothing outside the parent counts).

use std::time::Instant;

use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: usize,
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// `"timed"` when the harness timed the call itself; `"profile"`
    /// when the duration is the program's own phase total for work
    /// nested inside a timed call, laid out back to back from the
    /// parent's start.
    pub source: &'static str,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: usize,
        start: u64,
        end: u64,
        source: &'static str,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start,
            end,
            source,
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.push(name, parent, request, start, end, "timed"))
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| self_time(span.start, span.end, kids))
            .collect()
    }
}

/// `end - start` minus the union of `children` clipped to the interval.
pub fn self_time(start: u64, end: u64, mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in children {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end.saturating_sub(start)).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_covered_part() {
        assert_eq!(self_time(0, 100, vec![]), 100);
        assert_eq!(self_time(0, 100, vec![(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, vec![(10, 40), (20, 50)]), 60);
        // Parts outside the parent do not count.
        assert_eq!(self_time(10, 100, vec![(0, 20), (90, 130)]), 70);
        // Children covering everything leave nothing.
        assert_eq!(self_time(0, 100, vec![(0, 60), (50, 100)]), 0);
        // Nested grandchildren are the child's business, not ours.
        assert_eq!(self_time(0, 100, vec![(10, 90)]), 20);
    }

    #[test]
    fn recorder_links_parents() {
        let mut r = Recorder::default();
        let root = r.push("root", None, 0, 0, 100, "timed");
        let a = r.push("a", Some(root), 0, 10, 40, "timed");
        r.push("a1", Some(a), 0, 15, 25, "profile");
        r.push("b", Some(root), 0, 50, 60, "timed");
        assert_eq!(r.self_times(), vec![60, 20, 10, 10]);
    }
}
