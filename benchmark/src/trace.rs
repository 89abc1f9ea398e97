//! Spans recorded from outside the library: each wraps one call into a
//! layer's public functions with its name, start, end, parent span, and
//! the heap allocations made while it was open.
//!
//! Spans are kept in memory and written out only when the run ends, so the
//! writing costs nothing inside a measured interval.

use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.serve`.
    pub name: &'static str,
    /// Seconds from the tracer's origin to the span's start.
    pub start_s: f64,
    /// Seconds from the tracer's origin to the span's end.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Heap allocations made while the span was open.
    pub allocations: u64,
}

impl Span {
    /// Wall time the span covers, in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. `f` receives the tracer so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let allocations = alloc::allocations();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
            allocations: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let span = &mut self.spans[index];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.allocations = alloc::allocations() - allocations;
        result
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on, named `name`.
    pub fn named(&self, from: usize, name: &str) -> impl Iterator<Item = &Span> {
        let name = name.to_owned();
        self.spans[from..].iter().filter(move |s| s.name == name)
    }

    /// Total seconds of the spans from index `from` on named `name`.
    #[must_use]
    pub fn seconds(&self, from: usize, name: &str) -> f64 {
        self.named(from, name)
            .map(Span::seconds)
            .fold(0.0, |a, b| a + b)
    }

    /// Number of spans from index `from` on named `name`.
    #[must_use]
    pub fn count(&self, from: usize, name: &str) -> usize {
        self.named(from, name).count()
    }

    /// Total seconds of the direct children of span `parent`.
    #[must_use]
    pub fn child_seconds(&self, parent: usize) -> f64 {
        self.spans[parent..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::seconds)
            .fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn write_json_lines(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"parent\": {parent}, \"allocations\": {}}}",
                s.name, s.start_s, s.end_s, s.allocations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::hint::black_box(vec![1u8; 64]));
            tr.span("inner", |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tr.count(0, "inner"), 2);
        assert!(spans[1].allocations >= 1);
        assert!(tr.child_seconds(0) <= spans[0].seconds());
        let mut out = Vec::new();
        tr.write_json_lines(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
    }
}
