//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent).  Spans are recorded around the benchmark's own
//! calls into each crate; a span whose time a crate reports itself (a
//! solver's check time) is added as a child laid out inside its parent.
//! With tracing off every call is a no-op, so the same code serves both
//! runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name without the last segment
    /// (`tsys.session.extend` belongs to `tsys.session`).
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// An open span: its index, or `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: on.then(Vec::new),
            stack: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = self.at(Instant::now());
        let parent = self.stack.last().copied();
        let Some(spans) = self.spans.as_mut() else {
            return Open(None);
        };
        spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        let idx = spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span (spans close innermost first).
    pub fn exit(&mut self, open: Open) {
        let end = self.at(Instant::now());
        if let (Some(idx), Some(spans)) = (open.0, self.spans.as_mut()) {
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
            self.stack.pop();
            spans[idx].end = end;
        }
    }

    /// Records a closed child of the innermost open span covering
    /// `offset..offset + len` of it, for time a crate measured itself.  The
    /// child is clipped to its parent so self times never go negative.
    pub fn child(&mut self, name: &'static str, offset: Duration, len: Duration) {
        let Some(spans) = self.spans.as_mut() else {
            return;
        };
        let parent = *self
            .stack
            .last()
            .expect("a reported child needs an open parent");
        let parent_start = spans[parent].start;
        let now = self.origin.elapsed();
        let start = (parent_start + offset).min(now);
        let end = (start + len).min(now);
        spans.push(Span {
            name,
            parent: Some(parent),
            start,
            end,
        });
    }

    /// The offset of "now" inside the innermost open span.
    pub fn offset(&self) -> Duration {
        match (self.spans.as_ref(), self.stack.last()) {
            (Some(spans), Some(&idx)) => self.origin.elapsed().saturating_sub(spans[idx].start),
            _ => Duration::ZERO,
        }
    }

    /// Total duration of every span with this name.
    pub fn total(&self, name: &str) -> Duration {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans().iter().filter(|s| s.name == name).count()
    }

    /// Total duration of the spans without a parent.
    pub fn top_level(&self) -> Duration {
        self.spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover (children never overlap each other).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans();
        let mut covered = vec![Duration::ZERO; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(covered) {
            *out.entry(s.layer()).or_insert(Duration::ZERO) += s.dur().saturating_sub(c);
        }
        out
    }

    /// The spans as JSON lines (`id`, `parent`, `name`, `start_us`,
    /// `end_us`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

/// Times `f` under a span named `name`.
pub fn span<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = tr.enter(name);
    let out = f();
    tr.exit(open);
    out
}
