//! In-memory spans recorded by the benchmark's own code around the
//! calls it makes into each layer. Nothing is traced inside the
//! program; spans are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One span: a named interval, the span that caused it (`0` = none),
/// and how many items (URLs, requests) the interval processed.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first span of the process: every recorder
/// shares this clock, so spans of all threads line up.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span recorder for one thread. Span ids are unique in the process.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Reserve an id for a span whose children are recorded first.
    pub fn next_id(&mut self) -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved id.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Run `f`, recording it as a span of `items` items under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Span) {
        let id = self.next_id();
        let start_ns = now_ns();
        let out = f();
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: now_ns(),
            items,
        };
        self.spans.push(span);
        (out, span)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap here: each
/// recorder is one thread).
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut covered = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let child = covered.get(&s.id).copied().unwrap_or(0);
            (*s, s.duration_ns().saturating_sub(child))
        })
        .collect()
}

/// Write every span as CSV: `id,parent,name,start_ns,end_ns,items,self_ns`.
pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns,items,self_ns")?;
    for (s, self_ns) in self_times(spans) {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.items, self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            items: 1,
        };
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 50, 70)];
        let selfs: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(selfs, vec![50, 30, 20]);
    }
}
