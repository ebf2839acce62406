//! In-memory span recording for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it (the
//! enclosing span on the same thread) and, where the timed call carries
//! one, the message id as the request id. Spans are kept in memory and
//! written out when the run ends; nothing here is active in an untraced
//! run.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within its tracer.
    pub id: u64,
    /// The enclosing span on the recording thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `broker.send`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Message id, where the call carries one.
    pub request: Option<u64>,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Id of the innermost open span on this thread.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Collects spans from every thread of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` on this
    /// thread record this one as their parent. `request` extracts the
    /// message id from the result, where there is one.
    pub fn span<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        request: impl FnOnce(&R) -> Option<u64>,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|current| current.replace(Some(id)));
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        CURRENT.with(|current| current.set(parent));
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request: request(&result),
        });
        result
    }

    /// Records an interval measured elsewhere (a wait, for example) as a
    /// child of whatever span is open on this thread.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, request: Option<u64>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(Cell::get);
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            request,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Sorted durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut out: Vec<u64> = spans
        .iter()
        .filter(|span| span.name == name)
        .map(Span::duration_ns)
        .collect();
    out.sort_unstable();
    out
}

/// Total self time (ns) of the spans named `name`: each span's duration
/// minus the time its child spans cover. Children of one span run on the
/// same thread, one after another, so their durations add up.
pub fn self_time_ns(spans: &[Span], name: &str) -> u64 {
    let mut child_time = std::collections::HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_time.entry(parent).or_insert(0u64) += span.duration_ns();
        }
    }
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| {
            span.duration_ns()
                .saturating_sub(child_time.get(&span.id).copied().unwrap_or(0))
        })
        .sum()
}

/// Spans beyond this many are counted but not written out, which keeps a
/// span file of a saturated run to a few tens of MB.
const MAX_WRITTEN: usize = 500_000;

/// Writes a run's spans to `dir/<name>.spans.tsv` and says so on standard
/// output.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn save(dir: &Path, name: &str, spans: &[Span]) {
    let path = dir.join(format!("{name}.spans.tsv"));
    let written = &spans[..spans.len().min(MAX_WRITTEN)];
    write_tsv(&path, written).expect("write span file");
    println!(
        "{} spans recorded, {} written to {}",
        spans.len(),
        written.len(),
        path.display()
    );
}

/// Writes spans as tab-separated `id parent name start_ns end_ns request`
/// lines (`-` for an absent parent or request).
fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\trequest")?;
    let dash = |value: Option<u64>| value.map_or_else(|| "-".to_owned(), |v| v.to_string());
    for span in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            span.id,
            dash(span.parent),
            span.name,
            span.start_ns,
            span.end_ns,
            dash(span.request)
        )?;
    }
    out.flush()
}
