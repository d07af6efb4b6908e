//! Spans recorded from the benchmark's own files, around each call into a layer.
//!
//! A [`Tracer`] belongs to one thread. It always times the call (the workloads need
//! the durations either way) and keeps a span only when tracing is on, so the traced
//! and the untraced run execute the same code. Spans stay in memory until the run
//! ends; [`write_json`] then writes them out and [`self_times`] reduces them to self
//! time per span name (a span's duration minus what its children cover).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the same tracer's span list.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Innermost open span: the parent of the next one.
    current: Option<usize>,
    request_id: Option<u64>,
}

impl Tracer {
    /// `origin` is shared by every tracer of a run so their clocks line up.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            current: None,
            request_id: None,
        }
    }

    /// Switches recording on or off between windows of one run.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from here on with a request identifier.
    pub fn set_request(&mut self, request_id: Option<u64>) {
        self.request_id = request_id;
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open span) and
    /// returns its result with the seconds it took.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let parent = self.current;
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request_id: self.request_id,
            });
            self.spans.len() - 1
        });
        if slot.is_some() {
            self.current = slot;
        }
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(slot) = slot {
            self.spans[slot].start_ns = (start - self.origin).as_nanos() as u64;
            self.spans[slot].end_ns = (end - self.origin).as_nanos() as u64;
            self.current = parent;
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time in seconds per span name, over every thread: each span's duration minus
/// the part of it its child spans cover (children of one thread never overlap).
pub fn self_times(threads: &[Vec<Span>]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for spans in threads {
        let mut child_time = vec![0.0f64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.seconds();
            }
        }
        for (span, children) in spans.iter().zip(&child_time) {
            *by_name.entry(span.name).or_insert(0.0) += (span.seconds() - children).max(0.0);
        }
    }
    by_name
}

/// Share of the root spans' wall time that the spans below them account for: one
/// minus the roots' own self time over their duration.
pub fn coverage(threads: &[Vec<Span>]) -> f64 {
    let (mut wall, mut covered) = (0.0f64, 0.0f64);
    for spans in threads {
        for span in spans {
            match span.parent {
                None => wall += span.seconds(),
                Some(parent) if spans[parent].parent.is_none() => covered += span.seconds(),
                Some(_) => {}
            }
        }
    }
    if wall > 0.0 {
        covered / wall
    } else {
        0.0
    }
}

/// Writes the spans of every thread of a run as one JSON document. `parent` is an
/// index into the same thread's `spans` array.
pub fn write_json(path: &Path, workload: &str, threads: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"threads\": [")?;
    for (t, spans) in threads.iter().enumerate() {
        writeln!(out, " {{\"thread\": {t}, \"spans\": [")?;
        for (i, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let request = span
                .request_id
                .map_or("null".to_string(), |r| r.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"request_id\": {request}}}{comma}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        let comma = if t + 1 < threads.len() { "," } else { "" };
        writeln!(out, " ]}}{comma}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_excludes_the_root() {
        let spans = vec![
            Span {
                name: "window",
                start_ns: 0,
                end_ns: 1_000,
                parent: None,
                request_id: None,
            },
            Span {
                name: "index.knn_join",
                start_ns: 100,
                end_ns: 900,
                parent: Some(0),
                request_id: None,
            },
            Span {
                name: "nn.matmul",
                start_ns: 200,
                end_ns: 500,
                parent: Some(1),
                request_id: None,
            },
        ];
        let threads = [spans];
        let times = self_times(&threads);
        assert!((times["window"] - 200e-9).abs() < 1e-15);
        assert!((times["index.knn_join"] - 500e-9).abs() < 1e-15);
        assert!((times["nn.matmul"] - 300e-9).abs() < 1e-15);
        assert!((coverage(&threads) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        let (value, seconds) = tracer.span("x", |t| t.span("y", |_| 7).0);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.into_spans().is_empty());

        let mut tracer = Tracer::new(true, Instant::now());
        tracer.set_request(Some(3));
        tracer.span("x", |t| t.span("y", |_| ()));
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].request_id),
            ("y", Some(0), Some(3))
        );
    }
}
