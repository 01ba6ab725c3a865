//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::span`], which always measures the call's host time (the
//! end-to-end metrics use it) and, when tracing is on, also records a
//! span: name, start, end, parent and an optional work count. Spans stay
//! in memory until [`Tracer::write_jsonl`] runs at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// Units of work the span covered (refs, sends, probes); 0 when the
    /// span is one call.
    pub count: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; timing is unaffected.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` as one call into the layer `name` names and returns its
    /// result with the host seconds it took.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.span_n(name, 0, f)
    }

    /// [`Tracer::span`] for a span that covers `count` units of work.
    pub fn span_n<R>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.on {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us: (start - self.t0).as_secs_f64() * 1e6,
            end_us: 0.0,
            count,
        });
        self.open.push(idx);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_us = (end - self.t0).as_secs_f64() * 1e6;
        (r, (end - start).as_secs_f64())
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its child spans cover, summed by layer over the spans
    /// whose root span is named `root`.
    pub fn self_ms_by_layer(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        // Parents precede their children, so one forward pass finds roots.
        let mut root_of = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
            let r = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(r);
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name == root {
                *out.entry(s.layer()).or_insert(0.0) += (s.dur_us() - child_us[i]) / 1e3;
            }
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"count\":{}}}",
                s.name, s.start_us, s.end_us, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("bench.op", |tr| {
            tr.span("machine.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        tr.span("net.send", |_| ());
        let by = tr.self_ms_by_layer("bench.op");
        assert!(by["machine"] >= 20.0);
        assert!(by["bench"] < by["machine"]);
        assert!(
            !by.contains_key("net"),
            "spans under another root are excluded"
        );
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let ((), secs) = tr.span("machine.run", |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(secs >= 0.005);
        assert_eq!(tr.len(), 0);
    }
}
