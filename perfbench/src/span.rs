//! Spans around the benchmark's own calls into each layer.
//!
//! Each load-generator thread owns a [`SpanLog`]; a span records its name
//! (the layer it calls into), start, end, the span open around it, and
//! the op it serves. When tracing is off every call is a plain call with
//! no clock reads. Logs are merged into a [`Trace`] when their thread
//! ends; the first [`KEEP`] spans are kept for the span file and every
//! span feeds the per-name duration and self-time aggregates.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept in memory for the span file; the rest are only aggregated.
pub const KEEP: usize = 1 << 17;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of this span within its thread's log.
    pub index: u32,
    /// Index (within the same thread's log) of the enclosing span.
    pub parent: Option<u32>,
    pub op: u64,
    pub thread: u32,
}

/// One thread's spans.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`Self::close`].
    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.push(name, op, start_ns, start_ns);
        self.open.push(self.spans.len() as u32 - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.push(name, op, start_ns, end_ns);
        r
    }

    fn push(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            index: self.spans.len() as u32,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
            thread: self.thread,
        });
    }
}

/// Per-name aggregate over every span of a run.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
}

impl Agg {
    pub fn p50_us(&self) -> f64 {
        let us: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
        crate::probe::median(&us)
    }
}

/// The merged trace of a run.
#[derive(Debug, Default)]
pub struct Trace {
    pub kept: Vec<Span>,
    pub dropped: u64,
    pub by_name: BTreeMap<&'static str, Agg>,
}

impl Trace {
    /// Folds a finished thread's spans in, computing self time: a span's
    /// duration minus the part its child spans cover (children of one
    /// thread never overlap each other).
    pub fn absorb(&mut self, log: SpanLog) {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in log.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let agg = self.by_name.entry(s.name).or_default();
            agg.durations_ns.push(dur);
            agg.self_ns += dur.saturating_sub(c);
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.dropped += log.spans.len().saturating_sub(room) as u64;
        self.kept.extend(log.spans.into_iter().take(room));
    }

    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.by_name.get(name)
    }

    /// Writes the kept spans as CSV (`thread,index,parent,op,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread,index,parent,op,name,start_ns,end_ns")?;
        for s in &self.kept {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.thread, s.index, parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true, Instant::now(), 0);
        log.open("op", 1);
        log.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.close();
        let mut t = Trace::default();
        t.absorb(log);
        let op = t.agg("op").unwrap();
        let child = t.agg("child").unwrap();
        assert_eq!(op.durations_ns[0], op.self_ns + child.durations_ns[0]);
        assert!(child.self_ns >= 2_000_000);
        assert_eq!(t.kept[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        log.open("op", 1);
        assert_eq!(log.time("child", 1, || 5), 5);
        log.close();
        let mut t = Trace::default();
        t.absorb(log);
        assert!(t.kept.is_empty() && t.by_name.is_empty());
    }
}
