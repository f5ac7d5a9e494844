//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Spans`] recorder is either on (the traced run) or off (the
//! end-to-end run, where [`Spans::time`] only runs the closure). Spans are
//! kept in memory and written once, at exit, as Chrome trace-event JSON
//! (`chrome://tracing` or Perfetto open it). A layer's self time is its
//! span's duration minus the time covered by its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.distribution`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round (request) the span belongs to; spans of one round share it.
    pub round: u32,
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
    round: u32,
}

impl Spans {
    /// A recorder; with `enabled == false` every call is a plain pass-through.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), round: 0 }
    }

    /// Turns recording on or off (the traced run alternates rounds).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = on;
    }

    /// Tags the spans that follow with round `r`.
    pub fn set_round(&mut self, r: u32) {
        self.round = r;
    }

    /// Runs `f` inside a span named `name` (when enabled).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
        let out = f(self);
        self.spans[idx].dur_ns = start.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Self time (ns) of every span named `name`, in recording order.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Median self time of `name` in milliseconds (0 when never recorded).
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let ns: Vec<f64> = self.self_times_ns(name).into_iter().map(|v| v as f64).collect();
        crate::stats::median(&ns) / 1e6
    }

    /// Span count per name (sorted), for the report.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"metadata\":");
        out.push_str(meta);
        out.push_str(",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.round
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(true);
        sp.time("outer", |sp| {
            sp.time("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let outer = sp.self_times_ns("outer")[0];
        let inner = sp.self_times_ns("inner")[0];
        assert!(inner >= 5_000_000);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
        assert_eq!(sp.counts()["outer"], 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.time("x", |_| 7), 7);
        assert!(sp.counts().is_empty());
        assert_eq!(sp.median_self_ms("x"), 0.0);
    }
}
