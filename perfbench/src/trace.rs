//! Harness-side spans around calls into the program's public API.
//!
//! A span records its name, start, end, the span that caused it, and a
//! group id shared by every span of one request, batch or table. Spans
//! stay in memory and are written once, at exit, with per-name self
//! times (a span's duration minus the part its children cover).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Most spans kept; later ones are counted, not stored.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    group: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle to an open span; `None` when tracing is off or full.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let rec = SpanRec {
            name,
            group,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span list poisoned");
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        spans.push(rec);
        Some(spans.len() - 1)
    }

    /// Open a span now; [`Tracer::close`] sets its end.
    pub fn open(&self, name: &'static str, group: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, group, parent, now, now)
    }

    pub fn close(&self, span: SpanId) {
        if let Some(i) = span {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span list poisoned")[i].end_ns = end;
        }
    }

    /// Run `f` inside a span; `f` gets the span as the parent for its
    /// own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, group, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Self time per span name, in ms: each span's duration minus the
    /// union of its children's intervals, summed over spans of the name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64 / 1e6;
        }
        out
    }

    /// Write every span plus the run's stamp and self times as JSON.
    ///
    /// # Errors
    /// The file could not be written.
    pub fn write(&self, path: &str, stamp: &[(&str, String)]) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{")?;
        for (k, v) in stamp {
            writeln!(w, "  \"{k}\": {v},")?;
        }
        writeln!(
            w,
            "  \"dropped_spans\": {},",
            self.dropped.load(Ordering::Relaxed)
        )?;
        writeln!(w, "  \"self_time_ms\": {{")?;
        let selfs = self.self_times_ms();
        let rows: Vec<String> = selfs
            .iter()
            .map(|(name, (calls, ms))| {
                format!("    \"{name}\": {{\"calls\": {calls}, \"self_ms\": {ms}}}")
            })
            .collect();
        writeln!(w, "{}\n  }},", rows.join(",\n"))?;
        writeln!(w, "  \"spans\": [")?;
        let spans = self.spans.lock().expect("span list poisoned");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "    {{\"id\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.group,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "  ]\n}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let t = Tracer::new(true);
        let base = t.t0;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", 1, None, at(0), at(10));
        t.record("child", 1, root, at(2), at(5));
        t.record("child", 1, root, at(4), at(7));
        let selfs = t.self_times_ms();
        assert_eq!(selfs["root"], (1, 5.0));
        assert_eq!(selfs["child"], (2, 6.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, |id| id), None);
        assert!(t.self_times_ms().is_empty());
    }
}
