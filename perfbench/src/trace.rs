//! A small in-memory span recorder for the traced runs.
//!
//! Spans are recorded only by the benchmark, around calls into the
//! program's public functions; nothing inside the program is
//! instrumented. Each span has a name, a start and end relative to a
//! shared epoch, its parent span, and optionally the id of the serve
//! request it belongs to. Spans stay in memory until the run ends and
//! are then written as Chrome-trace JSON plus a per-layer self-time
//! table.

use fpa_harness::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// The serve request this span belongs to.
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Tracers of different threads
/// share an epoch so their spans line up in one trace.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_for(name, None, f)
    }

    /// [`Tracer::span`] tagged with a serve request id.
    pub fn span_for<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Records an already-timed interval as a child of the open span.
    pub fn record(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).expect("ns");
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }
}

/// Per-name aggregate of a set of tracers: calls, total and self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span name: a span's duration minus the part its
/// child spans cover. Children of one parent never overlap (each tracer
/// records one thread), so the covered part is the sum of their
/// durations.
pub fn self_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, SelfTime> {
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, covered) in t.spans.iter().zip(child_ns) {
            let e = table.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(covered);
        }
    }
    table
}

/// Share of the root span `root` covered by its direct children, in
/// percent: how much of the traced wall time named spans account for.
pub fn coverage_pct(t: &Tracer, root: &str) -> f64 {
    let Some((idx, span)) = t.spans.iter().enumerate().find(|(_, s)| s.name == root) else {
        return 0.0;
    };
    let covered: u64 = t
        .spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::dur_ns)
        .sum();
    covered as f64 / span.dur_ns().max(1) as f64 * 100.0
}

/// Renders tracers as Chrome-trace JSON (complete `X` events, one `tid`
/// per tracer; times in microseconds).
pub fn chrome_trace(tracers: &[&Tracer]) -> String {
    let mut events = Vec::new();
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let mut args = Json::obj();
            args.set("span", i);
            args.set("parent", s.parent.map_or(Json::Null, Json::from));
            if let Some(r) = s.request {
                args.set("request", r);
            }
            let mut e = Json::obj();
            e.set("name", s.name)
                .set("cat", s.name.split('.').next().unwrap_or(s.name))
                .set("ph", "X")
                .set("ts", s.start_ns as f64 / 1e3)
                .set("dur", s.dur_ns() as f64 / 1e3)
                .set("pid", 1u64)
                .set("tid", u64::from(t.thread))
                .set("args", args);
            events.push(e);
        }
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms");
    doc.render_compact()
}

/// The self-time table as aligned text, heaviest self time first.
pub fn self_time_table(tracers: &[&Tracer]) -> String {
    let mut rows: Vec<(&'static str, SelfTime)> = self_times(tracers).into_iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, st) in rows {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3}\n",
            name,
            st.calls,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
