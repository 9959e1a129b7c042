//! Outside-in span recording: the benchmark wraps each call into a crate's
//! public API in a span (name, start, end, parent, unit id), keeps the
//! spans in memory, derives per-layer self time from them, and writes them
//! once at the end as Chrome trace-event JSON (loadable in Perfetto, like
//! `repro trace export`).

use sgxs_obs::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `vm.run` or `fuzz.exec`.
    pub name: &'static str,
    /// Free-form detail (a scheme label, a workload name); empty if none.
    pub arg: String,
    /// Execution tier label (`ref` / `exec`), empty for tier-free spans.
    pub tier: &'static str,
    /// The unit (suite cell index or campaign seed) the span belongs to.
    pub unit: u64,
    /// Recording thread.
    pub tid: u64,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

/// A single-threaded span recorder. Campaign workers each fill their own
/// tracer; [`Tracer::absorb`] merges them afterwards.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Unit id stamped on new spans.
    pub unit: u64,
    /// Tier label stamped on new spans.
    pub tier: &'static str,
}

impl Tracer {
    /// An empty tracer timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            tier: "",
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (with detail `arg`); spans `f`
    /// opens through the tracer it is handed become children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        arg: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            arg: arg.to_owned(),
            tier: self.tier,
            unit: self.unit,
            tid: thread_tag(),
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        self.spans[idx].start = self.now();
        let out = f(self);
        self.spans[idx].end = self.now();
        self.open.pop();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span in seconds: its duration minus the part of
    /// that interval its direct children cover (children are sequential
    /// within one thread, so their durations simply add up).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Summed self time per `(name, tier)`.
    pub fn self_by_layer(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_secs()) {
            *out.entry((s.name, s.tier)).or_insert(0.0) += t;
        }
        out
    }

    /// Durations in seconds of every span named `name`, in recording
    /// order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![("unit", s.unit.into()), ("span", i.into())];
                if let Some(p) = s.parent {
                    args.push(("parent", p.into()));
                }
                if !s.tier.is_empty() {
                    args.push(("tier", s.tier.into()));
                }
                if !s.arg.is_empty() {
                    args.push(("arg", s.arg.as_str().into()));
                }
                Json::obj(vec![
                    ("name", s.name.into()),
                    ("cat", s.name.split('.').next().unwrap_or("").into()),
                    ("ph", "X".into()),
                    ("ts", (s.start as f64 / 1e3).into()),
                    ("dur", ((s.end - s.start) as f64 / 1e3).into()),
                    ("pid", 1u64.into()),
                    ("tid", s.tid.into()),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", "", |t| {
            t.span("inner", "", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let by = t.self_by_layer();
        let inner = by[&("inner", "")];
        let outer = by[&("outer", "")];
        assert!(inner >= 0.005, "{inner}");
        assert!(outer < inner, "outer self {outer} must exclude the child");
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
