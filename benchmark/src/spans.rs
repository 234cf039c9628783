//! Host-time spans recorded from the benchmark's own code, around each
//! call into a library layer.
//!
//! A span holds a name, a start, an end and its parent. Spans stay in
//! memory and are written at exit as Chrome trace-event JSON. A disabled
//! recorder still times each call (the untraced run needs set-up and run
//! times) but keeps nothing.

use std::time::Instant;

use crate::json;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `accel.step_iteration`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened and not yet closed.
#[must_use = "close the span to record it"]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that times calls but records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// `true` when spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens span `name` as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
            });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { idx, start }
    }

    /// Closes `open` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order (a benchmark bug).
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.stack.pop(), Some(idx), "spans close in nesting order");
            self.spans[idx].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside span `name`; returns its value and duration in
    /// seconds. `f` may not open spans of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of the root spans' wall time, apart from their children
    /// named `own` (the benchmark's own bookkeeping), that lies inside
    /// child spans: the part of the traced run attributed to a named
    /// layer. 0 when nothing was recorded.
    pub fn coverage(&self, own: &str) -> f64 {
        let (mut root, mut excluded, mut inside) = (0u64, 0u64, 0u64);
        for s in &self.spans {
            match s.parent {
                None => root += s.dur_ns(),
                Some(p) if self.spans[p].parent.is_none() => {
                    if s.name == own {
                        excluded += s.dur_ns();
                    } else {
                        inside += s.dur_ns();
                    }
                }
                Some(_) => {}
            }
        }
        let total = root.saturating_sub(excluded);
        if total == 0 {
            0.0
        } else {
            inside as f64 / total as f64
        }
    }

    /// Self time (span minus child spans) summed per layer, where a
    /// span's layer is its name up to the last `.`; sorted by layer.
    pub fn self_time_by_layer(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_layer = std::collections::BTreeMap::<String, u64>::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
            *by_layer.entry(layer.to_owned()).or_default() +=
                s.dur_ns().saturating_sub(child_ns[i]);
        }
        by_layer
            .into_iter()
            .map(|(l, ns)| (l, ns as f64 * 1e-9))
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of every
    /// span, with `extra` rendered fields added to the top-level object.
    pub fn chrome_json(&self, extra: Vec<(String, String)>) -> String {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![("id", i.to_string())];
            if let Some(p) = s.parent {
                args.push(("parent", p.to_string()));
            }
            json::object([
                ("name", json::string(s.name)),
                (
                    "cat",
                    json::string(s.name.split('.').next().unwrap_or(s.name)),
                ),
                ("ph", json::string("X")),
                ("ts", json::number(s.start_ns as f64 / 1e3)),
                ("dur", json::number(s.dur_ns() as f64 / 1e3)),
                ("pid", "1".to_owned()),
                ("tid", "1".to_owned()),
                ("args", json::object(args)),
            ])
        });
        let mut fields = vec![
            ("traceEvents".to_owned(), json::array(events)),
            ("displayTimeUnit".to_owned(), json::string("ms")),
        ];
        fields.extend(extra);
        json::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_give_self_time_and_coverage() {
        let mut s = Spans::on();
        let root = s.open("bench.op");
        spin(2);
        let ((), child) = s.time("accel.step_iteration", || spin(20));
        s.time("bench.reference", || spin(20));
        s.close(root);
        assert!(child >= 0.02);
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let cov = s.coverage("bench.reference");
        assert!(cov > 0.8 && cov < 1.0, "{cov}");
        let layers = s.self_time_by_layer();
        assert_eq!(layers[0].0, "accel");
        assert_eq!(layers[1].0, "bench");
        let v = crate::json::parse(&s.chrome_json(vec![])).unwrap();
        assert!(v.get("traceEvents").is_some());
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut s = Spans::off();
        let ((), secs) = s.time("graph.build", || spin(1));
        assert!(secs > 0.0);
        assert!(s.spans().is_empty());
        assert_eq!(s.coverage("bench.reference"), 0.0);
    }
}
