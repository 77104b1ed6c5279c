//! In-memory spans of the traced run.
//!
//! One root span per workload repeat, children `setup` / `run` /
//! `check`, and one child per layer leg. Spans are kept in memory and
//! written out once, when the process ends. With the tracer disabled
//! (every end-to-end run) `begin`/`end` do nothing.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index in the tracer's list (children refer to it).
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Span name.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Span recorder.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    enabled: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A disabled tracer for `workload`.
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            enabled: false,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (between spans).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle tracing between spans");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as a JSON array (name, start, end, self time, parent,
    /// workload id).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\
                     \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    self.workload,
                    s.start_ns,
                    s.end_ns,
                    self.self_ns(s.id)
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w");
        let o = t.begin("a");
        t.end(o);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new("w");
        t.set_enabled(true);
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(t.self_ns(0) <= s[0].end_ns - s[0].start_ns - (s[1].end_ns - s[1].start_ns));
        assert!(t.to_json().contains("\"name\":\"child\""));
    }
}
