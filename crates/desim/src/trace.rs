//! Timeline recording.
//!
//! Experiments record *spans* (named intervals attached to an actor, e.g.
//! "node-7 executes map result 12") and *points* (instant markers, e.g.
//! "reduce phase starts") through [`vmr_obs::Journal`]; a [`Timeline`]
//! is the queryable view built from that journal. The Fig. 4
//! reproduction renders one lane per node from these spans.

use crate::time::SimTime;
use std::fmt::Write as _;

/// A named interval on some actor's lane.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Lane key, e.g. a node name.
    pub actor: String,
    /// What happened, e.g. `map:dl`, `map:exec`, `report`.
    pub kind: String,
    /// Free-form detail (task id etc.).
    pub detail: String,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

/// An instantaneous marker.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Lane key ("" for global markers).
    pub actor: String,
    /// Marker kind.
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
    /// When it happened.
    pub at: SimTime,
}

/// An in-memory event timeline.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    points: Vec<Point>,
}

impl Timeline {
    /// Builds a timeline from the span/point events retained in an
    /// observability journal, preserving recording order. This is how
    /// the Fig. 4 lanes are produced: components write spans and
    /// points through [`vmr_obs::Journal`] and the experiment harness
    /// reconstructs the `Timeline` for rendering.
    pub fn from_journal(journal: &vmr_obs::Journal) -> Timeline {
        let mut tl = Timeline::default();
        for ev in journal.events() {
            match ev.kind {
                vmr_obs::EventKind::Span {
                    actor,
                    kind,
                    detail,
                    end_us,
                } => tl.spans.push(Span {
                    actor,
                    kind,
                    detail,
                    start: SimTime::from_micros(ev.t_us),
                    end: SimTime::from_micros(end_us),
                }),
                vmr_obs::EventKind::Point {
                    actor,
                    kind,
                    detail,
                } => tl.points.push(Point {
                    actor,
                    kind,
                    detail,
                    at: SimTime::from_micros(ev.t_us),
                }),
                _ => {}
            }
        }
        tl
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded points, in recording order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Spans on one actor's lane, sorted by start time.
    pub fn lane(&self, actor: &str) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.actor == actor).collect();
        v.sort_by_key(|s| (s.start, s.end));
        v
    }

    /// Distinct actor names, sorted.
    pub fn actors(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .spans
            .iter()
            .map(|s| s.actor.clone())
            .chain(self.points.iter().map(|p| p.actor.clone()))
            .filter(|a| !a.is_empty())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Latest span/point time (simulation-activity horizon).
    pub fn end_time(&self) -> SimTime {
        let s = self
            .spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        let p = self
            .points
            .iter()
            .map(|p| p.at)
            .max()
            .unwrap_or(SimTime::ZERO);
        s.max(p)
    }

    /// Renders a fixed-width ASCII Gantt chart, one lane per actor —
    /// this is how the Fig. 4 binary prints per-node map timelines.
    ///
    /// `width` is the number of character cells spanning `[0, end_time]`;
    /// each span paints the first letter of its kind.
    pub fn render_ascii(&self, width: usize) -> String {
        let end = self.end_time();
        let total = end.as_secs_f64().max(1e-9);
        let mut out = String::new();
        let actors = self.actors();
        let name_w = actors.iter().map(|a| a.len()).max().unwrap_or(4).max(4);
        for actor in &actors {
            let mut row = vec![b'.'; width];
            for s in self.lane(actor) {
                let a = ((s.start.as_secs_f64() / total) * width as f64) as usize;
                let b = ((s.end.as_secs_f64() / total) * width as f64).ceil() as usize;
                let ch = s.kind.bytes().next().unwrap_or(b'#');
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            let _ = writeln!(out, "{actor:<name_w$} |{}|", String::from_utf8_lossy(&row));
        }
        let _ = writeln!(
            out,
            "{:<name_w$}  0{:>w$}",
            "",
            format!("{:.0}s", total),
            w = width
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A timeline over `spans` (actor, kind, start s, end s), recorded
    /// through a journal the way the engine does.
    fn timeline(spans: &[(&str, &str, u64, u64)]) -> Timeline {
        let journal = vmr_obs::Journal::new();
        for &(actor, kind, start, end) in spans {
            journal.span(actor, kind, "", t(start).as_micros(), t(end).as_micros());
        }
        Timeline::from_journal(&journal)
    }

    #[test]
    fn from_journal_keeps_spans_and_points_only() {
        let journal = vmr_obs::Journal::new();
        journal.span("n1", "exec", "wu0", t(1).as_micros(), t(5).as_micros());
        journal.point("", "phase", "reduce-start", t(6).as_micros());
        journal.record_with(7, || vmr_obs::EventKind::FlowStart { id: 1, bytes: 2 });
        let tl = Timeline::from_journal(&journal);
        assert_eq!(
            tl.spans(),
            [Span {
                actor: "n1".into(),
                kind: "exec".into(),
                detail: "wu0".into(),
                start: t(1),
                end: t(5),
            }]
        );
        assert_eq!(
            tl.points(),
            [Point {
                actor: "".into(),
                kind: "phase".into(),
                detail: "reduce-start".into(),
                at: t(6),
            }]
        );
        assert_eq!(tl.end_time(), t(6));
    }

    #[test]
    fn disabled_journal_yields_an_empty_timeline() {
        let journal = vmr_obs::Journal::new();
        journal.set_enabled(false);
        journal.span("n1", "exec", "", 0, 1);
        journal.point("n1", "x", "", 0);
        let tl = Timeline::from_journal(&journal);
        assert!(tl.spans().is_empty());
        assert!(tl.points().is_empty());
    }

    #[test]
    fn lanes_are_sorted_and_filtered() {
        let tl = timeline(&[("b", "x", 5, 6), ("a", "x", 3, 4), ("b", "y", 1, 2)]);
        let lane_b = tl.lane("b");
        assert_eq!(lane_b.len(), 2);
        assert!(lane_b[0].start < lane_b[1].start);
        assert_eq!(tl.actors(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn ascii_render_contains_lanes() {
        let tl = timeline(&[("node-1", "exec", 0, 50), ("node-2", "download", 50, 100)]);
        let art = tl.render_ascii(40);
        assert!(art.contains("node-1"));
        assert!(art.contains("node-2"));
        assert!(art.contains('e'));
        assert!(art.contains('d'));
    }
}
