//! Timeline recording.
//!
//! Experiments record *spans* (typed intervals on an actor's lane, e.g.
//! `node-07` executes result `r12`) and *points* (instant markers, e.g.
//! the `server` lane's `reduce-start`) through [`vmr_obs::Journal`]; a
//! [`Timeline`] is the queryable view built from that journal. Spans and
//! points hold the journal's typed values; lane names are rendered only
//! to order the lanes ([`Timeline::actors`]) and to draw them
//! ([`Timeline::render_ascii`]). The Fig. 4 reproduction renders one
//! lane per node from these spans.

use crate::time::SimTime;
use std::fmt::Write as _;
use vmr_obs::{Actor, Detail, EventKind, Mark};

/// A typed interval on some actor's lane.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Lane owner.
    pub actor: Actor,
    /// What happened, e.g. [`Mark::Exec`].
    pub mark: Mark,
    /// What it happened to, e.g. a result id.
    pub detail: Detail,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
}

/// An instantaneous marker on some actor's lane.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Lane owner.
    pub actor: Actor,
    /// Marker class.
    pub mark: Mark,
    /// What it is about, e.g. a job phase.
    pub detail: Detail,
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
                EventKind::Span {
                    actor,
                    mark,
                    detail,
                    end_us,
                } => tl.spans.push(Span {
                    actor,
                    mark,
                    detail,
                    start: SimTime::from_micros(ev.t_us),
                    end: SimTime::from_micros(end_us),
                }),
                EventKind::Point {
                    actor,
                    mark,
                    detail,
                } => tl.points.push(Point {
                    actor,
                    mark,
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
    pub fn lane(&self, actor: Actor) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.actor == actor).collect();
        v.sort_by_key(|s| (s.start, s.end));
        v
    }

    /// Distinct actors, sorted by their rendered names (`node-100`
    /// sorts between `node-10` and `node-11`, `server` last).
    pub fn actors(&self) -> Vec<Actor> {
        let mut v: Vec<Actor> = self
            .spans
            .iter()
            .map(|s| s.actor)
            .chain(self.points.iter().map(|p| p.actor))
            .collect();
        v.sort_by_cached_key(Actor::to_string);
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
    /// each span paints the first letter of its mark's name.
    pub fn render_ascii(&self, width: usize) -> String {
        let end = self.end_time();
        let total = end.as_secs_f64().max(1e-9);
        let mut out = String::new();
        let actors = self.actors();
        let names: Vec<String> = actors.iter().map(Actor::to_string).collect();
        let name_w = names.iter().map(String::len).max().unwrap_or(4).max(4);
        for (&actor, name) in actors.iter().zip(&names) {
            let mut row = vec![b'.'; width];
            for s in self.lane(actor) {
                let a = ((s.start.as_secs_f64() / total) * width as f64) as usize;
                let b = ((s.end.as_secs_f64() / total) * width as f64).ceil() as usize;
                let ch = s.mark.as_str().as_bytes()[0];
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            let _ = writeln!(out, "{name:<name_w$} |{}|", String::from_utf8_lossy(&row));
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
    use vmr_obs::PhaseMark;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A timeline over `spans` (node id, mark, start s, end s), recorded
    /// through a journal the way the engine does.
    fn timeline(spans: &[(u32, Mark, u64, u64)]) -> Timeline {
        let journal = vmr_obs::Journal::new();
        for &(node, mark, start, end) in spans {
            journal.span(
                Actor::Node(node),
                mark,
                Detail::None,
                t(start).as_micros(),
                t(end).as_micros(),
            );
        }
        Timeline::from_journal(&journal)
    }

    #[test]
    fn from_journal_keeps_spans_and_points_only() {
        let journal = vmr_obs::Journal::new();
        journal.span(
            Actor::Node(1),
            Mark::Exec,
            Detail::Wu(0),
            t(1).as_micros(),
            t(5).as_micros(),
        );
        let reduce_start = Detail::Phase(PhaseMark::ReduceStart);
        journal.point(Actor::Server, Mark::Phase, reduce_start, t(6).as_micros());
        journal.record_with(7, || vmr_obs::EventKind::FlowStart { id: 1, bytes: 2 });
        let tl = Timeline::from_journal(&journal);
        assert_eq!(
            tl.spans(),
            [Span {
                actor: Actor::Node(1),
                mark: Mark::Exec,
                detail: Detail::Wu(0),
                start: t(1),
                end: t(5),
            }]
        );
        assert_eq!(
            tl.points(),
            [Point {
                actor: Actor::Server,
                mark: Mark::Phase,
                detail: reduce_start,
                at: t(6),
            }]
        );
        assert_eq!(tl.end_time(), t(6));
    }

    #[test]
    fn disabled_journal_yields_an_empty_timeline() {
        let journal = vmr_obs::Journal::new();
        journal.set_enabled(false);
        journal.span(Actor::Node(1), Mark::Exec, Detail::None, 0, 1);
        journal.point(Actor::Node(1), Mark::Report, Detail::None, 0);
        let tl = Timeline::from_journal(&journal);
        assert!(tl.spans().is_empty());
        assert!(tl.points().is_empty());
    }

    #[test]
    fn lanes_are_sorted_and_filtered() {
        let tl = timeline(&[
            (2, Mark::Exec, 5, 6),
            (1, Mark::Exec, 3, 4),
            (2, Mark::Upload, 1, 2),
        ]);
        let lane_2 = tl.lane(Actor::Node(2));
        assert_eq!(lane_2.len(), 2);
        assert!(lane_2[0].start < lane_2[1].start);
        assert_eq!(tl.actors(), vec![Actor::Node(1), Actor::Node(2)]);
    }

    /// Lanes come in the order of their rendered names, as the string
    /// journal sorted them: `node-100` between `node-10` and `node-11`,
    /// the `server` lane after every node.
    #[test]
    fn actors_sort_by_rendered_name() {
        let journal = vmr_obs::Journal::new();
        journal.point(Actor::Server, Mark::Phase, Detail::None, 0);
        for node in [11, 100, 10, 2] {
            journal.point(Actor::Node(node), Mark::Report, Detail::None, 0);
        }
        let tl = Timeline::from_journal(&journal);
        let names: Vec<String> = tl.actors().iter().map(Actor::to_string).collect();
        assert_eq!(
            names,
            ["node-02", "node-10", "node-100", "node-11", "server"]
        );
    }

    #[test]
    fn ascii_render_contains_lanes() {
        let tl = timeline(&[(1, Mark::Exec, 0, 50), (2, Mark::Download, 50, 100)]);
        let art = tl.render_ascii(40);
        assert!(art.contains("node-01"));
        assert!(art.contains("node-02"));
        assert!(art.contains('e'));
        assert!(art.contains('d'));
    }
}
