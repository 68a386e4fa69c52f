//! In-memory span recorder for the `--trace 1` run.
//!
//! Spans are opened from the benchmark's own files around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! With tracing off [`Tracer::span`] only calls its closure, so the
//! untraced run pays nothing for sharing the phase code.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use kgtosa_obs::Json;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// Repetition or request the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans on the thread that owns it. Client threads of the serve
/// phases time their requests themselves and hand them over through
/// [`Tracer::record`].
pub struct Tracer {
    enabled: bool,
    /// Set while a repetition runs untraced inside a traced run, which is
    /// how the tracing overhead is measured on identical work.
    suspended: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    id: RefCell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            suspended: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: RefCell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created (the spans' time base).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Sets the repetition/request id stamped on spans opened from now on.
    pub fn set_id(&self, id: u64) {
        *self.id.borrow_mut() = id;
    }

    /// Runs `f` with recording switched off.
    pub fn suspended<T>(&self, f: impl FnOnce() -> T) -> T {
        let before = self.suspended.replace(true);
        let out = f();
        self.suspended.set(before);
        out
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled || self.suspended.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start: self.now(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                id: *self.id.borrow(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.now();
        out
    }

    /// Adds an interval measured elsewhere (a client thread) as a child of
    /// the innermost open span.
    pub fn record(&self, name: &str, start: f64, end: f64, id: u64) {
        if self.enabled && !self.suspended.get() {
            let parent = self.open.borrow().last().copied();
            self.spans.borrow_mut().push(Span {
                name: name.to_string(),
                start,
                end,
                parent,
                id,
            });
        }
    }

    /// Durations of every closed span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::duration)
            .collect()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The whole trace as the JSON document written to
    /// `results/trace-<workload>.json`.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let rows = spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_s".into(), Json::Num(s.start)),
                    ("end_s".into(), Json::Num(s.end)),
                    ("self_s".into(), Json::Num(self_s)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("id".into(), Json::Num(s.id as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans".into(), Json::Arr(rows)),
        ])
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent may overlap
/// (two clients' requests under one serve window), so covered time is the
/// length of the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn nested_and_sibling_spans_telescope_to_the_root() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 4.0, 9.0, Some(0)),
            span("b.left", 4.5, 6.0, Some(3)),
            span("b.right", 6.0, 8.5, Some(3)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![2.0, 2.0, 1.0, 1.0, 1.5, 2.5]);
        let total: f64 = selfs.iter().sum();
        assert!((total - spans[0].duration()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("window", 0.0, 10.0, None),
            span("client0", 1.0, 6.0, Some(0)),
            span("client1", 4.0, 8.0, Some(0)),
            span("late", 9.0, 12.0, Some(0)),
        ];
        // Covered: [1, 8] and [9, 10] (clipped) = 8 s of the 10 s window.
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn recorder_nests_closures_and_is_free_when_off() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.set_id(3);
        on.span("outer", || {
            on.span("inner", || ());
            on.suspended(|| {
                on.span("unseen", || ());
                on.record("unseen too", 0.0, 0.0, 9);
            });
            on.record("external", 0.0, 0.0, 9);
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].id), (Some(0), 9));
        assert_eq!(spans[1].id, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(on.durations("inner").len(), 1);
    }
}
