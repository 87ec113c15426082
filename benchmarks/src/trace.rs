//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `name, start, end, parent` plus the id of the op it belongs to.
//! Spans are kept in a pre-allocated buffer and written out when the run
//! ends. A disabled tracer records nothing, so the untraced rounds of a
//! traced run pay one branch per would-be span.

use pockengine::pe_data::Json;

use crate::sys::{now_ns, reserved};

/// The op id of spans that belong to no op (set-up, warm-up).
pub const NO_OP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    pub op: u64,
}

/// Handle of an open span; `None` when the tracer is off or full.
pub type SpanId = Option<u32>;

pub struct Tracer {
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, switched off.
    pub fn with_capacity(capacity: usize) -> Self {
        let filler = Span {
            name: "",
            start_ns: 1,
            end_ns: 1,
            parent: None,
            op: 1,
        };
        Tracer {
            spans: reserved(filler, capacity),
            enabled: false,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.begin_at(name, parent, op, now_ns())
    }

    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
    ) -> SpanId {
        if !self.enabled || self.spans.len() == self.spans.capacity() {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.is_some() {
            self.end_at(id, now_ns());
        }
    }

    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        if let Some(index) = id {
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Times `work` under a span.
    pub fn scope<T>(&mut self, name: &'static str, parent: SpanId, work: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, NO_OP);
        let out = work();
        self.end(id);
        out
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: &Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.iter().map(|span| Span {
            parent: span.parent.map(|p| p + base),
            ..*span
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per span name: how many, their total duration and total self time.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut totals: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let duration = span.end_ns - span.start_ns;
        match totals.iter_mut().find(|t| t.0 == span.name) {
            Some(t) => {
                t.1 += 1;
                t.2 += duration;
                t.3 += self_ns;
            }
            None => totals.push((span.name, 1, duration, self_ns)),
        }
    }
    totals
}

/// The trace document: the stamp, per-name totals, the metrics of the run,
/// and every span as `[name index, start, end, parent or -1, op or -1]`.
pub fn render(stamp: Vec<(&str, Json)>, metrics: Json, spans: &[Span]) -> String {
    let totals = totals_by_name(spans);
    let names: Vec<&str> = totals.iter().map(|t| t.0).collect();
    let signed = |v: Option<u64>| v.map_or(Json::Num(-1.0), Json::Int);
    let rows = spans
        .iter()
        .map(|span| {
            let name = names
                .iter()
                .position(|n| *n == span.name)
                .expect("named above");
            Json::Arr(vec![
                Json::Int(name as u64),
                Json::Int(span.start_ns),
                Json::Int(span.end_ns),
                signed(span.parent.map(u64::from)),
                signed((span.op != NO_OP).then_some(span.op)),
            ])
        })
        .collect();
    let by_name = totals
        .iter()
        .map(|&(name, count, total_ns, self_ns)| {
            Json::obj(vec![
                ("name", Json::Str(name.into())),
                ("count", Json::Int(count)),
                ("total_ns", Json::Int(total_ns)),
                ("self_ns", Json::Int(self_ns)),
            ])
        })
        .collect();
    let mut fields = stamp;
    fields.extend([
        ("metrics", metrics),
        ("span_totals", Json::Arr(by_name)),
        (
            "span_columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .map(|c| Json::Str(c.into()))
                    .to_vec(),
            ),
        ),
        (
            "span_names",
            Json::Arr(names.iter().map(|n| Json::Str((*n).into())).collect()),
        ),
        ("spans", Json::Arr(rows)),
    ]);
    Json::obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: NO_OP,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_clipped_children() {
        let spans = [
            span("setup", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union is [10, 50)
            span("c", 90, 130, Some(0)), // clipped to [90, 100)
            span("leaf", 22, 25, Some(2)),
            span("outside", 200, 210, Some(0)), // does not touch the parent
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 27, 40, 3, 10]);
    }

    #[test]
    fn children_that_tile_the_parent_leave_no_self_time() {
        let spans = [
            span("op", 5, 45, None),
            span("net.submit_ack", 5, 15, Some(0)),
            span("net.await_outcome", 15, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 10, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0], ("op", 1, 40, 0));
    }

    #[test]
    fn a_disabled_or_full_tracer_records_nothing_and_absorb_rebases_parents() {
        let mut tracer = Tracer::with_capacity(2);
        assert_eq!(tracer.begin("off", None, NO_OP), None);
        tracer.set_enabled(true);
        let outer = tracer.begin_at("outer", None, 7, 10);
        let inner = tracer.begin_at("inner", outer, 7, 12);
        assert_eq!(tracer.begin("full", None, NO_OP), None);
        tracer.end_at(inner, 15);
        tracer.end_at(outer, 20);
        tracer.end(None);

        let mut all = Tracer::with_capacity(0);
        all.absorb(&tracer);
        all.absorb(&tracer);
        assert_eq!(all.spans().len(), 4);
        assert_eq!(all.spans()[3].parent, Some(2));
        assert_eq!(self_times_ns(all.spans()), vec![7, 3, 7, 3]);
    }

    #[test]
    fn the_trace_document_parses_back() {
        let spans = [
            span("setup", 0, 9, None),
            span("core.compile", 1, 4, Some(0)),
        ];
        let text = render(
            vec![("seed", Json::Int(3))],
            Json::obj(vec![("x", Json::Num(1.5))]),
            &spans,
        );
        let doc = Json::parse(&text).expect("valid json");
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let totals = doc.get("span_totals").and_then(Json::as_arr).unwrap();
        assert_eq!(totals[0].get("self_ns").and_then(Json::as_f64), Some(6.0));
    }
}
