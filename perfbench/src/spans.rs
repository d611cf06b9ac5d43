//! Folds the probe layer's span events into per-name busy times and
//! into the accounting checks of the traced run.

use std::collections::BTreeMap;

use wino_probe::SpanEvent;

/// The conv phases that, on the calling thread, make up one Winograd
/// call (the non-fused phases, the fused kernel, or a cold filter
/// transform).
pub const CONV_PHASES: &[&str] = &[
    "conv.filter_transform",
    "conv.input_transform",
    "conv.batched_sgemm",
    "conv.output_transform",
    "conv.winograd.fused",
];

/// Accumulated span statistics of a traced window.
#[derive(Default)]
pub struct TraceTotals {
    /// Summed durations (ns) per span name, over every thread.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Per `(parent, children)` accounting pair: `(covered ns, parent ns)`.
    pub coverage: BTreeMap<&'static str, (u64, u64)>,
}

impl TraceTotals {
    /// Drains the probe's buffers into the totals. `checks` names
    /// which benchmark spans to account for and by which child spans:
    /// `(parent, child prefixes, same thread only)`.
    pub fn drain(&mut self, checks: &[(&'static str, &[&str], bool)]) {
        let events = wino_probe::take_events();
        for e in &events {
            *self.busy_ns.entry(e.name).or_default() += e.dur_ns;
        }
        for &(parent, children, same_thread) in checks {
            for p in events.iter().filter(|e| e.name == parent) {
                let covered = covered_ns(&events, p, children, same_thread);
                let slot = self.coverage.entry(parent).or_default();
                slot.0 += covered;
                slot.1 += p.dur_ns;
            }
        }
    }

    /// Busy milliseconds of spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.busy_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Covered share of `parent`'s time (0 when it never ran).
    pub fn coverage(&self, parent: &str) -> f64 {
        match self.coverage.get(parent) {
            Some(&(covered, total)) if total > 0 => covered as f64 / total as f64,
            _ => 0.0,
        }
    }
}

/// Length of the union of the `children` spans inside `parent`'s
/// interval (on its thread only, when `same_thread`).
fn covered_ns(
    events: &[SpanEvent],
    parent: &SpanEvent,
    children: &[&str],
    same_thread: bool,
) -> u64 {
    let (lo, hi) = (parent.start_ns, parent.end_ns());
    let mut spans: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| children.iter().any(|c| e.name.starts_with(c)))
        .filter(|e| !same_thread || e.tid == parent.tid)
        .map(|e| (e.start_ns.max(lo), e.end_ns().min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in spans {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: usize, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            tid,
            start_ns: start,
            dur_ns: dur,
            depth: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips_to_the_parent() {
        let events = vec![
            ev("bench.call", 0, 100, 100),
            ev("conv.input_transform", 0, 90, 30), // clipped to 100..120
            ev("conv.tile_gather", 0, 105, 10),    // inside the one above
            ev("conv.batched_sgemm", 0, 150, 20),  // 150..170
            ev("conv.output_transform", 1, 170, 20), // other thread
        ];
        let parent = &events[0];
        let same = covered_ns(&events, parent, &["conv."], true);
        assert_eq!(same, 20 + 20);
        let any = covered_ns(&events, parent, &["conv."], false);
        assert_eq!(any, 20 + 40);
    }
}
