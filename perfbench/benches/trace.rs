//! In-memory spans and the hook-timing adapter.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the simulator is instrumented. A span's self
//! time is its duration minus the time its direct children cover.

use crate::json::Json;
use pfm_core::{
    FabricLoad, FabricLoadResult, FetchOverride, PfmHooks, RetireDirective, RetireInfo, SquashKind,
    NUM_LANES,
};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the root span this one belongs to (one per measured
    /// run; every span of a run shares it).
    pub root: usize,
    /// Seconds from the tracer's origin to the span's start.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Whether the duration was scaled up from a sample of calls rather
    /// than read off the clock.
    pub estimated: bool,
}

/// Span recorder. Spans stay in memory until the benchmark writes them
/// out at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span under `parent` (a new root when `None`).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_s = self.origin.elapsed().as_secs_f64();
        self.push(name, parent, start_s, 0.0, false)
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.origin.elapsed().as_secs_f64();
        let s = &mut self.spans[id];
        s.dur_s = now - s.start_s;
    }

    /// Records a span under `parent` from `start` until now.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Instant) -> usize {
        let start_s = start.saturating_duration_since(self.origin).as_secs_f64();
        let dur_s = start.elapsed().as_secs_f64();
        self.push(name, parent, start_s, dur_s, false)
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Records a child whose duration was estimated rather than timed
    /// (it starts with its parent).
    pub fn add_estimated(&mut self, name: &str, parent: usize, dur_s: f64) -> usize {
        let start_s = self.spans[parent].start_s;
        self.push(name, Some(parent), start_s, dur_s, true)
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_s: f64,
        dur_s: f64,
        estimated: bool,
    ) -> usize {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            root,
            start_s,
            dur_s,
            estimated,
        });
        id
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum();
        self.spans[id].dur_s - children
    }

    /// Sum of durations per span name.
    pub fn total_by_name(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Checks that, for every root span, no span has negative self time
    /// and the self times of its tree add up to the root's duration.
    ///
    /// # Errors
    /// A description of the first span that breaks either rule.
    pub fn check_self_times(&self) -> Result<(), String> {
        // Sub-microsecond slack for the float sums.
        const EPS: f64 = 1e-6;
        for (id, s) in self.spans.iter().enumerate() {
            let own = self.self_time(id);
            if own < -EPS {
                return Err(format!(
                    "span {id} `{}`: children cover {:.6}s more than its {:.6}s",
                    s.name, -own, s.dur_s
                ));
            }
        }
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() {
                continue;
            }
            let sum: f64 = (0..self.spans.len())
                .filter(|&j| self.spans[j].root == id)
                .map(|j| self.self_time(j))
                .sum();
            if (sum - s.dur_s).abs() > EPS {
                return Err(format!(
                    "root span {id} `{}`: self times add up to {sum:.6}s, span is {:.6}s",
                    s.name, s.dur_s
                ));
            }
        }
        Ok(())
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Json {
        let num = |v: usize| Json::Num(v as f64);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", num(id)),
                        ("name", Json::str(s.name.clone())),
                        ("parent", s.parent.map_or(Json::Null, num)),
                        ("root", num(s.root)),
                        ("start_s", Json::Num(s.start_s)),
                        ("dur_s", Json::Num(s.dur_s)),
                        ("self_s", Json::Num(self.self_time(id))),
                        ("estimated", Json::Bool(s.estimated)),
                    ])
                })
                .collect(),
        )
    }
}

/// The `PfmHooks` methods, in the order their counters are kept.
pub const HOOK_KINDS: [&str; 8] = [
    "begin_cycle",
    "end_cycle",
    "fetch_inst",
    "on_retire",
    "retire_stalled",
    "on_squash",
    "pop_load",
    "load_result",
];

/// Forwards every hook call to the real hooks, counts every call, and
/// times one call in `every` per kind (timing every call roughly
/// doubles the run time). The time of a kind is its sampled mean,
/// less the clock's own cost, times its call count.
pub struct TimedHooks<'a> {
    inner: &'a mut dyn PfmHooks,
    every: u64,
    clock_ns: f64,
    calls: [u64; 8],
    sampled: [u64; 8],
    sampled_ns: [f64; 8],
}

impl<'a> TimedHooks<'a> {
    /// Wraps `inner`, timing one call in `every` per kind. `clock_ns`
    /// is the measured cost of one empty timed interval.
    pub fn new(inner: &'a mut dyn PfmHooks, every: u64, clock_ns: f64) -> TimedHooks<'a> {
        TimedHooks {
            inner,
            every: every.max(1),
            clock_ns,
            calls: [0; 8],
            sampled: [0; 8],
            sampled_ns: [0.0; 8],
        }
    }

    /// Calls made, per kind (in [`HOOK_KINDS`] order).
    pub fn calls(&self) -> [u64; 8] {
        self.calls
    }

    /// Estimated seconds spent in the real hooks, per kind.
    pub fn estimated_s(&self) -> [f64; 8] {
        let mut out = [0.0; 8];
        for (k, o) in out.iter_mut().enumerate() {
            if self.sampled[k] > 0 {
                *o = self.sampled_ns[k] / self.sampled[k] as f64 * self.calls[k] as f64 * 1e-9;
            }
        }
        out
    }

    fn timed<R>(&mut self, k: usize, f: impl FnOnce(&mut dyn PfmHooks) -> R) -> R {
        let n = self.calls[k];
        self.calls[k] = n + 1;
        if !n.is_multiple_of(self.every) {
            return f(&mut *self.inner);
        }
        let t = Instant::now();
        let r = f(&mut *self.inner);
        let ns = t.elapsed().as_nanos() as f64;
        self.sampled[k] += 1;
        self.sampled_ns[k] += (ns - self.clock_ns).max(0.0);
        r
    }
}

impl PfmHooks for TimedHooks<'_> {
    fn begin_cycle(&mut self, cycle: u64, lane_busy: [bool; NUM_LANES]) {
        self.timed(0, |h| h.begin_cycle(cycle, lane_busy))
    }

    fn end_cycle(&mut self, cycle: u64) {
        self.timed(1, |h| h.end_cycle(cycle))
    }

    fn fetch_inst(&mut self, seq: u64, pc: u64, is_cond_branch: bool) -> FetchOverride {
        self.timed(2, |h| h.fetch_inst(seq, pc, is_cond_branch))
    }

    fn on_retire(&mut self, info: &RetireInfo<'_>) -> RetireDirective {
        self.timed(3, |h| h.on_retire(info))
    }

    fn retire_stalled(&mut self) -> bool {
        self.timed(4, |h| h.retire_stalled())
    }

    fn on_squash(&mut self, kind: SquashKind, boundary: u64, cycle: u64) {
        self.timed(5, |h| h.on_squash(kind, boundary, cycle))
    }

    fn pop_load(&mut self) -> Option<FabricLoad> {
        self.timed(6, |h| h.pop_load())
    }

    fn load_result(&mut self, id: u64, result: FabricLoadResult, cycle: u64) {
        self.timed(7, |h| h.load_result(id, result, cycle))
    }

    fn debug_inject_arch_fault(&mut self, machine: &mut pfm_isa::Machine) {
        self.inner.debug_inject_arch_fault(machine)
    }
}

/// Median cost, in nanoseconds, of timing an empty interval.
pub fn clock_cost_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, root: usize, dur_s: f64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            root,
            start_s: 0.0,
            dur_s,
            estimated: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![
                span("run", None, 0, 10.0),
                span("core.run", Some(0), 0, 7.0),
                span("fabric.hooks", Some(1), 0, 2.5),
                span("workloads.build", Some(0), 0, 1.0),
            ],
        };
        assert_eq!(t.self_time(0), 2.0);
        assert_eq!(t.self_time(1), 4.5);
        assert_eq!(t.self_time(2), 2.5);
        assert_eq!(t.self_time(3), 1.0);
        assert!(t.check_self_times().is_ok());
        assert_eq!(t.total_by_name("core.run"), 7.0);
    }

    #[test]
    fn children_longer_than_their_parent_fail_the_check() {
        let t = Tracer {
            origin: Instant::now(),
            spans: vec![span("run", None, 0, 1.0), span("core.run", Some(0), 0, 1.5)],
        };
        assert!(t.check_self_times().is_err());
    }

    #[test]
    fn recorded_spans_nest_and_share_their_root() {
        let mut t = Tracer::new();
        let root = t.begin("run", None);
        t.time("workloads.build", Some(root), t_busy);
        let core = t.begin("core.run", Some(root));
        t.end(core);
        t.add_estimated("fabric.hooks", core, 0.0);
        t.end(root);
        assert!(t.spans().iter().all(|s| s.root == root));
        assert!(t.check_self_times().is_ok());
        assert!(t.to_json().dump().contains("\"name\": \"fabric.hooks\""));
    }

    fn t_busy() -> u64 {
        (0..1000u64).map(std::hint::black_box).sum()
    }

    #[test]
    fn timed_hooks_count_every_call_and_forward() {
        let mut inner = pfm_core::NoPfm;
        let mut h = TimedHooks::new(&mut inner, 4, 0.0);
        for c in 0..10 {
            h.begin_cycle(c, [false; NUM_LANES]);
        }
        assert_eq!(h.fetch_inst(1, 0x1000, true), FetchOverride::Pass);
        assert_eq!(h.calls()[0], 10);
        assert_eq!(h.calls()[2], 1);
        assert_eq!(h.sampled[0], 3, "calls 0, 4 and 8 are timed");
        assert!(h.estimated_s().iter().all(|&s| s >= 0.0));
    }
}
