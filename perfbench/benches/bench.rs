//! The measurement loop shared by every workload, and the metric
//! names the benchmark defines.

use crate::json::Json;
use crate::trace::Tracer;
use pfm_sim::SampledConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("detailed_mkips", "Minstr/s"),
    ("functional_mkips", "Minstr/s"),
];

/// Per-layer metrics, reported by every workload from the traced run
/// (zero where the workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("core.run_s", "s"),
    ("core.self_s", "s"),
    ("core.cycles", "count"),
    ("core.retired", "count"),
    ("core.ns_per_cycle", "ns"),
    ("core.squashes", "count"),
    ("core.stall_fetch_icache", "cycles"),
    ("core.stall_fetch_fabric", "cycles"),
    ("core.stall_fetch_redirect", "cycles"),
    ("core.stall_retire_agent", "cycles"),
    ("bpred.cond_branches", "count"),
    ("bpred.mispredicts", "count"),
    ("bpred.replay_s", "s"),
    ("bpred.ns_per_branch", "ns"),
    ("mem.l1d_hits", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_hits", "count"),
    ("mem.l3_hits", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.prefetches_issued", "count"),
    ("mem.mshr_wait_cycles", "cycles"),
    ("mem.replay_s", "s"),
    ("mem.ns_per_access", "ns"),
    ("fabric.hook_s", "s"),
    ("fabric.hook_calls.begin_cycle", "count"),
    ("fabric.hook_calls.end_cycle", "count"),
    ("fabric.hook_calls.fetch_inst", "count"),
    ("fabric.hook_calls.on_retire", "count"),
    ("fabric.hook_calls.retire_stalled", "count"),
    ("fabric.hook_calls.on_squash", "count"),
    ("fabric.hook_calls.pop_load", "count"),
    ("fabric.hook_calls.load_result", "count"),
    ("fabric.ns_per_cycle", "ns"),
    ("fabric.fst_hits", "count"),
    ("fabric.obs_packets", "count"),
    ("fabric.preds_delivered", "count"),
    ("fabric.pred_use_ratio", "ratio"),
    ("fabric.prefetches_injected", "count"),
    ("fabric.loads_injected", "count"),
    ("fabric.mlb_replays", "count"),
    ("isa.fastexec_s", "s"),
    ("isa.fastexec_instrs", "count"),
    ("isa.snapshot_s", "s"),
    ("isa.snapshot_bytes", "bytes"),
    ("isa.restore_s", "s"),
    ("sim.exec_wall_s", "s"),
    ("sim.exec_busy_s", "s"),
    ("sim.worker_util", "ratio"),
    ("sim.requested", "count"),
    ("sim.unique", "count"),
    ("sim.store_hits", "count"),
    ("sim.store_misses", "count"),
    ("sim.store_open_s", "s"),
    ("sim.warm_s", "s"),
    ("sim.sampled_s", "s"),
    ("trace.overhead", "ratio"),
];

/// The benchmark's four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Control-bound kernels, baseline and PFM (bpred, Fetch/Retire
    /// Agents, core pipeline).
    BranchAgents,
    /// Streaming kernels over the L3, baseline and PFM (mem, Load
    /// Agent).
    PrefetchMemory,
    /// The quick experiment sweep through the executor and a fresh
    /// result store, cold then warm (sim).
    ReproSweep,
    /// Functional runs and sampled runs (isa, sampled path).
    TwoSpeed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BranchAgents,
        Workload::PrefetchMemory,
        Workload::ReproSweep,
        Workload::TwoSpeed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BranchAgents => "branch-agents",
            Workload::PrefetchMemory => "prefetch-memory",
            Workload::ReproSweep => "repro-sweep",
            Workload::TwoSpeed => "two-speed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instruction budgets of one benchmark scale.
#[derive(Clone, Debug)]
pub struct Budgets {
    /// Retired instructions per detailed run (`branch-agents`,
    /// `prefetch-memory`).
    pub detailed: u64,
    /// `RunConfig::max_instrs` of the `repro-sweep` plans.
    pub sweep: u64,
    /// Retired instructions per `two-speed` functional run.
    pub functional: u64,
    /// Shape of each `two-speed` sampled run.
    pub sampled: SampledConfig,
    /// Prefix over which `two-speed` cross-checks `FastExec` against
    /// `Machine` and the detailed core.
    pub prefix: u64,
}

impl Budgets {
    /// The budgets the benchmark is defined at (and the pinned digests
    /// were taken at).
    pub fn standard() -> Budgets {
        Budgets {
            detailed: 100_000,
            sweep: 30_000,
            functional: 2_000_000,
            sampled: SampledConfig {
                total_instrs: 1_000_000,
                intervals: 8,
                interval_instrs: 25_000,
                warmup_instrs: 5_000,
            },
            prefix: 50_000,
        }
    }

    /// Tiny budgets for smoke tests.
    #[cfg(test)]
    pub fn tiny() -> Budgets {
        Budgets {
            detailed: 5_000,
            sweep: 3_000,
            functional: 20_000,
            sampled: SampledConfig {
                total_instrs: 40_000,
                intervals: 2,
                interval_instrs: 2_000,
                warmup_instrs: 500,
            },
            prefix: 2_000,
        }
    }

    /// Whether the detailed budget is the standard one (pinned digests
    /// apply).
    pub fn is_standard(&self) -> bool {
        self.detailed == Budgets::standard().detailed
    }

    /// The budgets as result-file metadata.
    pub fn to_json(&self) -> Json {
        let s = &self.sampled;
        Json::obj([
            ("detailed", Json::Num(self.detailed as f64)),
            ("sweep", Json::Num(self.sweep as f64)),
            ("functional", Json::Num(self.functional as f64)),
            ("prefix", Json::Num(self.prefix as f64)),
            (
                "sampled",
                Json::obj([
                    ("total_instrs", Json::Num(s.total_instrs as f64)),
                    ("intervals", Json::Num(f64::from(s.intervals))),
                    ("interval_instrs", Json::Num(s.interval_instrs as f64)),
                    ("warmup_instrs", Json::Num(s.warmup_instrs as f64)),
                ]),
            ),
        ])
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (see [`crate::inputs`]).
    pub seed: u64,
    /// Seconds of untraced passes to measure.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Worker threads for the executor-driven parts.
    pub jobs: usize,
    /// Instruction budgets.
    pub budgets: Budgets,
}

/// Timed runs of one kind within a pass, in the pass's fixed order:
/// `(instructions retired, host seconds)` each.
#[derive(Clone, Debug, Default)]
pub struct Runs(pub Vec<(u64, f64)>);

impl Runs {
    /// Adds one timed run.
    pub fn add(&mut self, instrs: u64, secs: f64) {
        self.0.push((instrs, secs));
    }

    /// Total host seconds.
    pub fn secs(&self) -> f64 {
        self.0.iter().map(|r| r.1).sum()
    }

    /// Millions of instructions per host second (0 before any run).
    pub fn mkips(&self) -> f64 {
        let secs = self.secs();
        if secs > 0.0 {
            self.0.iter().map(|r| r.0).sum::<u64>() as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// The best-case composite of `passes`: at each position, the
    /// fastest time any pass took there. Only passes shaped like the
    /// first count (a failed run changes the shape, and fails the
    /// benchmark anyway).
    pub fn fastest_each<'a>(passes: impl IntoIterator<Item = &'a Runs>) -> Runs {
        let mut it = passes.into_iter();
        let Some(first) = it.next() else {
            return Runs::default();
        };
        let mut best = first.clone();
        let len = best.0.len();
        for p in it.filter(|p| p.0.len() == len) {
            for (b, r) in best.0.iter_mut().zip(&p.0) {
                b.1 = b.1.min(r.1);
            }
        }
        best
    }
}

/// What one untraced pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The timed segments that make up the pass's wall time: set-up and
    /// simulation, checks excluded.
    pub segments: Runs,
    /// Host seconds of set-up within the pass.
    pub setup_s: f64,
    /// Detailed simulation runs.
    pub detailed: Runs,
    /// Functional (`FastExec`) runs.
    pub functional: Runs,
    /// Host seconds of each `run_sampled` call.
    pub sampled: Runs,
}

impl Pass {
    /// Records a set-up segment.
    pub fn setup(&mut self, secs: f64) {
        self.setup_s += secs;
        self.segments.add(0, secs);
    }

    /// Host seconds of the whole pass.
    pub fn wall_s(&self) -> f64 {
        self.segments.secs()
    }

    /// The pass as result-file JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_s", Json::Num(self.wall_s())),
            ("setup_s", Json::Num(self.setup_s)),
            ("detailed_mkips", Json::Num(self.detailed.mkips())),
            ("functional_mkips", Json::Num(self.functional.mkips())),
            ("sampled_s", Json::Num(self.sampled.secs())),
        ])
    }
}

/// Everything a workload run gathers.
#[derive(Debug, Default)]
pub struct Acc {
    /// Untraced passes.
    pub passes: Vec<Pass>,
    /// Set-up samples: one per pass plus extra set-up-only repetitions.
    pub setups: Vec<f64>,
    /// Simulation runs attempted.
    pub attempted: u64,
    /// One line per failed run or failed check.
    pub failures: Vec<String>,
    /// Per-run rows of the last pass, for the result file.
    pub rows: Vec<Json>,
}

impl Acc {
    /// Records a failed run or check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records that `ok` must hold, failing with `what` otherwise.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Per-layer values, preloaded with every [`PER_LAYER`] name at 0.
#[derive(Clone, Debug)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Adds `v` to metric `name`.
    ///
    /// # Panics
    /// If `name` is not a per-layer metric (a benchmark bug).
    pub fn add(&mut self, name: &str, v: f64) {
        let key = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"))
            .0;
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `name` to `num / den` (0 when `den` is 0).
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let v = if den > 0.0 { num / den } else { 0.0 };
        self.0.insert(name, 0.0);
        self.add(name, v);
    }
}

/// A workload: untraced passes, set-up-only repetitions, and one traced
/// pass.
pub trait Bench {
    /// One untraced pass (set-up, simulation, then correctness checks).
    fn pass(&mut self, acc: &mut Acc);
    /// Set-up alone, as in a pass; returns its host seconds.
    fn setup_only(&mut self) -> f64;
    /// One traced pass, after the untraced ones (still in `acc`);
    /// returns its host seconds comparable to an untraced pass's
    /// `wall_s`.
    fn traced(&mut self, acc: &mut Acc, tracer: &mut Tracer, layers: &mut Layers) -> f64;
}

/// Set-up samples every run takes at least, so `setup_s` is a median.
pub const MIN_SETUPS: usize = 5;

/// Median (0 for an empty slice).
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

/// Peak resident memory of this process in MB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Failed runs and checks.
    pub failures: Vec<String>,
    /// `(name, value, unit)`, in definition order.
    pub metrics: Vec<(String, f64, String)>,
    /// Per-run rows of the last untraced pass.
    pub rows: Vec<Json>,
    /// Untraced passes measured.
    pub passes: Vec<Pass>,
    /// Spans of the traced pass.
    pub tracer: Option<Tracer>,
}

/// Runs `lanes` under `cfg`: each lane repeats untraced passes on its
/// own thread for `cfg.seconds` (at least one pass), then the first
/// lane makes extra set-ups up to [`MIN_SETUPS`] and, when asked, the
/// traced pass.
///
/// Lanes are identical, independent copies of one single-threaded
/// workload run side by side: each vCPU of a shared host is slowed by
/// other tenants at different moments, so two lanes give twice the
/// chances of an undisturbed pass in the same time.
pub fn measure(cfg: &Config, mut lanes: Vec<Box<dyn Bench + Send>>) -> Outcome {
    let start = Instant::now();
    // The first pass runs alone, so the peak resident memory is one
    // lane's, not however the lanes' peaks happen to overlap.
    let mut accs: Vec<Acc> = lanes.iter().map(|_| Acc::default()).collect();
    lanes[0].pass(&mut accs[0]);
    let peak = peak_rss_mb();
    let accs: Vec<Acc> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(accs)
            .map(|(bench, mut acc)| {
                s.spawn(move || loop {
                    if start.elapsed().as_secs_f64() >= cfg.seconds && !acc.passes.is_empty() {
                        return acc;
                    }
                    bench.pass(&mut acc);
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark lane panicked"))
            .collect()
    });
    let mut accs = accs.into_iter();
    let mut acc = accs.next().expect("at least one lane");
    for other in accs {
        acc.attempted += other.attempted;
        acc.failures.extend(other.failures);
        acc.passes.extend(other.passes);
        acc.setups.extend(other.setups);
    }
    let bench = &mut lanes[0];
    while acc.setups.len() < MIN_SETUPS {
        let s = bench.setup_only();
        acc.setups.push(s);
    }
    let mut metrics = Vec::new();
    let mut tracer = None;
    if cfg.trace {
        let mut t = Tracer::new();
        let mut layers = Layers::default();
        let traced_wall = bench.traced(&mut acc, &mut t, &mut layers);
        if let Err(e) = t.check_self_times() {
            acc.fail(format!("trace: {e}"));
        }
        tracer = Some((t, layers, traced_wall));
    }
    let passes = std::mem::take(&mut acc.passes);
    let col = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let wall = median(&col(Pass::wall_s));
    let tracer = if let Some((t, mut layers, traced_wall)) = tracer {
        layers.add("sim.sampled_s", median(&col(|p| p.sampled.secs())));
        layers.ratio("trace.overhead", traced_wall - wall, wall);
        for (name, unit) in PER_LAYER {
            metrics.push((name.to_string(), layers.get(name), unit.to_string()));
        }
        Some(t)
    } else {
        // The best-case composite pass: the host's speed swings by up
        // to 1.8x within seconds as other tenants load it, and each
        // segment's least disturbed time is the steadiest estimate of
        // the code's own cost. Set-up is a median over every sample.
        let fastest = |f: fn(&Pass) -> &Runs| Runs::fastest_each(passes.iter().map(f));
        let values = [
            fastest(|p| &p.segments).secs(),
            median(&acc.setups),
            peak,
            fastest(|p| &p.detailed).mkips(),
            fastest(|p| &p.functional).mkips(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit.to_string()));
        }
        None
    };
    Outcome {
        attempted: acc.attempted,
        failures: acc.failures,
        metrics,
        rows: acc.rows,
        passes,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_composite_takes_each_position_at_its_fastest() {
        let a = Runs(vec![(10, 1.0), (20, 4.0)]);
        let b = Runs(vec![(10, 2.0), (20, 3.0)]);
        let odd = Runs(vec![(10, 0.1)]);
        let best = Runs::fastest_each([&a, &b, &odd]);
        assert_eq!(best.0, vec![(10, 1.0), (20, 3.0)]);
        assert_eq!(best.secs(), 4.0);
        assert!((best.mkips() - 30.0 / 4.0 / 1e6).abs() < 1e-18);
        assert_eq!(Runs::fastest_each([]).mkips(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
