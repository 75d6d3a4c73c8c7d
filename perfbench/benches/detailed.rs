//! `branch-agents` and `prefetch-memory`: each kernel detailed in
//! baseline and PFM modes on one thread, driven through `Core::new` and
//! `Core::run_watched` with a `Fabric` or `NoPfm` as the hooks.

use crate::bench::{Acc, Bench, Budgets, Layers, Pass, Workload};
use crate::digests::{digest, pinned};
use crate::inputs::{self, DEFAULT_SEED};
use crate::json::Json;
use crate::replay;
use crate::trace::{clock_cost_ns, TimedHooks, Tracer, HOOK_KINDS};
use pfm_core::{Core, NoPfm, PfmHooks, SimError, SimStats};
use pfm_fabric::{Fabric, FabricParams, FabricStats};
use pfm_isa::FastExec;
use pfm_mem::{Hierarchy, HierarchyStats};
use pfm_sim::RunConfig;
use pfm_workloads::UseCase;
use std::collections::BTreeMap;
use std::time::Instant;

/// The two detailed modes of every kernel.
pub const MODES: [&str; 2] = ["baseline", "pfm"];

/// Hook calls per kind between two timed ones in the traced pass.
pub const HOOK_SAMPLE_EVERY: u64 = 64;

/// The simulated outcome of one detailed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Core statistics.
    pub stats: SimStats,
    /// Hierarchy statistics.
    pub hier: HierarchyStats,
    /// Fabric statistics (PFM runs).
    pub fabric: Option<FabricStats>,
    /// Committed-stream checksum.
    pub checksum: u64,
    /// Whether the kernel halted within the budget.
    pub completed: bool,
}

impl Record {
    /// Digest of the golden-stats field list.
    pub fn digest(&self) -> u64 {
        digest(&self.stats, &self.hier, self.fabric.as_ref())
    }
}

/// Adds one run's simulated counters to the per-layer totals.
pub fn add_counts(layers: &mut Layers, s: &SimStats, m: &HierarchyStats, f: Option<&FabricStats>) {
    layers.add("core.cycles", s.cycles as f64);
    layers.add("core.retired", s.retired as f64);
    layers.add(
        "core.squashes",
        (s.squash_mispredict + s.squash_disambiguation + s.squash_roi) as f64,
    );
    layers.add(
        "core.stall_fetch_icache",
        s.fetch_icache_stall_cycles as f64,
    );
    layers.add(
        "core.stall_fetch_fabric",
        s.fetch_fabric_stall_cycles as f64,
    );
    layers.add(
        "core.stall_fetch_redirect",
        s.fetch_redirect_stall_cycles as f64,
    );
    layers.add(
        "core.stall_retire_agent",
        s.retire_agent_stall_cycles as f64,
    );
    layers.add("bpred.cond_branches", s.cond_branches as f64);
    layers.add("bpred.mispredicts", s.mispredicts as f64);
    layers.add("mem.l1d_hits", m.l1d_hits as f64);
    layers.add("mem.l1d_misses", m.l1d_misses as f64);
    layers.add("mem.l2_hits", m.l2_hits as f64);
    layers.add("mem.l3_hits", m.l3_hits as f64);
    layers.add("mem.dram_accesses", m.dram_accesses as f64);
    layers.add("mem.prefetches_issued", m.prefetches_issued as f64);
    layers.add("mem.mshr_wait_cycles", m.mshr_wait_cycles as f64);
    if let Some(f) = f {
        layers.add("fabric.fst_hits", f.fst_hits as f64);
        layers.add("fabric.obs_packets", f.obs_packets as f64);
        layers.add("fabric.preds_delivered", f.preds_delivered as f64);
        layers.add("fabric.prefetches_injected", f.prefetches_injected as f64);
        layers.add("fabric.loads_injected", f.loads_injected as f64);
        layers.add("fabric.mlb_replays", f.mlb_replays as f64);
    }
}

/// A functional reference run of `uc` to `budget`, exactly as
/// `run_functional` makes it, with only `FastExec::run` timed (building
/// the executor is set-up). Returns the committed-stream checksum, the
/// instructions retired and the seconds.
///
/// # Errors
/// The executor's fault.
pub fn functional_reference(uc: &UseCase, budget: u64) -> Result<(u64, u64, f64), String> {
    let mut fx = FastExec::new(uc.program.clone(), uc.memory.clone());
    let t = Instant::now();
    fx.run(budget).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    Ok((fx.commit_checksum(), fx.retired(), secs))
}

/// Sets the per-layer ratios that derive from the totals.
pub fn finish_ratios(layers: &mut Layers) {
    let cycles = layers.get("core.cycles");
    layers.ratio("core.ns_per_cycle", layers.get("core.self_s") * 1e9, cycles);
    layers.ratio(
        "fabric.ns_per_cycle",
        layers.get("fabric.hook_s") * 1e9,
        cycles,
    );
    layers.ratio(
        "fabric.pred_use_ratio",
        layers.get("fabric.preds_delivered"),
        layers.get("fabric.fst_hits"),
    );
}

/// A detailed-simulation workload.
pub struct Detailed {
    kernels: &'static [&'static str],
    seed: u64,
    rc: RunConfig,
    check_digests: bool,
    last: BTreeMap<(String, &'static str), Record>,
}

impl Detailed {
    /// The `branch-agents` or `prefetch-memory` workload at `seed`.
    ///
    /// # Panics
    /// For any other workload (a benchmark bug).
    pub fn new(workload: Workload, seed: u64, budgets: &Budgets) -> Detailed {
        let (kernels, seeded): (&'static [&'static str], bool) = match workload {
            Workload::BranchAgents => (&inputs::BRANCH_KERNELS, true),
            Workload::PrefetchMemory => (&inputs::PREFETCH_KERNELS, false),
            _ => panic!("{} is not a detailed workload", workload.name()),
        };
        Detailed {
            kernels,
            seed,
            rc: RunConfig {
                max_instrs: budgets.detailed,
                ..RunConfig::paper_scale()
            },
            // The prefetch kernels' inputs do not depend on the seed.
            check_digests: budgets.is_standard() && (seed == DEFAULT_SEED || !seeded),
            last: BTreeMap::new(),
        }
    }

    /// `(kernel, mode, digest)` of the last pass.
    pub fn digests(&self) -> Vec<(String, &'static str, u64)> {
        self.kernels
            .iter()
            .flat_map(|&k| {
                MODES.iter().filter_map(move |&mode| {
                    self.last
                        .get(&(k.to_string(), mode))
                        .map(|r| (k.to_string(), mode, r.digest()))
                })
            })
            .collect()
    }

    fn construct(&self, uc: &UseCase, mode: &str) -> (Core, Option<Fabric>) {
        let core = Core::new(
            self.rc.core.clone(),
            uc.machine(),
            Hierarchy::new(self.rc.hier.clone()),
        );
        let fabric = (mode == "pfm").then(|| uc.fabric(FabricParams::paper_default()));
        (core, fabric)
    }

    /// Runs `core` to the budget; with `timing = Some((every, clock_ns))`
    /// the hooks go through a [`TimedHooks`] adapter, whose call counts
    /// and estimated seconds per kind are returned.
    fn drive(
        &self,
        core: &mut Core,
        fabric: &mut Option<Fabric>,
        timing: Option<(u64, f64)>,
    ) -> (Result<(), SimError>, [u64; 8], [f64; 8]) {
        let rc = &self.rc;
        let mut none = NoPfm;
        let inner: &mut dyn PfmHooks = match fabric {
            Some(f) => f,
            None => &mut none,
        };
        match timing {
            None => {
                let r = core.run_watched(inner, rc.max_instrs, rc.max_cycles, rc.commit_watchdog);
                (r, [0; 8], [0.0; 8])
            }
            Some((every, clock_ns)) => {
                let mut h = TimedHooks::new(inner, every, clock_ns);
                let r = core.run_watched(&mut h, rc.max_instrs, rc.max_cycles, rc.commit_watchdog);
                (r, h.calls(), h.estimated_s())
            }
        }
    }

    fn record(core: &Core, fabric: &Option<Fabric>) -> Record {
        Record {
            stats: core.stats().clone(),
            hier: *core.hierarchy().stats(),
            fabric: fabric.as_ref().map(|f| *f.stats()),
            checksum: core.commit_checksum(),
            completed: core.finished(),
        }
    }

    /// Checks one kernel's runs against its functional reference, each
    /// other, and the pinned digests.
    fn check(&self, acc: &mut Acc, name: &str, reference: u64, runs: &[(&'static str, &Record)]) {
        for &(mode, r) in runs {
            acc.expect(r.checksum == reference, || {
                format!(
                    "{name}/{mode}: arch_checksum {:#x} != functional {reference:#x}",
                    r.checksum
                )
            });
            if self.check_digests {
                if let Some(want) = pinned(name, mode) {
                    let got = r.digest();
                    acc.expect(got == want, || {
                        format!("{name}/{mode}: stats digest {got:#018x}, pinned {want:#018x}")
                    });
                }
            }
        }
        if let [(_, a), (_, b)] = runs {
            acc.expect(a.checksum == b.checksum, || {
                format!("{name}: baseline and pfm checksums differ")
            });
        }
    }
}

impl Bench for Detailed {
    fn pass(&mut self, acc: &mut Acc) {
        // One kernel at a time, so only one kernel's memory is live.
        // The pass's wall time is the sum of its set-up and simulation
        // segments; the checks between them are not part of it.
        let mut pass = Pass::default();
        let mut rows = Vec::new();
        self.last.clear();
        for f in inputs::factories(self.kernels, self.seed) {
            let t = Instant::now();
            let uc = f.build();
            pass.setup(t.elapsed().as_secs_f64());
            let mut done: Vec<(&'static str, Record)> = Vec::new();
            for mode in MODES {
                acc.attempted += 1;
                let t = Instant::now();
                let (mut core, mut fabric) = self.construct(&uc, mode);
                pass.setup(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let (r, _, _) = self.drive(&mut core, &mut fabric, None);
                let secs = t.elapsed().as_secs_f64();
                pass.segments.add(0, secs);
                match r {
                    Ok(()) => {
                        pass.detailed.add(core.stats().retired, secs);
                        let rec = Detailed::record(&core, &fabric);
                        rows.push(Json::obj([
                            ("kernel", Json::str(uc.name.clone())),
                            ("mode", Json::str(mode)),
                            ("retired", Json::Num(rec.stats.retired as f64)),
                            ("cycles", Json::Num(rec.stats.cycles as f64)),
                            ("seconds", Json::Num(secs)),
                            ("completed", Json::Bool(rec.completed)),
                            ("digest", Json::str(format!("{:#018x}", rec.digest()))),
                        ]));
                        done.push((mode, rec));
                    }
                    Err(e) => acc.fail(format!("{}/{mode}: {e}", uc.name)),
                }
            }

            acc.attempted += 1;
            match functional_reference(&uc, self.rc.max_instrs) {
                Ok((checksum, retired, secs)) => {
                    pass.functional.add(retired, secs);
                    let runs: Vec<(&'static str, &Record)> =
                        done.iter().map(|(m, r)| (*m, r)).collect();
                    self.check(acc, &uc.name, checksum, &runs);
                }
                Err(e) => acc.fail(format!("{}/functional: {e}", uc.name)),
            }
            for (mode, rec) in done {
                self.last.insert((uc.name.clone(), mode), rec);
            }
        }
        acc.rows = rows;
        acc.setups.push(pass.setup_s);
        acc.passes.push(pass);
    }

    fn setup_only(&mut self) -> f64 {
        let t = Instant::now();
        for f in inputs::factories(self.kernels, self.seed) {
            let uc = f.build();
            for mode in MODES {
                std::hint::black_box(self.construct(&uc, mode));
            }
        }
        t.elapsed().as_secs_f64()
    }

    fn traced(&mut self, acc: &mut Acc, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        let clock_ns = clock_cost_ns();
        let mut wall = 0.0;
        let (mut accesses, mut branches) = (0usize, 0usize);
        for f in inputs::factories(self.kernels, self.seed) {
            let root = tracer.begin(&format!("kernel:{}", f.name()), None);
            let uc = tracer.time("workloads.build", Some(root), || f.build());
            layers.add("workloads.builds", 1.0);
            for mode in MODES {
                let (mut core, mut fabric) = tracer.time("workloads.construct", Some(root), || {
                    self.construct(&uc, mode)
                });
                let run = tracer.begin("core.run", Some(root));
                let (r, calls, est) =
                    self.drive(&mut core, &mut fabric, Some((HOOK_SAMPLE_EVERY, clock_ns)));
                tracer.end(run);
                let hook_s: f64 = est.iter().sum();
                tracer.add_estimated("fabric.hooks", run, hook_s);
                if let Err(e) = r {
                    acc.fail(format!("traced {}/{mode}: {e}", uc.name));
                    continue;
                }
                let rec = Detailed::record(&core, &fabric);
                let same = self.last.get(&(uc.name.clone(), mode)) == Some(&rec);
                acc.expect(same, || {
                    format!(
                        "traced {}/{mode}: simulated stats differ from the untraced run",
                        uc.name
                    )
                });
                add_counts(layers, &rec.stats, &rec.hier, rec.fabric.as_ref());
                for (kind, n) in HOOK_KINDS.iter().zip(calls) {
                    layers.add(&format!("fabric.hook_calls.{kind}"), n as f64);
                }
                layers.add("fabric.hook_s", hook_s);
                layers.add("core.run_s", tracer.spans()[run].dur_s);
                layers.add("core.self_s", tracer.self_time(run));
            }
            tracer.end(root);
            wall += tracer.spans()[root].dur_s;

            // Trace-only work: the mem and bpred replays.
            let rroot = tracer.begin(&format!("replay:{}", f.name()), None);
            let stream = tracer.time("isa.capture", Some(rroot), || {
                replay::capture(&uc, self.rc.max_instrs)
            });
            match stream {
                Ok(s) => {
                    let m = tracer.time("mem.replay", Some(rroot), || {
                        replay::replay_mem(&s, &self.rc.hier)
                    });
                    let b = tracer.time("bpred.replay", Some(rroot), || {
                        replay::replay_bpred(&s, self.rc.core.predictor)
                    });
                    layers.add("mem.replay_s", m);
                    layers.add("bpred.replay_s", b);
                    accesses += s.mem.len();
                    branches += s.branches.len();
                }
                Err(e) => acc.fail(format!("capture {}: {e}", uc.name)),
            }
            tracer.end(rroot);
        }
        let build =
            tracer.total_by_name("workloads.build") + tracer.total_by_name("workloads.construct");
        layers.add("workloads.build_s", build);
        layers.ratio(
            "mem.ns_per_access",
            layers.get("mem.replay_s") * 1e9,
            accesses as f64,
        );
        layers.ratio(
            "bpred.ns_per_branch",
            layers.get("bpred.replay_s") * 1e9,
            branches as f64,
        );
        finish_ratios(layers);
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digests::pinned;

    #[test]
    fn a_standard_pass_matches_the_pinned_digests() {
        let mut d = Detailed::new(Workload::PrefetchMemory, 9, &Budgets::standard());
        assert!(
            d.check_digests,
            "prefetch kernels are checked at every seed"
        );
        let mut acc = Acc::default();
        d.pass(&mut acc);
        assert!(acc.failures.is_empty(), "{:?}", acc.failures);
        let got = d.digests();
        assert_eq!(got.len(), 10);
        for (k, m, digest) in got {
            assert_eq!(pinned(&k, m), Some(digest), "{k}/{m}");
        }
        let seeded = Detailed::new(Workload::BranchAgents, 9, &Budgets::standard());
        assert!(
            !seeded.check_digests,
            "held-out astar/bfs inputs have no pinned digests"
        );
    }
}
