//! `repro-sweep`: every paper experiment at a small budget through the
//! deduplicating executor with `jobs = nproc` against a fresh result
//! store, then again warm from a re-opened store, as `repro --all` twice
//! would.
//!
//! The cold pass calls `execute` and `ExperimentPlan::assemble` (the
//! two steps of `run_plans`) so the executed runs' statistics are
//! available to the checks; the warm pass calls `run_plans`.

use crate::bench::{Acc, Bench, Budgets, Layers, Pass};
use crate::detailed::{add_counts, finish_ratios, functional_reference};
use crate::digests::digest;
use crate::json::Json;
use crate::trace::Tracer;
use pfm_fabric::FabricParams;
use pfm_sim::exec::execute;
use pfm_sim::experiments::plans_all;
use pfm_sim::plan::{PlanError, RunSet, RunSpec};
use pfm_sim::{
    run_plans, usecases, CodeFingerprint, ExecOptions, ExecReport, Experiment, ResultStore,
    RunConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rendered experiments: the text `repro` prints plus every value at
/// full precision.
fn render(exps: &[Result<Experiment, PlanError>]) -> String {
    exps.iter()
        .map(|e| match e {
            Ok(x) => format!("{}{:?}\n", x.render(), x.rows),
            Err(err) => format!("error: {err}\n"),
        })
        .collect()
}

/// The `repro-sweep` workload.
pub struct Sweep {
    rc: RunConfig,
    jobs: usize,
    work: PathBuf,
    next_store: usize,
    last_digest: Option<u64>,
}

/// What one cold+warm sweep produced.
struct SweepRun {
    setup_s: f64,
    store_open_s: f64,
    cold: ExecReport,
    cold_s: f64,
    runs: RunSet,
    cold_out: String,
    warm: ExecReport,
    warm_s: f64,
    warm_out: String,
}

impl Sweep {
    /// The workload, keeping its stores under `work`.
    pub fn new(budgets: &Budgets, jobs: usize, work: PathBuf) -> Sweep {
        Sweep {
            rc: RunConfig {
                max_instrs: budgets.sweep,
                ..RunConfig::paper_scale()
            },
            jobs,
            work,
            next_store: 0,
            last_digest: None,
        }
    }

    /// Plans, the suite's registered use cases (whose graph caches the
    /// experiments share) and an empty store: the sweep's set-up.
    fn setup(&mut self) -> (Vec<pfm_sim::ExperimentPlan>, PathBuf) {
        let plans = plans_all(&self.rc);
        for f in usecases::throughput_suite_factories() {
            std::hint::black_box(f.build());
        }
        let dir = self.work.join(format!("store-{}", self.next_store));
        self.next_store += 1;
        let _ = std::fs::remove_dir_all(&dir);
        (plans, dir)
    }

    fn opts(&self, store: Arc<ResultStore>) -> ExecOptions {
        ExecOptions {
            jobs: self.jobs,
            progress: false,
            keep_going: true,
            ..ExecOptions::default()
        }
        .with_store(store)
    }

    fn open(dir: &Path) -> Result<Arc<ResultStore>, String> {
        ResultStore::open(dir, CodeFingerprint::of_build())
            .map(Arc::new)
            .map_err(|e| format!("store open {}: {e}", dir.display()))
    }

    /// One cold and one warm sweep. `tracer` gets a span per step.
    fn sweep(&mut self, mut tracer: Option<&mut Tracer>) -> Result<SweepRun, String> {
        let root = tracer.as_deref_mut().map(|t| t.begin("sweep", None));
        let mut span = |name: &str, start: Instant| {
            if let (Some(t), Some(r)) = (tracer.as_deref_mut(), root) {
                t.record(name, Some(r), start);
            }
        };
        let t = Instant::now();
        let (plans, dir) = self.setup();
        let setup_s = t.elapsed().as_secs_f64();
        span("workloads.build", t);

        let t = Instant::now();
        let store = Sweep::open(&dir)?;
        let mut store_open_s = t.elapsed().as_secs_f64();
        span("sim.store_open", t);

        let t = Instant::now();
        let specs: Vec<RunSpec> = plans
            .iter()
            .flat_map(|p| p.specs().iter().cloned())
            .collect();
        let (runs, cold) = execute(&specs, &self.opts(store));
        span("sim.execute", t);
        let ta = Instant::now();
        let cold_exps: Vec<_> = plans.into_iter().map(|p| p.assemble(&runs)).collect();
        let cold_s = t.elapsed().as_secs_f64();
        span("sim.assemble", ta);

        let t = Instant::now();
        let store = Sweep::open(&dir)?;
        store_open_s += t.elapsed().as_secs_f64();
        let (warm_exps, warm) = run_plans(plans_all(&self.rc), &self.opts(store));
        let warm_s = t.elapsed().as_secs_f64();
        span("sim.warm", t);

        if let (Some(t), Some(r)) = (tracer, root) {
            t.end(r);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(SweepRun {
            setup_s,
            store_open_s,
            cold,
            cold_s,
            runs,
            cold_out: render(&cold_exps),
            warm,
            warm_s,
            warm_out: render(&warm_exps),
        })
    }

    /// Digest over every executed run's statistics, in key order.
    fn runs_digest(s: &SweepRun) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut keys: Vec<&str> = s.cold.runs.iter().map(|r| r.key.as_str()).collect();
        keys.sort_unstable();
        for k in keys {
            if let Ok(r) = s.runs.get(k) {
                let d = digest(&r.stats, &r.hier, r.fabric.as_ref()) ^ r.arch_checksum;
                h = (h ^ d).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Checks the sweep: no failed runs, a warm pass served entirely
    /// from the store with identical output, and baseline/PFM runs of
    /// the suite kernels matching their functional references. Returns
    /// the functional references' retired instructions and seconds.
    fn check(&self, acc: &mut Acc, s: &SweepRun) -> (u64, f64) {
        for f in s.cold.failures.iter().chain(&s.warm.failures) {
            acc.fail(format!("{} ({}): {}", f.name, f.key, f.outcome));
        }
        acc.expect(
            s.warm.store_misses == 0 && s.warm.store_hits == s.warm.unique,
            || {
                format!(
                    "warm pass: {} hit(s), {} miss(es) of {} unique runs",
                    s.warm.store_hits, s.warm.store_misses, s.warm.unique
                )
            },
        );
        acc.expect(s.cold_out == s.warm_out, || {
            "warm pass output differs from the cold pass".to_string()
        });
        let (mut instrs, mut secs, mut matched) = (0, 0.0, 0);
        for f in usecases::throughput_suite_factories() {
            let keys = [
                RunSpec::baseline(f.clone(), &self.rc).key().to_string(),
                RunSpec::pfm(f.clone(), FabricParams::paper_default(), &self.rc)
                    .key()
                    .to_string(),
            ];
            let found: Vec<_> = keys.iter().filter_map(|k| s.runs.get(k).ok()).collect();
            if found.is_empty() {
                continue;
            }
            acc.attempted += 1;
            match functional_reference(&f.build(), self.rc.max_instrs) {
                Ok((checksum, retired, s)) => {
                    secs += s;
                    instrs += retired;
                    for d in found {
                        matched += 1;
                        acc.expect(d.arch_checksum == checksum, || {
                            format!(
                                "{}: sweep run checksum differs from its functional reference",
                                f.name()
                            )
                        });
                    }
                }
                Err(e) => acc.fail(format!("{}/functional: {e}", f.name())),
            }
        }
        acc.expect(matched > 0, || {
            "no sweep run matched a suite kernel's functional reference".to_string()
        });
        (instrs, secs)
    }
}

impl Bench for Sweep {
    fn pass(&mut self, acc: &mut Acc) {
        let s = match self.sweep(None) {
            Ok(s) => s,
            Err(e) => {
                acc.attempted += 1;
                acc.fail(e);
                return;
            }
        };
        acc.attempted += (s.cold.unique + s.warm.unique) as u64;
        let mut pass = Pass::default();
        pass.setup(s.setup_s);
        for secs in [s.store_open_s, s.cold_s, s.warm_s] {
            pass.segments.add(0, secs);
        }
        let retired: u64 = s
            .cold
            .runs
            .iter()
            .filter_map(|r| s.runs.get(&r.key).ok())
            .map(|r| r.stats.retired)
            .sum();
        pass.detailed.add(retired, s.cold.sim_seconds());
        let (fi, fs) = self.check(acc, &s);
        pass.functional.add(fi, fs);
        self.last_digest = Some(Sweep::runs_digest(&s));
        acc.rows = vec![Json::obj([
            ("requested", Json::Num(s.cold.requested as f64)),
            ("unique", Json::Num(s.cold.unique as f64)),
            ("cold_s", Json::Num(s.cold_s)),
            ("warm_s", Json::Num(s.warm_s)),
            ("store_hits_warm", Json::Num(s.warm.store_hits as f64)),
            ("jobs", Json::Num(s.cold.jobs as f64)),
        ])];
        acc.setups.push(s.setup_s);
        acc.passes.push(pass);
    }

    fn setup_only(&mut self) -> f64 {
        let t = Instant::now();
        let (plans, dir) = self.setup();
        std::hint::black_box(plans);
        let s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(dir);
        s
    }

    fn traced(&mut self, acc: &mut Acc, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        let s = match self.sweep(Some(tracer)) {
            Ok(s) => s,
            Err(e) => {
                acc.fail(format!("traced: {e}"));
                return 0.0;
            }
        };
        acc.expect(self.last_digest == Some(Sweep::runs_digest(&s)), || {
            "traced sweep: simulated stats differ from the untraced run".to_string()
        });
        let busy = s.cold.sim_seconds();
        layers.add("workloads.build_s", s.setup_s);
        layers.add(
            "workloads.builds",
            usecases::throughput_suite_factories().len() as f64,
        );
        layers.add("sim.exec_wall_s", s.cold.wall_seconds);
        layers.add("sim.exec_busy_s", busy);
        layers.ratio(
            "sim.worker_util",
            busy,
            s.cold.wall_seconds * s.cold.jobs as f64,
        );
        layers.add("sim.requested", s.cold.requested as f64);
        layers.add("sim.unique", s.cold.unique as f64);
        layers.add(
            "sim.store_hits",
            (s.cold.store_hits + s.warm.store_hits) as f64,
        );
        layers.add(
            "sim.store_misses",
            (s.cold.store_misses + s.warm.store_misses) as f64,
        );
        layers.add("sim.store_open_s", s.store_open_s);
        layers.add("sim.warm_s", s.warm_s);
        for r in &s.cold.runs {
            if let Ok(res) = s.runs.get(&r.key) {
                add_counts(layers, &res.stats, &res.hier, res.fabric.as_ref());
            }
        }
        finish_ratios(layers);
        s.setup_s + s.store_open_s + s.cold_s + s.warm_s
    }
}
