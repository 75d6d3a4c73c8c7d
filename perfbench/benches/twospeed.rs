//! `two-speed`: functional runs of all eleven suite kernels on
//! `FastExec`, plus `run_sampled` on four of them with `jobs = nproc`.
//! No fabric is attached anywhere.
//!
//! The traced pass breaks each sampled run into the public steps
//! `run_sampled` is made of (`FastExec::run` to each checkpoint,
//! `snapshot`, then `RunSpec::interval` through `execute`) and checks
//! that they add up to the untraced `run_sampled` time.

use crate::bench::{Acc, Bench, Budgets, Layers, Pass};
use crate::detailed::{add_counts, finish_ratios};
use crate::inputs::{self, SAMPLED_KERNELS};
use crate::trace::Tracer;
use pfm_core::{Core, NoPfm};
use pfm_isa::{FastExec, Machine};
use pfm_mem::Hierarchy;
use pfm_sim::exec::execute;
use pfm_sim::plan::RunSpec;
use pfm_sim::{run_sampled, ExecOptions, RunConfig, SampledConfig};
use pfm_workloads::{UseCase, UseCaseFactory};
use std::sync::Arc;
use std::time::Instant;

/// How far a kernel's traced steps may stray outside its untraced
/// `run_sampled` times, as a share of them (the largest end-to-end
/// bound).
pub const STEPS_TOLERANCE: f64 = 0.25;

/// Absolute slack on top of [`STEPS_TOLERANCE`]: allocator and page-fault
/// jitter of tens of milliseconds swamps a share of a short run.
pub const STEPS_SLACK_S: f64 = 0.05;

/// `(position, retired, cycles)` of one measured interval.
type Row = (u64, u64, u64);

/// What the traced steps of one sampled run produce: its interval rows,
/// the use case, and the checkpoints taken.
type Steps = (Vec<Row>, UseCase, Vec<Arc<Vec<u8>>>);

/// The `two-speed` workload.
pub struct TwoSpeed {
    seed: u64,
    budgets: Budgets,
    rc: RunConfig,
    jobs: usize,
    /// Interval rows of the last untraced pass, per sampled kernel.
    last_rows: Vec<Vec<Row>>,
}

impl TwoSpeed {
    /// The workload at `seed`.
    pub fn new(seed: u64, budgets: &Budgets, jobs: usize) -> TwoSpeed {
        TwoSpeed {
            seed,
            budgets: budgets.clone(),
            rc: RunConfig::paper_scale(),
            jobs,
            last_rows: Vec::new(),
        }
    }

    fn opts(&self) -> ExecOptions {
        ExecOptions {
            jobs: self.jobs,
            progress: false,
            keep_going: false,
            store: None,
            ..ExecOptions::default()
        }
    }

    /// Builds a use case and its functional executor.
    fn build(f: &UseCaseFactory) -> (UseCase, FastExec) {
        let uc = f.build();
        let fx = FastExec::new(uc.program.clone(), uc.memory.clone());
        (uc, fx)
    }

    /// Cross-checks `uc` over the checked prefix: `FastExec` against
    /// `Machine` (architectural state) and against the detailed core
    /// (committed-stream checksum). Returns the detailed run's retired
    /// instructions and seconds.
    fn check_prefix(&self, acc: &mut Acc, uc: &UseCase) -> Option<(u64, f64)> {
        let p = self.budgets.prefix;
        let mut fx = FastExec::new(uc.program.clone(), uc.memory.clone());
        let mut m = uc.machine();
        if let Err(e) = fx
            .run(p)
            .map_err(|e| e.to_string())
            .and_then(|_| m.run(p).map_err(|e| e.to_string()))
        {
            acc.fail(format!("{}: prefix run: {e}", uc.name));
            return None;
        }
        acc.expect(fx.arch_checksum() == m.arch_checksum(), || {
            format!(
                "{}: FastExec and Machine differ after {p} instructions",
                uc.name
            )
        });
        acc.attempted += 1;
        let mut core = Core::new(
            self.rc.core.clone(),
            uc.machine(),
            Hierarchy::new(self.rc.hier.clone()),
        );
        let t = Instant::now();
        let r = core.run_watched(&mut NoPfm, p, self.rc.max_cycles, self.rc.commit_watchdog);
        let secs = t.elapsed().as_secs_f64();
        if let Err(e) = r {
            acc.fail(format!("{}: detailed prefix: {e}", uc.name));
            return None;
        }
        acc.expect(core.commit_checksum() == fx.commit_checksum(), || {
            format!("{}: detailed and functional checksums differ", uc.name)
        });
        Some((core.stats().retired, secs))
    }

    /// `run_sampled`'s steps, spanned, for one kernel. Returns the
    /// interval rows, the use case and its checkpoints.
    fn sampled_steps(
        &self,
        f: &UseCaseFactory,
        cfg: &SampledConfig,
        tracer: &mut Tracer,
        layers: &mut Layers,
        root: usize,
    ) -> Result<Steps, String> {
        let uc = tracer.time("workloads.build", Some(root), || f.build());
        layers.add("workloads.builds", 1.0);
        let stride = (cfg.total_instrs / u64::from(cfg.intervals)).max(1);
        let mut fx = tracer.time("workloads.construct", Some(root), || {
            FastExec::new(uc.program.clone(), uc.memory.clone())
        });
        let mut checkpoints: Vec<(u64, Arc<Vec<u8>>)> = Vec::new();
        let ff = |tracer: &mut Tracer, fx: &mut FastExec, to: u64| -> Result<(), String> {
            if to > fx.retired() {
                let n = to - fx.retired();
                tracer
                    .time("isa.fastexec", Some(root), || fx.run(n))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        for k in 0..u64::from(cfg.intervals) {
            let target = k * stride;
            ff(tracer, &mut fx, target)?;
            if fx.retired() < target && fx.halted() {
                break;
            }
            let snap = tracer.time("isa.snapshot", Some(root), || fx.snapshot());
            layers.add("isa.snapshot_bytes", snap.len() as f64);
            checkpoints.push((fx.retired(), Arc::new(snap)));
        }
        ff(tracer, &mut fx, cfg.total_instrs)?;
        layers.add("isa.fastexec_instrs", fx.retired() as f64);

        let interval_rc = RunConfig {
            max_instrs: cfg.interval_instrs,
            ..self.rc.clone()
        };
        let specs: Vec<RunSpec> = checkpoints
            .iter()
            .map(|(pos, snap)| {
                RunSpec::interval(
                    f.clone(),
                    Arc::clone(snap),
                    *pos,
                    cfg.warmup_instrs,
                    &interval_rc,
                )
            })
            .collect();
        let (runs, report) =
            tracer.time("sim.execute", Some(root), || execute(&specs, &self.opts()));
        layers.add("sim.exec_wall_s", report.wall_seconds);
        layers.add("sim.exec_busy_s", report.sim_seconds());
        layers.add("sim.requested", report.requested as f64);
        layers.add("sim.unique", report.unique as f64);
        let mut rows = Vec::new();
        for ((pos, _), spec) in checkpoints.iter().zip(&specs) {
            let r = runs.get(spec.key()).map_err(|e| e.to_string())?;
            add_counts(layers, &r.stats, &r.hier, None);
            rows.push((*pos, r.stats.retired, r.stats.cycles));
        }
        let snaps = checkpoints.into_iter().map(|(_, s)| s).collect();
        Ok((rows, uc, snaps))
    }
}

impl Bench for TwoSpeed {
    fn pass(&mut self, acc: &mut Acc) {
        // One kernel at a time, so only one kernel's memory is live.
        // The pass's wall time is the sum of its set-up, functional and
        // sampled segments; the prefix checks are not part of it.
        let mut pass = Pass::default();
        for f in inputs::suite(self.seed) {
            let t = Instant::now();
            let (uc, mut fx) = TwoSpeed::build(&f);
            pass.setup(t.elapsed().as_secs_f64());
            acc.attempted += 1;
            let t = Instant::now();
            let r = fx.run(self.budgets.functional);
            let secs = t.elapsed().as_secs_f64();
            pass.segments.add(0, secs);
            match r {
                Ok(_) => pass.functional.add(fx.retired(), secs),
                Err(e) => acc.fail(format!("{}/functional: {e}", uc.name)),
            }
            drop(fx);
            if let Some((n, s)) = self.check_prefix(acc, &uc) {
                pass.detailed.add(n, s);
            }
        }
        let opts = self.opts();
        let mut rows = Vec::new();
        for f in inputs::factories(&SAMPLED_KERNELS, self.seed) {
            acc.attempted += 1;
            let t = Instant::now();
            let r = run_sampled(&f, &self.budgets.sampled, &self.rc, &opts);
            let secs = t.elapsed().as_secs_f64();
            pass.sampled.add(0, secs);
            pass.segments.add(0, secs);
            match r {
                Ok(rep) => {
                    acc.expect(!rep.rows.is_empty(), || {
                        format!("{}: no intervals", f.name())
                    });
                    rows.push(
                        rep.rows
                            .iter()
                            .map(|r| (r.position, r.retired, r.cycles))
                            .collect(),
                    );
                }
                Err(e) => acc.fail(format!("{}/sampled: {e}", f.name())),
            }
        }
        self.last_rows = rows;
        acc.setups.push(pass.setup_s);
        acc.passes.push(pass);
    }

    fn setup_only(&mut self) -> f64 {
        let t = Instant::now();
        for f in inputs::suite(self.seed) {
            std::hint::black_box(TwoSpeed::build(&f));
        }
        t.elapsed().as_secs_f64()
    }

    fn traced(&mut self, acc: &mut Acc, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        let mut wall = 0.0;
        for f in inputs::suite(self.seed) {
            let root = tracer.begin(&format!("functional:{}", f.name()), None);
            let uc = tracer.time("workloads.build", Some(root), || f.build());
            layers.add("workloads.builds", 1.0);
            let mut fx = tracer.time("workloads.construct", Some(root), || {
                FastExec::new(uc.program.clone(), uc.memory.clone())
            });
            let r = tracer.time("isa.fastexec", Some(root), || {
                fx.run(self.budgets.functional)
            });
            tracer.end(root);
            wall += tracer.spans()[root].dur_s;
            match r {
                Ok(_) => layers.add("isa.fastexec_instrs", fx.retired() as f64),
                Err(e) => acc.fail(format!("traced {}/functional: {e}", uc.name)),
            }
        }
        let mut steps = 0.0;
        let cfg = self.budgets.sampled.clone();
        // Separate factory sets, so the reference call does not warm
        // the steps' input caches.
        let references = inputs::factories(&SAMPLED_KERNELS, self.seed);
        let factories = inputs::factories(&SAMPLED_KERNELS, self.seed);
        for (k, (f, reference)) in factories.iter().zip(&references).enumerate() {
            // The host's speed swings from second to second, so the
            // traced steps are held to the range of this kernel's
            // untraced `run_sampled` times (every pass's, and one taken
            // just before the steps), widened by the tolerance.
            let t = Instant::now();
            let r = run_sampled(reference, &cfg, &self.rc, &self.opts());
            let mut untraced: Vec<f64> = acc
                .passes
                .iter()
                .filter_map(|p| p.sampled.0.get(k).map(|r| r.1))
                .collect();
            untraced.push(t.elapsed().as_secs_f64());
            if let Err(e) = r {
                acc.fail(format!("reference {}/sampled: {e}", f.name()));
            }

            let root = tracer.begin(&format!("sampled:{}", f.name()), None);
            let r = self.sampled_steps(f, &cfg, tracer, layers, root);
            tracer.end(root);
            let took = tracer.spans()[root].dur_s;
            steps += took;
            let lo = untraced.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = untraced.iter().copied().fold(0.0, f64::max);
            acc.expect(
                took >= lo * (1.0 - STEPS_TOLERANCE) - STEPS_SLACK_S
                    && took <= hi * (1.0 + STEPS_TOLERANCE) + STEPS_SLACK_S,
                || {
                    format!(
                        "traced {} steps take {took:.3}s, run_sampled {lo:.3}s to {hi:.3}s",
                        f.name()
                    )
                },
            );
            let (rows, uc, snaps) = match r {
                Ok(r) => r,
                Err(e) => {
                    acc.fail(format!("traced {}/sampled: {e}", f.name()));
                    continue;
                }
            };
            acc.expect(self.last_rows.get(k) == Some(&rows), || {
                format!(
                    "traced {}: intervals differ from the untraced run_sampled",
                    f.name()
                )
            });
            // Trace-only: a cold restore of every checkpoint, as each
            // interval does before it runs.
            let restore = tracer.begin(&format!("restore:{}", f.name()), None);
            for snap in &snaps {
                let m = tracer.time("isa.restore", Some(restore), || {
                    Machine::restore(uc.program.clone(), snap)
                });
                if let Err(e) = m {
                    acc.fail(format!("restore {}: {e}", f.name()));
                }
            }
            tracer.end(restore);
        }
        let build =
            tracer.total_by_name("workloads.build") + tracer.total_by_name("workloads.construct");
        layers.add("workloads.build_s", build);
        layers.add("isa.fastexec_s", tracer.total_by_name("isa.fastexec"));
        layers.add("isa.snapshot_s", tracer.total_by_name("isa.snapshot"));
        layers.add("isa.restore_s", tracer.total_by_name("isa.restore"));
        let busy = layers.get("sim.exec_busy_s");
        let exec_wall = layers.get("sim.exec_wall_s");
        layers.ratio("sim.worker_util", busy, exec_wall * self.jobs as f64);
        finish_ratios(layers);
        wall + steps
    }
}
