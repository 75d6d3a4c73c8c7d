//! Sampled detailed simulation: functional fast-forward to evenly
//! spaced checkpoint positions, cycle-simulate a bounded detailed
//! interval at each (in parallel, through the deduplicating executor),
//! and assemble a whole-program IPC estimate (Σretired / Σcycles) with
//! a confidence interval taken on per-interval CPI.
//!
//! This is the two-speed payoff: a 20 M-instruction workload that
//! would take minutes of detailed simulation is characterized in
//! seconds — one functional pass at interpreter speed plus
//! `N` short detailed windows that together cover a few percent of the
//! instruction stream. The methodology is deliberately SimPoint-shaped
//! (the paper evaluates on 100 M-instruction SimPoints): systematic
//! sampling with detailed warm-up, rather than phase classification.
//!
//! Each interval restores the *architectural* snapshot captured by the
//! fast-forward and starts with cold caches, TLB and branch history;
//! the first `warmup_instrs` retired instructions warm those
//! structures and their statistics are diffed out
//! ([`pfm_core::SimStats::delta_since`]) before the measured window
//! begins.

use crate::exec::{execute, ExecOptions};
use crate::plan::{PlanError, RunSpec};
use crate::runner::{RunConfig, RunError};
use pfm_isa::FastExec;
use pfm_workloads::UseCaseFactory;
use std::sync::Arc;
use std::time::Instant;

/// Sampling-run shape: how far to fast-forward, how many detailed
/// intervals to scatter over that stream, and how large each is.
#[derive(Clone, Debug)]
pub struct SampledConfig {
    /// Functional instruction horizon: checkpoints are spread evenly
    /// over the first `total_instrs` retired instructions (or the
    /// whole program, if it halts earlier).
    pub total_instrs: u64,
    /// Number of detailed intervals (checkpoint positions).
    pub intervals: u32,
    /// Measured retired instructions per detailed interval.
    pub interval_instrs: u64,
    /// Detailed warm-up instructions retired (and diffed out) before
    /// each interval's measurement starts.
    pub warmup_instrs: u64,
}

impl SampledConfig {
    /// The acceptance-scale configuration: a 20 M-instruction stream
    /// sampled by 8 detailed intervals of 500 k instructions, each
    /// after a 100 k-instruction warm-up (so detailed simulation
    /// covers 24 % of the stream and the remaining 76 % runs at
    /// functional speed).
    pub fn paper_scale() -> SampledConfig {
        SampledConfig {
            total_instrs: 20_000_000,
            intervals: 8,
            interval_instrs: 500_000,
            warmup_instrs: 100_000,
        }
    }

    /// A small shape for tests.
    pub fn test_scale() -> SampledConfig {
        SampledConfig {
            total_instrs: 400_000,
            intervals: 4,
            interval_instrs: 20_000,
            warmup_instrs: 5_000,
        }
    }
}

impl Default for SampledConfig {
    fn default() -> SampledConfig {
        SampledConfig::paper_scale()
    }
}

/// A failed sampled run.
#[derive(Clone, Debug)]
pub enum SampledError {
    /// The functional fast-forward faulted.
    Exec(RunError),
    /// A detailed interval failed (hang, fault, panic).
    Interval(PlanError),
    /// The configuration is degenerate (zero intervals or zero-length
    /// windows).
    Config(&'static str),
}

impl std::fmt::Display for SampledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampledError::Exec(e) => write!(f, "functional fast-forward failed: {e}"),
            SampledError::Interval(e) => write!(f, "detailed interval failed: {e}"),
            SampledError::Config(msg) => write!(f, "bad sampled configuration: {msg}"),
        }
    }
}

impl std::error::Error for SampledError {}

/// One measured detailed interval.
#[derive(Clone, Debug)]
pub struct IntervalRow {
    /// Retired-instruction position of the snapshot this interval
    /// started from.
    pub position: u64,
    /// Instructions retired in the measured window (after warm-up).
    pub retired: u64,
    /// Cycles elapsed in the measured window.
    pub cycles: u64,
    /// Whether the workload halted inside this interval.
    pub completed: bool,
}

impl IntervalRow {
    /// IPC of the measured window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// The assembled result of a sampled run.
#[derive(Clone, Debug)]
pub struct SampledReport {
    /// Use-case name.
    pub name: String,
    /// Instructions retired by the functional fast-forward (the
    /// sampled stream's length; less than the configured horizon if
    /// the workload halted early).
    pub functional_instrs: u64,
    /// Whether the workload ran to completion during the fast-forward.
    pub functional_completed: bool,
    /// Per-interval measurements, in stream order.
    pub rows: Vec<IntervalRow>,
    /// Wall-clock seconds for the whole sampled run (fast-forward +
    /// parallel detailed intervals).
    pub wall_seconds: f64,
}

impl SampledReport {
    /// Whole-program CPI estimate: the ratio Σcycles / Σretired over
    /// the measured windows (0 when nothing retired).
    pub fn cpi(&self) -> f64 {
        let retired = self.detailed_instrs();
        if retired == 0 {
            return 0.0;
        }
        self.rows.iter().map(|r| r.cycles).sum::<u64>() as f64 / retired as f64
    }

    /// Whole-program IPC estimate: Σretired / Σcycles, the reciprocal
    /// of [`SampledReport::cpi`]. Averaging per-interval IPCs instead
    /// would weight a slow interval's cycles too little.
    pub fn ipc(&self) -> f64 {
        let cpi = self.cpi();
        if cpi == 0.0 {
            0.0
        } else {
            1.0 / cpi
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval
    /// on [`SampledReport::cpi`]: `1.96 * se`, with the ratio
    /// estimator's standard error
    /// `se^2 = Σ(cycles_i - cpi * retired_i)^2 / ((n - 1) * n * mean_retired^2)`.
    /// With equal-length intervals this is the sample variance of the
    /// per-interval CPIs over `n`.
    pub fn cpi_ci95_half_width(&self) -> f64 {
        let (n, retired) = (self.rows.len(), self.detailed_instrs());
        if n < 2 || retired == 0 {
            return 0.0;
        }
        let cpi = self.cpi();
        let mean_retired = retired as f64 / n as f64;
        let ss: f64 = self
            .rows
            .iter()
            .map(|r| {
                let d = r.cycles as f64 - cpi * r.retired as f64;
                d * d
            })
            .sum();
        let var = ss / ((n - 1) as f64 * n as f64 * mean_retired * mean_retired);
        1.96 * var.sqrt()
    }

    /// The 95 % CPI confidence interval mapped to IPC, `(low, high)`.
    /// It is not symmetric around [`SampledReport::ipc`]; `high` is
    /// infinite when the CPI interval reaches zero.
    pub fn ipc_ci95(&self) -> (f64, f64) {
        let (cpi, h) = (self.cpi(), self.cpi_ci95_half_width());
        if cpi == 0.0 {
            return (0.0, 0.0);
        }
        let high = if cpi - h > 0.0 {
            1.0 / (cpi - h)
        } else {
            f64::INFINITY
        };
        (1.0 / (cpi + h), high)
    }

    /// Total detailed instructions measured across intervals.
    pub fn detailed_instrs(&self) -> u64 {
        self.rows.iter().map(|r| r.retired).sum()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "sampled run: {} — {} functional instrs{}, {} detailed interval(s)\n",
            self.name,
            self.functional_instrs,
            if self.functional_completed {
                " (ran to completion)"
            } else {
                ""
            },
            self.rows.len()
        );
        s.push_str(&format!(
            "{:>12}  {:>10}  {:>10}  {:>6}  {:>9}\n",
            "position", "retired", "cycles", "ipc", "completed"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:>12}  {:>10}  {:>10}  {:>6.3}  {:>9}\n",
                r.position,
                r.retired,
                r.cycles,
                r.ipc(),
                if r.completed { "yes" } else { "no" }
            ));
        }
        let (low, high) = self.ipc_ci95();
        s.push_str(&format!(
            "IPC {:.4} (Σretired/Σcycles), 95% CI [{low:.4}, {high:.4}] from per-interval CPI \
             over {} intervals, unvalidated, {:.1}s wall\n",
            self.ipc(),
            self.rows.len(),
            self.wall_seconds
        ));
        s
    }
}

/// Runs `factory`'s use-case in sampled mode: one functional
/// fast-forward capturing a machine snapshot at each of
/// `cfg.intervals` evenly spaced positions, then `cfg.intervals`
/// detailed interval simulations executed in parallel through the
/// deduplicating executor, assembled into a ratio IPC estimate with a
/// 95 % confidence interval.
///
/// `rc` supplies the detailed machine (core + hierarchy) and the
/// hang guards; its `max_instrs` is overridden per interval.
///
/// # Errors
/// [`SampledError::Config`] for degenerate shapes,
/// [`SampledError::Exec`] if the functional pass faults, and
/// [`SampledError::Interval`] if any detailed interval fails.
pub fn run_sampled(
    factory: &UseCaseFactory,
    cfg: &SampledConfig,
    rc: &RunConfig,
    opts: &ExecOptions,
) -> Result<SampledReport, SampledError> {
    if cfg.intervals == 0 {
        return Err(SampledError::Config("intervals must be at least 1"));
    }
    if cfg.interval_instrs == 0 || cfg.total_instrs == 0 {
        return Err(SampledError::Config("instruction budgets must be non-zero"));
    }
    // pfm-lint: allow(determinism): feeds the wall-clock report only, never results
    let started = Instant::now();

    // Functional fast-forward, snapshotting at each checkpoint
    // position: k * (total / N) for k in 0..N. Position 0 samples the
    // program's cold start; the stride places the last checkpoint one
    // stride before the horizon so its interval has stream to measure.
    let uc = factory.build();
    let stride = (cfg.total_instrs / u64::from(cfg.intervals)).max(1);
    let mut fx = FastExec::new(uc.program.clone(), uc.memory.clone());
    let mut checkpoints: Vec<(u64, Arc<Vec<u8>>)> = Vec::new();
    for k in 0..u64::from(cfg.intervals) {
        let target = k * stride;
        if target > fx.retired() {
            fx.run(target - fx.retired())
                .map_err(|e| SampledError::Exec(RunError::Exec(e.to_string())))?;
        }
        if fx.retired() < target && fx.halted() {
            break; // program ended before this checkpoint
        }
        checkpoints.push((fx.retired(), Arc::new(fx.snapshot())));
    }
    // Finish the functional pass to the horizon so the report states
    // how much stream the sample represents.
    if fx.retired() < cfg.total_instrs {
        fx.run(cfg.total_instrs - fx.retired())
            .map_err(|e| SampledError::Exec(RunError::Exec(e.to_string())))?;
    }

    // Detailed intervals, in parallel through the executor. Each spec
    // carries its snapshot by Arc; the content hash in the key keeps
    // distinct machine states from ever deduplicating.
    let interval_rc = RunConfig {
        max_instrs: cfg.interval_instrs,
        ..rc.clone()
    };
    let specs: Vec<RunSpec> = checkpoints
        .iter()
        .map(|(pos, snap)| {
            RunSpec::interval(
                factory.clone(),
                Arc::clone(snap),
                *pos,
                cfg.warmup_instrs,
                &interval_rc,
            )
        })
        .collect();
    let (runs, _report) = execute(&specs, opts);

    let mut rows = Vec::with_capacity(specs.len());
    for ((pos, _), spec) in checkpoints.iter().zip(&specs) {
        let r = runs.get(spec.key()).map_err(SampledError::Interval)?;
        rows.push(IntervalRow {
            position: *pos,
            retired: r.stats.retired,
            cycles: r.stats.cycles,
            completed: r.completed,
        });
    }

    Ok(SampledReport {
        name: uc.name.clone(),
        functional_instrs: fx.retired(),
        functional_completed: fx.halted(),
        rows,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usecases;

    #[test]
    fn sampled_astar_assembles_intervals_with_ci() {
        let cfg = SampledConfig::test_scale();
        let rc = RunConfig::test_scale();
        let rep = run_sampled(
            &usecases::astar_custom_factory(),
            &cfg,
            &rc,
            &ExecOptions::serial(),
        )
        .expect("sampled run");
        assert_eq!(rep.rows.len(), cfg.intervals as usize);
        assert_eq!(rep.rows[0].position, 0, "first interval samples cold start");
        for w in rep.rows.windows(2) {
            assert!(w[0].position < w[1].position, "positions ascend");
        }
        for r in &rep.rows {
            // Superscalar commit can overshoot the warm-up and the
            // measurement targets by up to width-1 instructions each.
            let slack = rc.core.retire_width as u64;
            assert!(
                r.retired + slack >= cfg.interval_instrs
                    && r.retired <= cfg.interval_instrs + slack,
                "retired {} not within {slack} of {}",
                r.retired,
                cfg.interval_instrs
            );
            assert!(r.cycles > 0);
            assert!(r.ipc() > 0.0);
        }
        assert!(rep.ipc() > 0.0);
        let (low, high) = rep.ipc_ci95();
        assert!(low <= rep.ipc() && rep.ipc() <= high);
        assert!(rep.functional_instrs >= cfg.total_instrs.min(rep.functional_instrs));
        let rendered = rep.render();
        assert!(rendered.contains("unvalidated"), "render: {rendered}");
    }

    #[test]
    fn ipc_is_the_ratio_estimate_with_a_cpi_interval() {
        let row = |retired, cycles| IntervalRow {
            position: 0,
            retired,
            cycles,
            completed: false,
        };
        let rep = SampledReport {
            name: "hand-built".to_string(),
            functional_instrs: 200,
            functional_completed: false,
            rows: vec![row(100, 100), row(100, 300)],
            wall_seconds: 0.0,
        };
        // Σretired/Σcycles = 200/400, not the mean of 1.0 and 1/3.
        assert_eq!(rep.ipc(), 0.5);
        assert_eq!(rep.cpi(), 2.0);
        // Per-interval CPIs 1 and 3: s^2 = 2, se = sqrt(2/2) = 1.
        assert!((rep.cpi_ci95_half_width() - 1.96).abs() < 1e-12);
        let (low, high) = rep.ipc_ci95();
        assert!((low - 1.0 / 3.96).abs() < 1e-12);
        assert!((high - 1.0 / 0.04).abs() < 1e-9);
        let rendered = rep.render();
        assert!(
            rendered.contains("IPC 0.5000") && rendered.contains("unvalidated"),
            "render: {rendered}"
        );
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let cfg = SampledConfig {
            total_instrs: 100_000,
            intervals: 2,
            interval_instrs: 10_000,
            warmup_instrs: 2_000,
        };
        let rc = RunConfig::test_scale();
        let f = usecases::libquantum_factory();
        let a = run_sampled(&f, &cfg, &rc, &ExecOptions::serial()).unwrap();
        let b = run_sampled(&f, &cfg, &rc, &ExecOptions::serial()).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.retired, y.retired);
            assert_eq!(x.cycles, y.cycles, "interval timing must be reproducible");
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let rc = RunConfig::test_scale();
        let f = usecases::astar_custom_factory();
        let zero_n = SampledConfig {
            intervals: 0,
            ..SampledConfig::test_scale()
        };
        assert!(matches!(
            run_sampled(&f, &zero_n, &rc, &ExecOptions::serial()),
            Err(SampledError::Config(_))
        ));
        let zero_i = SampledConfig {
            interval_instrs: 0,
            ..SampledConfig::test_scale()
        };
        assert!(matches!(
            run_sampled(&f, &zero_i, &rc, &ExecOptions::serial()),
            Err(SampledError::Config(_))
        ));
    }
}
