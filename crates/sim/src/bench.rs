//! Simulator-throughput benchmark harness (`repro --bench`).
//!
//! Runs the full use-case suite — every distinct workload the
//! experiment plans simulate, in both baseline and PFM modes — and
//! reports simulation speed as MKIPS (million retired instructions per
//! host-second). This bounds how much paper-scale experimentation a
//! wall-clock budget buys, and makes hot-loop regressions visible as a
//! number rather than a vague "repro feels slow".
//!
//! With `--functional`, a second separately-timed batch retires the
//! same suite on the pre-decoded functional executor and the report
//! adds per-use-case functional MKIPS plus the aggregate speedup ratio
//! — the number the two-speed design is judged by.
//!
//! Throughput is *host* timing and therefore not deterministic; the
//! harness reuses the executor's wall-clock plumbing and never touches
//! simulated statistics, so it cannot perturb results (the golden-stats
//! test pins those separately). Each report names its host (`nproc`)
//! and its code ([`BAKED_SOURCE_DIGEST`]), so points taken on different
//! hosts or commits are not mistaken for one another.

use crate::exec::{execute, ExecOptions};
use crate::plan::RunSpec;
use crate::runner::RunConfig;
use crate::store::BAKED_SOURCE_DIGEST;
use crate::usecases;

/// Throughput of one (use-case, mode) run.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Use-case name, e.g. `astar`.
    pub name: String,
    /// `baseline`, `pfm` or `functional`.
    pub mode: &'static str,
    /// Instructions retired by the run.
    pub retired: u64,
    /// Host seconds the run took.
    pub seconds: f64,
    /// Whether the workload ran to completion (halted) rather than
    /// being cut off by the instruction budget — a run that exits
    /// early reports honest but incomparable throughput, so the table
    /// marks it instead of letting it masquerade as budget-limited.
    pub completed: bool,
}

impl BenchRow {
    /// Million retired instructions per host-second.
    pub fn mkips(&self) -> f64 {
        self.retired as f64 / self.seconds.max(1e-9) / 1e6
    }
}

/// A completed throughput benchmark.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Per-run detailed throughput, suite order (baseline then pfm per
    /// use-case).
    pub rows: Vec<BenchRow>,
    /// Per-use-case functional throughput (empty unless the functional
    /// batch was requested). Timed as a separate batch, so its wall
    /// clock never overlaps the detailed rows'.
    pub functional_rows: Vec<BenchRow>,
    /// End-to-end wall-clock seconds for the detailed suite.
    pub wall_seconds: f64,
    /// End-to-end wall-clock seconds for the functional batch (0 if
    /// not requested).
    pub functional_wall_seconds: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Host CPUs available to the process.
    pub nproc: usize,
    /// Source digest of the simulator that ran.
    pub source_digest: u64,
    /// Instruction budget per run.
    pub max_instrs: u64,
}

impl BenchReport {
    /// Total instructions retired across the detailed suite.
    pub fn total_retired(&self) -> u64 {
        self.rows.iter().map(|r| r.retired).sum()
    }

    /// Suite-level detailed MKIPS: total retired over *wall* seconds,
    /// so worker overlap counts (this is the number that predicts
    /// `repro --all` turnaround).
    pub fn aggregate_mkips(&self) -> f64 {
        self.total_retired() as f64 / self.wall_seconds.max(1e-9) / 1e6
    }

    /// Total instructions retired by the functional batch.
    pub fn functional_total_retired(&self) -> u64 {
        self.functional_rows.iter().map(|r| r.retired).sum()
    }

    /// Aggregate MKIPS of the functional batch.
    pub fn functional_aggregate_mkips(&self) -> f64 {
        self.functional_total_retired() as f64 / self.functional_wall_seconds.max(1e-9) / 1e6
    }

    /// Functional-over-detailed aggregate throughput ratio (the
    /// two-speed acceptance number; 0 if no functional batch ran).
    pub fn functional_speedup(&self) -> f64 {
        if self.functional_rows.is_empty() {
            return 0.0;
        }
        self.functional_aggregate_mkips() / self.aggregate_mkips().max(1e-12)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "simulator throughput ({} instrs/run, {} job(s))\n",
            self.max_instrs, self.jobs
        ));
        out.push_str(&format!(
            "{:<22} {:<10} {:>12} {:>9} {:>9} {:>9}\n",
            "use case", "mode", "retired", "seconds", "MKIPS", "completed"
        ));
        for r in self.rows.iter().chain(&self.functional_rows) {
            out.push_str(&format!(
                "{:<22} {:<10} {:>12} {:>9.3} {:>9.2} {:>9}\n",
                r.name,
                r.mode,
                r.retired,
                r.seconds,
                r.mkips(),
                if r.completed { "yes" } else { "no" }
            ));
        }
        out.push_str(&format!(
            "total: {} instrs in {:.2}s wall = {:.2} MKIPS aggregate",
            self.total_retired(),
            self.wall_seconds,
            self.aggregate_mkips()
        ));
        if !self.functional_rows.is_empty() {
            out.push_str(&format!(
                "\nfunctional: {} instrs in {:.2}s wall = {:.2} MKIPS ({:.1}x detailed)",
                self.functional_total_retired(),
                self.functional_wall_seconds,
                self.functional_aggregate_mkips(),
                self.functional_speedup()
            ));
        }
        out
    }

    /// JSON document for `BENCH_sim_throughput.json` (hand-rolled — the
    /// workspace deliberately has no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"max_instrs\": {},\n", self.max_instrs));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"nproc\": {},\n", self.nproc));
        out.push_str(&format!(
            "  \"source_digest\": \"{:016x}\",\n",
            self.source_digest
        ));
        out.push_str(&format!("  \"wall_seconds\": {:.6},\n", self.wall_seconds));
        out.push_str(&format!("  \"total_retired\": {},\n", self.total_retired()));
        out.push_str(&format!(
            "  \"aggregate_mkips\": {:.4},\n",
            self.aggregate_mkips()
        ));
        if !self.functional_rows.is_empty() {
            out.push_str(&format!(
                "  \"functional_wall_seconds\": {:.6},\n",
                self.functional_wall_seconds
            ));
            out.push_str(&format!(
                "  \"functional_total_retired\": {},\n",
                self.functional_total_retired()
            ));
            out.push_str(&format!(
                "  \"functional_aggregate_mkips\": {:.4},\n",
                self.functional_aggregate_mkips()
            ));
            out.push_str(&format!(
                "  \"functional_speedup\": {:.2},\n",
                self.functional_speedup()
            ));
        }
        out.push_str("  \"runs\": [\n");
        let all: Vec<&BenchRow> = self.rows.iter().chain(&self.functional_rows).collect();
        for (i, r) in all.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"mode\": \"{}\", \"retired\": {}, \
                 \"seconds\": {:.6}, \"mkips\": {:.4}, \"completed\": {}}}{}\n",
                json_string(&r.name),
                r.mode,
                r.retired,
                r.seconds,
                r.mkips(),
                r.completed,
                if i + 1 < all.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The same document on one line, for appending to the
    /// `BENCH_history.jsonl` trajectory. (String values are escaped, so
    /// every line break in [`BenchReport::to_json`] is layout.)
    pub fn to_json_line(&self) -> String {
        self.to_json().lines().map(str::trim).collect()
    }
}

/// Minimal JSON string escaping (names are ASCII identifiers today;
/// this keeps the writer correct if that ever changes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Collects one batch of specs into bench rows, pairing executor
/// timings with results by key. A run that failed has no throughput —
/// it is dropped from the table (the executor's failure report covers
/// it).
fn run_batch(
    specs: &[RunSpec],
    modes: &[&'static str],
    opts: &ExecOptions,
) -> (Vec<BenchRow>, f64) {
    let (runs, report) = execute(specs, opts);
    let rows = report
        .runs
        .iter()
        .zip(modes)
        .filter_map(|(r, mode)| {
            let result = runs.get(&r.key).ok()?;
            Some(BenchRow {
                name: r.name.clone(),
                mode,
                retired: result.stats.retired,
                seconds: r.seconds,
                completed: result.completed,
            })
        })
        .collect();
    (rows, report.wall_seconds)
}

/// Runs the throughput suite: one baseline and one PFM run per
/// use-case in [`usecases::throughput_suite_factories`], executed by
/// the normal deduplicating executor. With `functional`, a second
/// separately-timed batch retires the same suite on the functional
/// executor (one run per use-case — fabric interventions are
/// microarchitectural, so baseline and PFM share a committed stream).
pub fn run_bench(rc: &RunConfig, opts: &ExecOptions, functional: bool) -> BenchReport {
    // The benchmark times real simulation. A result store would serve
    // rows as zero-second cache hits and drop them from the timing
    // table, so the suite always runs storeless whatever the caller's
    // options say.
    let opts = ExecOptions {
        store: None,
        ..opts.clone()
    };
    let opts = &opts;
    let mut specs = Vec::new();
    let mut modes: Vec<&'static str> = Vec::new();
    for uc in usecases::throughput_suite_factories() {
        specs.push(RunSpec::baseline(uc.clone(), rc));
        modes.push("baseline");
        specs.push(RunSpec::pfm(
            uc,
            pfm_fabric::FabricParams::paper_default(),
            rc,
        ));
        modes.push("pfm");
    }
    let (rows, wall_seconds) = run_batch(&specs, &modes, opts);

    let (functional_rows, functional_wall_seconds) = if functional {
        let fspecs: Vec<RunSpec> = usecases::throughput_suite_factories()
            .into_iter()
            .map(|uc| RunSpec::functional(uc, rc))
            .collect();
        let fmodes = vec!["functional"; fspecs.len()];
        run_batch(&fspecs, &fmodes, opts)
    } else {
        (Vec::new(), 0.0)
    };

    BenchReport {
        rows,
        functional_rows,
        wall_seconds,
        functional_wall_seconds,
        jobs: opts.jobs.max(1),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        source_digest: BAKED_SOURCE_DIGEST,
        max_instrs: rc.max_instrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_covers_suite_and_reports_positive_throughput() {
        let rc = RunConfig {
            max_instrs: 5_000,
            ..RunConfig::test_scale()
        };
        let report = run_bench(&rc, &ExecOptions::serial(), false);
        assert_eq!(
            report.rows.len(),
            2 * usecases::throughput_suite_factories().len()
        );
        assert!(report.functional_rows.is_empty());
        for row in &report.rows {
            assert!(row.retired > 0, "{} retired nothing", row.name);
            assert!(row.mkips() > 0.0);
            assert!(!row.completed, "5k instrs cannot finish {}", row.name);
        }
        assert!(report.aggregate_mkips() > 0.0);
        assert!(report.total_retired() >= 5_000 * report.rows.len() as u64 / 2);
    }

    #[test]
    fn completed_flag_tracks_kernel_halt_not_budget() {
        // leslie halts at ~1.22M retired instructions — the only suite
        // kernel that finishes under the paper budget. Its row must
        // report completed at a budget above the halt point and
        // not-completed below it (regression: the shipped JSON once
        // showed every row as not-completed because it was generated
        // at quick scale).
        let uc = usecases::leslie_factory();
        let over = RunSpec::functional(
            uc.clone(),
            &RunConfig {
                max_instrs: 1_500_000,
                ..RunConfig::test_scale()
            },
        )
        .execute()
        .unwrap();
        assert!(over.completed, "leslie halts under a 1.5M budget");
        assert!(over.stats.retired < 1_500_000);

        let under = RunSpec::functional(
            uc,
            &RunConfig {
                max_instrs: 300_000,
                ..RunConfig::test_scale()
            },
        )
        .execute()
        .unwrap();
        assert!(!under.completed, "300k instrs cannot finish leslie");
        assert!(under.stats.retired >= 300_000);
    }

    #[test]
    fn bench_ignores_an_attached_result_store() {
        // Cache hits have no timing, so the benchmark must strip the
        // store: a second run against the same options still produces
        // a full, honestly-timed table.
        let rc = RunConfig {
            max_instrs: 2_000,
            ..RunConfig::test_scale()
        };
        let dir = std::env::temp_dir().join(format!("pfm-bench-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(
            crate::store::ResultStore::open(&dir, crate::store::CodeFingerprint::fixed(3)).unwrap(),
        );
        let opts = ExecOptions::serial().with_store(store.clone());
        let first = run_bench(&rc, &opts, false);
        let second = run_bench(&rc, &opts, false);
        assert_eq!(first.rows.len(), second.rows.len());
        assert!(!second.rows.is_empty());
        assert!(store.is_empty(), "bench must never write the store");
    }

    #[test]
    fn functional_batch_adds_rows_and_speedup() {
        let rc = RunConfig {
            max_instrs: 5_000,
            ..RunConfig::test_scale()
        };
        let report = run_bench(&rc, &ExecOptions::serial(), true);
        let n = usecases::throughput_suite_factories().len();
        assert_eq!(report.functional_rows.len(), n);
        for row in &report.functional_rows {
            assert_eq!(row.mode, "functional");
            assert!(row.retired > 0);
        }
        assert!(report.functional_aggregate_mkips() > 0.0);
        assert!(report.functional_speedup() > 0.0);
        let j = report.to_json();
        assert!(j.contains("\"functional_aggregate_mkips\""));
        assert!(j.contains("\"functional_speedup\""));
        assert!(j.contains("\"mode\": \"functional\""));
        assert!(report.render().contains("functional:"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = BenchReport {
            rows: vec![BenchRow {
                name: "astar".to_string(),
                mode: "baseline",
                retired: 1000,
                seconds: 0.5,
                completed: false,
            }],
            functional_rows: Vec::new(),
            wall_seconds: 0.5,
            functional_wall_seconds: 0.0,
            jobs: 1,
            nproc: 2,
            source_digest: 0xabc,
            max_instrs: 1000,
        };
        let j = report.to_json();
        assert!(j.contains("\"nproc\": 2,"));
        assert!(j.contains("\"source_digest\": \"0000000000000abc\","));
        let line = report.to_json_line();
        assert!(!line.contains('\n'), "history entries are one line");
        assert_eq!(line.replace(' ', ""), j.replace(['\n', ' '], ""));
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"name\": \"astar\""));
        assert!(j.contains("\"aggregate_mkips\": 0.0020"));
        assert!(j.contains("\"completed\": false"));
        assert!(
            !j.contains("functional_speedup"),
            "no functional keys without a functional batch"
        );
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }
}
