//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload branch-agents --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints every metric with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Each invocation also writes a result file
//! (and, when traced, a span file) under `perfbench/results/`, named so
//! that no result overwrites another. Exits 1 when any correctness
//! check fails and 2 on a usage error. See `perfbench/README.md`.

mod bench;
mod detailed;
mod digests;
mod inputs;
mod json;
mod replay;
mod sweep;
mod trace;
mod twospeed;

use bench::{measure, Bench, Budgets, Config, Outcome, Workload};
use json::Json;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

const USAGE: &str =
    "usage: perfbench --workload <branch-agents|prefetch-memory|repro-sweep|two-speed> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --print-digests";

/// Where result files go: `results/` beside this package's manifest.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        jobs: nproc(),
        budgets: Budgets::standard(),
    })
}

/// The checkout's commit, read from `.git` without running git (`none`
/// outside a git checkout).
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(git.join(r)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the workload runs on: one per lane, or the executor's
/// workers.
fn threads_used(cfg: &Config) -> usize {
    match cfg.workload {
        Workload::BranchAgents | Workload::PrefetchMemory => LANES.min(cfg.jobs),
        Workload::ReproSweep | Workload::TwoSpeed => cfg.jobs,
    }
}

/// The JSON result line.
fn result_json(o: &Outcome) -> Json {
    let metrics = o.metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit.clone())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(o.failures.is_empty())),
        ("attempted", Json::Num(o.attempted.max(1) as f64)),
        ("failed", Json::Num(o.failures.len() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The result file: host metadata, the result line, failures and the
/// last pass's per-run rows.
fn result_file(cfg: &Config, o: &Outcome, result: &Json) -> Json {
    let fp = pfm_sim::CodeFingerprint::of_build();
    Json::obj([
        (
            "meta",
            Json::obj([
                ("workload", Json::str(cfg.workload.name())),
                ("seed", Json::Num(cfg.seed as f64)),
                ("seconds", Json::Num(cfg.seconds)),
                ("trace", Json::Bool(cfg.trace)),
                ("nproc", Json::Num(nproc() as f64)),
                ("threads", Json::Num(threads_used(cfg) as f64)),
                ("commit", Json::str(commit())),
                (
                    "source_digest",
                    Json::str(format!("{:016x}", fp.source_digest)),
                ),
                ("budgets", cfg.budgets.to_json()),
                ("passes", Json::Num(o.passes.len() as f64)),
                (
                    "unix_time",
                    Json::Num(
                        SystemTime::now()
                            .duration_since(UNIX_EPOCH)
                            .map_or(0.0, |d| d.as_secs_f64()),
                    ),
                ),
            ]),
        ),
        ("result", result.clone()),
        (
            "failures",
            Json::Arr(o.failures.iter().map(|f| Json::str(f.clone())).collect()),
        ),
        (
            "passes",
            Json::Arr(o.passes.iter().map(bench::Pass::to_json).collect()),
        ),
        ("runs", Json::Arr(o.rows.clone())),
    ])
}

/// Writes `text` to a new file in `dir` whose name starts with `stem`;
/// never replaces an existing file.
fn write_new(dir: &Path, stem: &str, ext: &str, text: &str) -> std::io::Result<PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    for n in 0u32.. {
        let path = dir.join(format!("{stem}-{n}.{ext}"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(text.as_bytes())?;
                f.sync_all()?;
                return Ok(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u32 file-name space exhausted")
}

/// Lanes for the single-threaded workloads (see [`bench::measure`]).
const LANES: usize = 2;

/// Runs one configured workload, writing its stores under `work`.
fn run(cfg: &Config, work: &Path) -> Outcome {
    let lanes: Vec<Box<dyn Bench + Send>> = match cfg.workload {
        Workload::BranchAgents | Workload::PrefetchMemory => (0..LANES.min(cfg.jobs))
            .map(|_| {
                Box::new(detailed::Detailed::new(
                    cfg.workload,
                    cfg.seed,
                    &cfg.budgets,
                )) as Box<dyn Bench + Send>
            })
            .collect(),
        Workload::ReproSweep => vec![Box::new(sweep::Sweep::new(
            &cfg.budgets,
            cfg.jobs,
            work.to_path_buf(),
        ))],
        Workload::TwoSpeed => vec![Box::new(twospeed::TwoSpeed::new(
            cfg.seed,
            &cfg.budgets,
            cfg.jobs,
        ))],
    };
    measure(cfg, lanes)
}

fn print_digests() {
    let budgets = Budgets::standard();
    for w in [Workload::BranchAgents, Workload::PrefetchMemory] {
        let mut d = detailed::Detailed::new(w, inputs::DEFAULT_SEED, &budgets);
        let mut acc = bench::Acc::default();
        d.pass(&mut acc);
        for f in &acc.failures {
            eprintln!("failure: {f}");
        }
        for (kernel, mode, digest) in d.digests() {
            println!("    (\"{kernel}\", \"{mode}\", {digest:#018x}),");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--print-digests") {
        print_digests();
        return;
    }
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let work = results_dir().join(format!("work-{stem}"));
    let outcome = run(&cfg, &work);
    let _ = std::fs::remove_dir_all(&work);

    let result = result_json(&outcome);
    let dir = results_dir();
    match write_new(
        &dir,
        &stem,
        "json",
        &result_file(&cfg, &outcome, &result).dump(),
    ) {
        Ok(p) => eprintln!("perfbench: result written to {}", p.display()),
        Err(e) => eprintln!("perfbench: could not write the result file: {e}"),
    }
    if let Some(t) = &outcome.tracer {
        if let Err(e) = write_new(&dir, &format!("{stem}-spans"), "json", &t.to_json().dump()) {
            eprintln!("perfbench: could not write the span file: {e}");
        }
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "workload {} seed {} passes {} nproc {} threads {}",
        cfg.workload.name(),
        cfg.seed,
        outcome.passes.len(),
        nproc(),
        threads_used(&cfg)
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{}", result.dump());
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::{END_TO_END, PER_LAYER};

    fn tiny(workload: Workload, trace: bool) -> Config {
        Config {
            workload,
            seed: 3,
            seconds: 1.0,
            trace,
            jobs: 2,
            budgets: Budgets::tiny(),
        }
    }

    /// The smoke runs time themselves; one at a time keeps the timing
    /// checks meaningful under the parallel test runner.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn smoke(workload: Workload) {
        let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let dir = results_dir().join(format!(
            "perfbench-smoke-{}-{}",
            workload.name(),
            std::process::id()
        ));
        for trace in [false, true] {
            let cfg = tiny(workload, trace);
            let o = run(&cfg, &dir);
            assert!(
                o.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                o.failures
            );
            assert!(o.attempted > 0);
            let names: Vec<&str> = o.metrics.iter().map(|m| m.0.as_str()).collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            assert_eq!(names, want);
            if !trace {
                for (name, v, _) in &o.metrics {
                    assert!(*v > 0.0, "{}: {name} is {v}", workload.name());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smoke_branch_agents() {
        smoke(Workload::BranchAgents);
    }

    #[test]
    fn smoke_prefetch_memory() {
        smoke(Workload::PrefetchMemory);
    }

    #[test]
    fn smoke_repro_sweep() {
        smoke(Workload::ReproSweep);
    }

    #[test]
    fn smoke_two_speed() {
        smoke(Workload::TwoSpeed);
    }

    #[test]
    fn metrics_file_round_trips() {
        let cfg = tiny(Workload::BranchAgents, false);
        let o = Outcome {
            attempted: 12,
            failures: vec!["x/pfm: example".into()],
            metrics: vec![
                ("wall_s".into(), 1.234_567_890_123, "s".into()),
                ("detailed_mkips".into(), 0.1 + 0.2, "Minstr/s".into()),
            ],
            rows: vec![Json::obj([("kernel", Json::str("astar"))])],
            passes: vec![bench::Pass::default()],
            tracer: None,
        };
        let result = result_json(&o);
        let dir = results_dir().join(format!("perfbench-rt-{}", std::process::id()));
        let path = write_new(&dir, "rt", "json", &result_file(&cfg, &o, &result).dump()).unwrap();
        let second = write_new(&dir, "rt", "json", "{}").unwrap();
        assert_ne!(path, second, "a result never overwrites another");
        let back = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.get("result"), Some(&result));
        let m = back.get("result").and_then(|r| r.get("metrics")).unwrap();
        let wall = m
            .get("wall_s")
            .and_then(|w| w.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(wall, Some(1.234_567_890_123));
        let meta = back.get("meta").unwrap();
        for key in [
            "nproc",
            "threads",
            "commit",
            "seed",
            "budgets",
            "source_digest",
        ] {
            assert!(meta.get(key).is_some(), "meta.{key}");
        }
        assert_eq!(
            back.get("result").and_then(|r| r.get("failed")),
            Some(&Json::Num(1.0))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let b = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |list: &str, key: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = b.get(list) else {
                panic!("BENCHMARK.json has no `{list}` list");
            };
            items
                .iter()
                .map(|i| match i.get(key) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{list}: bad `{key}`: {other:?}"),
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)], unit: bool| -> Vec<String> {
            v.iter()
                .map(|&(n, u)| if unit { u } else { n }.to_string())
                .collect()
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(field("workloads", "name"), workloads);
        assert_eq!(field("end_to_end", "name"), owned(&END_TO_END, false));
        assert_eq!(field("end_to_end", "unit"), owned(&END_TO_END, true));
        assert_eq!(field("per_layer", "name"), owned(&PER_LAYER, false));
        assert_eq!(field("per_layer", "unit"), owned(&PER_LAYER, true));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let c = parse_args(&args("--workload two-speed --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (c.workload, c.seed, c.seconds, c.trace),
            (Workload::TwoSpeed, 9, 5.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload two-speed --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
