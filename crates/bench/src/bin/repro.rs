//! Regenerates the paper's tables and figures through the
//! plan → execute → assemble pipeline: all requested experiments are
//! planned up front, identical runs (e.g. the astar baseline shared by
//! six experiments) are deduplicated, and the unique set is simulated
//! across worker threads.
//!
//! ```text
//! repro --all                # everything, paper order
//! repro fig8 table2 fig18    # a subset
//! repro --quick fig12        # smaller instruction budget
//! repro --all --jobs 4       # four worker threads
//! repro --list               # what can be regenerated (+ store hit/miss)
//! repro --bench              # simulator MKIPS benchmark (appends to BENCH_history.jsonl)
//! repro --bench --functional # + functional-executor batch and speedup
//! repro --sampled libquantum # sampled run: fast-forward + detailed intervals
//! repro --analyze            # static analysis of every use case
//! repro --derive             # derived-vs-configured watchlist gate
//! repro --chaos              # fault-injection suite (checksum proof)
//! repro --chaos-smoke        # CI-sized chaos subset
//! repro --context-switch     # two tenants time-sharing the fabric slot
//! repro --all --keep-going   # don't stop claiming runs on failure
//! repro --store <dir>        # result store directory (default .pfm-store)
//! repro --no-store           # disable the result store
//! repro --store-stats        # print store contents and exit
//! repro --serve              # experiment-service daemon (Unix socket)
//! repro --connect [ids...]   # send a plan request to a running daemon
//! repro --connect --shutdown # stop the daemon
//! repro --socket <path>      # socket path for --serve/--connect
//! ```
//!
//! Results are cached in a content-addressed store keyed by
//! `(spec content key, code fingerprint)`: a warm invocation serves
//! hits at memory speed and only simulates what the store has never
//! seen. `--serve` puts a daemon in front of the same store, sharding
//! cache-missing runs across `repro --worker` child processes.
//!
//! A failed, panicked or hung run never aborts the process: the
//! executor isolates it, the remaining experiments still assemble, and
//! `repro` prints a failure table and exits non-zero.

use pfm_sim::experiments::{plan_for, ALL_IDS, EXTRA_IDS};
use pfm_sim::store::{find_workspace_root, CodeFingerprint, ResultStore};
use pfm_sim::{run_bench, run_plans, run_sampled, service, ExecOptions, RunConfig, SampledConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Exits with a contextual message on stderr; used for conditions the
/// user cannot distinguish from a hang otherwise (broken pipe aside,
/// any failure here is a bug or an environment problem worth naming).
fn fail(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("repro: {context}: {err}");
    std::process::exit(1);
}

/// Resolves an experiment id to its plan, exiting with the planner's
/// typed error when it does not recognise it (ids are validated
/// against `ALL_IDS`/`EXTRA_IDS` before this point, so a miss means
/// the menu and planner disagree).
fn plan_or_exit(id: &str, rc: &RunConfig) -> pfm_sim::plan::ExperimentPlan {
    match plan_for(id, rc) {
        Ok(p) => p,
        Err(e) => fail("cannot plan experiment", e),
    }
}

/// Prints the experiment menu. With a store attached, each
/// experiment's runs are annotated hit/miss against it (at the scale
/// `rc` implies), so the listing shows what an invocation would
/// actually simulate.
fn print_menu(out: &mut impl std::io::Write, store: Option<&ResultStore>, rc: &RunConfig) {
    let mut w = |line: String| {
        if let Err(e) = writeln!(out, "{line}") {
            fail("cannot write experiment menu", e);
        }
    };
    w("available experiments:".to_string());
    for id in ALL_IDS.into_iter().chain(EXTRA_IDS) {
        let plan = plan_or_exit(id, rc);
        match store {
            None => w(format!("  {id:<12} {}", plan.title)),
            Some(store) => {
                let unique = pfm_sim::exec::dedup_specs(plan.specs());
                let hits = unique.iter().filter(|s| store.contains(s.key())).count();
                w(format!(
                    "  {id:<12} {} [{hits}/{} cached]",
                    plan.title,
                    unique.len()
                ));
                for spec in &unique {
                    let status = if store.contains(spec.key()) {
                        "hit "
                    } else {
                        "miss"
                    };
                    w(format!("      {status} {}  {}", spec.name(), spec.key()));
                }
            }
        }
    }
}

/// How the CLI flags resolve to a store.
enum StoreChoice {
    /// `--no-store`.
    Disabled,
    /// Default: `<workspace root>/.pfm-store` when a workspace is
    /// found, silently storeless otherwise.
    Default,
    /// `--store <dir>`.
    Explicit(PathBuf),
}

/// Opens the store the flags ask for. The code fingerprint is baked
/// into the binary at build time (stats-schema version + a digest of
/// the sources it was compiled from), so it needs no workspace at run
/// time — only the *default* store location does.
fn open_store(choice: &StoreChoice) -> Option<Arc<ResultStore>> {
    let dir = match choice {
        StoreChoice::Disabled => return None,
        StoreChoice::Explicit(dir) => dir.clone(),
        StoreChoice::Default => match find_workspace_root() {
            Some(root) => root.join(".pfm-store"),
            None => {
                eprintln!("repro: no workspace root found; running without a result store");
                return None;
            }
        },
    };
    match ResultStore::open(&dir, CodeFingerprint::of_build()) {
        Ok(store) => Some(Arc::new(store)),
        Err(e) => fail(&format!("cannot open result store at {}", dir.display()), e),
    }
}

/// The socket a daemon/client pair agrees on when `--socket` is not
/// given: `repro.sock` inside the store directory (explicit or the
/// workspace default). `None` when no directory can be derived.
fn default_socket(choice: &StoreChoice) -> Option<PathBuf> {
    let dir = match choice {
        StoreChoice::Explicit(dir) => dir.clone(),
        StoreChoice::Default | StoreChoice::Disabled => find_workspace_root()?.join(".pfm-store"),
    };
    Some(dir.join("repro.sock"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Worker role first: the child must never parse user-facing flags
    // or touch the store — its whole world is the stdin assignment.
    if args.iter().any(|a| a == "--worker") {
        std::process::exit(service::worker_main());
    }

    let mut quick = false;
    let mut all = false;
    let mut list = false;
    let mut bench = false;
    let mut functional = false;
    let mut sampled: Option<String> = None;
    let mut analyze = false;
    let mut derive = false;
    let mut keep_going = false;
    let mut serve = false;
    let mut connect = false;
    let mut shutdown = false;
    let mut store_stats = false;
    let mut store_choice = StoreChoice::Default;
    let mut socket: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut bad_args: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            "--list" => list = true,
            "--bench" => bench = true,
            "--functional" => functional = true,
            "--analyze" => analyze = true,
            "--derive" => derive = true,
            "--keep-going" => keep_going = true,
            "--serve" => serve = true,
            "--connect" => connect = true,
            "--shutdown" => shutdown = true,
            "--store-stats" => store_stats = true,
            "--no-store" => store_choice = StoreChoice::Disabled,
            "--chaos" => ids.push("chaos".to_string()),
            "--chaos-smoke" => ids.push("chaos-smoke".to_string()),
            "--context-switch" => ids.push("context-switch".to_string()),
            "--store" => match it.next() {
                Some(dir) => store_choice = StoreChoice::Explicit(PathBuf::from(dir)),
                None => bad_args.push("--store <dir>".to_string()),
            },
            "--socket" => match it.next() {
                Some(path) => socket = Some(PathBuf::from(path)),
                None => bad_args.push("--socket <path>".to_string()),
            },
            "--sampled" => match it.next() {
                Some(name) => sampled = Some(name),
                None => bad_args.push("--sampled <usecase>".to_string()),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = Some(n),
                None => bad_args.push("--jobs <N>".to_string()),
            },
            other => {
                if let Some(n) = other.strip_prefix("--jobs=") {
                    match n.parse() {
                        Ok(n) => jobs = Some(n),
                        Err(_) => bad_args.push(other.to_string()),
                    }
                } else if other.starts_with("--")
                    || !(ALL_IDS.contains(&other) || EXTRA_IDS.contains(&other))
                {
                    bad_args.push(other.to_string());
                } else {
                    ids.push(other.to_string());
                }
            }
        }
    }

    let rc_for_menu = service::run_config_for(quick);
    if !bad_args.is_empty() {
        eprintln!("unknown argument(s): {}", bad_args.join(", "));
        eprintln!();
        print_menu(&mut std::io::stderr(), None, &rc_for_menu);
        eprintln!(
            "\nflags: --all --quick --list --bench --functional --sampled <usecase> \
             --analyze --derive --chaos --chaos-smoke --context-switch --keep-going \
             --jobs <N> --store <dir> --no-store --store-stats --serve --connect \
             --shutdown --socket <path>"
        );
        std::process::exit(1);
    }

    // Client role: ship the request to a daemon and stream its answer.
    // The daemon owns the store; the client needs only the socket.
    if connect {
        let sock = socket.clone().unwrap_or_else(|| {
            default_socket(&store_choice)
                .unwrap_or_else(|| fail("--connect needs a socket", "pass --socket <path>"))
        });
        let req = if shutdown {
            service::Request::Shutdown
        } else {
            service::Request::Plan(service::PlanRequest {
                ids: ids.clone(),
                quick,
                jobs: jobs.unwrap_or(0),
            })
        };
        match service::request(&sock, &req) {
            Ok(code) => std::process::exit(code),
            Err(e) => fail(&format!("cannot reach daemon at {}", sock.display()), e),
        }
    }

    let store = open_store(&store_choice);

    if store_stats {
        match &store {
            Some(store) => print!("{}", store.render_stats()),
            None => println!("store: disabled"),
        }
        return;
    }

    // Server role: bind the socket and answer plan requests until a
    // client sends --shutdown.
    if serve {
        let sock = socket.clone().unwrap_or_else(|| {
            default_socket(&store_choice)
                .unwrap_or_else(|| fail("--serve needs a socket", "pass --socket <path>"))
        });
        if let Some(parent) = sock.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fail("cannot create socket directory", e);
            }
        }
        let opts = service::ServeOptions {
            socket: sock,
            jobs: jobs.unwrap_or_else(|| ExecOptions::default().jobs),
            store,
            worker_exe: None,
        };
        if let Err(e) = service::serve(&opts) {
            fail("experiment service failed", e);
        }
        return;
    }

    if list {
        print_menu(&mut std::io::stdout(), store.as_deref(), &rc_for_menu);
        return;
    }

    // Static analysis gate: cross-check every registered use case's
    // configuration against its assembled kernel (same suite as the
    // `pfm-analyze` binary). Any finding is a failure.
    if analyze {
        let report = pfm_sim::analyze::analyze_all(None);
        let mut total = 0usize;
        for (name, findings) in &report {
            if findings.is_empty() {
                println!("analyze {name}: clean");
            } else {
                total += findings.len();
                println!("analyze {name}: {} finding(s)", findings.len());
                for f in findings {
                    println!("  {f}");
                }
            }
        }
        if total > 0 {
            fail(
                "static analysis found defects",
                format!("{total} finding(s) across {} program(s)", report.len()),
            );
        }
        println!("analyze: {} program(s) clean", report.len());
        return;
    }

    // Interface-inference gate: derive every use case's watch set and
    // stream/branch profile by abstract interpretation and require the
    // configured component watchlists to be fully covered (or carry a
    // typed divergence). Any coverage gap is a failure.
    if derive {
        let report = pfm_sim::analyze::derive_all(None);
        let mut gaps = 0usize;
        for (name, p) in &report {
            println!("derive {name}: {}", p.summary());
            for c in &p.coverage {
                gaps += c.gaps.len();
                for (pc, kind) in &c.gaps {
                    println!("  gap: {} watches {kind} @ {pc:#x} — not derived", c.origin);
                }
            }
        }
        if gaps > 0 {
            fail(
                "interface inference left configured watch entries underived",
                format!("{gaps} coverage gap(s) across {} program(s)", report.len()),
            );
        }
        println!(
            "derive: {} program(s), every configured watch entry derived or explained",
            report.len()
        );
        return;
    }

    if ids.is_empty() && !all {
        all = true;
    }

    let rc = service::run_config_for(quick);

    if bench {
        let opts = ExecOptions {
            jobs: jobs.unwrap_or_else(|| ExecOptions::default().jobs),
            progress: true,
            keep_going,
            store: None, // the benchmark times real simulation
            ..ExecOptions::default()
        };
        let report = run_bench(&rc, &opts, functional);
        println!("{}", report.render());
        const OUT: &str = "BENCH_sim_throughput.json";
        if let Err(e) = std::fs::write(OUT, report.to_json()) {
            fail(&format!("cannot write {OUT}"), e);
        }
        // The trajectory: every run appends one line, none overwrites.
        const HISTORY: &str = "BENCH_history.jsonl";
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(HISTORY)
            .and_then(|mut f| {
                use std::io::Write;
                f.write_all(format!("{}\n", report.to_json_line()).as_bytes())
            });
        if let Err(e) = appended {
            fail(&format!("cannot append to {HISTORY}"), e);
        }
        eprintln!("wrote {OUT}, appended to {HISTORY}");
        return;
    }

    // Sampled mode: functional fast-forward with evenly spaced machine
    // snapshots, then parallel detailed intervals assembled into a mean
    // IPC with a 95% confidence interval.
    if let Some(name) = sampled {
        let factory = pfm_sim::usecases::throughput_suite_factories()
            .into_iter()
            .find(|f| f.name() == name);
        let factory = match factory {
            Some(f) => f,
            None => {
                let known: Vec<String> = pfm_sim::usecases::throughput_suite_factories()
                    .iter()
                    .map(|f| f.name().to_string())
                    .collect();
                fail(
                    "unknown use case for --sampled",
                    format!("`{name}` (known: {})", known.join(", ")),
                )
            }
        };
        let cfg = if quick {
            SampledConfig {
                total_instrs: 2_000_000,
                interval_instrs: 100_000,
                warmup_instrs: 20_000,
                ..SampledConfig::paper_scale()
            }
        } else {
            SampledConfig::paper_scale()
        };
        let opts = ExecOptions {
            jobs: jobs.unwrap_or_else(|| ExecOptions::default().jobs),
            progress: true,
            keep_going,
            store: None, // interval specs are internal to the sampler
            ..ExecOptions::default()
        };
        match run_sampled(&factory, &cfg, &rc, &opts) {
            Ok(report) => print!("{}", report.render()),
            Err(e) => fail("sampled run failed", e),
        }
        return;
    }

    // Paper order regardless of argument order, as before the planner;
    // the chaos family (never part of `--all`) runs after the paper
    // set, in EXTRA_IDS order.
    let plans: Vec<_> = ALL_IDS
        .iter()
        .filter(|id| all || ids.iter().any(|w| w == *id))
        .chain(EXTRA_IDS.iter().filter(|id| ids.iter().any(|w| w == *id)))
        .map(|id| plan_or_exit(id, &rc))
        .collect();

    let opts = ExecOptions {
        jobs: jobs.unwrap_or_else(|| ExecOptions::default().jobs),
        progress: true,
        keep_going,
        store: store.clone(),
        ..ExecOptions::default()
    };
    let unique: usize = {
        let specs: Vec<_> = plans
            .iter()
            .flat_map(|p| p.specs().iter().cloned())
            .collect();
        pfm_sim::exec::dedup_specs(&specs).len()
    };
    eprintln!(
        "planned {} experiment(s), {} unique run(s), {} job(s)",
        plans.len(),
        unique,
        opts.jobs
    );

    let (experiments, report) = run_plans(plans, &opts);
    let mut broken = 0usize;
    for exp in &experiments {
        match exp {
            Ok(exp) => println!("{}", exp.render()),
            Err(e) => {
                broken += 1;
                eprintln!("repro: experiment not assembled: {e}");
            }
        }
    }
    let table = report.failure_table();
    if !table.is_empty() {
        eprintln!("{table}");
    }
    println!("plan: {}", report.summary());
    if broken > 0 || !report.failures.is_empty() || report.skipped > 0 {
        eprintln!(
            "repro: {} of {} experiment(s) incomplete",
            broken,
            experiments.len()
        );
        std::process::exit(1);
    }
}
