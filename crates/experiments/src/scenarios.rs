//! `battle run` — execute declarative scenario files.
//!
//! Takes any mix of `.toml`/`.json` files and directories (a directory
//! expands to its sorted `*.toml` files), runs each scenario under its
//! requested schedulers through [`runner::par_map`], evaluates the
//! scenario's assertions, and reports one line per run plus any
//! violations. With `--trace`, runs go sequentially and each scenario
//! exports a combined Chrome-trace file (one group per scheduler) next to
//! the SchedScope figures.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use kernel::{CancelToken, CheckMode};
use scenario::{EngineError, EngineOpts, Scenario, ScenarioRun, Sched};

use crate::scope::{Analyzer, ChromeTrace, BUFFERED_CAPACITY};
use crate::{crash, runner, RunCfg};

/// Outcome of one scenario file: its runs and any assertion failures.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunReport {
    /// Scenario name (from the file).
    pub scenario: String,
    /// Path the scenario was loaded from.
    pub path: String,
    /// One entry per scheduler run, in requested order. A scheduler whose
    /// run crashed is missing here and reported in `failures`.
    pub runs: Vec<ScenarioRun>,
    /// Violated assertions and crash notices; empty means pass.
    pub failures: Vec<String>,
}

impl RunReport {
    /// Did every run finish and every assertion hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Expand CLI arguments into (path, parsed scenario) pairs. Directories
/// expand to their sorted `*.toml` files; `.json` files parse as the JSON
/// form of the same schema.
pub fn load(paths: &[String]) -> Result<Vec<(PathBuf, Scenario)>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("{p}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("{p}: no .toml scenario files in directory"));
            }
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let is_json = path.extension().is_some_and(|x| x == "json");
        let sc = if is_json {
            Scenario::from_json(&src)
        } else {
            Scenario::from_toml(&src)
        }
        .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, sc));
    }
    Ok(out)
}

fn opts_for(cfg: &RunCfg, cancel: Option<&CancelToken>) -> EngineOpts {
    EngineOpts {
        scale: cfg.scale,
        seed: cfg.seed,
        check: cfg.check,
        trace_capacity: 0,
        cancel: cancel.cloned(),
        ..EngineOpts::default()
    }
}

/// Failure lines for supervised aborts: a run that was budget-killed,
/// livelocked or cancelled still salvaged a partial result (it appears in
/// `runs` with `partial: true`), but the scenario as a whole did not
/// complete, so the report must fail.
fn partial_failures(runs: &[ScenarioRun]) -> Vec<String> {
    runs.iter()
        .filter(|r| r.partial)
        .map(|r| {
            format!(
                "[{}] partial: {}",
                r.sched.name(),
                r.abort.as_deref().unwrap_or("aborted by supervision")
            )
        })
        .collect()
}

fn crash_failure(path: &Path, sc: &Scenario, cfg: &RunCfg, c: &scenario::EngineCrash) -> String {
    let bundle = crash::Crash {
        label: format!("{}-{}", sc.name, c.sched.name()),
        error: c.error.clone(),
        report: c.report.clone(),
        replay: format!(
            "battle run {} --seed {} --scale {} --check strict",
            path.display(),
            cfg.seed,
            cfg.scale
        ),
    };
    let written = match bundle.write_bundle() {
        Ok(p) => format!(" (bundle: {})", p.display()),
        Err(e) => format!(" (bundle write failed: {e})"),
    };
    format!("[{}] crash: {}{}", c.sched.name(), c.error, written)
}

/// Run every loaded scenario. Parallel across (scenario, scheduler) jobs
/// unless `trace_dir` is set, in which case runs go sequentially and each
/// scenario writes `<trace_dir>/<stem>.trace.json`.
///
/// `timeout_s` arms one shared wall-clock deadline for the whole batch:
/// when it expires every in-flight kernel aborts at its next cancellation
/// poll, salvages a partial result, and the report fails. A panicking job
/// (impossible in a healthy build, but chaos tests inject them) is
/// isolated: siblings finish, the panic becomes a failure line plus a
/// crash bundle.
pub fn run_all(
    scenarios: &[(PathBuf, Scenario)],
    cfg: &RunCfg,
    sched_override: Option<Sched>,
    trace_dir: Option<&Path>,
    timeout_s: Option<f64>,
) -> Vec<RunReport> {
    let cancel =
        timeout_s.map(|s| CancelToken::with_deadline(std::time::Duration::from_secs_f64(s)));
    let scheds_of = |sc: &Scenario| -> Vec<Sched> {
        match sched_override {
            Some(s) => vec![s],
            None => sc.scheds.clone(),
        }
    };
    if let Some(dir) = trace_dir {
        return scenarios
            .iter()
            .map(|(path, sc)| run_traced(path, sc, cfg, &scheds_of(sc), dir, cancel.as_ref()))
            .collect();
    }
    let jobs: Vec<(usize, Sched)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, (_, sc))| scheds_of(sc).into_iter().map(move |s| (i, s)))
        .collect();
    let cancel_ref = cancel.as_ref();
    let outcomes = runner::par_map(cfg.threads, jobs.clone(), |(i, sched)| {
        let (path, sc) = &scenarios[i];
        scenario::run_sched(sc, sched, &opts_for(cfg, cancel_ref))
            .map(|o| o.run)
            .map_err(|e| match e {
                EngineError::Spec(s) => format!("[{}] {s}", sched.name()),
                EngineError::Crash(c) => crash_failure(path, sc, cfg, &c),
            })
    });
    let mut reports: Vec<RunReport> = scenarios
        .iter()
        .map(|(path, sc)| RunReport {
            scenario: sc.name.clone(),
            path: path.display().to_string(),
            runs: Vec::new(),
            failures: Vec::new(),
        })
        .collect();
    for (&(i, sched), outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            runner::JobOutcome::Done(Ok(run)) => reports[i].runs.push(run),
            runner::JobOutcome::Done(Err(msg)) => reports[i].failures.push(msg),
            runner::JobOutcome::Panicked(msg) => {
                let (path, sc) = &scenarios[i];
                let bundle = crash::Crash::from_panic(
                    &format!("{}-{}", sc.name, sched.name()),
                    &msg,
                    &format!(
                        "battle run {} --seed {} --scale {} --check strict",
                        path.display(),
                        cfg.seed,
                        cfg.scale
                    ),
                );
                let written = match bundle.write_bundle() {
                    Ok(p) => format!(" (bundle: {})", p.display()),
                    Err(e) => format!(" (bundle write failed: {e})"),
                };
                reports[i]
                    .failures
                    .push(format!("[{}] panic: {msg}{written}", sched.name()));
            }
        }
    }
    for (report, (_, sc)) in reports.iter_mut().zip(scenarios) {
        let partial = partial_failures(&report.runs);
        report.failures.extend(partial);
        report.failures.extend(scenario::failures(sc, &report.runs));
    }
    reports
}

fn run_traced(
    path: &Path,
    sc: &Scenario,
    cfg: &RunCfg,
    scheds: &[Sched],
    dir: &Path,
    cancel: Option<&CancelToken>,
) -> RunReport {
    let mut report = RunReport {
        scenario: sc.name.clone(),
        path: path.display().to_string(),
        runs: Vec::new(),
        failures: Vec::new(),
    };
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| sc.name.clone());
    let out = dir.join(format!("{stem}.trace.json"));
    let trace: Option<(PathBuf, _)> =
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::File::create(&out)) {
            Ok(f) => Some((
                out,
                Rc::new(RefCell::new(ChromeTrace::new(std::io::BufWriter::new(f)))),
            )),
            Err(e) => {
                report.failures.push(format!("trace export disabled: {e}"));
                None
            }
        };
    for (i, &sched) in scheds.iter().enumerate() {
        let mut opts = opts_for(cfg, cancel);
        if trace.is_some() {
            opts.trace_capacity = BUFFERED_CAPACITY;
        }
        match scenario::run_sched(sc, sched, &opts) {
            Ok(out) => {
                if let Some((_, writer)) = &trace {
                    let k = &out.kernel;
                    let mut w = writer.borrow_mut();
                    let mut analyzer = Analyzer::default();
                    w.begin_group(i as u32 + 1, sched.name(), k.topology().nr_cpus());
                    for ev in k.trace().iter() {
                        w.event(ev, k.tasks());
                        analyzer.event(ev, k.tasks());
                    }
                    w.end_group(k.now());
                }
                report.runs.push(out.run);
            }
            Err(EngineError::Spec(e)) => {
                report.failures.push(format!("[{}] {e}", sched.name()));
            }
            Err(EngineError::Crash(c)) => {
                report.failures.push(crash_failure(path, sc, cfg, &c));
            }
        }
    }
    if let Some((out, writer)) = trace {
        match Rc::try_unwrap(writer) {
            Ok(w) => match w.into_inner().finish() {
                Ok(events) => println!(
                    "  trace: {} ({events} events) — open in https://ui.perfetto.dev",
                    out.display()
                ),
                Err(e) => report.failures.push(format!("trace export failed: {e}")),
            },
            Err(_) => report
                .failures
                .push("trace writer still shared".to_string()),
        }
    }
    let partial = partial_failures(&report.runs);
    report.failures.extend(partial);
    report.failures.extend(scenario::failures(sc, &report.runs));
    report
}

/// Render one report for the terminal.
pub fn render(report: &RunReport) -> String {
    let mut s = format!("{} ({})\n", report.scenario, report.path);
    for r in &report.runs {
        let apps_done: usize = r.apps.iter().filter(|a| a.done).count();
        s.push_str(&format!(
            "  [{}]{} digest {}  end {:.3}s  apps {}/{} done  ctx {}  migr {}  run-delay p99 {:.3}ms\n",
            r.sched.name(),
            if r.partial { " PARTIAL" } else { "" },
            r.digest_hex,
            r.end_s,
            apps_done,
            r.apps.len(),
            r.counters.ctx_switches,
            r.counters.migrations,
            r.run_delay.p99_ms,
        ));
    }
    if report.failures.is_empty() {
        s.push_str("  PASS\n");
    } else {
        for f in &report.failures {
            s.push_str(&format!("  FAIL {f}\n"));
        }
    }
    s
}

/// CLI entry: load, run, print and JSON-dump. Returns `false` if any
/// scenario failed (parse error, crash or assertion).
pub fn cli(
    paths: &[String],
    cfg: &RunCfg,
    sched_override: Option<Sched>,
    trace: bool,
    json: &Option<String>,
    timeout_s: Option<f64>,
) -> bool {
    let scenarios = match load(paths) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    let strict = cfg.check == CheckMode::Strict;
    println!(
        "running {} scenario(s) at scale {} seed {}{}\n",
        scenarios.len(),
        cfg.scale,
        cfg.seed,
        if strict { " [strict]" } else { "" }
    );
    let trace_dir = trace.then(|| PathBuf::from("traces"));
    let reports = run_all(
        &scenarios,
        cfg,
        sched_override,
        trace_dir.as_deref(),
        timeout_s,
    );
    for report in &reports {
        print!("{}", render(report));
    }
    let failed: usize = reports.iter().filter(|r| !r.passed()).count();
    println!(
        "\n{}/{} scenarios passed",
        reports.len() - failed,
        reports.len()
    );
    let mut ok = failed == 0;
    if let Some(p) = json {
        match serde_json::to_string_pretty(&reports) {
            Ok(s) => {
                if let Err(e) = std::fs::write(p, s) {
                    eprintln!("cannot write {p}: {e}");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("cannot serialize report for {p}: {e}");
                ok = false;
            }
        }
    }
    ok
}
