//! The closed loop: repeat a workload's run list until the time is up,
//! check every run, and reduce the samples to metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use kernel::{CheckMode, Counters};
use scenario::Sched;

use crate::engine::{execute, Outcome, Span, Timing, Tracer};
use crate::ruler::Ruler;
use crate::stats::quartiles;
use crate::timed::{Hook, HookTotals};
use crate::workloads::{RunDef, Workload};

/// Timed passes made at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// How one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every run (the program sees it only through the runs).
    pub seed: u64,
    /// Measure for at least this long.
    pub seconds: f64,
    /// Report the per-layer metrics of traced passes instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Known defects: `(scenario, scheduler flag, scale, substring of the
/// assertion failure)`, one per line of `known_failures.txt`.
const KNOWN_FAILURES: &str = include_str!("../known_failures.txt");

/// The verdict on one run of the list, across all of its executions.
#[derive(Debug, Clone)]
pub struct RunCheck {
    /// What ran.
    pub def: RunDef,
    /// Digest of the first (traced) execution.
    pub digest: Option<u64>,
    /// Why the run failed, deduplicated; empty means it passed.
    pub reasons: BTreeSet<String>,
    /// Kernel counters of the first execution.
    pub counters: Counters,
    /// Hook tallies of the first (traced) execution.
    pub hooks: HookTotals,
}

impl RunCheck {
    /// Every reason is an assertion failure listed in `known_failures.txt`.
    pub fn known(&self) -> bool {
        !self.reasons.is_empty() && self.reasons.iter().all(|r| is_known(&self.def, r))
    }

    fn record(&mut self, o: &Outcome) {
        let run = match &o.result {
            Ok(run) => run,
            Err(why) => {
                self.reasons.insert(why.clone());
                return;
            }
        };
        if let Some(abort) = &run.abort {
            self.reasons.insert(format!("aborted: {abort}"));
        }
        self.reasons.extend(o.failures.iter().cloned());
        match self.digest {
            None => self.digest = Some(run.digest),
            Some(d) if d != run.digest => {
                self.reasons.insert(format!(
                    "digest {:016x} differs from the first execution's {d:016x}",
                    run.digest
                ));
            }
            Some(_) => {}
        }
    }
}

fn is_known(def: &RunDef, reason: &str) -> bool {
    KNOWN_FAILURES
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .any(|l| {
            let mut f = l.splitn(4, ' ');
            f.next() == Some(def.scenario)
                && f.next() == Some(def.sched.flag_name())
                && f.next().and_then(|s| s.parse::<f64>().ok()) == Some(def.scale)
                && f.next().is_some_and(|m| reason.contains(m))
        })
}

/// Sums over one pass of the run list.
#[derive(Debug, Clone, Copy, Default)]
struct PassTotals {
    /// Set-up, scaled by the ruler, in seconds.
    setup_s: f64,
    /// Execution, scaled by the ruler, in seconds.
    wall_s: f64,
    /// Execution as measured, in seconds.
    raw_wall_s: f64,
    /// Simulated events.
    events: u64,
}

impl PassTotals {
    fn of(pass: &[Outcome]) -> PassTotals {
        let mut t = PassTotals::default();
        for o in pass {
            t.setup_s += o.scaled.setup / 1e9;
            t.wall_s += o.scaled.wall / 1e9;
            t.raw_wall_s += o.timing.wall() as f64 / 1e9;
            t.events += o.result.as_ref().map_or(0, |r| r.counters.events);
        }
        t
    }
}

/// Median of `f` over `passes`.
fn median(passes: &[PassTotals], f: fn(&PassTotals) -> f64) -> f64 {
    quartiles(&passes.iter().map(f).collect::<Vec<_>>())[1]
}

/// Per-layer sums over every traced pass.
#[derive(Debug, Clone, Default)]
struct Layers {
    passes: u64,
    timing: Timing,
    hooks: HookTotals,
    step_hooks: HookTotals,
    sched_nanos: [u64; Sched::ALL.len()],
}

impl Layers {
    fn add(&mut self, pass: &[Outcome]) {
        self.passes += 1;
        for o in pass {
            let t = &o.timing;
            let s = &mut self.timing;
            s.parse += t.parse;
            s.topo += t.topo;
            s.kernel_new += t.kernel_new;
            s.build += t.build;
            s.run_loop += t.run_loop;
            s.steps += t.steps;
            s.nsteps += t.nsteps;
            s.collect += t.collect;
            self.hooks.add(&o.hooks);
            self.step_hooks.add(&o.step_hooks);
            let i = Sched::ALL
                .iter()
                .position(|&x| x == o.def.sched)
                .expect("every scheduler is registered");
            self.sched_nanos[i] += o.hooks.total_nanos();
        }
    }

    /// Mean seconds per pass of a nanosecond sum.
    fn secs(&self, nanos: u64) -> f64 {
        nanos as f64 / 1e9 / self.passes.max(1) as f64
    }
}

/// What one invocation measured and found.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of every run.
    pub seed: u64,
    /// Whether per-layer metrics were measured.
    pub trace: bool,
    /// Check mode of the workload.
    pub check: CheckMode,
    /// One verdict per run of the list.
    pub checks: Vec<RunCheck>,
    /// Untraced timed passes.
    pub passes: usize,
    /// Host seconds the invocation took.
    pub elapsed_s: f64,
    /// Metric name → value: the names of `report::end_to_end()` or, when
    /// traced, `report::per_layer()`.
    pub metrics: BTreeMap<String, f64>,
    /// Quartiles over the untraced passes of the end-to-end timings, of
    /// `raw_wall_s` (execution as measured) and of `host_factor` (the
    /// ruler's factors over the whole invocation).
    pub spread: BTreeMap<&'static str, [f64; 3]>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// Problems worth printing that are not failures.
    pub diagnostics: Vec<String>,
}

impl Report {
    /// Runs of the list (each scenario × scheduler pair counts once).
    pub fn attempted(&self) -> usize {
        self.checks.len()
    }

    /// Runs with at least one failure reason.
    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.reasons.is_empty()).count()
    }

    /// No run failed, except through a defect listed as known.
    pub fn correct(&self) -> bool {
        self.checks
            .iter()
            .all(|c| c.reasons.is_empty() || c.known())
    }
}

fn run_pass(
    w: &Workload,
    seed: u64,
    check: CheckMode,
    max_events: Option<u64>,
    mut tracer: Option<&mut Tracer>,
    ruler: &mut Ruler,
) -> Vec<Outcome> {
    w.runs
        .iter()
        .map(|def| execute(def, seed, check, max_events, tracer.as_deref_mut(), ruler))
        .collect()
}

fn record(checks: &mut [RunCheck], pass: &[Outcome]) {
    for (c, o) in checks.iter_mut().zip(pass) {
        c.record(o);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run workload `w` in a closed loop for `opts.seconds` and reduce it.
pub fn run(w: &Workload, opts: &Options) -> Report {
    let start = Instant::now();
    let seed = opts.seed;
    let mut ruler = Ruler::new();

    // Warm-up pass, traced for hook tallies only: it fills caches and lazy
    // state before timing, and it gives the reference digests and the
    // exact counts.
    let warm = run_pass(
        w,
        seed,
        w.check,
        None,
        Some(&mut Tracer::new(false)),
        &mut ruler,
    );
    let mut checks: Vec<RunCheck> = warm
        .iter()
        .map(|o| RunCheck {
            def: o.def,
            digest: None,
            reasons: BTreeSet::new(),
            counters: o
                .result
                .as_ref()
                .map(|r| r.counters.clone())
                .unwrap_or_default(),
            hooks: o.hooks,
        })
        .collect();
    record(&mut checks, &warm);
    drop(warm);
    // One pass over every run has reached the workload's peak; later
    // passes only add allocator noise that depends on how many ran.
    let peak_rss = peak_rss_mb().expect("peak RSS is read from /proc/self/status");

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(true);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    while untraced.len() < MIN_PASSES || Instant::now() < deadline {
        let pass = run_pass(w, seed, w.check, None, None, &mut ruler);
        record(&mut checks, &pass);
        untraced.push(PassTotals::of(&pass));
        if opts.trace {
            let pass = run_pass(w, seed, w.check, None, Some(&mut tracer), &mut ruler);
            record(&mut checks, &pass);
            traced.push(PassTotals::of(&pass));
            layers.add(&pass);
        }
    }

    let mut diagnostics = digest_drift(w, seed, &checks);
    let mut metrics = BTreeMap::new();
    let wall_s = median(&untraced, |p| p.wall_s);
    if opts.trace {
        let overhead = median(&traced, |p| p.wall_s) / wall_s;
        per_layer(&mut metrics, &checks, &layers, overhead);
        let (x, notes) = check_overhead(w, seed, &mut ruler);
        metrics.insert("check.overhead_x".into(), x);
        diagnostics.extend(notes);
    } else {
        let events = untraced[0].events as f64;
        metrics.insert("wall_s".into(), wall_s);
        metrics.insert("events_per_s".into(), events / wall_s);
        metrics.insert("setup_s".into(), median(&untraced, |p| p.setup_s));
        metrics.insert("peak_rss_mb".into(), peak_rss);
    }
    let spread_of =
        |f: fn(&PassTotals) -> f64| quartiles(&untraced.iter().map(f).collect::<Vec<_>>());
    let spread = BTreeMap::from([
        ("wall_s", spread_of(|p| p.wall_s)),
        ("events_per_s", spread_of(|p| p.events as f64 / p.wall_s)),
        ("setup_s", spread_of(|p| p.setup_s)),
        ("raw_wall_s", spread_of(|p| p.raw_wall_s)),
        ("host_factor", quartiles(ruler.factors())),
    ]);
    let mut report = Report {
        workload: w.name,
        seed,
        trace: opts.trace,
        check: w.check,
        checks,
        passes: untraced.len(),
        elapsed_s: start.elapsed().as_secs_f64(),
        metrics,
        spread,
        spans: tracer.spans,
        diagnostics,
    };
    if !opts.trace {
        // Laplace's rule of succession over the runs of the list: never 0,
        // and it rises with every failed run.
        let ratio = (report.failed() as f64 + 1.0) / (report.attempted() as f64 + 2.0);
        report.metrics.insert("fail_ratio".into(), ratio);
    }
    report
}

fn per_layer(m: &mut BTreeMap<String, f64>, checks: &[RunCheck], l: &Layers, overhead: f64) {
    let t = &l.timing;
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("scenario.parse_s", l.secs(t.parse));
    put("topology.build_s", l.secs(t.topo));
    put("kernel.new_s", l.secs(t.kernel_new));
    put("scenario.build_s", l.secs(t.build));

    // Counts are exact and identical in every pass: take the warm-up's.
    let sum = |f: fn(&Counters) -> u64| checks.iter().map(|c| f(&c.counters)).sum::<u64>() as f64;
    let events = sum(|c| c.events);
    let run_s = l.secs(t.steps);
    put("kernel.run_s", run_s);
    put("kernel.self_s", run_s - l.secs(l.step_hooks.total_nanos()));
    put("kernel.ns_per_event", run_s * 1e9 / events.max(1.0));
    put("kernel.events", events);
    put("kernel.ctx_switches", sum(|c| c.ctx_switches));
    put("kernel.wakeups", sum(|c| c.wakeups));
    put("kernel.migrations", sum(|c| c.migrations));
    put("kernel.placement_scans", sum(|c| c.placement_scans));

    let mut hooks = HookTotals::default();
    for c in checks {
        hooks.add(&c.hooks);
    }
    for h in Hook::ALL {
        put(
            &format!("sched.{}.calls", h.name()),
            hooks.calls[h as usize] as f64,
        );
        put(
            &format!("sched.{}.s", h.name()),
            l.secs(l.hooks.nanos[h as usize]),
        );
    }
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    put(
        "sched.select_task_rq.cpus_scanned",
        hooks.cpus_scanned as f64,
    );
    put(
        "sched.idle_balance.hit_ratio",
        ratio(hooks.idle_pulled, hooks.calls[Hook::IdleBalance as usize]),
    );
    put(
        "sched.enqueue_task.preempt_ratio",
        ratio(
            hooks.enqueue_preempts,
            hooks.calls[Hook::EnqueueTask as usize],
        ),
    );
    put(
        "sched.task_tick.preempt_ratio",
        ratio(hooks.tick_preempts, hooks.calls[Hook::TaskTick as usize]),
    );
    for (s, &ns) in Sched::ALL.iter().zip(&l.sched_nanos) {
        put(&format!("sched.{}.s", s.flag_name()), l.secs(ns));
    }
    put("scenario.sample_s", l.secs(t.run_loop - t.steps));
    put("scenario.steps", t.nsteps as f64 / l.passes.max(1) as f64);
    put("metrics.collect_s", l.secs(t.collect));
    put("trace.overhead_x", overhead);
}

/// Strict over off on the same run list (cut to the workload's probe
/// budget), untraced. Returns the ratio and any probe crash messages.
fn check_overhead(w: &Workload, seed: u64, ruler: &mut Ruler) -> (f64, Vec<String>) {
    let mut notes = Vec::new();
    let mut wall = |check: CheckMode| {
        let pass = run_pass(w, seed, check, w.probe_events, None, ruler);
        for o in &pass {
            if let Err(why) = &o.result {
                notes.push(format!(
                    "check probe {} {} ({check:?}): {why}",
                    o.def.scenario,
                    o.def.sched.flag_name()
                ));
            }
        }
        PassTotals::of(&pass).wall_s
    };
    let off = wall(CheckMode::Off);
    let strict = wall(CheckMode::Strict);
    (strict / off, notes)
}

/// Reference digests (`digests.txt`): `workload scenario sched scale seed
/// digest` per line. A difference is printed, not counted as a failure:
/// a change that alters decisions on purpose updates the file.
const REFERENCE_DIGESTS: &str = include_str!("../digests.txt");

fn digest_drift(w: &Workload, seed: u64, checks: &[RunCheck]) -> Vec<String> {
    let mut notes = Vec::new();
    let mut compared = 0;
    for c in checks {
        let Some(got) = c.digest else { continue };
        let key = digest_key(w.name, &c.def, seed);
        let Some(want) = REFERENCE_DIGESTS
            .lines()
            .find_map(|l| l.strip_prefix(&key)?.strip_prefix(' ').map(str::trim))
        else {
            continue;
        };
        compared += 1;
        if want != format!("{got:016x}") {
            notes.push(format!("digest drift: {key} {got:016x}, reference {want}"));
        }
    }
    if compared == 0 {
        notes.push(format!("no reference digests for seed {seed}"));
    }
    notes
}

/// The leading fields of a `digests.txt` line.
pub fn digest_key(workload: &str, def: &RunDef, seed: u64) -> String {
    format!(
        "{workload} {} {} {} {seed}",
        def.scenario,
        def.sched.flag_name(),
        def.scale
    )
}
