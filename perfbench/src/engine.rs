//! One scenario run, timed from the outside at each public entry point.
//!
//! [`execute`] follows `scenario::run_sched` step for step (same build
//! order, budget and watchdog wiring, step loop and stop rules), so its
//! decision digest equals the engine's; `tests/harness.rs` pins that for
//! every scheduler. The only differences are the timers around each stage
//! and, in traced runs, the [`Timed`] wrapper around the scheduler.

use std::rc::Rc;
use std::time::Instant;

use kernel::{CheckMode, Kernel, RunBudget, SimConfig, SimError};
use metrics::{Histogram, PerCoreSeries};
use scenario::engine::{AbortKind, AppResult, TenantResult};
use scenario::{Scenario, ScenarioRun, Sched};
use simcore::{Dur, Time};
use topology::CpuId;

use crate::ruler::Ruler;
use crate::timed::{HookStats, HookTotals, Timed};
use crate::workloads::{scenario_source, RunDef};

/// One timed interval of a traced run. Every span of a run shares its
/// `run` id; `step` spans carry the hook tallies of that step.
#[derive(Debug, Clone)]
pub struct Span {
    /// Run id, unique within the process.
    pub run: u32,
    /// Layer: `run`, `scenario.parse`, `topology.build`, `kernel.new`,
    /// `scenario.build`, `step` or `metrics.collect`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Hook calls and time inside a `step` span.
    pub hooks: Option<Box<HookTotals>>,
    /// What ran, on the `run` span.
    pub def: Option<RunDef>,
}

/// Collects the spans of traced runs in memory.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    next_run: u32,
    keep_spans: bool,
    /// Every span recorded so far, in end order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that keeps spans (`keep_spans`) or only wraps schedulers
    /// so their hook tallies are counted.
    pub fn new(keep_spans: bool) -> Tracer {
        Tracer {
            base: Instant::now(),
            next_run: 0,
            keep_spans,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    fn push(&mut self, run: u32, name: &'static str, start: Instant, end: Instant) {
        self.push_span(run, name, start, end, None, None);
    }

    fn push_span(
        &mut self,
        run: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        hooks: Option<HookTotals>,
        def: Option<RunDef>,
    ) {
        if self.keep_spans {
            let span = Span {
                run,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                hooks: hooks.map(Box::new),
                def,
            };
            self.spans.push(span);
        }
    }
}

/// Host-time breakdown of one run, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// `Scenario::from_toml`.
    pub parse: u64,
    /// `TopoSpec::build`.
    pub topo: u64,
    /// `make_class` + `Kernel::new`.
    pub kernel_new: u64,
    /// `workload::build` + `Kernel::queue_app` for every phase.
    pub build: u64,
    /// The whole step loop.
    pub run_loop: u64,
    /// Inside `Kernel::try_run_until` (part of `run_loop`).
    pub steps: u64,
    /// Number of `try_run_until` calls.
    pub nsteps: u64,
    /// End-of-run summaries and assertion evaluation.
    pub collect: u64,
}

impl Timing {
    /// Set-up: parsing, topology, scheduler + kernel, queued phases.
    pub fn setup(&self) -> u64 {
        self.parse + self.topo + self.kernel_new + self.build
    }

    /// Execution: the step loop plus end-of-run summaries.
    pub fn wall(&self) -> u64 {
        self.run_loop + self.collect
    }
}

/// Host time of one run scaled by the [`Ruler`] towards the reference speed,
/// in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scaled {
    /// Set-up, as [`Timing::setup`].
    pub setup: f64,
    /// Execution, as [`Timing::wall`].
    pub wall: f64,
}

/// Everything the harness keeps from one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What ran.
    pub def: RunDef,
    /// Where the host time went.
    pub timing: Timing,
    /// Hook tallies of the whole run (zero when untraced).
    pub hooks: HookTotals,
    /// Hook tallies inside `try_run_until` only.
    pub step_hooks: HookTotals,
    /// `timing` scaled by the ruler.
    pub scaled: Scaled,
    /// The run's report, or why it produced none (spec error or crash).
    pub result: Result<ScenarioRun, String>,
    /// `scenario::failures` of this run alone.
    pub failures: Vec<String>,
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// End the set-up stage `name` begun at `start`: record its span when
/// tracing and return its host nanoseconds.
fn stage(tracer: &mut Option<&mut Tracer>, run: u32, name: &'static str, start: Instant) -> u64 {
    let end = Instant::now();
    if let Some(tr) = tracer {
        tr.push(run, name, start, end);
    }
    end.duration_since(start).as_nanos() as u64
}

/// Run `def` once. `tracer` wraps the scheduler in [`Timed`] and records
/// spans; `None` runs the bare scheduler. `max_events` adds a SchedGuard
/// event budget (the run then ends partial). `ruler` reads the host's
/// speed between slices to fill [`Outcome::scaled`].
pub fn execute(
    def: &RunDef,
    seed: u64,
    check: CheckMode,
    max_events: Option<u64>,
    mut tracer: Option<&mut Tracer>,
    ruler: &mut Ruler,
) -> Outcome {
    let run_id = tracer.as_mut().map_or(0, |t| {
        t.next_run += 1;
        t.next_run
    });
    let run_start = Instant::now();
    let stats = tracer.as_ref().map(|_| Rc::new(HookStats::default()));
    let mut timing = Timing::default();
    let mut step_hooks = HookTotals::default();
    let unfinished = |timing: Timing, why: String| Outcome {
        def: *def,
        timing,
        hooks: HookTotals::default(),
        step_hooks: HookTotals::default(),
        scaled: Scaled::default(),
        result: Err(why),
        failures: Vec::new(),
    };

    let src = scenario_source(def.scenario).expect("workload lists only corpus scenarios");
    let t = Instant::now();
    let parsed = Scenario::from_toml(src);
    timing.parse = stage(&mut tracer, run_id, "scenario.parse", t);
    let sc = match parsed {
        Ok(sc) => sc,
        Err(e) => return unfinished(timing, format!("parse: {e}")),
    };

    let t = Instant::now();
    let topo = sc.topology.build();
    timing.topo = stage(&mut tracer, run_id, "topology.build", t);
    let ncpu = topo.nr_cpus();

    // scenario::make_kernel_tuned, with the class optionally wrapped.
    let t = Instant::now();
    let mut cfg = SimConfig::with_seed(seed);
    cfg.check = check;
    cfg.faults = sc.faults.to_plan();
    if check == CheckMode::Strict {
        cfg.trace_capacity = cfg.trace_capacity.max(256);
    }
    let class = scenario::make_class(&topo, def.sched, seed);
    let class: Box<dyn sched_api::Scheduler> = match &stats {
        Some(s) => Box::new(Timed::new(class, Rc::clone(s))),
        None => class,
    };
    let mut k = Kernel::new(topo, cfg, class);
    let mut budget = sc.budget.to_run_budget();
    if let Some(n) = max_events {
        budget = budget.tighten(&RunBudget {
            max_events: Some(n),
            ..RunBudget::default()
        });
    }
    if budget.active() {
        k.set_budget(budget);
    }
    if sc.budget.stall_events.is_some() || sc.budget.pingpong.is_some() {
        let defaults = SimConfig::default();
        k.set_watchdog(
            sc.budget
                .stall_events
                .map(|n| n as u32)
                .unwrap_or(defaults.watchdog_stall_events),
            sc.budget
                .pingpong
                .map(|n| n as u32)
                .unwrap_or(defaults.watchdog_pingpong),
        );
    }
    timing.kernel_new = stage(&mut tracer, run_id, "kernel.new", t);

    let t = Instant::now();
    let mut apps = Vec::with_capacity(sc.phases.len());
    for phase in &sc.phases {
        let at = Time::ZERO + phase.at.eval(def.scale);
        match scenario::workload::build(&mut k, &phase.workload, &phase.name, def.scale, ncpu) {
            Ok(spec) => apps.push((phase.name.clone(), k.queue_app(at, spec))),
            Err(e) => return unfinished(timing, format!("build: {e}")),
        }
    }
    for ev in &sc.events {
        let app = apps
            .iter()
            .find(|(name, _)| *name == ev.phase)
            .map(|&(_, id)| id)
            .expect("event phases validated at parse time");
        k.queue_unpin(Time::ZERO + ev.at.eval(def.scale), app);
    }
    timing.build = stage(&mut tracer, run_id, "scenario.build", t);
    let mut scaled = Scaled {
        setup: timing.setup() as f64 * ruler.factor(),
        wall: 0.0,
    };

    let horizon = match def.sched {
        Sched::Cfs => sc.run.horizon_cfs.as_ref(),
        Sched::Ule => sc.run.horizon_ule.as_ref(),
        _ => None,
    }
    .unwrap_or(&sc.run.horizon);
    let limit = Time::ZERO + horizon.eval(def.scale);
    let mut step = sc.run.step.eval(def.scale);
    if step.is_zero() {
        step = Dur::millis(100);
    }
    let stop_after = sc
        .run
        .stop_spread_after
        .as_ref()
        .map(|t| Time::ZERO + t.eval(def.scale))
        .unwrap_or(Time::ZERO);

    let mut sliced_ns = 0;
    let ruler_before_loop = ruler.spent_ns();
    let loop_start = Instant::now();
    let mut matrix = PerCoreSeries::new();
    let mut abort: Option<(AbortKind, String)> = None;
    let mut crash: Option<String> = None;
    while k.now() < limit && !(sc.run.until_apps_done && k.all_apps_done()) {
        let next = k.now() + step;
        let before = stats.as_ref().map(|s| s.totals());
        let ruler_before = ruler.spent_ns();
        let t = Instant::now();
        let r = run_slices(&mut k, next, ruler, &mut sliced_ns, &mut scaled.wall);
        let t_end = Instant::now();
        let ns = t_end.duration_since(t).as_nanos() as u64 - (ruler.spent_ns() - ruler_before);
        timing.steps += ns;
        timing.nsteps += 1;
        if let (Some(s), Some(before)) = (&stats, before) {
            let delta = s.totals().since(&before);
            step_hooks.add(&delta);
            if let Some(tr) = tracer.as_mut() {
                tr.push_span(run_id, "step", t, t_end, Some(delta), None);
            }
        }
        if let Err(e) = r {
            let kind = match &e {
                SimError::BudgetExceeded { .. } => AbortKind::Budget,
                SimError::Livelock { .. } => AbortKind::Livelock,
                SimError::Cancelled { .. } => AbortKind::Cancelled,
                _ => {
                    crash = Some(format!("crash: {e}"));
                    break;
                }
            };
            abort = Some((kind, e.to_string()));
            break;
        }
        matrix.push(
            k.now(),
            (0..ncpu)
                .map(|c| k.nr_queued(CpuId(c as u32)) as u32)
                .collect(),
        );
        if let Some(th) = sc.run.stop_spread_le {
            if matrix.final_spread() <= th && k.now() > stop_after {
                break;
            }
        }
    }
    timing.run_loop = since(loop_start) - (ruler.spent_ns() - ruler_before_loop);

    let t = Instant::now();
    let result = match crash {
        Some(msg) => Err(msg),
        None => Ok(collect(&sc, &k, def, seed, &apps, &matrix, abort)),
    };
    let failures = match &result {
        Ok(run) => scenario::failures(&sc, std::slice::from_ref(run)),
        Err(_) => Vec::new(),
    };
    timing.collect = stage(&mut tracer, run_id, "metrics.collect", t);
    scaled.wall += (timing.wall() - sliced_ns) as f64 * ruler.factor();
    if let Some(tr) = tracer.as_mut() {
        tr.push_span(run_id, "run", run_start, Instant::now(), None, Some(*def));
    }

    Outcome {
        def: *def,
        timing,
        hooks: stats.map(|s| s.totals()).unwrap_or_default(),
        step_hooks,
        scaled,
        result,
        failures,
    }
}

/// Simulated length of one `try_run_until` call. The engine's sampling
/// step (often 100 ms simulated, up to 150 ms host at 512 cores) runs as
/// consecutive calls of at most this length: the kernel processes the same
/// events in the same order, and the [`Ruler`] can read the host's speed
/// between calls, a few milliseconds of host time apart.
pub const SLICE: Dur = Dur::millis(10);

/// Run `k` up to `until` in [`SLICE`]-long `try_run_until` calls. Each
/// call's host nanoseconds are added to `raw_ns`, and scaled by the
/// ruler's factor from just before the call to `scaled_ns`.
fn run_slices(
    k: &mut Kernel,
    until: Time,
    ruler: &mut Ruler,
    raw_ns: &mut u64,
    scaled_ns: &mut f64,
) -> Result<(), SimError> {
    loop {
        let to = (k.now() + SLICE).min(until);
        let factor = ruler.factor();
        let t = Instant::now();
        let r = k.try_run_until(to);
        let ns = since(t);
        *raw_ns += ns;
        *scaled_ns += ns as f64 * factor;
        ruler.tick();
        r?;
        if to >= until {
            return Ok(());
        }
    }
}
/// The end-of-run report, built exactly as `scenario::run_sched` builds it.
fn collect(
    sc: &Scenario,
    k: &Kernel,
    def: &RunDef,
    seed: u64,
    apps: &[(String, kernel::AppId)],
    matrix: &PerCoreSeries,
    abort: Option<(AbortKind, String)>,
) -> ScenarioRun {
    let digest = k.decision_digest();
    let app_results = apps
        .iter()
        .map(|(phase, id)| {
            let a = k.app(*id);
            AppResult {
                name: a.name.clone(),
                phase: phase.clone(),
                done: a.finished.is_some(),
                elapsed_s: a.finished.and(a.elapsed()).map(|d| d.as_secs_f64()),
                ops: a.ops,
                ops_per_sec: a.ops_per_sec(k.now()),
                avg_latency_ms: a.avg_latency().map(|d| d.as_secs_f64() * 1e3),
                run_delay: k.app_run_delay(*id).summary(),
            }
        })
        .collect();
    let mut tenants: Vec<(String, Histogram)> = Vec::new();
    for (phase, (_, id)) in sc.phases.iter().zip(apps) {
        let Some(label) = &phase.tenant else { continue };
        match tenants.iter_mut().find(|(t, _)| t == label) {
            Some((_, h)) => h.merge(k.app_run_delay(*id)),
            None => {
                let mut h = Histogram::new();
                h.merge(k.app_run_delay(*id));
                tenants.push((label.clone(), h));
            }
        }
    }
    ScenarioRun {
        scenario: sc.name.clone(),
        sched: def.sched,
        scale: def.scale,
        seed,
        digest,
        digest_hex: format!("{digest:016x}"),
        end_s: k.now().as_secs_f64(),
        all_apps_done: k.all_apps_done(),
        counters: k.counters().clone(),
        run_delay: k.run_delay().summary(),
        wakeup_latency: k.wakeup_latency().summary(),
        apps: app_results,
        tenants: tenants
            .into_iter()
            .map(|(tenant, h)| TenantResult {
                tenant,
                run_delay: h.summary(),
            })
            .collect(),
        final_spread: matrix.final_spread(),
        convergence_s: matrix.convergence_time(1),
        partial: abort.is_some(),
        abort_kind: abort.as_ref().map(|(k, _)| *k),
        abort: abort.map(|(_, msg)| msg),
    }
}
