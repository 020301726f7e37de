//! SchedScope: exportable scheduling traces and trace-derived analyses.
//!
//! `battle trace <fig> --out trace.json` renders the kernel's flight
//! recorder as Chrome-trace/Perfetto JSON: one track per CPU whose slices
//! are the running tasks (from `Switch`/`Idle` events), instant markers
//! for wakeups, exits, preemptions, migrations, hotplug and fault events,
//! and flow arrows from each waker to its wakee's next dispatch. Load the
//! file in <https://ui.perfetto.dev> (or `chrome://tracing`) to scrub
//! through a run visually.
//!
//! Two export modes:
//!
//! * **buffered** (default): the run records into an in-memory flight
//!   recorder that is rendered after the fact. Bounded by the ring's
//!   capacity — long runs lose their oldest events (reported as
//!   `trace_dropped`).
//! * **streaming** (`--stream`): a [`TraceSink`] writes every event to
//!   disk as it happens, so full-scale runs export complete traces without
//!   an unbounded buffer.
//!
//! Alongside the export, an [`Analyzer`] aggregates the same event stream
//! into the §5.3/§6 analyses: preemption attribution by cause and by
//! (preemptor, victim) pair — validating the paper's "1 preemption per
//! request" apache claim — and a per-core migration timeline for the
//! Figure 6 rebalancing story.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;

use kernel::{Kernel, TraceEvent, TraceSink};
use sched_api::{TaskTable, Tid};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};
use workloads::{phoronix::cray, phoronix::CrayCfg, synthetic, sysbench::SysbenchCfg, P};

use crate::{make_kernel, obs_of, RunCfg, Sched, SchedObs};

/// Figures `battle trace` can export.
pub const FIGS: [&str; 4] = ["fig1", "fig5", "fig6", "fig7"];

/// Flight-recorder capacity used in buffered mode (events).
pub const BUFFERED_CAPACITY: usize = 1 << 20;

// ---------------------------------------------------------------------
// Chrome-trace writer
// ---------------------------------------------------------------------

/// A slice currently open on one CPU track.
struct OpenSlice {
    start: Time,
    name: String,
    tid: Tid,
}

/// Incremental Chrome-trace (JSON Array Format) writer.
///
/// One *process* per scheduler group (`begin_group`), one *thread* per
/// CPU; task executions become `"ph":"X"` complete slices, everything
/// else becomes `"ph":"i"` instants, and wakeups additionally draw
/// `"s"`/`"f"` flow arrows from the waker to the wakee's next dispatch.
/// I/O errors are sticky and surface from [`ChromeTrace::finish`].
pub struct ChromeTrace<W: Write> {
    out: W,
    wrote_any: bool,
    err: Option<String>,
    pid: u32,
    open: Vec<Option<OpenSlice>>,
    /// Dense tid-indexed table: which CPU a task currently occupies a
    /// slice on ([`NO_CPU`] when none). Indexed on every switch event, so
    /// a flat vector beats hashing.
    running: Vec<u32>,
    /// Dense tid-indexed table: pending wakeup flow-arrow id per task
    /// (0 when none; real ids start at 1).
    pending_flow: Vec<u64>,
    next_flow: u64,
    events: u64,
    slices: u64,
}

/// Vacant sentinel for [`ChromeTrace::running`].
const NO_CPU: u32 = u32::MAX;

/// Nanoseconds as a microsecond JSON number with fixed 3-digit fraction
/// (Chrome-trace timestamps are microseconds; fixed formatting keeps the
/// output byte-deterministic).
fn us(t: u64) -> String {
    format!("{}.{:03}", t / 1_000, t % 1_000)
}

/// Minimal JSON string escape (task names are short ASCII identifiers,
/// but never trust an un-escaped string into a file format).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<W: Write> ChromeTrace<W> {
    /// Start a trace document on `out`.
    pub fn new(mut out: W) -> ChromeTrace<W> {
        let err = out
            .write_all(b"{\"traceEvents\":[\n")
            .err()
            .map(|e| e.to_string());
        ChromeTrace {
            out,
            wrote_any: false,
            err,
            pid: 0,
            open: Vec::new(),
            running: Vec::new(),
            pending_flow: Vec::new(),
            next_flow: 1,
            events: 0,
            slices: 0,
        }
    }

    /// Events emitted so far (including metadata records).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Task slices emitted so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// The CPU `tid` currently has an open slice on, if any.
    fn running_get(&self, tid: Tid) -> Option<CpuId> {
        match self.running.get(tid.index()).copied() {
            Some(NO_CPU) | None => None,
            Some(c) => Some(CpuId(c)),
        }
    }

    /// Record that `tid` occupies `cpu` (grows the table on first sight).
    fn running_set(&mut self, tid: Tid, cpu: CpuId) {
        if tid.index() >= self.running.len() {
            self.running.resize(tid.index() + 1, NO_CPU);
        }
        self.running[tid.index()] = cpu.0;
    }

    /// Record that `tid` no longer occupies any CPU.
    fn running_unset(&mut self, tid: Tid) {
        if let Some(slot) = self.running.get_mut(tid.index()) {
            *slot = NO_CPU;
        }
    }

    /// Take `tid`'s pending wakeup flow id, if one is armed.
    fn flow_take(&mut self, tid: Tid) -> Option<u64> {
        match self.pending_flow.get_mut(tid.index()) {
            Some(id) if *id != 0 => Some(std::mem::take(id)),
            _ => None,
        }
    }

    /// Arm a wakeup flow arrow for `tid`'s next dispatch.
    fn flow_set(&mut self, tid: Tid, id: u64) {
        if tid.index() >= self.pending_flow.len() {
            self.pending_flow.resize(tid.index() + 1, 0);
        }
        self.pending_flow[tid.index()] = id;
    }

    /// Begin a new scheduler group: Chrome-trace process `pid` named
    /// `name`, with one named thread per CPU. Resets all per-run state.
    pub fn begin_group(&mut self, pid: u32, name: &str, ncpu: usize) {
        self.pid = pid;
        self.open = (0..ncpu).map(|_| None).collect();
        self.running.clear();
        self.pending_flow.clear();
        self.raw(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
        self.raw(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\
             \"args\":{{\"sort_index\":{pid}}}}}"
        ));
        for cpu in 0..ncpu {
            self.raw(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{cpu},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"cpu{cpu}\"}}}}"
            ));
        }
    }

    /// Close every still-open slice at `now` (end of a group's run).
    pub fn end_group(&mut self, now: Time) {
        for cpu in 0..self.open.len() {
            self.close(CpuId(cpu as u32), now);
        }
        self.pending_flow.clear();
        self.running.clear();
    }

    /// Terminate the JSON document and flush. Returns the total events
    /// written, or the first I/O error encountered anywhere along the way.
    pub fn finish(mut self) -> Result<u64, String> {
        if let Err(e) = self
            .out
            .write_all(b"\n]}\n")
            .and_then(|()| self.out.flush())
        {
            self.err.get_or_insert(e.to_string());
        }
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.events),
        }
    }

    fn raw(&mut self, json: String) {
        if self.err.is_some() {
            return;
        }
        let sep: &[u8] = if self.wrote_any { b",\n" } else { b"" };
        if let Err(e) = self
            .out
            .write_all(sep)
            .and_then(|()| self.out.write_all(json.as_bytes()))
        {
            self.err = Some(e.to_string());
            return;
        }
        self.wrote_any = true;
        self.events += 1;
    }

    fn close(&mut self, cpu: CpuId, at: Time) {
        let Some(slot) = self.open.get_mut(cpu.index()) else {
            return;
        };
        let Some(s) = slot.take() else { return };
        let dur = at.as_nanos().saturating_sub(s.start.as_nanos());
        let (pid, tid) = (self.pid, s.tid.0);
        self.raw(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"cat\":\"task\",\"name\":\"{}\",\"args\":{{\"tid\":{tid}}}}}",
            cpu.0,
            us(s.start.as_nanos()),
            us(dur),
            s.name,
        ));
        self.slices += 1;
        self.running_unset(s.tid);
    }

    fn instant(&mut self, cpu: CpuId, at: Time, name: &str, args: String) {
        let pid = self.pid;
        self.raw(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"s\":\"t\",\
             \"cat\":\"sched\",\"name\":\"{name}\",\"args\":{{{args}}}}}",
            cpu.0,
            us(at.as_nanos()),
        ));
    }

    /// Render one event (the [`TraceSink`] entry point, also used for
    /// post-run buffered replays).
    pub fn event(&mut self, ev: &TraceEvent, tasks: &TaskTable) {
        match *ev {
            TraceEvent::Switch { at, cpu, to, .. } => {
                self.close(cpu, at);
                if let Some(id) = self.flow_take(to) {
                    let pid = self.pid;
                    self.raw(format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":{pid},\
                         \"tid\":{},\"ts\":{},\"cat\":\"wake\",\"name\":\"wake\"}}",
                        cpu.0,
                        us(at.as_nanos()),
                    ));
                }
                if let Some(slot) = self.open.get_mut(cpu.index()) {
                    *slot = Some(OpenSlice {
                        start: at,
                        name: esc(&tasks.get(to).name),
                        tid: to,
                    });
                }
                self.running_set(to, cpu);
            }
            TraceEvent::Idle { at, cpu } => self.close(cpu, at),
            TraceEvent::Wakeup {
                at,
                tid,
                cpu,
                waker,
            } => {
                let src = waker.and_then(|w| self.running_get(w)).unwrap_or(cpu);
                let id = self.next_flow;
                self.next_flow += 1;
                let by = waker
                    .map(|w| format!(",\"waker\":\"{}\"", esc(&tasks.get(w).name)))
                    .unwrap_or_default();
                self.instant(
                    cpu,
                    at,
                    &format!("wakeup {}", esc(&tasks.get(tid).name)),
                    format!("\"tid\":{}{by}", tid.0),
                );
                let pid = self.pid;
                self.raw(format!(
                    "{{\"ph\":\"s\",\"id\":{id},\"pid\":{pid},\"tid\":{},\
                     \"ts\":{},\"cat\":\"wake\",\"name\":\"wake\"}}",
                    src.0,
                    us(at.as_nanos()),
                ));
                self.flow_set(tid, id);
            }
            TraceEvent::Exit { at, tid } => {
                let cpu = self.running_get(tid).unwrap_or(CpuId(0));
                self.instant(
                    cpu,
                    at,
                    &format!("exit {}", esc(&tasks.get(tid).name)),
                    format!("\"tid\":{}", tid.0),
                );
                self.flow_take(tid);
            }
            TraceEvent::Hotplug { at, cpu, online } => {
                if !online {
                    self.close(cpu, at);
                }
                self.instant(
                    cpu,
                    at,
                    if online { "cpu online" } else { "cpu offline" },
                    String::new(),
                );
            }
            TraceEvent::SpuriousWake { at, tid } => {
                self.instant(
                    CpuId(0),
                    at,
                    &format!("spurious-wake {}", esc(&tasks.get(tid).name)),
                    format!("\"tid\":{}", tid.0),
                );
            }
            TraceEvent::Preempt {
                at,
                cpu,
                victim,
                by,
                cause,
            } => {
                let by = by
                    .map(|b| format!(",\"by\":\"{}\"", esc(&tasks.get(b).name)))
                    .unwrap_or_default();
                self.instant(
                    cpu,
                    at,
                    &format!("preempt:{}", cause.name()),
                    format!("\"victim\":\"{}\"{by}", esc(&tasks.get(victim).name)),
                );
            }
            TraceEvent::Migrate { at, tid, from, to } => {
                self.instant(
                    to,
                    at,
                    &format!("migrate {}", esc(&tasks.get(tid).name)),
                    format!("\"from\":{},\"to\":{}", from.0, to.0),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Trace analyses
// ---------------------------------------------------------------------

/// A preemption-cause tally row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CauseCount {
    /// [`sched_api::PreemptCause::name`].
    pub cause: String,
    /// Preemptions with that cause.
    pub count: u64,
}

/// A (preemptor, victim) attribution row. Task names are collapsed to
/// their "comm" (trailing `-N` / digit suffixes stripped) so the 80
/// sysbench workers aggregate into one row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PreemptPair {
    /// Who triggered the preemption (`"tick"` for tick-driven ones).
    pub by: String,
    /// Who lost the CPU.
    pub victim: String,
    /// How often.
    pub count: u64,
}

/// Migrations observed in one one-second bucket.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MigrationSlot {
    /// Bucket start (seconds of simulated time).
    pub t_s: f64,
    /// Migrations whose dispatch landed in the bucket.
    pub count: u64,
}

/// Aggregated trace-derived analysis of one run (serialized into the
/// `battle trace --json` report).
#[derive(Debug, Clone, serde::Serialize)]
pub struct TraceAnalysis {
    /// Wakeup events seen.
    pub wakeups: u64,
    /// Preemptions by cause.
    pub preemptions: Vec<CauseCount>,
    /// Preemption attribution, heaviest pairs first (top 12).
    pub preempt_pairs: Vec<PreemptPair>,
    /// Migration (cross-CPU dispatch) events seen.
    pub migrations: u64,
    /// Per-second migration timeline (Figure 6's rebalancing pulse).
    pub migration_timeline: Vec<MigrationSlot>,
    /// Migration arrivals per destination core.
    pub migration_arrivals_per_core: Vec<u64>,
}

/// Streaming aggregator producing a [`TraceAnalysis`].
#[derive(Debug, Default)]
pub struct Analyzer {
    wakeups: u64,
    by_cause: BTreeMap<&'static str, u64>,
    pairs: BTreeMap<(String, String), u64>,
    migrations: u64,
    slots: BTreeMap<u64, u64>,
    per_core: BTreeMap<u32, u64>,
}

/// Collapse a task name to its application "comm": `ab-17` → `ab`,
/// `worker3` → `worker`.
fn comm(name: &str) -> String {
    let s = name
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('-');
    if s.is_empty() { name } else { s }.to_string()
}

impl Analyzer {
    /// Observe one event.
    pub fn event(&mut self, ev: &TraceEvent, tasks: &TaskTable) {
        match *ev {
            TraceEvent::Wakeup { .. } => self.wakeups += 1,
            TraceEvent::Preempt {
                victim, by, cause, ..
            } => {
                *self.by_cause.entry(cause.name()).or_insert(0) += 1;
                let by = match by {
                    Some(b) => comm(&tasks.get(b).name),
                    None => "tick".to_string(),
                };
                *self
                    .pairs
                    .entry((by, comm(&tasks.get(victim).name)))
                    .or_insert(0) += 1;
            }
            TraceEvent::Migrate { at, to, .. } => {
                self.migrations += 1;
                *self.slots.entry(at.as_nanos() / 1_000_000_000).or_insert(0) += 1;
                *self.per_core.entry(to.0).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Produce the serializable analysis.
    pub fn analysis(&self) -> TraceAnalysis {
        let mut pairs: Vec<PreemptPair> = self
            .pairs
            .iter()
            .map(|((by, victim), &count)| PreemptPair {
                by: by.clone(),
                victim: victim.clone(),
                count,
            })
            .collect();
        pairs.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.by.cmp(&b.by)));
        pairs.truncate(12);
        let ncore = self
            .per_core
            .keys()
            .max()
            .map(|&c| c as usize + 1)
            .unwrap_or(0);
        let mut arrivals = vec![0u64; ncore];
        for (&c, &n) in &self.per_core {
            arrivals[c as usize] = n;
        }
        TraceAnalysis {
            wakeups: self.wakeups,
            preemptions: self
                .by_cause
                .iter()
                .map(|(&cause, &count)| CauseCount {
                    cause: cause.to_string(),
                    count,
                })
                .collect(),
            preempt_pairs: pairs,
            migrations: self.migrations,
            migration_timeline: self
                .slots
                .iter()
                .map(|(&s, &count)| MigrationSlot {
                    t_s: s as f64,
                    count,
                })
                .collect(),
            migration_arrivals_per_core: arrivals,
        }
    }
}

/// [`TraceSink`] adapter fanning events out to the shared writer and
/// analyzer (the kernel owns the sink box; the caller keeps `Rc` clones).
struct ScopeSink<W: Write> {
    trace: Rc<RefCell<ChromeTrace<W>>>,
    analyzer: Rc<RefCell<Analyzer>>,
}

impl<W: Write> TraceSink for ScopeSink<W> {
    fn event(&mut self, ev: &TraceEvent, tasks: &TaskTable) {
        self.trace.borrow_mut().event(ev, tasks);
        self.analyzer.borrow_mut().event(ev, tasks);
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// The machine a figure's scenario runs on.
pub fn topology_of(fig: &str) -> Result<Topology, String> {
    match fig {
        "fig1" | "fig5" => Ok(Topology::single_core()),
        "fig6" | "fig7" => Ok(Topology::opteron_6172()),
        other => Err(format!(
            "no trace scenario for {other} (have: {})",
            FIGS.join(" ")
        )),
    }
}

/// Build and run one figure's scenario under `sched`, with an optional
/// streaming sink and/or flight-recorder capacity installed beforehand.
/// Returns the finished kernel and the ops completed by the scenario's
/// application of interest (requests for apache, transactions for
/// sysbench; 0 where ops are meaningless).
pub fn run_scenario(
    fig: &str,
    sched: Sched,
    cfg: &RunCfg,
    sink: Option<Box<dyn TraceSink>>,
    capacity: usize,
) -> Result<(Kernel, u64), String> {
    let topo = topology_of(fig)?;
    let mut k = make_kernel(&topo, sched, cfg.seed, cfg.check);
    if capacity > 0 {
        k.set_trace_capacity(capacity);
    }
    if let Some(s) = sink {
        k.set_trace_sink(s);
    }
    let ops_app = match fig {
        "fig1" => {
            // Figure 1's single-core interactivity mix: fibo + sysbench.
            k.queue_app(
                Time::ZERO,
                synthetic::fibo(Dur::secs_f64(160.0 * cfg.scale)),
            );
            let sb = SysbenchCfg {
                threads: 80,
                total_tx: ((260_000.0 * cfg.scale).round() as u64).max(500),
                ..Default::default()
            };
            let spec = workloads::sysbench::sysbench(&mut k, sb);
            let app = k.queue_app(Time::ZERO + Dur::secs_f64(7.0 * cfg.scale), spec);
            let limit = Time::ZERO + Dur::secs_f64(420.0 * cfg.scale + 30.0);
            k.run_until_apps_done(limit);
            Some(app)
        }
        "fig5" => {
            // The suite entry behind Figure 5's headline outlier: apache —
            // the workload whose "1 preemption per request" the preemption
            // attribution below validates.
            let suite = workloads::suite();
            let entry = suite
                .iter()
                .find(|e| e.name == "Apache")
                .ok_or("suite has no Apache entry")?;
            let p = P::scaled(topo.nr_cpus(), cfg.scale);
            let spec = (entry.build)(&mut k, &p);
            let app = k.queue_app(Time::ZERO, spec);
            let limit = Time::ZERO + Dur::secs_f64(600.0 * cfg.scale.max(0.05) + 120.0);
            k.run_until_apps_done(limit);
            Some(app)
        }
        "fig6" => {
            // Figure 6's rebalancing pulse: pinned spinners unpinned at
            // t = 14.5 s (scaled); the interesting window is the unpin.
            let ncpu = topo.nr_cpus();
            let nthreads = ((512.0 * cfg.scale).round() as usize).max(2 * ncpu);
            let app = k.queue_app(Time::ZERO, workloads::synthetic::pinned_spinners(nthreads));
            let unpin_at = Time::ZERO + Dur::secs_f64(14.5 * cfg.scale.max(0.05));
            k.queue_unpin(unpin_at, app);
            let horizon = unpin_at + Dur::secs_f64((30.0 * cfg.scale).max(2.0));
            k.run_until(horizon);
            None
        }
        "fig7" => {
            // Figure 7's c-ray wakeup cascade (thread count scales here —
            // unlike the figure driver — so small-scale traces stay small).
            let threads = ((512.0 * cfg.scale).round() as usize).clamp(32, 512);
            let spec = cray(
                &mut k,
                CrayCfg {
                    threads,
                    work: Dur::secs_f64(6.0 * cfg.scale.clamp(0.05, 1.0)),
                    ..Default::default()
                },
            );
            let app = k.queue_app(Time::ZERO, spec);
            k.run_until_apps_done(Time::ZERO + Dur::secs(220));
            Some(app)
        }
        other => {
            return Err(format!(
                "no trace scenario for {other} (have: {})",
                FIGS.join(" ")
            ))
        }
    };
    let ops = ops_app.map(|a| k.app(a).ops).unwrap_or(0);
    Ok((k, ops))
}

// ---------------------------------------------------------------------
// The export pipeline
// ---------------------------------------------------------------------

/// One scheduler's share of a trace export.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScopeReport {
    /// Scheduler used.
    pub sched: Sched,
    /// End-of-run observability snapshot (counters + latency summaries).
    pub obs: SchedObs,
    /// Trace-derived analyses.
    pub analysis: TraceAnalysis,
    /// Ops completed by the scenario's application of interest.
    pub ops: u64,
    /// Wakeup-driven preemptions per op — the paper's Fig. 5 apache
    /// discussion ("CFS preempts ab once per request"); `None` when the
    /// scenario has no op notion.
    pub preemptions_per_op: Option<f64>,
    /// Task slices exported for this scheduler's group.
    pub slices: u64,
    /// Events the flight recorder dropped (buffered mode only; 0 when
    /// streaming — the reason `--stream` exists).
    pub trace_dropped: u64,
}

/// A full `battle trace` run: the JSON artifact's whereabouts plus one
/// [`ScopeReport`] per scheduler.
#[derive(Debug, serde::Serialize)]
pub struct ScopeRun {
    /// Figure traced.
    pub fig: String,
    /// Output path of the Chrome-trace JSON.
    pub out: String,
    /// Whether events streamed to disk (vs. buffered flight recorder).
    pub streamed: bool,
    /// Total Chrome-trace events written (all groups, incl. metadata).
    pub events_written: u64,
    /// Per-scheduler reports, in run order.
    pub reports: Vec<ScopeReport>,
}

/// Run `fig` under each of `scheds` and export one combined Chrome-trace
/// file to `out` (one trace "process" per scheduler, so both runs land on
/// a shared timeline in Perfetto).
pub fn run_trace(
    fig: &str,
    scheds: &[Sched],
    cfg: &RunCfg,
    out: &std::path::Path,
    stream: bool,
) -> Result<ScopeRun, String> {
    let topo = topology_of(fig)?;
    let ncpu = topo.nr_cpus();
    let file =
        std::fs::File::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let writer = Rc::new(RefCell::new(ChromeTrace::new(std::io::BufWriter::new(
        file,
    ))));
    let mut reports = Vec::new();
    for (i, &sched) in scheds.iter().enumerate() {
        let analyzer = Rc::new(RefCell::new(Analyzer::default()));
        writer
            .borrow_mut()
            .begin_group(i as u32 + 1, sched.name(), ncpu);
        let slices_before = writer.borrow().slices();
        let (mut k, ops) = if stream {
            let sink = ScopeSink {
                trace: Rc::clone(&writer),
                analyzer: Rc::clone(&analyzer),
            };
            run_scenario(fig, sched, cfg, Some(Box::new(sink)), 0)?
        } else {
            run_scenario(fig, sched, cfg, None, BUFFERED_CAPACITY)?
        };
        let trace_dropped = if stream {
            // Drop the kernel's sink box so the writer Rc is released.
            k.take_trace_sink();
            0
        } else {
            let mut w = writer.borrow_mut();
            let mut a = analyzer.borrow_mut();
            for ev in k.trace().iter() {
                w.event(ev, k.tasks());
                a.event(ev, k.tasks());
            }
            k.trace().dropped()
        };
        writer.borrow_mut().end_group(k.now());
        let obs = obs_of(&k);
        let analysis = analyzer.borrow().analysis();
        let wakeup_preempts = obs.counters.wakeup_preemptions;
        reports.push(ScopeReport {
            sched,
            obs,
            analysis,
            ops,
            preemptions_per_op: (ops > 0).then(|| wakeup_preempts as f64 / ops as f64),
            slices: writer.borrow().slices() - slices_before,
            trace_dropped,
        });
    }
    let writer = Rc::try_unwrap(writer)
        .map_err(|_| "trace writer still shared".to_string())?
        .into_inner();
    let events_written = writer.finish()?;
    Ok(ScopeRun {
        fig: fig.to_string(),
        out: out.display().to_string(),
        streamed: stream,
        events_written,
        reports,
    })
}

/// Render a [`ScopeRun`] for the terminal.
pub fn report(run: &ScopeRun) -> String {
    let mut s = format!(
        "SchedScope — {} trace → {} ({} events{})\n",
        run.fig,
        run.out,
        run.events_written,
        if run.streamed { ", streamed" } else { "" }
    );
    s.push_str("open in https://ui.perfetto.dev (or chrome://tracing)\n\n");
    let mut t = metrics::Table::new(&[
        "sched",
        "slices",
        "ctx sw",
        "wakeups",
        "preempt",
        "wake-pre",
        "migrations",
        "run-delay p50/p99/max ms",
        "wakeup-lat p50/p99/max ms",
    ]);
    for r in &run.reports {
        let c = &r.obs.counters;
        t.push(&[
            r.sched.name().to_string(),
            format!("{}", r.slices),
            format!("{}", c.ctx_switches),
            format!("{}", c.wakeups),
            format!("{}", c.preemptions),
            format!("{}", c.wakeup_preemptions),
            format!("{}", c.migrations),
            format!(
                "{:.3}/{:.3}/{:.1}",
                r.obs.run_delay.p50_ms, r.obs.run_delay.p99_ms, r.obs.run_delay.max_ms
            ),
            format!(
                "{:.3}/{:.3}/{:.1}",
                r.obs.wakeup_latency.p50_ms,
                r.obs.wakeup_latency.p99_ms,
                r.obs.wakeup_latency.max_ms
            ),
        ]);
    }
    s.push_str(&t.render());
    for r in &run.reports {
        s.push_str(&format!("\n[{}] preemptions by cause: ", r.sched.name()));
        if r.analysis.preemptions.is_empty() {
            s.push_str("none");
        } else {
            let parts: Vec<String> = r
                .analysis
                .preemptions
                .iter()
                .map(|c| format!("{} {}", c.cause, c.count))
                .collect();
            s.push_str(&parts.join(", "));
        }
        if let Some(ppo) = r.preemptions_per_op {
            s.push_str(&format!(
                "\n[{}] wakeup preemptions per op: {ppo:.2} over {} ops",
                r.sched.name(),
                r.ops
            ));
        }
        if !r.analysis.preempt_pairs.is_empty() {
            s.push_str(&format!("\n[{}] heaviest preemptors: ", r.sched.name()));
            let parts: Vec<String> = r
                .analysis
                .preempt_pairs
                .iter()
                .take(4)
                .map(|p| format!("{}→{} ×{}", p.by, p.victim, p.count))
                .collect();
            s.push_str(&parts.join(", "));
        }
        if r.trace_dropped > 0 {
            s.push_str(&format!(
                "\n[{}] WARNING: flight recorder dropped {} events — re-run with --stream",
                r.sched.name(),
                r.trace_dropped
            ));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_strips_worker_suffixes() {
        assert_eq!(comm("ab-17"), "ab");
        assert_eq!(comm("worker3"), "worker");
        assert_eq!(comm("fibo"), "fibo");
        assert_eq!(comm("42"), "42", "all-digit names stay intact");
    }

    #[test]
    fn us_formats_fixed_point_micros() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(1_000_007), "1000.007");
    }

    #[test]
    fn esc_escapes_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
    }

    #[test]
    fn unknown_fig_is_an_error() {
        assert!(topology_of("fig9").is_err());
        let r = run_trace(
            "nope",
            &[Sched::Cfs],
            &RunCfg::at_scale(0.02),
            std::path::Path::new("/tmp/schedscope-unknown.json"),
            false,
        );
        assert!(r.is_err());
    }
}
