//! The benchmark's own checks: the timing wrapper is transparent, the
//! harness reproduces the scenario engine, counts repeat exactly, the
//! statistics match Python's, and `BENCHMARK.json` matches the code.

use std::cell::RefCell;
use std::rc::Rc;

use kernel::CheckMode;
use perfbench::engine::execute;
use perfbench::report;
use perfbench::ruler::Ruler;
use perfbench::runner::{run, Options};
use perfbench::stats::quartiles;
use perfbench::timed::{Hook, HookStats, Timed};
use perfbench::workloads::{self, RunDef, Workload};
use scenario::{EngineOpts, Scenario, Sched};
use sched_api::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::Time;
use topology::CpuId;

/// Logs every call it receives and returns a distinctive value.
struct Recorder(Rc<RefCell<Vec<&'static str>>>);

impl Recorder {
    fn log(&self, m: &'static str) {
        self.0.borrow_mut().push(m);
    }
}

impl Scheduler for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn select_task_rq(
        &mut self,
        _: &TaskTable,
        _: Tid,
        _: WakeKind,
        _: CpuId,
        _: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        self.log("select_task_rq");
        stats.cpus_scanned += 5;
        Ok(CpuId(3))
    }
    fn enqueue_task(
        &mut self,
        _: &mut TaskTable,
        _: CpuId,
        _: Tid,
        _: EnqueueKind,
        _: Time,
    ) -> Preempt {
        self.log("enqueue_task");
        Preempt::Yes(PreemptCause::Wakeup)
    }
    fn dequeue_task(&mut self, _: &mut TaskTable, _: CpuId, _: Tid, _: DequeueKind, _: Time) {
        self.log("dequeue_task");
    }
    fn yield_task(&mut self, _: &mut TaskTable, _: CpuId, _: Time) {
        self.log("yield_task");
    }
    fn pick_next_task(&mut self, _: &mut TaskTable, _: CpuId, _: Time) -> Option<Tid> {
        self.log("pick_next_task");
        Some(Tid(7))
    }
    fn put_prev_task(&mut self, _: &mut TaskTable, _: CpuId, _: Tid, _: Time) {
        self.log("put_prev_task");
    }
    fn task_tick(&mut self, _: &mut TaskTable, _: CpuId, _: Tid, _: Time) -> Preempt {
        self.log("task_tick");
        Preempt::No
    }
    fn task_fork(&mut self, _: &TaskTable, _: Tid, _: Option<Tid>, _: Time) {
        self.log("task_fork");
    }
    fn task_dead(&mut self, _: &TaskTable, _: Tid, _: Time) {
        self.log("task_dead");
    }
    fn balance_tick(&mut self, _: &mut TaskTable, _: CpuId, _: Time, targets: &mut Vec<CpuId>) {
        self.log("balance_tick");
        targets.push(CpuId(1));
    }
    fn idle_balance(&mut self, _: &mut TaskTable, _: CpuId, _: Time, _: &mut SelectStats) -> bool {
        self.log("idle_balance");
        true
    }
    fn nr_queued(&self, _: CpuId) -> usize {
        self.log("nr_queued");
        4
    }
    fn queued_tids_into(&self, _: CpuId, out: &mut Vec<Tid>) {
        self.log("queued_tids_into");
        out.push(Tid(9));
    }
    fn queued_tids(&self, _: CpuId) -> Vec<Tid> {
        self.log("queued_tids");
        vec![Tid(8)]
    }
    fn snapshot(&self, _: &TaskTable, _: Tid) -> TaskSnapshot {
        self.log("snapshot");
        TaskSnapshot {
            prio: Some(11),
            ..TaskSnapshot::default()
        }
    }
    fn audit(&mut self, _: &TaskTable, _: CpuId, _: Time) -> Result<(), String> {
        self.log("audit");
        Err("audit result".into())
    }
    fn cpu_offline(&mut self, _: CpuId) {
        self.log("cpu_offline");
    }
    fn cpu_online(&mut self, _: CpuId) {
        self.log("cpu_online");
    }
}

#[test]
fn timed_wrapper_forwards_every_method() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let stats = Rc::new(HookStats::default());
    let mut s = Timed::new(Box::new(Recorder(Rc::clone(&log))), Rc::clone(&stats));
    let mut tasks = TaskTable::new();
    let (cpu, tid, now) = (CpuId(0), Tid(1), Time::ZERO);
    let mut sel = SelectStats::default();
    let mut targets = Vec::new();
    let mut out = Vec::new();

    assert_eq!(s.name(), "recorder");
    let waker = WakeKind::Wakeup { waker: None };
    assert_eq!(
        s.select_task_rq(&tasks, tid, waker, cpu, now, &mut sel),
        Ok(CpuId(3))
    );
    assert_eq!(sel.cpus_scanned, 5);
    assert_eq!(
        s.enqueue_task(&mut tasks, cpu, tid, EnqueueKind::Wakeup, now),
        Preempt::Yes(PreemptCause::Wakeup)
    );
    s.dequeue_task(&mut tasks, cpu, tid, DequeueKind::Sleep, now);
    s.yield_task(&mut tasks, cpu, now);
    assert_eq!(s.pick_next_task(&mut tasks, cpu, now), Some(Tid(7)));
    s.put_prev_task(&mut tasks, cpu, tid, now);
    assert_eq!(s.task_tick(&mut tasks, cpu, tid, now), Preempt::No);
    s.task_fork(&tasks, tid, None, now);
    s.task_dead(&tasks, tid, now);
    s.balance_tick(&mut tasks, cpu, now, &mut targets);
    assert_eq!(targets, vec![CpuId(1)]);
    assert!(s.idle_balance(&mut tasks, cpu, now, &mut sel));
    assert_eq!(s.nr_queued(cpu), 4);
    s.queued_tids_into(cpu, &mut out);
    assert_eq!(out, vec![Tid(9)]);
    assert_eq!(s.queued_tids(cpu), vec![Tid(8)]);
    assert_eq!(s.snapshot(&tasks, tid).prio, Some(11));
    assert_eq!(s.audit(&tasks, cpu, now), Err("audit result".to_string()));
    s.cpu_offline(cpu);
    s.cpu_online(cpu);

    assert_eq!(
        *log.borrow(),
        vec![
            "select_task_rq",
            "enqueue_task",
            "dequeue_task",
            "yield_task",
            "pick_next_task",
            "put_prev_task",
            "task_tick",
            "task_fork",
            "task_dead",
            "balance_tick",
            "idle_balance",
            "nr_queued",
            "queued_tids_into",
            "queued_tids",
            "snapshot",
            "audit",
            "cpu_offline",
            "cpu_online",
        ]
    );
    let t = stats.totals();
    for h in Hook::ALL {
        let want = if h == Hook::QueuedTidsInto { 2 } else { 1 };
        assert_eq!(t.calls[h as usize], want, "{}", h.name());
    }
    assert_eq!(t.cpus_scanned, 5);
    assert_eq!(t.idle_pulled, 1);
    assert_eq!(t.enqueue_preempts, 1);
    assert_eq!(t.tick_preempts, 0);
}

#[test]
fn harness_digests_match_the_engine_for_all_schedulers() {
    for scenario in ["thundering-herd", "numa-imbalance"] {
        let sc = Scenario::from_toml(workloads::scenario_source(scenario).unwrap()).unwrap();
        for check in [CheckMode::Off, CheckMode::Strict] {
            for sched in Sched::ALL {
                let def = RunDef {
                    scenario,
                    sched,
                    scale: 0.05,
                };
                let opts = EngineOpts {
                    scale: 0.05,
                    seed: 7,
                    check,
                    ..EngineOpts::default()
                };
                let engine = scenario::run_sched(&sc, sched, &opts).unwrap().run;
                let mut ruler = Ruler::new();
                let bare = execute(&def, 7, check, None, None, &mut ruler);
                let mut tracer = perfbench::engine::Tracer::new(true);
                let traced = execute(&def, 7, check, None, Some(&mut tracer), &mut ruler);
                let label = format!("{scenario} {} {check:?}", sched.flag_name());
                for o in [&bare, &traced] {
                    let run = o.result.as_ref().unwrap();
                    assert_eq!(run.digest, engine.digest, "{label}");
                    let (got, want) = (
                        format!("{:?}", run.counters),
                        format!("{:?}", engine.counters),
                    );
                    assert_eq!(got, want, "{label}");
                    assert_eq!(
                        o.failures,
                        scenario::failures(&sc, std::slice::from_ref(&engine)),
                        "{label}"
                    );
                }
                assert!(traced.hooks.calls.iter().sum::<u64>() > 0, "{label}");
                assert_eq!(
                    tracer.spans.iter().filter(|s| s.name == "step").count() as u64,
                    traced.timing.nsteps,
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn ruler_scales_every_timed_interval() {
    let mut ruler = Ruler::new();
    let def = RunDef {
        scenario: "fig1",
        sched: Sched::Cfs,
        scale: 0.02,
    };
    let o = execute(&def, 3, CheckMode::Off, None, None, &mut ruler);
    assert!(!ruler.factors().is_empty());
    assert!(ruler.factors().iter().all(|f| f.is_finite() && *f > 0.0));
    assert!(
        o.scaled.setup > 0.0 && o.scaled.wall > 0.0,
        "{:?}",
        o.scaled
    );
    // Readings are taken inside the step loop but never counted in it.
    assert!(o.timing.steps <= o.timing.run_loop);
    let spent = ruler.spent_ns();
    ruler.tick();
    assert!(ruler.spent_ns() >= spent);
}

fn tiny(runs: Vec<RunDef>) -> Workload {
    Workload {
        name: "tiny",
        check: CheckMode::Off,
        runs,
        probe_events: Some(2_000),
    }
}

#[test]
fn counts_repeat_exactly_at_a_fixed_seed() {
    let w = tiny(vec![
        RunDef {
            scenario: "fig1",
            sched: Sched::Ule,
            scale: 0.02,
        },
        RunDef {
            scenario: "bursty-server",
            sched: Sched::ScxVtime,
            scale: 0.05,
        },
    ]);
    let opts = Options {
        seed: 5,
        seconds: 0.0,
        trace: false,
    };
    let (a, b) = (run(&w, &opts), run(&w, &opts));
    assert!(a.correct() && a.failed() == 0, "{:?}", a.checks);
    for (x, y) in a.checks.iter().zip(&b.checks) {
        assert_eq!(format!("{:?}", x.counters), format!("{:?}", y.counters));
        assert_eq!(x.hooks.calls, y.hooks.calls);
        assert_eq!(x.hooks.cpus_scanned, y.hooks.cpus_scanned);
        assert_eq!(x.digest, y.digest);
    }
}

#[test]
fn every_declared_metric_is_reported_and_the_known_defect_counts() {
    let w = tiny(vec![
        RunDef {
            scenario: "herd-4096",
            sched: Sched::Cfs,
            scale: 1.0,
        },
        RunDef {
            scenario: "priority-inversion",
            sched: Sched::Eevdf,
            scale: 0.05,
        },
    ]);
    for trace in [false, true] {
        let r = run(
            &w,
            &Options {
                seed: 42,
                seconds: 0.0,
                trace,
            },
        );
        let specs = if trace {
            report::per_layer()
        } else {
            report::end_to_end()
        };
        for m in &specs {
            let v = r.metrics[&m.name];
            assert!(v.is_finite() && v >= 0.0, "{} = {v}", m.name);
        }
        assert_eq!(r.metrics.len(), specs.len());
        // herd-4096 under CFS fails `wakeups >= 1000` at full scale.
        assert_eq!((r.attempted(), r.failed()), (2, 1));
        assert!(r.checks[0].known(), "{:?}", r.checks[0].reasons);
        assert!(r.correct());
        let json = report::result_json(&r);
        assert!(json.starts_with(r#"{"correct":true,"attempted":2,"failed":1,"metrics":{"#));
        if !trace {
            assert_eq!(r.metrics["fail_ratio"], 2.0 / 4.0);
        }
    }
}

#[test]
fn median_and_quartiles_match_python() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), [1.25, 2.5, 3.75]);
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    // The middle cut is the median, for odd and even counts.
    assert_eq!(quartiles(&[9.0, 1.0, 4.0, 7.0, 2.0]), [1.5, 4.0, 8.0]);
    assert_eq!(quartiles(&[9.0, 1.0, 4.0, 7.0]), [1.75, 5.5, 8.5]);
}

#[test]
fn benchmark_json_declares_exactly_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).unwrap();
    let b = serde_json::from_str(&src).unwrap();
    let strs = |v: &serde::Value, key: &str| -> Vec<String> {
        v.get(key)
            .and_then(|a| a.as_array())
            .unwrap_or_else(|| panic!("{key}"))
            .iter()
            .map(|x| x.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strs(&b, "paths"), ["perfbench"]);
    let workloads: Vec<String> = b
        .get("workloads")
        .and_then(|a| a.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(workloads, workloads::NAMES);
    for name in workloads::NAMES {
        assert!(workloads::workload(name).is_some(), "{name}");
    }

    let declared = |key: &str| -> Vec<report::MetricSpec> {
        b.get(key)
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                let unit: &'static str = Box::leak(s("unit").into_boxed_str());
                let better: &'static str = Box::leak(s("better").into_boxed_str());
                report::MetricSpec {
                    name: s("name"),
                    unit,
                    better,
                }
            })
            .collect()
    };
    assert_eq!(declared("end_to_end"), report::end_to_end());
    assert_eq!(declared("per_layer"), report::per_layer());

    let bounds: Vec<(String, f64)> = b
        .get("end_to_end")
        .and_then(|a| a.as_array())
        .unwrap()
        .iter()
        .map(|m| {
            let name = m.get("name").unwrap().as_str().unwrap().to_string();
            (name, m.get("bound").unwrap().as_f64().unwrap())
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
        assert!(
            *bound <= setup,
            "setup_s must have the largest bound, not {name}"
        );
    }
}
