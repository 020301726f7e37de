//! Metric declarations and the printed report.
//!
//! [`end_to_end`] and [`per_layer`] are the single list of metric names,
//! units and directions; `BENCHMARK.json` must declare exactly these
//! (`tests/harness.rs` checks it).

use serde::Value;

use crate::engine::Span;
use crate::runner::{digest_key, Report};
use crate::timed::{Hook, HookTotals};

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics of untraced passes (`--trace 0`).
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        spec("wall_s", "s", "lower"),
        spec("events_per_s", "1/s", "higher"),
        spec("setup_s", "s", "lower"),
        spec("peak_rss_mb", "MiB", "lower"),
        spec("fail_ratio", "ratio", "lower"),
    ]
}

/// Metrics of traced passes (`--trace 1`), named by module.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = vec![
        spec("scenario.parse_s", "s", "lower"),
        spec("topology.build_s", "s", "lower"),
        spec("kernel.new_s", "s", "lower"),
        spec("scenario.build_s", "s", "lower"),
        spec("kernel.run_s", "s", "lower"),
        spec("kernel.self_s", "s", "lower"),
        spec("kernel.ns_per_event", "ns", "lower"),
        spec("kernel.events", "count", "lower"),
        spec("kernel.ctx_switches", "count", "lower"),
        spec("kernel.wakeups", "count", "lower"),
        spec("kernel.migrations", "count", "lower"),
        spec("kernel.placement_scans", "count", "lower"),
    ];
    for h in Hook::ALL {
        v.push(spec(format!("sched.{}.calls", h.name()), "count", "lower"));
        v.push(spec(format!("sched.{}.s", h.name()), "s", "lower"));
    }
    v.extend([
        spec("sched.select_task_rq.cpus_scanned", "count", "lower"),
        spec("sched.idle_balance.hit_ratio", "ratio", "higher"),
        spec("sched.enqueue_task.preempt_ratio", "ratio", "lower"),
        spec("sched.task_tick.preempt_ratio", "ratio", "lower"),
    ]);
    for s in scenario::Sched::ALL {
        v.push(spec(format!("sched.{}.s", s.flag_name()), "s", "lower"));
    }
    v.extend([
        spec("scenario.sample_s", "s", "lower"),
        spec("scenario.steps", "count", "lower"),
        spec("metrics.collect_s", "s", "lower"),
        spec("check.overhead_x", "x", "lower"),
        spec("trace.overhead_x", "x", "lower"),
    ]);
    v
}

/// The human-readable report: one line per run with its exact counts and
/// verdict, the workload's counts and hook calls, every metric with its
/// unit, diagnostics, and the `digest` lines `digests.txt` is made of.
pub fn human(r: &Report) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!(
        "perfbench {} seed {}: {} runs, check {:?}, warm-up + {} timed passes{}, {:.1} s host time",
        r.workload,
        r.seed,
        r.attempted(),
        r.check,
        r.passes,
        if r.trace {
            " (each followed by a traced pass)"
        } else {
            ""
        },
        r.elapsed_s
    ));
    let mut hooks = HookTotals::default();
    for c in &r.checks {
        hooks.add(&c.hooks);
        let verdict = if c.reasons.is_empty() {
            "ok".to_string()
        } else {
            let tag = if c.known() { "FAIL (known)" } else { "FAIL" };
            format!(
                "{tag}: {}",
                Vec::from_iter(c.reasons.iter().cloned()).join("; ")
            )
        };
        let n = &c.counters;
        line(format!(
            "  {:<18} {:<9} x{:<5} events {:>9} ctx {:>8} migr {:>6} wakeups {:>7} scanned {:>8} hook calls {:>9}  {verdict}",
            c.def.scenario,
            c.def.sched.flag_name(),
            c.def.scale,
            n.events,
            n.ctx_switches,
            n.migrations,
            n.wakeups,
            c.hooks.cpus_scanned,
            c.hooks.calls.iter().sum::<u64>(),
        ));
    }
    let sum =
        |f: fn(&kernel::Counters) -> u64| r.checks.iter().map(|c| f(&c.counters)).sum::<u64>();
    line(format!(
        "counts (exact): events {} ctx_switches {} migrations {} wakeups {} cpus_scanned {} hook_calls {}",
        sum(|c| c.events),
        sum(|c| c.ctx_switches),
        sum(|c| c.migrations),
        sum(|c| c.wakeups),
        hooks.cpus_scanned,
        hooks.calls.iter().sum::<u64>()
    ));
    line(format!(
        "hook calls (exact): {}",
        Hook::ALL
            .iter()
            .map(|&h| format!("{} {}", h.name(), hooks.calls[h as usize]))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let specs = if r.trace { per_layer() } else { end_to_end() };
    for m in specs {
        let v = r.metrics[&m.name];
        let q = match r.spread.get(m.name.as_str()) {
            Some([q1, _, q3]) if !r.trace => {
                format!("  (median of {} passes; q1 {q1:.6}, q3 {q3:.6})", r.passes)
            }
            _ => String::new(),
        };
        line(format!("  {:<36} {v:>16.6} {}{q}", m.name, m.unit));
    }
    if let (Some([w1, w2, w3]), Some([f1, f2, f3])) =
        (r.spread.get("raw_wall_s"), r.spread.get("host_factor"))
    {
        line(format!(
            "  unscaled pass wall: median {w2:.6} s, q1 {w1:.6}, q3 {w3:.6}; \
             ruler factor: median {f2:.4}, q1 {f1:.4}, q3 {f3:.4}"
        ));
    }
    line(format!(
        "attempted {} failed {} correct {}",
        r.attempted(),
        r.failed(),
        r.correct()
    ));
    for d in &r.diagnostics {
        line(format!("note: {d}"));
    }
    for c in &r.checks {
        if let Some(d) = c.digest {
            line(format!(
                "digest {} {d:016x}",
                digest_key(r.workload, &c.def, r.seed)
            ));
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// metric of the mode with its value and unit.
pub fn result_json(r: &Report) -> String {
    let specs = if r.trace { per_layer() } else { end_to_end() };
    let metrics = specs
        .into_iter()
        .map(|m| {
            let v = Value::Object(vec![
                ("value".into(), Value::Float(r.metrics[&m.name])),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name, v)
        })
        .collect();
    let top = Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::UInt(r.attempted() as u64)),
        ("failed".into(), Value::UInt(r.failed() as u64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&top).expect("a value tree always serializes")
}

/// The spans as JSON lines (one object per span).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut fields = vec![
            ("run".into(), Value::UInt(u64::from(s.run))),
            ("name".into(), Value::Str(s.name.into())),
            ("start_ns".into(), Value::UInt(s.start_ns)),
            ("end_ns".into(), Value::UInt(s.end_ns)),
        ];
        if let Some(d) = &s.def {
            fields.push(("scenario".into(), Value::Str(d.scenario.into())));
            fields.push(("sched".into(), Value::Str(d.sched.flag_name().into())));
            fields.push(("scale".into(), Value::Float(d.scale)));
        }
        if let Some(h) = &s.hooks {
            let per_hook = Hook::ALL
                .iter()
                .filter(|&&k| h.calls[k as usize] > 0)
                .map(|&k| {
                    let v = Value::Array(vec![
                        Value::UInt(h.calls[k as usize]),
                        Value::UInt(h.nanos[k as usize]),
                    ]);
                    (k.name().to_string(), v)
                })
                .collect();
            fields.push(("hooks_calls_ns".into(), Value::Object(per_hook)));
        }
        out.push_str(&serde_json::to_string(&Value::Object(fields)).expect("serializes"));
        out.push('\n');
    }
    out
}
