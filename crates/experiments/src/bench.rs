//! `battle bench` — wall-clock simulator throughput measurement.
//!
//! Not a paper experiment: this measures the *simulator itself*. It runs a
//! fixed busy-machine scenario (64 CPU-bound threads on the 32-core
//! Opteron) under both schedulers and reports how fast the event loop
//! chews through it: events per wall-clock second, and how many simulated
//! milliseconds one real millisecond buys. The numbers feed `BENCH_sim.json`
//! so perf regressions in the hot path (event queue, balance buffers,
//! trace gating) show up as a drop between commits.
//!
//! One timed run is a few tens of milliseconds, short enough for host
//! noise to swing it by a third, so each scheduler runs [`SAMPLES`] times
//! and the report (and the regression gate) uses the median, with the
//! minimum and the median absolute deviation beside it.

use kernel::{cpu_hog, AppSpec, ThreadSpec};
use metrics::LatencySummary;
use simcore::{Dur, Time};
use topology::Topology;

use crate::{make_kernel, scope, RunCfg, Sched};

/// Timed runs per scheduler; the gate compares their median.
pub const SAMPLES: usize = 7;

/// Throughput of one scheduler over [`SAMPLES`] identical runs. The
/// simulated outcome (events, switches, latencies) is the same in every
/// run; only the wall-clock figures vary.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchResult {
    /// Scheduler name ("CFS"/"ULE").
    pub sched: String,
    /// Simulated span covered.
    pub sim_seconds: f64,
    /// Median wall-clock time of one run.
    pub wall_seconds: f64,
    /// Kernel events processed.
    pub events: u64,
    /// Median events per wall-clock second — the headline throughput
    /// number and the one the regression gate compares.
    pub events_per_sec: f64,
    /// Number of timed runs behind the median.
    pub samples: usize,
    /// Slowest run's events per second.
    pub events_per_sec_min: f64,
    /// Median absolute deviation of events per second across the runs.
    pub events_per_sec_mad: f64,
    /// Simulated ms bought per real ms at the median wall time (>1 means
    /// faster than real time).
    pub sim_ms_per_real_ms: f64,
    /// Context switches simulated (work-volume sanity check).
    pub ctx_switches: u64,
    /// Longest any task sat runnable-but-not-running (ms of simulated
    /// time) — the scheduling-latency/starvation headline number.
    pub max_runnable_wait_ms: f64,
    /// Runnable→running dispatch-delay distribution over the bench run.
    pub run_delay: LatencySummary,
    /// Wakeup→dispatch latency distribution over the bench run.
    pub wakeup_latency: LatencySummary,
}

/// Scheduling-latency percentiles measured on the Figure 1 single-core
/// mix (fibo + 80 sysbench workers) — the paper's interactivity scenario,
/// where ULE's starvation of the batch task shows up as a heavy run-delay
/// tail while CFS spreads the wait evenly.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LatencyProbe {
    /// Scheduler name ("CFS"/"ULE").
    pub sched: String,
    /// Scale the probe ran at (clamped to keep `bench` fast).
    pub scale: f64,
    /// Runnable→running dispatch delay, all dispatches.
    pub run_delay: LatencySummary,
    /// Wakeup→dispatch latency.
    pub wakeup_latency: LatencySummary,
}

/// The full benchmark report.
#[derive(Debug, serde::Serialize)]
pub struct BenchReport {
    /// Work-volume scale the runs used.
    pub scale: f64,
    /// Seed the runs used.
    pub seed: u64,
    /// One entry per scheduler, CFS first.
    pub results: Vec<BenchResult>,
    /// Wakeup→dispatch / run-delay percentiles on the fig1 mix, CFS first.
    pub latency: Vec<LatencyProbe>,
}

/// Simulated seconds to cover at `scale` (clamped so even tiny scales
/// measure something and huge ones stay bounded).
fn sim_span(scale: f64) -> f64 {
    (4.0 * scale).clamp(0.25, 30.0)
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation of `xs` from their median.
fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    median(&xs.iter().map(|x| (x - m).abs()).collect::<Vec<_>>())
}

/// Run the throughput benchmark under both schedulers, [`SAMPLES`] timed
/// times each after one warm-up run, sequentially — parallel runs would
/// contend for cores and corrupt the wall-clock numbers.
pub fn run(cfg: &RunCfg) -> BenchReport {
    let sim_secs = sim_span(cfg.scale);
    let mut results = Vec::new();
    for sched in Sched::BOTH {
        let mut walls = Vec::with_capacity(SAMPLES);
        let mut k = None;
        // Run 0 is an untimed warm-up: it fills the caches and the
        // allocator the timed runs then find warm.
        for run in 0..=SAMPLES {
            let topo = Topology::opteron_6172();
            let mut kern = make_kernel(&topo, sched, cfg.seed, cfg.check);
            let threads = (0..64)
                .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::secs(60), Dur::millis(3))))
                .collect();
            kern.queue_app(Time::ZERO, AppSpec::new("busy", threads));
            let start = std::time::Instant::now();
            kern.run_until(Time::ZERO + Dur::secs_f64(sim_secs));
            if run > 0 {
                walls.push(start.elapsed().as_secs_f64().max(1e-9));
            }
            k = Some(kern);
        }
        let k = k.expect("SAMPLES > 0");
        let events = k.counters().events;
        let rates: Vec<f64> = walls.iter().map(|w| events as f64 / w).collect();
        let wall = median(&walls);
        results.push(BenchResult {
            sched: sched.name().to_string(),
            sim_seconds: sim_secs,
            wall_seconds: wall,
            events,
            events_per_sec: median(&rates),
            samples: SAMPLES,
            events_per_sec_min: rates.iter().copied().fold(f64::INFINITY, f64::min),
            events_per_sec_mad: mad(&rates),
            sim_ms_per_real_ms: sim_secs * 1e3 / (wall * 1e3),
            ctx_switches: k.counters().ctx_switches,
            max_runnable_wait_ms: k.counters().max_runnable_wait.as_secs_f64() * 1e3,
            run_delay: k.run_delay().summary(),
            wakeup_latency: k.wakeup_latency().summary(),
        });
    }
    BenchReport {
        scale: cfg.scale,
        seed: cfg.seed,
        results,
        latency: latency_probe(cfg),
    }
}

/// Run the fig1 single-core mix under both schedulers (sequentially; it
/// is simulated time, wall-clock contention does not matter here, but the
/// probe reuses bench's no-parallelism convention) and report dispatch
/// latency distributions.
fn latency_probe(cfg: &RunCfg) -> Vec<LatencyProbe> {
    let scale = cfg.scale.clamp(0.02, 0.2);
    let probe_cfg = RunCfg {
        scale,
        ..cfg.clone()
    };
    Sched::BOTH
        .iter()
        .filter_map(
            |&sched| match scope::run_scenario("fig1", sched, &probe_cfg, None, 0) {
                Ok((k, _ops)) => Some(LatencyProbe {
                    sched: sched.name().to_string(),
                    scale,
                    run_delay: k.run_delay().summary(),
                    wakeup_latency: k.wakeup_latency().summary(),
                }),
                Err(e) => {
                    // The probe rides along on the throughput bench; a broken
                    // probe scenario should not take the whole report down.
                    eprintln!("bench latency probe skipped for {}: {e}", sched.name());
                    None
                }
            },
        )
        .collect()
}

/// Render the report as a table.
pub fn report(r: &BenchReport) -> String {
    let mut t = metrics::Table::new(&[
        "sched",
        "sim s",
        "wall s",
        "events",
        "events/s",
        "min",
        "MAD",
        "sim-ms per real-ms",
        "max wait ms",
    ]);
    for b in &r.results {
        t.push(&[
            b.sched.clone(),
            format!("{:.2}", b.sim_seconds),
            format!("{:.3}", b.wall_seconds),
            format!("{}", b.events),
            format!("{:.0}", b.events_per_sec),
            format!("{:.0}", b.events_per_sec_min),
            format!("{:.0}", b.events_per_sec_mad),
            format!("{:.1}", b.sim_ms_per_real_ms),
            format!("{:.2}", b.max_runnable_wait_ms),
        ]);
    }
    let samples = r.results.first().map_or(0, |b| b.samples);
    let mut s = format!(
        "Simulator throughput (busy 32-core machine, 64 CPU hogs; median of {samples} runs)\n"
    );
    s.push_str(&t.render());
    if !r.latency.is_empty() {
        let mut lt = metrics::Table::new(&[
            "sched",
            "run-delay p50 ms",
            "p99 ms",
            "max ms",
            "wakeup-lat p50 ms",
            "p99 ms",
            "max ms",
        ]);
        for p in &r.latency {
            lt.push(&[
                p.sched.clone(),
                format!("{:.3}", p.run_delay.p50_ms),
                format!("{:.3}", p.run_delay.p99_ms),
                format!("{:.1}", p.run_delay.max_ms),
                format!("{:.3}", p.wakeup_latency.p50_ms),
                format!("{:.3}", p.wakeup_latency.p99_ms),
                format!("{:.1}", p.wakeup_latency.max_ms),
            ]);
        }
        s.push_str(&format!(
            "\nDispatch latency on the fig1 single-core mix (scale {:.2})\n",
            r.latency[0].scale
        ));
        s.push_str(&lt.render());
    }
    s
}

/// One scheduler's regression verdict from [`compare`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct CompareRow {
    /// Scheduler name.
    pub sched: String,
    /// Baseline events/sec.
    pub baseline: f64,
    /// Current events/sec.
    pub current: f64,
    /// Relative change, percent (negative = slower).
    pub delta_pct: f64,
}

/// Outcome of the bench-regression gate.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum Verdict {
    /// Within the warn tolerance.
    Ok,
    /// Slower than the warn tolerance but within the fail tolerance —
    /// CI annotates but stays green.
    Warn,
    /// Slower than the fail tolerance — CI goes red.
    Fail,
}

/// Compare a fresh report's median events/s against the committed
/// `BENCH_sim.json` baseline text. Regressions beyond `warn_pct` warn;
/// beyond `fail_pct` fail.
/// Speedups never fail (a faster simulator just moves the baseline).
///
/// Wall-clock throughput is noisy across machines, so the gate is
/// deliberately loose: the committed baseline is refreshed whenever the
/// hot path intentionally changes.
pub fn compare(
    baseline_json: &str,
    current: &BenchReport,
    warn_pct: f64,
    fail_pct: f64,
) -> Result<(Vec<CompareRow>, Verdict), String> {
    let base = serde_json::from_str(baseline_json).map_err(|e| format!("bad baseline: {e}"))?;
    let results = base
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or("baseline has no `results` array")?;
    let mut rows = Vec::new();
    let mut verdict = Verdict::Ok;
    for cur in &current.results {
        let Some(b) = results
            .iter()
            .find(|r| r.get("sched").and_then(|s| s.as_str()) == Some(cur.sched.as_str()))
        else {
            return Err(format!("baseline has no entry for {}", cur.sched));
        };
        let baseline = b
            .get("events_per_sec")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline {} has no events_per_sec", cur.sched))?;
        if baseline <= 0.0 {
            return Err(format!(
                "baseline {} events_per_sec is not positive",
                cur.sched
            ));
        }
        let delta_pct = (cur.events_per_sec - baseline) / baseline * 100.0;
        if delta_pct < -fail_pct {
            verdict = Verdict::Fail;
        } else if delta_pct < -warn_pct && verdict == Verdict::Ok {
            verdict = Verdict::Warn;
        }
        rows.push(CompareRow {
            sched: cur.sched.clone(),
            baseline,
            current: cur.events_per_sec,
            delta_pct,
        });
    }
    Ok((rows, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_nonzero_throughput() {
        let r = run(&RunCfg::at_scale(0.05));
        assert_eq!(r.results.len(), 2);
        for b in &r.results {
            assert!(b.events > 0, "{}: no events processed", b.sched);
            assert!(b.events_per_sec > 0.0);
            assert!(b.sim_ms_per_real_ms > 0.0);
        }
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild sample moves neither the median nor the MAD much.
        let xs = [10.0, 11.0, 9.0, 10.0, 100.0, 10.0, 12.0];
        assert_eq!(median(&xs), 10.0);
        assert_eq!(mad(&xs), 1.0);
    }

    #[test]
    fn sim_span_is_clamped() {
        assert!((sim_span(0.001) - 0.25).abs() < 1e-12);
        assert!((sim_span(1.0) - 4.0).abs() < 1e-12);
        assert!((sim_span(100.0) - 30.0).abs() < 1e-12);
    }
}
