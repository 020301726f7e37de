//! The benchmark's workloads: fixed lists of scenario × scheduler runs.
//!
//! The scenario files are compiled in from the repository's `scenarios/`
//! corpus, so the benchmark always drives the scenarios the program ships.
//! Why each workload exists is written down in `README.md` next to this
//! crate and in `BENCHMARK.json`.

use kernel::CheckMode;
use scenario::Sched;

/// One scenario × scheduler pair at a fixed scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunDef {
    /// Scenario name (the file stem under `scenarios/`).
    pub scenario: &'static str,
    /// Scheduler driving the run.
    pub sched: Sched,
    /// Work-volume scale the scenario's expressions are evaluated at.
    pub scale: f64,
}

/// A named run list and the check mode every run of it uses.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// SchedSan mode of every run.
    pub check: CheckMode,
    /// The runs, executed in this order, one after another.
    pub runs: Vec<RunDef>,
    /// SchedGuard event budget of each run in the `check.overhead_x`
    /// probe: `None` probes the whole run list, `Some(n)` cuts every run
    /// after its first `n` events (strict runs at 32+ cores take minutes).
    pub probe_events: Option<u64>,
}

/// Workload names, in `BENCHMARK.json` order. `paper-32c` is not among
/// them: it runs by name, but the declared benchmark leaves it out to give
/// the other two longer invocations (`README.md` says why).
pub const NAMES: [&str; 2] = ["dc-512c", "strict-corpus"];

/// Events per run in the `check.overhead_x` probe of the `Off` workloads.
const PROBE_EVENTS: u64 = 20_000;

/// The source of scenario `name`, or `None` if it is not in the corpus
/// the benchmark uses.
pub fn scenario_source(name: &str) -> Option<&'static str> {
    Some(match name {
        "fig1" => include_str!("../../scenarios/fig1.toml"),
        "fig6" => include_str!("../../scenarios/fig6.toml"),
        "fig7" => include_str!("../../scenarios/fig7.toml"),
        "numa-512" => include_str!("../../scenarios/numa-512.toml"),
        "oltp-olap-mix" => include_str!("../../scenarios/oltp-olap-mix.toml"),
        "herd-4096" => include_str!("../../scenarios/herd-4096.toml"),
        "thundering-herd" => include_str!("../../scenarios/thundering-herd.toml"),
        "numa-imbalance" => include_str!("../../scenarios/numa-imbalance.toml"),
        "mixed-nice" => include_str!("../../scenarios/mixed-nice.toml"),
        "bursty-server" => include_str!("../../scenarios/bursty-server.toml"),
        "priority-inversion" => include_str!("../../scenarios/priority-inversion.toml"),
        _ => return None,
    })
}

fn cross(scenarios: &[(&'static str, f64)], scheds: &[Sched]) -> Vec<RunDef> {
    scenarios
        .iter()
        .flat_map(|&(scenario, scale)| {
            scheds.iter().map(move |&sched| RunDef {
                scenario,
                sched,
                scale,
            })
        })
        .collect()
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // The paper's own experiments on its own machines.
        "paper-32c" => Workload {
            name: "paper-32c",
            check: CheckMode::Off,
            runs: cross(
                &[("fig1", 0.1), ("fig6", 0.1), ("fig7", 0.1)],
                &[Sched::Cfs, Sched::Ule, Sched::Eevdf],
            ),
            probe_events: Some(PROBE_EVENTS),
        },
        // 256–512 cores: per-event cost grows with the CPU count. herd-4096
        // runs at full scale, where CFS fails its own wakeup assertion.
        "dc-512c" => Workload {
            name: "dc-512c",
            check: CheckMode::Off,
            runs: cross(
                &[
                    ("numa-512", 0.05),
                    ("oltp-olap-mix", 0.05),
                    ("herd-4096", 1.0),
                ],
                &[Sched::Cfs, Sched::Ule, Sched::ScxVtime],
            ),
            probe_events: Some(PROBE_EVENTS),
        },
        // The strict-checked corpus: audits dominate.
        "strict-corpus" => Workload {
            name: "strict-corpus",
            check: CheckMode::Strict,
            runs: cross(
                &[
                    ("fig1", 0.05),
                    ("herd-4096", 0.05),
                    ("thundering-herd", 0.05),
                    ("numa-imbalance", 0.05),
                    ("mixed-nice", 0.05),
                    ("bursty-server", 0.05),
                    ("priority-inversion", 0.05),
                ],
                &Sched::ALL,
            ),
            probe_events: None,
        },
        _ => return None,
    })
}
