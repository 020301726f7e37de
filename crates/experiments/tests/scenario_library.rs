//! The scenario library: every file under `scenarios/` parses, runs clean
//! under strict invariant checking and holds its own `[assert]` tables.
//!
//! The figure files are the only path `battle fig1/fig6/fig7` take, so
//! their assertions are exercised here too. fig1 runs in every profile.
//! fig6/fig7 cover tens of simulated seconds on 32 cores: they run strict
//! like every other file, but only in release (`cargo test --release`,
//! which is what CI runs), because an unoptimised build takes minutes.

use scenario::{EngineOpts, Scenario};

#[test]
fn scenario_library_parses_and_passes_asserts() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = format!("{root}/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "scenario library should ship the 3 figure files plus ≥5 new files, found {}",
        paths.len()
    );
    let heavy = ["fig6.toml", "fig7.toml"];
    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).unwrap();
        let sc = Scenario::from_toml(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        if heavy.contains(&name.as_str()) && cfg!(debug_assertions) {
            continue;
        }
        let opts = EngineOpts {
            scale: 0.05,
            check: kernel::CheckMode::Strict,
            ..EngineOpts::default()
        };
        let mut runs = Vec::new();
        for &sched in &sc.scheds {
            let out = scenario::run_sched(&sc, sched, &opts)
                .unwrap_or_else(|e| panic!("{name} [{}]: {e}", sched.name()));
            runs.push(out.run);
        }
        let failures = scenario::failures(&sc, &runs);
        assert!(failures.is_empty(), "{name}: {failures:?}");
    }
}
