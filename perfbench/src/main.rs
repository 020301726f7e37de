//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in a closed loop for `--seconds`, checks every run,
//! prints the report and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). A traced run also writes its
//! spans as JSON lines under `perfbench/out/`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::runner::{run, Options};
use perfbench::{report, workloads};

const USAGE: &str = "usage: perfbench --workload <paper-32c|dc-512c|strict-corpus> \
[--seed N] [--seconds S] [--trace 0|1]";

/// The workload name and how to measure it.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let (name, opts) = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&name) else {
        eprintln!("perfbench: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };

    let r = run(&w, &opts);
    print!("{}", report::human(&r));
    if opts.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.jsonl", w.name, r.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report::spans_jsonl(&r.spans)));
        match written {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), r.spans.len()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report::result_json(&r));
    ExitCode::SUCCESS
}
