//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). Checkpoints, determinism records and span files go
//! under `.bench_out/`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::result_line;
use perfbench::workload::{Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let dir = Path::new(".bench_out");
    let outcome = perfbench::measure(&plan, args.seconds, args.trace, dir);
    for problem in &outcome.problems {
        eprintln!("[perfbench] {problem}");
    }
    for m in &outcome.metrics {
        eprintln!("[perfbench] {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &outcome.spans {
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, spans.chrome_trace()) {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => eprintln!("[perfbench] writing {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
