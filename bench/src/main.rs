//! `aim-e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! aim-e2e run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke] [--out DIR]
//! aim-e2e compare A.json B.json
//! aim-e2e verify
//! ```
//!
//! `run` prints every metric by name on standard error and, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced, the per-layer ones traced.
//! It exits non-zero when a correctness gate fails.

mod calibrate;
mod clock;
mod compare;
mod disk;
mod env;
mod json;
mod metrics;
mod pipeline;
mod stats;
mod trace;
mod verify;
mod workloads;

use pipeline::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Size;

const USAGE: &str = "usage: aim-e2e run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--size full|smoke] [--out DIR] | compare A.json B.json | verify";

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 7,
        seconds: 12.0,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from("bench/out"),
        fixed: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value:?} is not a whole number"))?
            }
            "--seconds" => cfg.seconds = number()?,
            "--trace" => cfg.trace = number()? != 0.0,
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(format!("--size: {value:?} is neither full nor smoke")),
                }
            }
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", cfg.seconds));
    }
    Ok(cfg)
}

fn run(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build; timings of it mean nothing. Build with --release".into(),
        );
    }
    let cfg = parse_run(args)?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let report = pipeline::run(&cfg)?;
    let stem = format!("{}.trace{}", report.workload, u8::from(report.trace));
    let write = |name: String, text: &str| {
        let path = cfg.out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &report.to_json())?;
    if let Some(spans) = &report.trace_json {
        write(format!("{}.trace.json", report.workload), spans)?;
    }
    report.print_human();
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("verify") if args.len() == 1 => verify::verify(),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("aim-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
