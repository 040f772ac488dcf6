//! `aim-e2e verify`: the harness repeats itself.
//!
//! Every workload runs twice at a tenth of its size with one seed and a fixed
//! number of iterations; every exact metric must come out bit-identical, and
//! so must the input digest. A third run with another seed must have
//! generated different inputs.

use crate::pipeline::{run, Report, RunConfig};
use crate::workloads::{Size, NAMES};

fn one(workload: &str, seed: u64, trace: bool) -> Result<Report, String> {
    run(&RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        size: Size::Smoke,
        out_dir: std::path::PathBuf::from("bench/out"),
        fixed: true,
    })
}

pub fn verify() -> Result<bool, String> {
    std::fs::create_dir_all("bench/out").map_err(|e| format!("bench/out: {e}"))?;
    let mut ok = true;
    for workload in NAMES {
        for trace in [false, true] {
            let (a, b) = (one(workload, 7, trace)?, one(workload, 7, trace)?);
            let mut differing = Vec::new();
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                if x.def.exact && x.raw.to_bits() != y.raw.to_bits() {
                    differing.push(format!("{} {} vs {}", x.def.name, x.raw, y.raw));
                }
            }
            let exact = a.metrics.iter().filter(|m| m.def.exact).count();
            let same_inputs = a.input_digest == b.input_digest;
            let correct = a.correct() && b.correct();
            eprintln!(
                "{workload} trace {}: {exact} exact metrics, {} differ; inputs {}; gates {}",
                u8::from(trace),
                differing.len(),
                if same_inputs { "repeat" } else { "DIFFER" },
                if correct { "ok" } else { "FAILED" },
            );
            for d in &differing {
                eprintln!("  {d}");
            }
            for r in [&a, &b] {
                if !r.correct() {
                    r.print_human();
                }
            }
            ok &= differing.is_empty() && same_inputs && correct;
        }
        let (a, c) = (one(workload, 7, false)?, one(workload, 8, false)?);
        let differ = a.input_digest != c.input_digest;
        eprintln!(
            "{workload}: seed 7 digest {:016x}, seed 8 digest {:016x}{}",
            a.input_digest,
            c.input_digest,
            if differ { "" } else { " — THE SAME INPUTS" }
        );
        ok &= differ;
    }
    eprintln!("verify: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}
