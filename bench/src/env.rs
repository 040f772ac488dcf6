//! The environment block every report carries.

use crate::json::Obj;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// File system type of the mount that holds `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Env {
    pub seed: u64,
    pub size: &'static str,
    pub seconds: f64,
    pub temp_dir: std::path::PathBuf,
    /// Iteration counts of the run, by phase.
    pub iterations: Vec<(&'static str, u64)>,
    /// Median seconds of the calibration kernel during the measured part,
    /// how often it ran, and the slowdowns the timings were divided by.
    pub kernel_s: f64,
    pub kernel_samples: usize,
    pub slowdown: f64,
    pub setup_slowdown: f64,
}

impl Env {
    pub fn to_json(&self) -> String {
        let mut iterations = Obj::new();
        for (name, n) in &self.iterations {
            iterations.int(name, *n);
        }
        let mut o = Obj::new();
        o.str("commit", &command_line("git", &["rev-parse", "HEAD"]))
            .str("rustc", &command_line("rustc", &["-V"]))
            .str(
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )
            .int("nproc", nproc() as u64)
            // The advisor's shipped default is `workers = 0`, one per core.
            .int("advisor_workers", nproc() as u64)
            .int("seed", self.seed)
            .str("size", self.size)
            .num("seconds", self.seconds)
            .str("temp_dir_fs", &filesystem_of(&self.temp_dir))
            .num("kernel_s", self.kernel_s)
            .int("kernel_samples", self.kernel_samples as u64)
            .num("slowdown", self.slowdown)
            .num("setup_slowdown", self.setup_slowdown)
            .raw("iterations", &iterations.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_block_is_valid_json_with_every_field() {
        let env = Env {
            seed: 7,
            size: "smoke",
            seconds: 1.5,
            temp_dir: std::env::temp_dir(),
            iterations: vec![("passes", 5), ("sweeps", 3)],
            kernel_s: 0.033,
            kernel_samples: 40,
            slowdown: 1.1,
            setup_slowdown: 1.2,
        };
        let doc = crate::json::validate(&env.to_json()).expect("valid JSON");
        for key in [
            "commit",
            "rustc",
            "profile",
            "nproc",
            "advisor_workers",
            "seed",
            "size",
            "seconds",
            "temp_dir_fs",
            "iterations",
            "kernel_s",
            "kernel_samples",
            "slowdown",
            "setup_slowdown",
        ] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(filesystem_of(Path::new("/proc/self")), "unknown");
    }
}
