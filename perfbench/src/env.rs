//! Host provenance and process memory.

use std::path::Path;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// CPUs this process may run on (the affinity mask, as `nproc`).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (also honours cgroup quotas).
    pub available_parallelism: usize,
    /// `HEAD` of the checkout, or `unknown` outside a git work tree.
    pub git_rev: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `rustc --version` of the compiler that built it.
    pub rustc: &'static str,
    /// The workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Collects the block for a run with workload seed `seed`.
    pub fn collect(seed: u64) -> Provenance {
        let available_parallelism = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Provenance {
            nproc: affinity_cpus().unwrap_or(available_parallelism),
            available_parallelism,
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC"),
            seed,
        }
    }

    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"git_rev\":\"{}\",\"profile\":\"{}\",\"rustc\":\"{}\",\"seed\":{}}}",
            self.nproc,
            self.available_parallelism,
            self.git_rev,
            self.profile,
            self.rustc.replace('"', "'"),
            self.seed
        )
    }
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim().to_string())
}

/// Counts the CPUs in `Cpus_allowed_list` (e.g. `0-1,4`).
fn affinity_cpus() -> Option<usize> {
    let list = status_field("Cpus_allowed_list:")?;
    let mut count = 0;
    for part in list.split(',') {
        count += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(count)
}

/// Resolves `HEAD` by hand, so no `git` process is needed.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
