//! Where and when a set of numbers was measured, so two outputs are never
//! compared across hosts, toolchains or revisions unknowingly.

use crate::json::quote;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

pub struct Provenance {
    pub cpu_model: String,
    pub nproc: usize,
    pub ram_mb: u64,
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Whether the work tree differed from `git_rev` (`unknown` likewise).
    pub git_dirty: String,
    pub seed: u64,
    /// `--reps N`, `--seconds S` or the per-workload defaults.
    pub budget: String,
    pub executor_threads: usize,
    pub date_utc: String,
}

/// First line of `cmd`'s standard output, if it ran and succeeded.
fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// Value of the first `key : value` line of a `/proc` text file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `YYYY-MM-DDThh:mm:ssZ` for seconds since the Unix epoch (civil-from-days,
/// Gregorian calendar).
pub fn iso_utc(unix_secs: u64) -> String {
    let (days, rem) = (unix_secs / 86_400, unix_secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// Executor threads every workload runs with: min(nproc, 2), so the one
/// workload that uses them (`real_groupby`) does not change shape on a
/// bigger host.
pub fn executor_threads() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Provenance {
    pub fn collect(seed: u64, budget: String) -> Provenance {
        let unknown = || "unknown".to_string();
        let ram_kb = proc_field("/proc/meminfo", "MemTotal")
            .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok());
        let git_rev = first_line("git", &["rev-parse", "--short", "HEAD"]);
        let git_dirty = match &git_rev {
            Some(_) => Command::new("git")
                .args(["status", "--porcelain"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or_else(unknown, |o| (!o.stdout.is_empty()).to_string()),
            None => unknown(),
        };
        Provenance {
            cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            nproc: nproc(),
            ram_mb: ram_kb.map_or(0, |kb| kb / 1024),
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_rev: git_rev.unwrap_or_else(unknown),
            git_dirty,
            seed,
            budget,
            executor_threads: executor_threads(),
            date_utc: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or_else(|_| unknown(), |d| iso_utc(d.as_secs())),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {}, \"nproc\": {}, \"ram_mb\": {}, \"rustc\": {}, \
             \"git_rev\": {}, \"git_dirty\": {}, \"seed\": {}, \"budget\": {}, \
             \"executor_threads\": {}, \"date_utc\": {}}}",
            quote(&self.cpu_model),
            self.nproc,
            self.ram_mb,
            quote(&self.rustc),
            quote(&self.git_rev),
            quote(&self.git_dirty),
            self.seed,
            quote(&self.budget),
            self.executor_threads,
            quote(&self.date_utc),
        )
    }

    pub fn to_text(&self) -> String {
        format!(
            "provenance: {} | nproc {} | {} MB RAM | {} | git {} (dirty: {}) | seed {} | {} | \
             executor threads {} | {}",
            self.cpu_model,
            self.nproc,
            self.ram_mb,
            self.rustc,
            self.git_rev,
            self.git_dirty,
            self.seed,
            self.budget,
            self.executor_threads,
            self.date_utc,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_dates() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_utc(1_790_380_799), "2026-09-25T23:59:59Z");
    }

    #[test]
    fn provenance_is_valid_json_with_every_field() {
        let p = Provenance::collect(7, "--reps 3".into());
        let j = crate::json::parse(&p.to_json()).expect("provenance JSON parses");
        for key in [
            "cpu_model",
            "nproc",
            "ram_mb",
            "rustc",
            "git_rev",
            "git_dirty",
            "seed",
            "budget",
            "executor_threads",
            "date_utc",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("seed").unwrap().as_f64(), Some(7.0));
    }
}
