//! Summary statistics, the host fingerprint, and the JSON output lines.

use std::fs;
use std::path::Path;
use std::time::Duration;

use bncg_telemetry::json::{self, Json};

use crate::{repo_root, Opts};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions failing a check (an end-of-run check failure counts one).
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra facts for the detail line.
    pub details: Vec<(String, Json)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Books one checked session.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Books an end-of-run check (not a session of its own).
    pub fn check_end(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = obj([("value", num(m.value)), ("unit", Json::Str(m.unit.into()))]);
                (m.name.to_string(), v)
            })
            .collect();
        json::write(&obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// The line before it: fingerprint, run facts, failures.
    pub fn detail_line(&self, opts: &Opts) -> String {
        let mut fields = vec![
            ("fingerprint".to_string(), fingerprint()),
            ("workload".into(), Json::Str(opts.workload.name().into())),
            ("seed".into(), num(opts.seed as f64)),
            ("trace".into(), Json::Bool(opts.trace)),
            ("smoke".into(), Json::Bool(opts.smoke)),
            ("seconds".into(), num(opts.seconds)),
            (
                "failed_frac".into(),
                num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ];
        fields.extend(self.details.iter().cloned());
        let failures = self.failures.iter().cloned().map(Json::Str).collect();
        fields.push(("failures".into(), Json::Arr(failures)));
        json::write(&Json::Obj(fields))
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// A number as JSON; a non-finite one (which JSON cannot carry) as `null`.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest quarter. Unlike the median it does not jump
/// between the clusters of a multi-modal latency distribution, and unlike
/// the mean it ignores rare outliers such as churn cascades.
pub fn iqm(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it (never below the median), and its nearest-rank value.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    if xs.is_empty() {
        return (50, 0.0);
    }
    let s = sorted(xs);
    let n = s.len();
    let p = if n > 10 {
        ((100 * (n - 10)) / n).clamp(50, 99) as u32
    } else {
        50
    };
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// CPU time all threads of this process have run, from each task's
/// `schedstat`. The kernel's task clock leaves out time the hypervisor
/// stole from the vCPU, so unlike wall time this does not grow when
/// other guests contend for the host.
pub fn process_cpu() -> Duration {
    let ns: u64 = fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

/// `(steal, total)` jiffies of the host CPUs from `/proc/stat`: the
/// share of time the hypervisor gave to other guests.
pub fn host_steal() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build fingerprint: results are comparable only between runs
/// whose fingerprints agree on the host fields.
pub fn fingerprint() -> Json {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    obj([
        ("cpu", Json::Str(cpu)),
        ("nproc", num(nproc as f64)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC_VERSION").into())),
        ("git_commit", Json::Str(git_commit(repo_root()))),
        (
            "source_digest",
            Json::Str(format!("{:016x}", source_digest(repo_root()))),
        ),
        ("features", Json::Arr(vec![Json::Str("telemetry".into())])),
        ("telemetry_enabled", Json::Bool(bncg_telemetry::enabled())),
        (
            "profile",
            Json::Str("release (lto=thin, codegen-units=4)".into()),
        ),
    ])
}

/// `HEAD`'s commit when the checkout is a git repository, else `none`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// in path order: identifies the measured program when no git metadata
/// is present.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 75);
        assert_eq!(v, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50, 2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqm(&[100.0, 1.0, 3.0, 2.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
        assert_eq!(iqm(&[2.0, 4.0]), 3.0);
        assert_eq!(iqm(&[]), 0.0);
    }
}
