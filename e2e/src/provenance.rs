//! Where a set of numbers came from: enough to regenerate any of them.

use crate::workloads;
use serde_json::Value;
use std::path::Path;

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        l.strip_prefix(prefix)
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
    })
}

/// The git revision of the checkout this binary was built from, read from
/// `.git` directly (no `git` process); `"unknown"` outside a repository,
/// which is where the driver runs.
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

/// The filesystem type holding `dir`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir
        .ancestors()
        .find_map(|a| a.canonicalize().ok())
        .unwrap_or_else(|| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The provenance block: git rev, host, store filesystem, seed, seconds,
/// reps and the full workload table.
pub fn block(seed: u64, seconds: f64, reps: Option<usize>, smoke: bool, store_dir: &Path) -> Value {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Map(vec![
        ("git_rev".into(), Value::Str(git_rev())),
        (
            "available_parallelism".into(),
            Value::UInt(parallelism as u64),
        ),
        (
            "cpu_model".into(),
            Value::Str(
                first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "store_filesystem".into(),
            Value::Str(filesystem_of(store_dir)),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        (
            "reps".into(),
            reps.map_or(
                Value::Str("segments_per_10s x seconds / 10 per workload".into()),
                |n| Value::UInt(n as u64),
            ),
        ),
        ("smoke".into(), Value::Bool(smoke)),
        (
            "solver_budget".into(),
            Value::Str(format!("{:?}", workloads::budget())),
        ),
        (
            "workloads".into(),
            Value::Seq(
                workloads::table()
                    .iter()
                    .map(|w| if smoke { w.clone().smoke() } else { w.clone() }.describe())
                    .collect(),
            ),
        ),
    ])
}
