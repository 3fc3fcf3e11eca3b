//! `e2e` — the repository's end-to-end benchmark.
//!
//! One command generates every workload from `--seed`, replays it to drain
//! through the real stack, checks the outputs, and prints every metric by
//! name with unit, direction and regression bound:
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--reps N] [--smoke] [--noise-check] [--store-dir DIR] [--out PATH]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! standard output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics for `--trace 0`, the per-layer
//! metrics for `--trace 1`. Without it, it runs every workload — each in a
//! child process of its own, so `peak_rss_mb` is per workload — through
//! both passes and prints the whole table. See `README.md` beside
//! `Cargo.toml` for what each workload and metric means.

mod calib;
mod layers;
mod metrics;
mod provenance;
mod replay;
mod runner;
mod segment;
mod stack;
mod stages;
mod stats;
mod traced;
mod workloads;

use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    smoke: bool,
    noise_check: bool,
    store_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--reps N] [--smoke] [--noise-check] [--store-dir DIR] [--out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        reps: None,
        smoke: false,
        noise_check: false,
        store_dir: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            // `--trace 0|1` for the driver; a bare `--trace` means 1.
            "--trace" => match it.next().as_deref() {
                Some("0") => a.trace = false,
                Some("1") | None => a.trace = true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--reps" => {
                a.reps = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--smoke" => a.smoke = true,
            "--noise-check" => a.noise_check = true,
            "--store-dir" => a.store_dir = Some(PathBuf::from(value("a directory")?)),
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// Where durable stores and the trace file go: `--store-dir`, else the
/// cargo target directory this binary was built into — inside the checkout
/// and already ignored by git.
fn scratch_root(args: &Args) -> PathBuf {
    let base = args.store_dir.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf))
            .unwrap_or_else(std::env::temp_dir)
    });
    base.join(format!("e2e-scratch-{}", std::process::id()))
}

/// Run one workload in this process and return its report.
fn run_workload(
    args: &Args,
    name: &str,
    scratch: &Path,
    trace_dir: &Path,
) -> Result<(Report, &'static [MetricDef]), String> {
    let mut w = workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (have: {})",
            workloads::table()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    if args.smoke {
        w = w.smoke();
    }
    let dir = scratch.join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let mut report = Report::default();
    let schema = if args.trace {
        eprintln!("{}: traced pass, seed {}", w.name, args.seed);
        layers::traced_pass(
            &w,
            args.seed,
            args.seconds,
            args.smoke,
            &dir,
            trace_dir,
            &mut report,
        );
        PER_LAYER
    } else {
        eprintln!("{}: end-to-end pass, seed {}", w.name, args.seed);
        let segments = args.reps.unwrap_or_else(|| w.segments_for(args.seconds));
        // Three times the time asked for is a host the counts do not fit.
        runner::end_to_end(
            &w,
            args.seed,
            segments,
            3.0 * args.seconds,
            &dir,
            &mut report,
        );
        END_TO_END
    };
    report.print(schema);
    Ok((report, schema))
}

/// Re-run this binary for one workload and one pass, returning the parsed
/// result object from the last line of its standard output.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = args.reps {
        cmd.args(["--reps", &n.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(d) = &args.store_dir {
        cmd.arg("--store-dir").arg(d);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}): child exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("child result does not parse: {e}"))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    match field(field(field(result, "metrics")?, name)?, "value")? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn is_correct(result: &Value) -> bool {
    field(result, "correct") == Some(&Value::Bool(true))
}

/// `--noise-check`: the untraced pass twice back to back; every
/// end-to-end metric of every workload must agree within its own bound.
fn noise_check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in workloads::table() {
        let a = child(args, w.name, false)?;
        let b = child(args, w.name, false)?;
        ok &= is_correct(&a) && is_correct(&b);
        for m in END_TO_END {
            let (x, y) = (
                metric_value(&a, m.name).unwrap_or(0.0),
                metric_value(&b, m.name).unwrap_or(0.0),
            );
            let gap = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let within = gap <= bound;
            ok &= within;
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>7.2}% {:>6.0}%{}",
                w.name,
                m.name,
                x,
                y,
                gap * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

/// Every workload through both passes, each in its own child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in workloads::table() {
        let e2e = child(args, w.name, false)?;
        let traced = child(args, w.name, true)?;
        ok &= is_correct(&e2e) && is_correct(&traced);
        rows.push((
            w.name.to_string(),
            Value::Map(vec![
                ("end_to_end".into(), e2e),
                ("per_layer".into(), traced),
            ]),
        ));
    }
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str("e2e/v1".into())),
        (
            "provenance".into(),
            provenance::block(
                args.seed,
                args.seconds,
                args.reps,
                args.smoke,
                &scratch_root(args),
            ),
        ),
        ("results".into(), Value::Map(rows)),
        ("claim".into(), Value::Null),
    ]);
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!("e2e: wrote {}", path.display());
        }
        None => println!("{json}"),
    }
    Ok(ok)
}

/// Pin glibc malloc's mmap threshold. Left alone it adapts to the sizes
/// the process frees, and whether the journal's largest buffers then grow
/// in place or by copy made `peak_rss_mb` flip between 12 and 16 MiB from
/// one run of a seed to the next.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's own tuning call; it takes two plain
    // integers, touches only allocator state, and runs here before any
    // other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 64 * 1024) };
    debug_assert_eq!(ok, 1, "glibc accepts a 64 KiB mmap threshold");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_threshold() {}

fn main() -> ExitCode {
    pin_malloc_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => {
            let scratch = scratch_root(&args);
            // The trace outlives the scratch directory it sits beside.
            let trace_dir = scratch.parent().unwrap_or(Path::new(".")).to_path_buf();
            let r = run_workload(&args, name, &scratch, &trace_dir).map(|(report, schema)| {
                let line = serde_json::to_string(&report.to_json(schema))
                    .expect("a result object always serializes");
                println!("{line}");
                report.errors.is_empty()
            });
            let _ = std::fs::remove_dir_all(&scratch);
            r
        }
        None if args.noise_check => noise_check(&args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
