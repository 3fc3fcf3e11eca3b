//! The end-to-end (untraced) pass of one workload.

use crate::calib;
use crate::metrics::Report;
use crate::segment::{measure, replay, Options, SegmentRun};
use crate::stats::{highest_supported_percentile, median, quantile_ns};
use crate::workloads::Workload;
use std::path::Path;
use std::time::Instant;

/// Jobs that arrived but did not complete: rejected, shed, abandoned or
/// still in the system when the replay ended.
pub fn failed_jobs(s: &SegmentRun) -> u64 {
    (s.run.arrived - s.run.completed) as u64
}

/// Output checks on one replay; every violated one is described.
pub fn check_segment(label: &str, s: &SegmentRun, errors: &mut Vec<String>) {
    let r = &s.run;
    let accounted = r.completed as u64 + r.jobs_rejected + r.jobs_shed + r.jobs_abandoned as u64;
    if accounted != r.arrived as u64 || r.arrived != s.jobs {
        errors.push(format!(
            "{label}: conservation broken: {} generated, {} arrived, {} completed + {} rejected + {} shed + {} abandoned",
            s.jobs, r.arrived, r.completed, r.jobs_rejected, r.jobs_shed, r.jobs_abandoned
        ));
    }
    if r.failed_rounds != 0 {
        errors.push(format!("{label}: {} failed rounds", r.failed_rounds));
    }
    if let Some(t) = &s.telemetry {
        if t.events_dropped != 0 {
            errors.push(format!(
                "{label}: telemetry dropped {} events",
                t.events_dropped
            ));
        }
    }
}

/// Run the end-to-end pass of `w` over segments `0..segments` and fill
/// `report` with the end-to-end metrics, the attempted/failed counts and
/// any failed output check. The set of segments is fixed by the caller, not
/// by the clock, so two runs of a seed replay identical inputs; `give_up_s`
/// is only a safety valve for a host far slower than the one the segment
/// counts were sized on.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    segments: usize,
    give_up_s: f64,
    dir: &Path,
    report: &mut Report,
) {
    let started = Instant::now();
    let (mut jobs_per_s, mut p50_ms, mut p99_ms, mut setup_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Raw (uncorrected) per-segment values, printed for reference.
    let (mut raw_jobs_per_s, mut raw_p50_ms, mut corrections) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut plan_samples = 0usize;
    let mut min_plan_samples = usize::MAX;
    let (mut arrived, mut on_time, mut measured, mut turnaround_sum) = (0u64, 0u64, 0u64, 0.0f64);
    let mut first = None;
    for k in 0..segments.max(1) {
        // Host speed around this segment (see `calib`): every wall time of
        // the segment is scaled to the reference speed.
        let (m, c) = calib::around(|| measure(w, seed, k as u64, dir));
        let s = &m.run;
        check_segment(&format!("segment {k}"), s, &mut report.errors);
        report.attempted += s.run.arrived as u64;
        report.failed += failed_jobs(s);
        jobs_per_s.push(s.jobs as f64 / (s.wall_s * c));
        p50_ms.push(quantile_ns(&s.plan_ns, 0.5, 1e6) * c);
        p99_ms.push(quantile_ns(&s.plan_ns, 0.99, 1e6) * c);
        setup_s.push(m.setup_s * c);
        raw_jobs_per_s.push(s.jobs as f64 / s.wall_s);
        raw_p50_ms.push(quantile_ns(&s.plan_ns, 0.5, 1e6));
        corrections.push(c);
        plan_samples += s.plan_ns.len();
        min_plan_samples = min_plan_samples.min(s.plan_ns.len());
        arrived += s.run.arrived as u64;
        on_time += (s.run.completed - s.run.late) as u64;
        measured += s.run.measured as u64;
        turnaround_sum += s.run.mean_turnaround_s * s.run.measured as f64;
        eprintln!(
            "  segment {k}: {} jobs in {:.3} s raw, host-speed correction x{c:.3}: {:.0} jobs/s, {} passes p50 {:.3} ms p99 {:.3} ms, late {} failed {}, set-up {:.3} s",
            s.jobs,
            s.wall_s,
            jobs_per_s[k],
            s.plan_ns.len(),
            p50_ms[k],
            p99_ms[k],
            s.run.late,
            failed_jobs(s),
            setup_s[k],
        );
        if k == 0 {
            first = Some((m.inputs, m.run.run.deterministic_signature()));
        }
        if k + 1 < segments && started.elapsed().as_secs_f64() >= give_up_s {
            eprintln!(
                "  giving up after {} of {segments} segments: {give_up_s:.0} s spent",
                k + 1
            );
            report.note("segments_cut_short_of", segments as f64);
            break;
        }
    }
    let replayed = jobs_per_s.len();

    // Determinism: segment 0 again must reproduce segment 0's signature
    // bit for bit — and, for a workload that kills its manager, must do so
    // with the crashes left out (crashed ≡ crash-free).
    let (inputs, signature) = first.expect("at least one segment ran");
    let again = replay(
        w,
        &inputs,
        inputs.jobs.clone(),
        &dir.join("check"),
        &Options {
            crashes: false,
            ..Options::timing()
        },
    );
    if again.run.deterministic_signature() != signature {
        report.errors.push(format!(
            "segment 0 is not reproducible (second replay{}): {:?} vs {:?}",
            if w.crash_every > 0 {
                ", crash-free"
            } else {
                ""
            },
            again.run.deterministic_signature(),
            signature
        ));
    }

    report.set("jobs_per_s", median(&jobs_per_s));
    report.set("plan_ms_p50", median(&p50_ms));
    report.set("plan_ms_p99", median(&p99_ms));
    report.set("on_time_frac", on_time as f64 / arrived.max(1) as f64);
    report.set("turnaround_s", turnaround_sum / measured.max(1) as f64);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("setup_s", median(&setup_s));
    let supported = highest_supported_percentile(min_plan_samples);
    eprintln!(
        "  {replayed} segments, {plan_samples} passes (fewest in a segment {min_plan_samples}: supports up to p{}), {:.1} s",
        supported.map_or("-".to_string(), |p| format!("{}", p * 100.0)),
        started.elapsed().as_secs_f64()
    );
    report.note("raw_jobs_per_s_median", median(&raw_jobs_per_s));
    report.note("raw_plan_ms_p50_median", median(&raw_p50_ms));
    report.note("host_speed_correction_median", median(&corrections));
    report.note("segments", replayed as f64);
    report.note("plan_samples", plan_samples as f64);
    report.note("min_plan_samples_per_segment", min_plan_samples as f64);
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
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
