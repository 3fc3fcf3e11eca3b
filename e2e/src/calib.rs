//! A speed probe for the host, and the correction it feeds.
//!
//! The benchmark's hosts are small shared VMs whose effective speed drifts
//! by 10-40 % over seconds to minutes: on the host this was written on,
//! sixteen back-to-back runs of one seed spread (first to third quartile
//! over median) by 24-38 % on the raw wall-clock metrics of `fb_trace` and
//! `fed_stack` — more than any bound the metrics could be given. So a
//! fixed, program-independent kernel (integer mixing, hash-map churn and a
//! sort: roughly the instruction mix of the manager) is timed before and
//! after every segment, and each wall time of that segment is scaled to
//! what it would have been at [`REFERENCE_PROBE_S`]. The same sixteen runs
//! then spread by 3-8 %. The README has the table; the raw medians are
//! printed beside the corrected ones on every run.

use std::collections::HashMap;
use std::time::Instant;

/// One pass of the kernel; returns its wall time in seconds.
fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut v: Vec<u64> = Vec::with_capacity(4096);
    for round in 0..24u64 {
        for i in 0..4096u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x & 0xFFF, i + round);
            v.push(x);
        }
        v.sort_unstable();
        x = x.wrapping_add(v[17]);
        v.clear();
    }
    std::hint::black_box((x, map.len()));
    t0.elapsed().as_secs_f64()
}

/// The probe's time on the reference host at full speed, seconds. Only its
/// constancy matters: parent and change are scaled to the same reference.
pub const REFERENCE_PROBE_S: f64 = 0.003;

/// How strongly the program's wall time follows the probe's. Measured, not
/// assumed: regressing segment time on probe time over repeated replays of
/// identical segments gave elasticities of 0.5-0.9 (the program waits on
/// system calls and memory the kernel does not), and 0.75 left the least
/// run-to-run spread on every workload.
pub const ELASTICITY: f64 = 0.75;

/// The factor to multiply a wall time by, given the probe time around it:
/// below 1 when the host ran slower than the reference.
pub fn correction(probe_s: f64) -> f64 {
    (REFERENCE_PROBE_S / probe_s).powf(ELASTICITY)
}

/// The host's speed right now: the median of three kernel passes, seconds.
pub fn probe() -> f64 {
    let mut t = [kernel(), kernel(), kernel()];
    t.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    t[1]
}

/// Run `f` between two probes; returns its result and the correction for
/// the host speed around it.
pub fn around<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe();
    let out = f();
    let after = probe();
    (out, correction((before + after) / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_shrinks_times_measured_on_a_slow_host() {
        assert_eq!(correction(REFERENCE_PROBE_S), 1.0);
        assert!(correction(2.0 * REFERENCE_PROBE_S) < 1.0);
        assert!(correction(0.5 * REFERENCE_PROBE_S) > 1.0);
        // Less than proportionally: the program is not all CPU.
        assert!(correction(2.0 * REFERENCE_PROBE_S) > 0.5);
    }
}
