//! The fallible message boundary between the federation router and its
//! cells.
//!
//! Every *mutating* command the federation issues to a cell travels as a
//! [`ManagerEvent`] — the same vocabulary the cell's WAL holds — through
//! the cell's `Endpoint`, which may fail the way a real router→cell RPC
//! fails: the request can be dropped before the cell sees it, the response
//! can be lost after the cell applied it, the call can exceed its
//! deadline, or the cell process can be down entirely. Read-side
//! estimators (cell load, admission probes) stay direct — they model
//! cheaply gossiped health/load state, not RPCs.
//!
//! Delivery is **at-most-once per sequence number**: the federation
//! stamps each logical command with a per-cell sequence number, retries
//! re-send the *same* number, and the cell-side endpoint deduplicates —
//! a retried command that already applied returns its cached [`Reply`]
//! instead of executing twice. Abandoned commands (best-effort calls
//! that never reached the cell) leave a harmless gap in the sequence.
//!
//! There is one endpoint type: the dedup window plus the fault state a
//! [`ChaosConfig`] drives. Under the default config every knob is zero,
//! so no randomness is drawn, no crash is armed and latency is zero —
//! every delivery applies exactly once and answers immediately, which is
//! what keeps the chaos-off and `cells = 1 ⇔ single manager` anchors
//! bit-exact. A delivered command executes through [`durability::apply`],
//! the function WAL replay runs.

use crate::chaos::ChaosConfig;
use desim::SimTime;
use durability::{apply, ManagerEvent, Reply};
use mrcp::manager::MrcpRm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use workload::dist::Exponential;
use workload::fault::Renewal;

/// Transport-level failure of one router→cell delivery. Application
/// errors ([`mrcp::manager::ManagerError`]) are *successful* deliveries
/// whose outcome is [`Reply::Err`] — they are cached and deduplicated like
/// any other response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The request was lost before the cell executed it.
    Dropped,
    /// The call exceeded its deadline or the response was lost; the
    /// request may or may not have been applied (see
    /// [`Delivery::applied`]).
    Timeout,
    /// The cell's manager process is down (crashed and not yet
    /// restarted, or restarted but not yet rehydrated).
    CellDown,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Dropped => write!(f, "request dropped"),
            RpcError::Timeout => write!(f, "call deadline exceeded"),
            RpcError::CellDown => write!(f, "cell process down"),
        }
    }
}

/// What one delivery attempt did.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The response, or how the transport failed.
    pub outcome: Result<Reply, RpcError>,
    /// Whether *this* attempt executed the request against the manager.
    /// `false` for transport failures that never reached it and for
    /// duplicates the sequence-number dedup suppressed. The federation
    /// journals the request exactly when this is `true` — so the cell WAL
    /// holds each applied request exactly once, in application order.
    pub applied: bool,
    /// Whether this attempt was answered from the dedup cache.
    pub deduped: bool,
    /// Simulated latency this attempt accrued (chaos-injected; zero
    /// under the default [`ChaosConfig`]).
    pub latency: SimTime,
}

/// How many responses a cell remembers for duplicate suppression.
/// Retries are immediate (the next attempt of the same command), so the
/// live window is one; the slack absorbs injected duplicates.
const RESPONSE_CACHE_DEPTH: usize = 64;

/// The router's channel to one cell: the cell-side dedup window behind a
/// channel that injects the faults its [`ChaosConfig`] asks for —
/// per-call latency drawn from an exponential with a hard deadline,
/// request drops, duplicated deliveries, response hangs, and whole-cell
/// crashes driven by the same exponential MTTF/MTTR renewal process
/// `workload::fault` uses for resource outages ([`Renewal`]).
///
/// A crash loses the cell's manager-process state: until the supervisor
/// [`restart`](Self::restart)s the cell (and rehydrates it), every
/// delivery fails with [`RpcError::CellDown`].
#[derive(Debug)]
pub(crate) struct Endpoint {
    /// All sequence numbers below this were either applied or abandoned;
    /// a delivery at or above it is new.
    next_seq: u64,
    /// Recently applied `(seq, response)` pairs.
    cache: VecDeque<(u64, Reply)>,
    cfg: ChaosConfig,
    rng: StdRng,
    /// The cell-crash renewal process, when crashes are enabled.
    renewal: Option<Renewal>,
    /// When the next crash strikes (armed while the cell is up).
    next_crash: Option<SimTime>,
    /// The current outage as `(began, process_back_at)`; kept until the
    /// supervisor restarts the cell, because a process that came back by
    /// itself is still amnesiac until rehydrated.
    outage: Option<(SimTime, SimTime)>,
    /// Set from crash until restart: the manager state died with the
    /// process and must be rebuilt before the cell serves again.
    state_lost: bool,
}

impl Endpoint {
    /// The endpoint of cell `cell` (each cell gets its own RNG stream
    /// derived from `cfg.seed`). Panics on invalid knobs, mirroring
    /// `FaultModel::new`.
    pub(crate) fn new(cfg: ChaosConfig, cell: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid chaos config: {e}");
        }
        let stream = cfg
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cell as u64 + 1));
        let mut renewal = cfg.cell_mttf.map(|mttf| {
            Renewal::new(
                mttf,
                cfg.cell_mttr.expect("validated: mttf implies mttr"),
                StdRng::seed_from_u64(stream ^ 0xC2B2_AE3D_27D4_EB4F),
            )
        });
        let next_crash = renewal.as_mut().map(|r| r.time_to_failure());
        Endpoint {
            next_seq: 0,
            cache: VecDeque::new(),
            cfg,
            rng: StdRng::seed_from_u64(stream),
            renewal,
            next_crash,
            outage: None,
            state_lost: false,
        }
    }

    /// Deliver `req` stamped with `seq` over the normal (fallible)
    /// channel.
    pub(crate) fn deliver(
        &mut self,
        rm: &mut MrcpRm,
        seq: u64,
        req: &ManagerEvent,
        now: SimTime,
    ) -> Delivery {
        self.advance(now);
        if self.refuses_calls(now) {
            return Delivery {
                outcome: Err(RpcError::CellDown),
                applied: false,
                deduped: false,
                latency: SimTime::ZERO,
            };
        }
        // Fixed draw order per attempt keeps the stream deterministic:
        // latency, then drop, then dup, then hang. A knob at zero draws
        // nothing.
        let latency = self.sample_latency();
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            return Delivery {
                outcome: Err(RpcError::Dropped),
                applied: false,
                deduped: false,
                latency,
            };
        }
        let mut d = self.dedup_or_apply(rm, seq, req);
        d.latency = latency;
        if self.cfg.dup_prob > 0.0 && self.rng.gen_bool(self.cfg.dup_prob) {
            // The network delivered the request twice; the second copy
            // must be absorbed by the dedup window.
            let twin = self.dedup_or_apply(rm, seq, req);
            debug_assert!(!twin.applied, "duplicate delivery re-applied");
            d.deduped = d.deduped || twin.deduped;
        }
        if self.cfg.hang_prob > 0.0 && self.rng.gen_bool(self.cfg.hang_prob) {
            // Applied, but the response never comes back.
            d.outcome = Err(RpcError::Timeout);
            return d;
        }
        if latency > self.cfg.call_deadline {
            d.outcome = Err(RpcError::Timeout);
        }
        d
    }

    /// Deliver over the supervisor's reliable channel: no fault
    /// injection, but the same sequence-number dedup — the escalation
    /// path when retries exhaust on a command the run cannot drop. The
    /// caller must [`restart`](Self::restart) a down cell first.
    pub(crate) fn deliver_reliable(
        &mut self,
        rm: &mut MrcpRm,
        seq: u64,
        req: &ManagerEvent,
        now: SimTime,
    ) -> Delivery {
        debug_assert!(
            !self.refuses_calls(now),
            "reliable delivery to a cell the supervisor has not restarted"
        );
        self.dedup_or_apply(rm, seq, req)
    }

    /// Whether the cell process answers health probes at `now`. A cell
    /// whose outage has *elapsed* but which has not been restarted yet
    /// reports reachable (the process responds) while still refusing
    /// [`deliver`](Self::deliver) until rehydration.
    pub(crate) fn reachable(&mut self, now: SimTime) -> bool {
        self.advance(now);
        match self.outage {
            Some((_, until)) => now >= until,
            None => true,
        }
    }

    /// When the current outage began, if the cell is down.
    pub(crate) fn down_since(&self) -> Option<SimTime> {
        self.outage.map(|(began, _)| began)
    }

    /// Supervisor restart: end any outage at `now` and re-arm the crash
    /// process. Returns `true` when the cell's manager state was lost
    /// and must be rehydrated (WAL replay) before the cell serves again.
    pub(crate) fn restart(&mut self, now: SimTime) -> bool {
        let lost = self.state_lost;
        self.outage = None;
        self.state_lost = false;
        if let Some(r) = self.renewal.as_mut() {
            self.next_crash = Some(now + r.time_to_failure());
        }
        lost
    }

    /// Advance the crash process to `now`: strike a due crash.
    fn advance(&mut self, now: SimTime) {
        if self.outage.is_some() || self.state_lost {
            return;
        }
        if let Some(at) = self.next_crash {
            if now >= at {
                let repair = self
                    .renewal
                    .as_mut()
                    .expect("crash armed without a renewal process")
                    .repair_time();
                self.outage = Some((at, at + repair));
                self.state_lost = true;
                self.next_crash = None;
            }
        }
    }

    /// Down for deliveries: mid-outage, or back up but not yet
    /// rehydrated.
    fn refuses_calls(&self, now: SimTime) -> bool {
        match self.outage {
            Some((_, until)) => now < until || self.state_lost,
            None => self.state_lost,
        }
    }

    fn sample_latency(&mut self) -> SimTime {
        match self.cfg.mean_latency {
            Some(mean) => {
                let exp = Exponential::new(1.0 / mean.as_secs_f64());
                SimTime::from_secs_f64(exp.sample(&mut self.rng))
            }
            None => SimTime::ZERO,
        }
    }

    fn dedup_or_apply(&mut self, rm: &mut MrcpRm, seq: u64, req: &ManagerEvent) -> Delivery {
        if seq < self.next_seq {
            // Duplicate of a command this cell already saw: answer from
            // the cache without re-executing.
            let cached = self
                .cache
                .iter()
                .find(|(s, _)| *s == seq)
                .map(|(_, resp)| resp.clone());
            return match cached {
                Some(resp) => Delivery {
                    outcome: Ok(resp),
                    applied: false,
                    deduped: true,
                    latency: SimTime::ZERO,
                },
                // Older than the cache window — only reachable if a
                // duplicate arrives RESPONSE_CACHE_DEPTH commands late,
                // which immediate retries cannot produce.
                None => Delivery {
                    outcome: Err(RpcError::Dropped),
                    applied: false,
                    deduped: true,
                    latency: SimTime::ZERO,
                },
            };
        }
        // New command. Gaps are legal: they are sequence numbers whose
        // command was abandoned before ever reaching the cell.
        let resp = apply(rm, req);
        self.cache.push_back((seq, resp.clone()));
        if self.cache.len() > RESPONSE_CACHE_DEPTH {
            self.cache.pop_front();
        }
        self.next_seq = seq + 1;
        Delivery {
            outcome: Ok(resp),
            applied: true,
            deduped: false,
            latency: SimTime::ZERO,
        }
    }
}

/// Retry schedule for failed deliveries: capped exponential backoff with
/// deterministic jitter. The jitter is a pure function of
/// `(seed, seq, attempt)` — two runs with the same seed produce the same
/// schedule, and no shared RNG stream is perturbed by retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetryPolicy {
    /// Total delivery attempts per command over the normal channel
    /// (≥ 1); after these, the call escalates to the reliable channel if
    /// it must be answered.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: SimTime,
    /// Backoff ceiling.
    pub cap: SimTime,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Jitter fraction in [0, 1]: each delay is scaled into
    /// `[(1 − jitter) · d, d]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: SimTime::from_millis(10),
            cap: SimTime::from_millis(2_000),
            multiplier: 2.0,
            jitter: 0.5,
            seed: 0,
        }
    }
}

/// SplitMix64 finalizer — a tiny, well-mixed stateless hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The simulated delay before attempt `attempt + 1` of command
    /// `seq` (`attempt` is 1-based: the number of attempts already
    /// failed). Deterministic in `(seed, seq, attempt)`; never below
    /// 1 ms, never above `cap`.
    pub fn backoff(&self, seq: u64, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(30);
        let raw = (self.base.as_millis() as f64 * self.multiplier.powi(exp as i32))
            .min(self.cap.as_millis() as f64);
        let h = splitmix64(
            self.seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(seq)
                .wrapping_mul(0xE703_7ED1_A0B4_28DB)
                .wrapping_add(u64::from(attempt)),
        );
        // 53 uniform bits → u in [0, 1); scale the delay into
        // [(1 − jitter) · raw, raw].
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let frac = 1.0 - self.jitter.clamp(0.0, 1.0) * u;
        SimTime::from_millis((raw * frac).round() as i64).max(SimTime::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcp::manager::{ManagerError, MrcpConfig};
    use mrcp::ResourceManager;
    use workload::{Job, JobId, Resource, ResourceId, Task, TaskId, TaskKind};

    fn rm() -> MrcpRm {
        let res = vec![Resource {
            id: ResourceId(0),
            map_capacity: 2,
            reduce_capacity: 2,
        }];
        MrcpRm::new(MrcpConfig::default(), res)
    }

    fn job(id: u32) -> Job {
        Job {
            id: JobId(id),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_secs(1_000),
            map_tasks: vec![Task {
                id: TaskId(10 * id),
                job: JobId(id),
                kind: TaskKind::Map,
                exec_time: SimTime::from_secs(5),
                req: 1,
            }],
            reduce_tasks: vec![Task {
                id: TaskId(10 * id + 1),
                job: JobId(id),
                kind: TaskKind::Reduce,
                exec_time: SimTime::from_secs(5),
                req: 1,
            }],
        }
    }

    #[test]
    fn backoff_grows_to_cap_and_stays_above_floor() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut prev = SimTime::ZERO;
        for attempt in 1..=20 {
            let d = p.backoff(7, attempt);
            assert!(d >= SimTime::from_millis(1));
            assert!(d <= p.cap, "attempt {attempt}: {d} above cap {}", p.cap);
            assert!(d >= prev, "attempt {attempt}: backoff shrank");
            prev = d;
        }
        assert_eq!(prev, p.cap, "schedule never reached the cap");
        // Without jitter the schedule is the textbook doubling run.
        assert_eq!(p.backoff(7, 1), SimTime::from_millis(10));
        assert_eq!(p.backoff(7, 2), SimTime::from_millis(20));
        assert_eq!(p.backoff(7, 3), SimTime::from_millis(40));
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let p = RetryPolicy {
            jitter: 0.4,
            ..RetryPolicy::default()
        };
        let raw = RetryPolicy { jitter: 0.0, ..p };
        for seq in 0..200u64 {
            for attempt in 1..=8 {
                let full = raw.backoff(seq, attempt).as_millis() as f64;
                let d = p.backoff(seq, attempt).as_millis() as f64;
                let lo = (full * (1.0 - p.jitter)).floor() - 1.0;
                assert!(
                    d >= lo.max(1.0) && d <= full,
                    "seq {seq} attempt {attempt}: {d} outside [{lo}, {full}]"
                );
            }
        }
    }

    #[test]
    fn backoff_is_seed_stable_and_seed_sensitive() {
        let a = RetryPolicy::default();
        let b = RetryPolicy::default();
        let c = RetryPolicy {
            seed: 99,
            ..RetryPolicy::default()
        };
        let mut differs = false;
        for seq in 0..64u64 {
            for attempt in 1..=6 {
                assert_eq!(a.backoff(seq, attempt), b.backoff(seq, attempt));
                differs |= a.backoff(seq, attempt) != c.backoff(seq, attempt);
            }
        }
        assert!(differs, "different seeds produced identical schedules");
    }

    #[test]
    fn duplicate_delivery_is_suppressed_and_answered_from_cache() {
        let mut m = rm();
        let mut ep = Endpoint::new(ChaosConfig::default(), 0);
        let req = ManagerEvent::Submit {
            job: job(1),
            now: SimTime::ZERO,
        };
        let first = ep.deliver(&mut m, 0, &req, SimTime::ZERO);
        assert!(first.applied && !first.deduped);
        let resp = first.outcome.unwrap();
        assert!(matches!(resp, Reply::Submitted(_)));
        // A duplicated delivery of the same sequence number must not
        // re-execute: the job would otherwise be rejected as a
        // duplicate, and a task could run twice.
        let dup = ep.deliver(&mut m, 0, &req, SimTime::ZERO);
        assert!(!dup.applied && dup.deduped);
        assert_eq!(dup.outcome.unwrap(), resp);
        assert_eq!(m.jobs_in_system(), 1);
    }

    #[test]
    fn application_errors_are_cached_like_any_response() {
        let mut m = rm();
        let mut ep = Endpoint::new(ChaosConfig::default(), 0);
        let req = ManagerEvent::TakeUnstartedJob { job: JobId(42) };
        let first = ep.deliver(&mut m, 0, &req, SimTime::ZERO);
        assert!(first.applied);
        assert_eq!(
            first.outcome.unwrap(),
            Reply::Err(ManagerError::UnknownJob(JobId(42)))
        );
        let dup = ep.deliver(&mut m, 0, &req, SimTime::ZERO);
        assert!(dup.deduped && !dup.applied);
        assert_eq!(
            dup.outcome.unwrap(),
            Reply::Err(ManagerError::UnknownJob(JobId(42)))
        );
    }

    #[test]
    fn sequence_gaps_from_abandoned_commands_are_legal() {
        let mut m = rm();
        let mut ep = Endpoint::new(ChaosConfig::default(), 0);
        let r0 = ep.deliver(
            &mut m,
            0,
            &ManagerEvent::Submit {
                job: job(1),
                now: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        assert!(r0.applied);
        // seq 1 was abandoned (dropped, never retried); seq 2 arrives.
        let r2 = ep.deliver(
            &mut m,
            2,
            &ManagerEvent::Submit {
                job: job(2),
                now: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        assert!(r2.applied && !r2.deduped);
        assert_eq!(m.jobs_in_system(), 2);
        // The gap seq is now treated as a duplicate (it can never apply).
        let r1 = ep.deliver(
            &mut m,
            1,
            &ManagerEvent::Submit {
                job: job(3),
                now: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        assert!(!r1.applied && r1.deduped);
        assert_eq!(m.jobs_in_system(), 2);
    }
}
