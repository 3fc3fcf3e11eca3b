//! Property tests for the simulation kernel: total temporal order with
//! FIFO tie-breaking, the replaceable batch against a queue that leaves
//! superseded entries in the heap, and statistics correctness against
//! naive references.

use desim::stats::{Replications, Tally, Welford};
use desim::{EventQueue, SimTime};
use proptest::prelude::*;

/// The reference queue's pop: the next event that is not a batch entry of
/// a generation before `generation`.
fn pop_live(
    reference: &mut EventQueue<(Option<u32>, usize)>,
    generation: u32,
) -> Option<(SimTime, usize)> {
    loop {
        match reference.pop()? {
            (t, (g, id)) if g.is_none_or(|g| g == generation) => return Some((t, id)),
            _ => continue,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in nondecreasing time; equal times pop in insertion order.
    #[test]
    fn queue_is_a_stable_priority_queue(times in prop::collection::vec(0i64..50, 1..80)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), seq);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }

    /// A random program of `schedule_at`, batch replacement and `pop` runs
    /// on the batch queue and on a reference that schedules every batch
    /// entry one by one, tagged with its batch's generation, and skips
    /// older generations when they pop. The live pop sequences are equal,
    /// and the reference's final clock is the batch queue's clock raised
    /// to every horizon `replace_batch` returned.
    #[test]
    fn batch_matches_a_heap_that_skips_superseded_entries(
        program in prop::collection::vec(
            (0u8..3, 0i64..20, prop::collection::vec(0i64..20, 0..6)),
            1..80,
        )
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut reference: EventQueue<(Option<u32>, usize)> = EventQueue::new();
        let mut generation = 0u32;
        let mut horizon = SimTime::ZERO;
        let mut next_id = 0usize;
        let mut live = Vec::new();
        let mut live_ref = Vec::new();
        for (op, dt, mut offsets) in program {
            // Both clocks may differ once the reference has skipped
            // superseded entries; schedule no earlier than either.
            let base = q.now().max(reference.now());
            match op {
                0 => {
                    q.schedule_at(base + SimTime::from_millis(dt), next_id);
                    reference.schedule_at(base + SimTime::from_millis(dt), (None, next_id));
                    next_id += 1;
                }
                1 => {
                    offsets.sort_unstable();
                    generation += 1;
                    let entries: Vec<(SimTime, usize)> = offsets
                        .iter()
                        .enumerate()
                        .map(|(i, &o)| (base + SimTime::from_millis(o), next_id + i))
                        .collect();
                    next_id += entries.len();
                    for &(t, id) in &entries {
                        reference.schedule_at(t, (Some(generation), id));
                    }
                    if let Some(t) = q.replace_batch(entries) {
                        horizon = horizon.max(t);
                    }
                }
                _ => {
                    live.push(q.pop());
                    live_ref.push(pop_live(&mut reference, generation));
                }
            }
            prop_assert_eq!(&live, &live_ref);
        }
        while let Some(e) = q.pop() {
            live.push(Some(e));
        }
        while let Some(e) = pop_live(&mut reference, generation) {
            live_ref.push(Some(e));
        }
        prop_assert_eq!(&live, &live_ref);
        prop_assert!(q.is_empty() && reference.is_empty());
        prop_assert_eq!(reference.now(), q.now().max(horizon));
    }

    /// Welford mean/variance equal the two-pass reference within float
    /// tolerance, in any stream order.
    #[test]
    fn welford_equals_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (xs.len() - 1) as f64;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() <= 1e-5 * (1.0 + var));
    }

    /// Tally quantiles bracket the data and are monotone in q.
    #[test]
    fn tally_quantiles_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut t = Tally::new();
        for &x in &xs {
            t.push(x);
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let v = t.quantile(q).unwrap();
            prop_assert!(v >= min && v <= max);
            prop_assert!(v >= prev, "quantiles must be monotone in q");
            prev = v;
        }
    }

    /// Replication CIs cover constant data exactly and are symmetric.
    #[test]
    fn replication_ci_on_shifted_constants(base in -100.0f64..100.0, n in 2u64..30) {
        let mut r = Replications::new(0.95);
        for _ in 0..n {
            r.push(base);
        }
        let e = r.estimate();
        prop_assert_eq!(e.n, n);
        prop_assert!((e.mean - base).abs() < 1e-9);
        prop_assert!(e.half_width.abs() < 1e-9);
    }
}
