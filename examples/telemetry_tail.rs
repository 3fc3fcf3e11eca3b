//! Tail the telemetry event bus while a chaotic federation run is in
//! flight, then scrape the final Prometheus text from the HTTP sink.
//!
//! ```text
//! cargo run --release --example telemetry_tail
//! ```
//!
//! The run executes on a worker thread with a live [`Telemetry`] handle;
//! the main thread holds a filtered subscription (breaker transitions,
//! crashes, restores, and solver rounds) and drains it every few
//! milliseconds, printing events as they arrive. Telemetry is strictly
//! observational: the same run with the handle disabled produces a
//! bit-identical outcome.

use cluster::{ChaosConfig, ClusterConfig, Federation};
use desim::{RngStreams, SimTime};
use mrcp::{simulate_with, SimConfig};
use telemetry::{
    http_get, EventFilter, EventKind, SinkConfig, Telemetry, TelemetrySink, DEFAULT_QUEUE_CAP,
};
use workload::{SyntheticConfig, SyntheticGenerator};

fn main() {
    let tel = Telemetry::new();
    // Only the kinds we care about; everything else skips the queue.
    let tail = tel.bus.subscribe(
        EventFilter {
            kinds: Some(vec![
                EventKind::CellCrash,
                EventKind::CellRestore,
                EventKind::BreakerTransition,
                EventKind::RoundSolved,
            ]),
            cell: None,
        },
        DEFAULT_QUEUE_CAP,
    );
    let sink =
        TelemetrySink::start(tel.registry.clone(), SinkConfig::loopback()).expect("bind sink");
    let addr = sink.local_addr().expect("http enabled");
    println!("scrape me: http://{addr}/metrics\n");

    let wl = SyntheticConfig {
        maps_per_job: (1, 4),
        reduces_per_job: (1, 2),
        e_max: 15,
        lambda: 1.0,
        resources: 8,
        map_capacity: 2,
        reduce_capacity: 2,
        s_max: 1,
        deadline_multiplier: 2.5,
        ..Default::default()
    };
    let resources = wl.cluster();
    let jobs =
        SyntheticGenerator::new(wl.clone(), RngStreams::new(42).stream("tail")).take_jobs(30);
    let fleet = ClusterConfig {
        cells: 2,
        ..Default::default()
    };
    let chaos = ChaosConfig {
        drop_prob: 0.1,
        dup_prob: 0.1,
        mean_latency: Some(SimTime::from_millis(10)),
        call_deadline: SimTime::from_millis(200),
        seed: 7,
        ..Default::default()
    };

    let run_tel = tel.clone();
    let worker = std::thread::spawn(move || {
        simulate_with(&SimConfig::default(), &resources, jobs, |c| {
            let mut fed = Federation::with_chaos(&fleet, c, resources.clone(), &chaos);
            fed.set_telemetry(&run_tel);
            fed
        })
    });

    let mut tailed = 0u64;
    loop {
        let done = worker.is_finished();
        for e in tail.drain() {
            tailed += 1;
            let cell = e.cell.map_or(String::new(), |c| format!(" cell={c}"));
            let job = e.job.map_or(String::new(), |j| format!(" job={j}"));
            println!(
                "[{:>8} ms] {:<18}{cell}{job}  {}",
                e.at_ms,
                e.kind.as_str(),
                e.detail
            );
        }
        if done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (metrics, _, fed) = worker.join().expect("run thread");
    assert!(fed.violations().is_empty(), "{:#?}", fed.violations());
    metrics
        .check_conservation()
        .expect("every job accounted for");

    let prom = http_get(addr, "/metrics").expect("final scrape");
    let rounds = prom
        .lines()
        .filter(|l| l.starts_with("mrcp_rounds_total"))
        .collect::<Vec<_>>()
        .join("\n");
    println!(
        "\n{tailed} events tailed, {} published, {} dropped",
        tel.bus.published(),
        tel.bus.dropped_events()
    );
    println!("final round counters:\n{rounds}");
    sink.shutdown();
}
