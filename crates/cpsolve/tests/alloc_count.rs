//! Steady-state search must not allocate per node.
//!
//! A counting global allocator wraps `System`; we run the same model twice
//! with different node limits and require the allocation delta to be far
//! smaller than the node delta. The decision stack and the propagators'
//! buffers are reused after warm-up, so extra nodes should be (nearly) free.
//!
//! This lives in its own integration-test binary because the global
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cpsolve::model::{Model, ModelBuilder, SlotKind};
use cpsolve::search::{solve, SolveParams};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// A contended instance that forces real search (tight deadlines, a small
/// pool) so the node limits below are actually reached.
fn contended_model() -> Model {
    let mut b = ModelBuilder::new();
    b.add_resource(3, 2);
    for j in 0..8i64 {
        let job = b.add_job(j % 3, 14 + (j * 7) % 11);
        for k in 0..3 {
            b.add_task(job, SlotKind::Map, 3 + (j + k) % 4, 1);
        }
        b.add_task(job, SlotKind::Reduce, 2 + j % 3, 1);
    }
    b.set_horizon(400);
    b.build().unwrap()
}

/// One shared pool (the manager's §V.D combined single-resource model):
/// every task is assigned from the root, so the one timetable sees every
/// decision, with multi-unit requirements.
fn single_pool_model() -> Model {
    let mut b = ModelBuilder::new();
    b.add_resource(3, 2);
    for j in 0..8i64 {
        let job = b.add_job(j % 3, 10 + (j * 7) % 11);
        for k in 0..3 {
            b.add_task(
                job,
                SlotKind::Map,
                3 + (j + k) % 4,
                1 + ((j + k) % 2) as u32,
            );
        }
        b.add_task(job, SlotKind::Reduce, 2 + j % 3, 1);
    }
    b.set_horizon(400);
    b.build().unwrap()
}

/// The single pool as a manager round leaves it: a pinned backlog (started
/// tasks) beside the jobs still to place, their deadlines too tight to all
/// be met. Deadlines are soft, so every unfixed window runs to the horizon.
fn backlog_model() -> Model {
    let mut b = ModelBuilder::new();
    let pool = b.add_resource(4, 0);
    let started = b.add_job(0, 1000);
    for k in 0..12i64 {
        let t = b.add_task(started, SlotKind::Map, 4, 1);
        b.fix_task(t, pool, 4 * (k / 2));
    }
    for j in 0..10i64 {
        let job = b.add_job(j % 4, 9 + (j * 5) % 8);
        for k in 0..2 {
            b.add_task(
                job,
                SlotKind::Map,
                3 + (j + k) % 3,
                1 + ((j + k) % 2) as u32,
            );
        }
    }
    for j in 0..4i64 {
        let job = b.add_job(0, 1000);
        b.add_task(job, SlotKind::Map, 2 + j, 1);
    }
    b.set_horizon(400);
    b.build().unwrap()
}

fn run(model: &Model, node_limit: u64) -> (usize, u64) {
    let params = SolveParams {
        node_limit,
        warm_start: false,
        ..Default::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = solve(model, &params);
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, out.stats.nodes)
}

#[test]
fn search_does_not_allocate_per_node() {
    // One test function for all models: the allocation counter is
    // process-wide, so they must not run on parallel test threads.
    for (name, model) in [
        ("contended", contended_model()),
        ("single pool", single_pool_model()),
        ("backlog", backlog_model()),
    ] {
        // Warm up once so one-time lazies (fmt machinery, etc.) don't skew run 1.
        run(&model, 64);

        let (small_allocs, small_nodes) = run(&model, 200);
        let (large_allocs, large_nodes) = run(&model, 3000);

        let extra_nodes = large_nodes.saturating_sub(small_nodes);
        assert!(
            extra_nodes >= 1000,
            "{name}: instance too easy to exercise the limits: \
             {small_nodes} vs {large_nodes} nodes"
        );

        let extra_allocs = large_allocs.saturating_sub(small_allocs) as u64;
        assert!(
            extra_allocs < extra_nodes / 4,
            "{name}: search allocates per node: {extra_allocs} extra allocations \
             over {extra_nodes} extra nodes"
        );
    }
}
