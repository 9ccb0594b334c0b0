//! Criterion benchmark of the event engine on the fig7 workload: the
//! calendar-queue `EventQueue` against the `BinaryHeap` reference it
//! replaced, along two axes. This is the way to reproduce the
//! calendar-vs-heap comparison (`cargo bench -p um-bench --bench engine`);
//! the end-to-end benchmark's `sim.queue_ns_per_event` tracks the
//! calendar queue alone.
//!
//! - **load**: full replays of the fig7 RPS axis at the committed
//!   single-server scale (a 20 ms horizon rather than the committed
//!   200 ms, so the harness's many iterations stay affordable).
//! - **fleet**: steady-state churn (pop one / reschedule one) against a
//!   pre-built cluster-sweep backlog. Churn preserves the pending
//!   population, so one queue serves every iteration; per-operation cost
//!   at depth is what separates `O(1)` from `O(log n)`, and a full fleet
//!   replay is tens of millions of events — far too slow to sample per
//!   iteration. Compare `calendar/…` vs `heap/…` ns/iter directly: both
//!   run [`CHURN_STEPS`] events per iteration.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use um_bench::engine::{churn, replay, Engine, Workload, FIG7_LOADS};
use um_sim::baseline::HeapQueue;
use um_sim::{Cycles, EventQueue};

const BENCH_HORIZON_US: f64 = 20_000.0;
const CHURN_STEPS: u64 = 100_000;

fn bench_load_axis(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_fig7_load");
    for rps in FIG7_LOADS {
        let workload = Workload::fig7(rps, BENCH_HORIZON_US, 1, 42);
        let id = format!("{}rps", rps as u64);
        group.bench_with_input(BenchmarkId::new("calendar", &id), &workload, |b, w| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(w.arrivals.len() + 1);
                black_box(replay(&mut q, w))
            })
        });
        group.bench_with_input(BenchmarkId::new("heap", &id), &workload, |b, w| {
            b.iter(|| black_box(replay(&mut HeapQueue::new(), w)))
        });
    }
    group.finish();
}

fn preload<Q: Engine>(q: &mut Q, workload: &Workload) {
    for (id, &at) in workload.arrivals.iter().enumerate() {
        q.schedule_at(Cycles::new(at), id as u64);
    }
}

fn bench_fleet_axis(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_fig7_fleet");
    for servers in [32usize, 128, 512] {
        // Same pending backlog as the emitter's full-horizon fleet points
        // (backlog = servers x rps x horizon).
        let workload = Workload::fig7(50_000.0, BENCH_HORIZON_US, servers * 10, 42);
        let mut cal = EventQueue::with_capacity(workload.arrivals.len());
        preload(&mut cal, &workload);
        group.bench_function(BenchmarkId::new("calendar", format!("{servers}srv")), |b| {
            b.iter(|| black_box(churn(&mut cal, CHURN_STEPS)))
        });
        drop(cal);
        let mut heap = HeapQueue::new();
        preload(&mut heap, &workload);
        group.bench_function(BenchmarkId::new("heap", format!("{servers}srv")), |b| {
            b.iter(|| black_box(churn(&mut heap, CHURN_STEPS)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_load_axis, bench_fleet_axis);
criterion_main!(benches);
