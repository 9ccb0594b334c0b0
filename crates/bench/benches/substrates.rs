//! Criterion micro-benchmarks of the hot substrates: the event queue, the
//! caches, the three interconnects, the hardware Request Queue and the
//! queue fabric. These guard the simulator's own performance — a full
//! Figure 14 grid replays tens of millions of these operations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use um_mem::cache::{Cache, CacheConfig};
use um_mem::hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy};
use um_net::{FatTree, LeafSpine, Mesh2D, Network, NetworkConfig, Topology};
use um_sched::{FabricConfig, QueueFabric, RequestQueue};
use um_sim::{Cycles, EventQueue};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.schedule_at(Cycles::new(rng.gen_range(0..1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            black_box(sum)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("l1_cache_access_hot", |b| {
        let mut cache = Cache::new(CacheConfig::new(64 * 1024, 8, 64));
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| {
            let addr = rng.gen_range(0..32 * 1024u64);
            black_box(cache.access(addr, false))
        })
    });

    c.bench_function("hierarchy_access_mixed", |b| {
        let mut h = MemoryHierarchy::new(HierarchyConfig::manycore());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut now = Cycles::ZERO;
        b.iter(|| {
            let addr = rng.gen_range(0..4 * 1024 * 1024u64);
            let lat = h.access(addr, AccessKind::DataRead, now);
            now += Cycles::new(2);
            black_box(lat)
        })
    });
}

fn bench_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("icn_send");
    let cfg = NetworkConfig::on_package();
    group.bench_function("mesh_8x4", |b| {
        let mut net = Network::new(Mesh2D::new(8, 4), cfg);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut t = Cycles::ZERO;
        b.iter(|| {
            let (s, d) = (rng.gen_range(0..32), rng.gen_range(0..32));
            t += Cycles::new(3);
            black_box(net.send(s, d, 512, t))
        })
    });
    group.bench_function("fat_tree_32", |b| {
        let mut net = Network::new(FatTree::new(32), cfg);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut t = Cycles::ZERO;
        b.iter(|| {
            let (s, d) = (rng.gen_range(0..32), rng.gen_range(0..32));
            t += Cycles::new(3);
            black_box(net.send(s, d, 512, t))
        })
    });
    group.bench_function("leaf_spine_4x8", |b| {
        let mut net = Network::new(LeafSpine::paper_default(), cfg);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut t = Cycles::ZERO;
        b.iter(|| {
            let n = net.topology().endpoints();
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            t += Cycles::new(3);
            black_box(net.send(s, d, 512, t))
        })
    });
    group.finish();
}

fn bench_request_queue(c: &mut Criterion) {
    c.bench_function("rq_enqueue_dequeue_complete", |b| {
        let mut rq: RequestQueue<u64> = RequestQueue::new(64);
        b.iter(|| {
            let slot = rq.enqueue(1, 42).expect("queue drained each iter");
            let (got, _) = rq.dequeue(1).expect("just enqueued");
            debug_assert_eq!(got, slot);
            rq.complete(slot).expect("running completes");
        })
    });

    c.bench_function("rq_block_unblock_cycle", |b| {
        let mut rq: RequestQueue<u64> = RequestQueue::new(64);
        let slot = rq.enqueue(1, 7).expect("empty queue accepts");
        rq.dequeue(1).expect("ready");
        b.iter(|| {
            rq.block(slot).expect("running blocks");
            rq.unblock(slot).expect("blocked unblocks");
            rq.dequeue(1).expect("ready again");
        })
    });

    // A cluster-sized RQ (capacity 512) with ~100 requests blocked on
    // RPCs: the common dequeue finds nothing Ready, or one entry behind
    // the blocked ones. Both cost O(occupancy), not O(capacity).
    let blocked_rq = || {
        let mut rq: RequestQueue<u64> = RequestQueue::new(512);
        for i in 0..100 {
            let slot = rq.enqueue(1, i).expect("room for 100");
            rq.dequeue(1).expect("just enqueued");
            rq.block(slot).expect("running blocks");
        }
        rq
    };
    c.bench_function("rq_dequeue_none_ready_behind_100_blocked", |b| {
        let mut rq = blocked_rq();
        b.iter(|| black_box(rq.dequeue(1).is_none()))
    });

    c.bench_function("rq_dequeue_one_ready_behind_100_blocked", |b| {
        let mut rq = blocked_rq();
        let slot = rq.enqueue(1, 100).expect("room for one more");
        b.iter(|| {
            let (got, _) = rq.dequeue(1).expect("the one ready entry");
            debug_assert_eq!(got, slot);
            rq.block(slot).expect("running blocks");
            rq.unblock(slot).expect("blocked unblocks");
        })
    });
}

fn bench_fabric(c: &mut Criterion) {
    c.bench_function("fabric_enqueue_dequeue_32q", |b| {
        let mut fabric: QueueFabric<u64> = QueueFabric::new(FabricConfig::new(1024, 32, false, 7));
        let mut core = 0usize;
        b.iter(|| {
            fabric.enqueue(1);
            core = (core + 1) % 1024;
            black_box(fabric.dequeue(core))
        })
    });

    c.bench_function("fabric_steal_scan_1024q", |b| {
        let mut fabric: QueueFabric<u64> = QueueFabric::new(FabricConfig::new(1024, 1024, true, 8));
        b.iter(|| {
            fabric.enqueue_at(0, 1);
            // Core 512's queue is empty: it must scan-steal.
            black_box(fabric.dequeue(512))
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_cache,
    bench_networks,
    bench_request_queue,
    bench_fabric
);
criterion_main!(benches);
