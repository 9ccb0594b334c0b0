//! The fig7-pattern event workload shared by the `engine` Criterion bench
//! (`cargo bench -p um-bench --bench engine`) and the end-to-end
//! benchmark's `sim.queue_ns_per_event` layer metric.
//!
//! The workload replays the event-queue traffic a Figure 7 run generates,
//! without the rest of the system simulator: every Poisson arrival over the
//! horizon is pre-scheduled up front (exactly as `SystemSim::new` does), and
//! each delivered event spawns a short near-future follow-up chain standing
//! in for the Enqueue → SegmentDone/Unblock → CoreFree cascade a request
//! produces. That shape — a deep backlog of far-out arrivals with hot
//! near-term chains racing through it — is precisely where the old
//! `BinaryHeap` paid `O(log n)` per operation against the full backlog and
//! the calendar queue pays `O(1)`.
//!
//! Both engines are driven through the same [`Engine`] trait so every
//! measurement replays the same traffic, and every run returns a checksum
//! that must agree across engines.

use um_sim::baseline::HeapQueue;
use um_sim::{Cycles, EventQueue, Frequency};
use um_workload::PoissonArrivals;

/// Follow-up events spawned per arrival: stands in for the per-request
/// Enqueue → per-segment SegmentDone/Unblock → CoreFree cascade (the
/// social-mix services in Figure 7 run multiple segments per request).
pub const CHAIN_DEPTH: u64 = 8;

/// The fig7 load axis, requests per second per server.
pub const FIG7_LOADS: [f64; 4] = [1_000.0, 5_000.0, 10_000.0, 50_000.0];

/// The minimal queue surface the workload needs, implemented by both the
/// calendar-queue [`EventQueue`] and the reference [`HeapQueue`].
pub trait Engine {
    /// Schedules `event` at absolute time `at`.
    fn schedule_at(&mut self, at: Cycles, event: u64);
    /// Delivers the next event in `(time, seq)` order.
    fn pop(&mut self) -> Option<(Cycles, u64)>;
}

impl Engine for EventQueue<u64> {
    fn schedule_at(&mut self, at: Cycles, event: u64) {
        EventQueue::schedule_at(self, at, event);
    }
    fn pop(&mut self) -> Option<(Cycles, u64)> {
        EventQueue::pop(self)
    }
}

impl Engine for HeapQueue<u64> {
    fn schedule_at(&mut self, at: Cycles, event: u64) {
        HeapQueue::schedule_at(self, at, event);
    }
    fn pop(&mut self) -> Option<(Cycles, u64)> {
        HeapQueue::pop(self)
    }
}

/// One fig7-shaped event trace: the pre-computed arrival schedule for a
/// load point, in cycles at the paper's 2 GHz manycore clock.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Absolute arrival times, in schedule order: one Poisson stream per
    /// server, concatenated server-by-server (unsorted overall) — exactly
    /// the order `SystemSim::new` pre-schedules them.
    pub arrivals: Vec<u64>,
    /// Requests per second per server this trace models.
    pub rps: f64,
    /// Servers in the fleet (the committed Figure 7 runs use 1; cluster
    /// sweeps — ROADMAP open item 1 — fan the same pattern out).
    pub servers: usize,
}

impl Workload {
    /// Builds the arrival schedule for one fig7 load point.
    ///
    /// `horizon_us` is the arrival window (the committed Figure 7 runs use
    /// 200 000 µs; the CI smoke mode shrinks it). `servers` merges that
    /// many independent per-server streams into one queue, which is how
    /// the system simulator schedules a cluster — the pending-event
    /// backlog, and with it the `BinaryHeap` baseline's `O(log n)` cost,
    /// grows with the fleet.
    pub fn fig7(rps: f64, horizon_us: f64, servers: usize, seed: u64) -> Self {
        let freq = Frequency::ghz(2.0);
        let mut arrivals = Vec::new();
        for s in 0..servers {
            arrivals.extend(
                PoissonArrivals::new(rps, seed.wrapping_add(s as u64))
                    .within(horizon_us)
                    .into_iter()
                    .map(|t| Cycles::from_micros(t, freq).raw()),
            );
        }
        Workload {
            arrivals,
            rps,
            servers,
        }
    }

    /// Total events one replay delivers: every arrival plus its chain.
    pub fn events_per_replay(&self) -> u64 {
        self.arrivals.len() as u64 * (1 + CHAIN_DEPTH)
    }
}

/// Outcome of one replay: must be identical across engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replay {
    /// Events delivered.
    pub events: u64,
    /// Order-sensitive digest of the `(time, event)` delivery stream.
    pub checksum: u64,
}

/// Replays the workload against `q`: pre-schedules every arrival, then runs
/// the pop loop, spawning each arrival's follow-up chain as it is delivered.
///
/// Chain hops are a deterministic hash of the event id, spanning the
/// sub-microsecond latencies the system simulator schedules (1–4096 cycles)
/// with an occasional longer timer-like hop.
pub fn replay<Q: Engine>(q: &mut Q, workload: &Workload) -> Replay {
    // Event encoding: id << 8 | remaining chain depth.
    for (id, &at) in workload.arrivals.iter().enumerate() {
        q.schedule_at(Cycles::new(at), (id as u64) << 8 | CHAIN_DEPTH);
    }
    let mut events = 0u64;
    let mut checksum = 0u64;
    while let Some((now, event)) = q.pop() {
        events += 1;
        checksum = checksum
            .rotate_left(7)
            .wrapping_add(now.raw() ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let depth = event & 0xFF;
        if depth > 0 {
            let hop = splitmix(event) % 4_096 + 1;
            // Every 16th hop is a timer-scale jump that exercises the
            // upper wheel levels, like a boot or retry deadline.
            let hop = if splitmix(event ^ 0xA5A5).is_multiple_of(16) {
                hop << 9
            } else {
                hop
            };
            q.schedule_at(Cycles::new(now.raw() + hop), (event & !0xFF) | (depth - 1));
        }
    }
    Replay { events, checksum }
}

/// Steady-state churn at constant backlog: pops one event and reschedules
/// it a short deterministic hop out, `steps` times, without shrinking the
/// pending population. This isolates the per-operation cost at a given
/// backlog depth — the quantity that separates the engines — so Criterion
/// can sample deep-fleet points without paying for a full replay per
/// iteration. Returns an order-sensitive checksum (identical across
/// engines driven from the same starting queue).
pub fn churn<Q: Engine>(q: &mut Q, steps: u64) -> u64 {
    let mut checksum = 0u64;
    for _ in 0..steps {
        let Some((now, event)) = q.pop() else { break };
        checksum = checksum
            .rotate_left(7)
            .wrapping_add(now.raw() ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let hop = splitmix(event ^ checksum) % 4_096 + 1;
        q.schedule_at(Cycles::new(now.raw() + hop), event);
    }
    checksum
}

/// SplitMix64 finalizer: cheap, deterministic per-event hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calendar and heap agree on every fig7 load at one server and on
    /// the 50K-RPS point fanned out to a 32-server backlog, over a 10 ms
    /// horizon; a repeated replay on a fresh queue agrees with the first.
    #[test]
    fn both_engines_deliver_the_same_stream() {
        let points = FIG7_LOADS
            .iter()
            .map(|&rps| (rps, 1))
            .chain([(50_000.0, 32)]);
        for (rps, servers) in points {
            let w = Workload::fig7(rps, 10_000.0, servers, 42);
            assert!(!w.arrivals.is_empty(), "horizon long enough for arrivals");
            let pool = w.arrivals.len() + 1;
            let calendar = replay(&mut EventQueue::with_capacity(pool), &w);
            let heap = replay(&mut HeapQueue::new(), &w);
            assert_eq!(calendar, heap, "engines diverged at {rps} RPS x{servers}");
            assert_eq!(calendar.events, w.events_per_replay());
            assert_eq!(replay(&mut EventQueue::with_capacity(pool), &w), calendar);
            assert_eq!(replay(&mut HeapQueue::new(), &w), heap);
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = Workload::fig7(5_000.0, 2_000.0, 1, 7);
        let b = Workload::fig7(5_000.0, 2_000.0, 1, 7);
        let c = Workload::fig7(5_000.0, 2_000.0, 1, 8);
        assert_eq!(a.arrivals, b.arrivals);
        assert_ne!(a.arrivals, c.arrivals, "seed changes the trace");
    }

    #[test]
    fn churn_is_engine_independent_and_population_preserving() {
        let w = Workload::fig7(10_000.0, 5_000.0, 2, 42);
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        for (id, &at) in w.arrivals.iter().enumerate() {
            cal.schedule_at(Cycles::new(at), id as u64);
            heap.schedule_at(Cycles::new(at), id as u64);
        }
        let before = cal.len();
        assert_eq!(churn(&mut cal, 1_000), churn(&mut heap, 1_000));
        assert_eq!(cal.len(), before, "churn keeps the backlog constant");
        assert_eq!(cal.len(), heap.len());
    }

    #[test]
    fn fleet_merges_per_server_streams() {
        let one = Workload::fig7(5_000.0, 2_000.0, 1, 7);
        let four = Workload::fig7(5_000.0, 2_000.0, 4, 7);
        assert_eq!(four.arrivals[..one.arrivals.len()], one.arrivals[..]);
        assert!(four.arrivals.len() > 3 * one.arrivals.len());
    }
}
