//! In-flight request state.

use um_sim::trace::LatencyBreakdown;
use um_sim::Cycles;
use um_workload::{RequestPlan, RpcKind, ServiceId};

/// A slot in the simulation's request table. Slots are recycled: a
/// finished request's slot goes back on a free list and the next arrival
/// or child call reuses it, so the table's size follows the requests in
/// flight rather than every request ever admitted (the paper's Request
/// Context Memory reclaims a context on `Complete` the same way, §4.3).
///
/// A slot can outlive its request's `Done`: a pending hedge point, retry
/// timeout or storage response, and every live child call, still name it
/// and read its state (to find the operation stale, or the parent's
/// village to route the response to). [`Request::refs`] counts those
/// names; the slot is freed only once the request is `Done` and the count
/// is zero, so an ID is never reused while anything can still see it.
pub type ReqId = usize;

/// Who receives a request's final response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// An external client (latency is recorded when the response leaves).
    Client {
        /// Time the client sent the request.
        sent_at: Cycles,
    },
    /// A parent request blocked on this call.
    Parent {
        /// The blocked parent request.
        req: ReqId,
        /// The parent RPC operation this child answers. A response whose
        /// generation no longer matches the parent's current operation
        /// (a late hedge, a retried call's first attempt) is an orphan:
        /// its breakdown is conservation-checked but never merged.
        gen: u32,
    },
}

/// Lifecycle phase of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Travelling to or waiting in its village's queue.
    Queued,
    /// Executing a segment on a core.
    Running,
    /// Blocked on an outstanding RPC.
    Blocked,
    /// Finished (response sent).
    Done,
}

/// One request's mutable simulation state.
#[derive(Clone, Debug)]
pub struct Request {
    /// The sampled execution plan.
    pub plan: RequestPlan,
    /// Which segment executes next (index into `plan.segments`).
    pub next_segment: usize,
    /// Current phase.
    pub phase: Phase,
    /// Where the final response goes.
    pub origin: Origin,
    /// Server the request executes on.
    pub server: usize,
    /// Village (queue) the request belongs to.
    pub village: usize,
    /// Whether the request has run on a core before (controls the
    /// migration-coherence charge and the context-restore cost).
    pub has_run: bool,
    /// Number of context switches this request has suffered.
    pub ctx_switches: u32,
    /// Arrival time at the village queue (for queueing-delay stats).
    pub enqueued_at: Cycles,
    /// Slot in the village's hardware Request Queue, when the machine
    /// schedules in hardware and the request is admitted.
    pub rq_slot: Option<um_sched::RqSlot>,
    /// When this request's lifetime began: the client send time for roots,
    /// the parent's call-issue time for child requests. The conservation
    /// invariant compares the breakdown total against the span from here
    /// to response delivery.
    pub spawned_at: Cycles,
    /// Cycle-exact latency attribution: where every cycle of this
    /// request's lifetime went. Components sum to the end-to-end latency
    /// (checked at completion); a child's breakdown is merged into its
    /// parent's when the response arrives.
    pub breakdown: LatencyBreakdown,
    /// RPC attempts issued by this request across all its operations
    /// (primary issues, hedges and retries).
    pub attempts: u32,
    /// Hedge attempts issued by this request.
    pub hedges: u32,
    /// Whether any RPC operation of this request (or of a merged child)
    /// exhausted its attempts; gave-up requests complete immediately and
    /// are excluded from latency samples.
    pub gave_up: bool,
    /// Generation of the current (or most recent) RPC operation; bumped
    /// when an operation begins, so stale attempt events are ignored.
    pub op_gen: u32,
    /// Whether the current operation has resolved (winner delivered or
    /// given up).
    pub op_resolved: bool,
    /// Attempts issued for the current operation.
    pub op_attempts: u32,
    /// When the current operation began (the block time); the gap to the
    /// winning attempt's issue time is charged to `Resilience`.
    pub op_started_at: Cycles,
    /// The RPC the current operation performs (needed to reissue it on a
    /// retry).
    pub op_rpc: Option<RpcKind>,
    /// Village the current operation's primary call attempt targeted
    /// (hedges prefer a different one).
    pub op_village: usize,
    /// Cluster-layer correlation token for injected root requests: the
    /// load balancer's request index. `None` for requests the package's
    /// own arrival process generated; `Some` routes the completion into
    /// the node's completion outbox instead of ending at the package edge.
    pub cluster_token: Option<u64>,
    /// What can still name this request after it finishes: pending
    /// `HedgeFire` / `RpcTimeout` / `StorageDone` events for it, and its
    /// live child calls. The slot is recycled only at `Done` with zero
    /// references (see [`ReqId`]).
    pub refs: u32,
}

impl Request {
    /// Creates a freshly planned request bound to a village.
    pub fn new(plan: RequestPlan, origin: Origin, server: usize, village: usize) -> Self {
        assert!(
            !plan.segments.is_empty(),
            "a request plan needs at least one segment"
        );
        Self {
            plan,
            next_segment: 0,
            phase: Phase::Queued,
            origin,
            server,
            village,
            has_run: false,
            ctx_switches: 0,
            enqueued_at: Cycles::ZERO,
            rq_slot: None,
            spawned_at: Cycles::ZERO,
            breakdown: LatencyBreakdown::new(),
            attempts: 0,
            hedges: 0,
            gave_up: false,
            op_gen: 0,
            op_resolved: true,
            op_attempts: 0,
            op_started_at: Cycles::ZERO,
            op_rpc: None,
            op_village: 0,
            cluster_token: None,
            refs: 0,
        }
    }

    /// The service this request invokes.
    pub fn service(&self) -> ServiceId {
        self.plan.service
    }

    /// Whether the segment about to run is the last one.
    pub fn on_last_segment(&self) -> bool {
        self.next_segment + 1 == self.plan.segments.len()
    }

    /// Whether all segments have run.
    pub fn is_complete(&self) -> bool {
        self.next_segment >= self.plan.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use um_workload::{RpcKind, Segment};

    fn plan(n_segments: usize) -> RequestPlan {
        RequestPlan {
            service: ServiceId::new(1),
            segments: (0..n_segments)
                .map(|i| Segment {
                    compute_us: 10.0,
                    rpc: (i + 1 < n_segments).then_some(RpcKind::Storage { bytes: 64 }),
                })
                .collect(),
        }
    }

    #[test]
    fn lifecycle_flags() {
        let mut r = Request::new(
            plan(2),
            Origin::Client {
                sent_at: Cycles::ZERO,
            },
            0,
            3,
        );
        assert_eq!(r.phase, Phase::Queued);
        assert!(!r.on_last_segment() || r.plan.segments.len() == 1);
        r.next_segment = 1;
        assert!(r.on_last_segment());
        r.next_segment = 2;
        assert!(r.is_complete());
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_plan_rejected() {
        let empty = RequestPlan {
            service: ServiceId::new(0),
            segments: vec![],
        };
        Request::new(
            empty,
            Origin::Client {
                sent_at: Cycles::ZERO,
            },
            0,
            0,
        );
    }
}
