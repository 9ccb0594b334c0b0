//! The hardware Request Queue (paper §4.3, Figure 13) and its RQ_Map
//! partitioned extension.

use crate::policy::DequeuePolicy;
use std::collections::{BTreeMap, VecDeque};
use um_sim::Cycles;

/// Status of one Request Queue entry (§4.3: "running, ready to run,
/// blocked on an RPC, or finished").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RqEntryStatus {
    /// Waiting for a core.
    Ready,
    /// Currently executing on a core.
    Running,
    /// Blocked on an outstanding RPC or storage access.
    Blocked,
    /// Completed; the slot is reclaimed when it reaches the head.
    Finished,
}

/// Errors from Request Queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RqError {
    /// The circular buffer is full; §4.3: the request is then temporarily
    /// queued in the NIC, and rejected if the NIC also runs out of space.
    Full,
    /// A slot handle refers to a reclaimed or never-issued entry.
    StaleSlot,
    /// The operation is invalid for the entry's current status.
    BadTransition {
        /// Status the entry actually had.
        found: RqEntryStatus,
    },
}

impl std::fmt::Display for RqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RqError::Full => f.write_str("request queue full"),
            RqError::StaleSlot => f.write_str("stale request queue slot"),
            RqError::BadTransition { found } => {
                write!(f, "invalid status transition from {found:?}")
            }
        }
    }
}

impl std::error::Error for RqError {}

/// Handle to a Request Queue entry.
///
/// Carries a generation so a handle kept across slot reuse is detected as
/// [`RqError::StaleSlot`] instead of corrupting an unrelated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RqSlot {
    generation: u64,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    status: RqEntryStatus,
    service: u32,
    /// When the entry last became Ready (enqueue or unblock); the timed
    /// dequeue variants report `now - ready_since` as the queue wait.
    ready_since: Cycles,
    ctx: T,
}

/// The hardware Request Queue: a circular buffer whose entries carry a
/// status, a service id, and a pointer into Request Context Memory (here:
/// the owned context value `T`).
///
/// Semantics follow §4.3:
/// - the NIC `enqueue`s at the tail;
/// - an idle core's `Dequeue` instruction atomically claims the
///   highest-priority (closest to head) *ready* entry matching its service
///   id and marks it running;
/// - `ContextSwitch` marks a running entry blocked (saving state into the
///   context memory is the caller's concern — see
///   `um-sched::ctxswitch`);
/// - the NIC's RPC-response path marks a blocked entry ready again;
/// - `Complete` marks an entry finished, and the head advances over
///   finished entries to reclaim slots.
///
/// The model stores only the live window between head and tail, so every
/// operation costs in proportion to the occupied entries, not to the
/// capacity. Entries carry consecutive generations from head to tail, so
/// a handle's position is its generation minus the head's.
///
/// # Examples
///
/// ```
/// use um_sched::{RequestQueue, RqEntryStatus};
///
/// let mut rq = RequestQueue::new(4);
/// let a = rq.enqueue(1, "a").unwrap();
/// let b = rq.enqueue(1, "b").unwrap();
/// assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(a)); // FCFS: a first
/// rq.block(a).unwrap();
/// assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(b));
/// rq.unblock(a).unwrap();
/// assert_eq!(rq.status(a), Some(RqEntryStatus::Ready));
/// ```
#[derive(Clone, Debug)]
pub struct RequestQueue<T> {
    /// Occupied entries, head first; grows on demand up to `capacity`.
    window: VecDeque<Entry<T>>,
    capacity: usize,
    /// Generation of the head entry (the next to be reclaimed).
    head_generation: u64,
    /// Ready entries in the window: a dequeue with none returns at once.
    ready: usize,
    enqueues: u64,
    rejections: u64,
    ready_wait: Cycles,
}

impl<T> RequestQueue<T> {
    /// Creates an empty RQ with `capacity` entries (the paper uses 64 per
    /// village).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "request queue needs nonzero capacity");
        Self {
            window: VecDeque::new(),
            capacity,
            head_generation: 0,
            ready: 0,
            enqueues: 0,
            rejections: 0,
            ready_wait: Cycles::ZERO,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied entries (including finished ones not yet
    /// reclaimed).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the RQ holds no entries.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether the RQ cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.window.len() == self.capacity
    }

    /// Enqueues a request for `service` at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`RqError::Full`] when no slot is free; the caller (the
    /// village NIC) then buffers or rejects.
    pub fn enqueue(&mut self, service: u32, ctx: T) -> Result<RqSlot, RqError> {
        self.enqueue_at(service, ctx, Cycles::ZERO)
    }

    /// Timed [`RequestQueue::enqueue`]: stamps the entry's ready time so
    /// [`RequestQueue::dequeue_any_with_at`] can attribute queue wait.
    /// Mix timed and untimed calls at your peril: untimed ops stamp time
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`RqError::Full`] when no slot is free.
    pub fn enqueue_at(&mut self, service: u32, ctx: T, now: Cycles) -> Result<RqSlot, RqError> {
        if self.is_full() {
            self.rejections += 1;
            return Err(RqError::Full);
        }
        let generation = self.head_generation + self.window.len() as u64;
        self.window.push_back(Entry {
            status: RqEntryStatus::Ready,
            service,
            ready_since: now,
            ctx,
        });
        self.ready += 1;
        self.enqueues += 1;
        #[cfg(feature = "sim-sanitizer")]
        self.check_occupancy();
        Ok(RqSlot { generation })
    }

    /// Sanitizer hook: the cached `ready` count must equal the number of
    /// Ready entries, because a dequeue stops scanning once it has passed
    /// that many and returns at once when it is zero.
    #[cfg(feature = "sim-sanitizer")]
    fn check_occupancy(&self) {
        let ready = self.count_status(RqEntryStatus::Ready);
        if ready != self.ready {
            um_sim::sanitizer::report(
                "rq-occupancy",
                format!(
                    "request queue ready count {} disagrees with {ready} Ready entr{}",
                    self.ready,
                    if ready == 1 { "y" } else { "ies" }
                ),
            );
        }
    }

    /// Corrupts the cached Ready-entry count.
    ///
    /// Exists only so sanitizer tests can verify the `rq-occupancy` checker
    /// fires; never call this from simulation code.
    #[cfg(feature = "sim-sanitizer")]
    #[doc(hidden)]
    pub fn corrupt_ready_count_for_sanitizer_test(&mut self, ready: usize) {
        self.ready = ready;
    }

    /// The `Dequeue` instruction: claims the ready entry closest to the
    /// head whose service matches, marking it running (FCFS).
    pub fn dequeue(&mut self, service: u32) -> Option<(RqSlot, &T)> {
        self.dequeue_with(service, DequeuePolicy::Fcfs, |_| 0)
    }

    /// Claims the oldest ready entry of *any* service.
    pub fn dequeue_any(&mut self) -> Option<(RqSlot, &T)> {
        self.dequeue_inner(None, DequeuePolicy::Fcfs, |_| 0, Cycles::ZERO)
            .map(|(slot, ctx, _)| (slot, ctx))
    }

    /// Policy-parameterized dequeue across all services: FCFS takes the
    /// oldest ready entry; SRPT the one with the smallest `remaining`.
    pub fn dequeue_any_with(
        &mut self,
        policy: DequeuePolicy,
        remaining: impl Fn(&T) -> u64,
    ) -> Option<(RqSlot, &T)> {
        self.dequeue_inner(None, policy, remaining, Cycles::ZERO)
            .map(|(slot, ctx, _)| (slot, ctx))
    }

    /// Timed [`RequestQueue::dequeue_any_with`]: additionally returns how
    /// long the claimed entry sat Ready (`now - ready_since`, clamped at
    /// zero), and folds it into [`RequestQueue::ready_wait_cycles`].
    pub fn dequeue_any_with_at(
        &mut self,
        policy: DequeuePolicy,
        remaining: impl Fn(&T) -> u64,
        now: Cycles,
    ) -> Option<(RqSlot, &T, Cycles)> {
        self.dequeue_inner(None, policy, remaining, now)
    }

    /// Policy-parameterized dequeue: FCFS takes the oldest ready match;
    /// SRPT takes the ready match with the smallest `remaining(ctx)`.
    pub fn dequeue_with(
        &mut self,
        service: u32,
        policy: DequeuePolicy,
        remaining: impl Fn(&T) -> u64,
    ) -> Option<(RqSlot, &T)> {
        self.dequeue_inner(Some(service), policy, remaining, Cycles::ZERO)
            .map(|(slot, ctx, _)| (slot, ctx))
    }

    /// Ready entries head first, with their window positions, matching
    /// `service` when given. Stops after the last Ready entry.
    fn ready_entries(&self, service: Option<u32>) -> impl Iterator<Item = (usize, &Entry<T>)> {
        self.window
            .iter()
            .enumerate()
            .filter(|(_, e)| e.status == RqEntryStatus::Ready)
            .take(self.ready)
            .filter(move |(_, e)| service.is_none_or(|svc| e.service == svc))
    }

    fn dequeue_inner(
        &mut self,
        service: Option<u32>,
        policy: DequeuePolicy,
        remaining: impl Fn(&T) -> u64,
        now: Cycles,
    ) -> Option<(RqSlot, &T, Cycles)> {
        let idx = {
            let mut candidates = self.ready_entries(service);
            match policy {
                // Scan order is head-first: the first hit is the oldest.
                DequeuePolicy::Fcfs => candidates.next()?.0,
                // `min_by_key` keeps the first of equal keys: the head-most.
                DequeuePolicy::Srpt => candidates.min_by_key(|(_, e)| remaining(&e.ctx))?.0,
            }
        };
        let entry = &mut self.window[idx];
        entry.status = RqEntryStatus::Running;
        let wait = now.saturating_sub(entry.ready_since);
        self.ready -= 1;
        self.ready_wait += wait;
        let slot = RqSlot {
            generation: self.head_generation + idx as u64,
        };
        Some((slot, &entry.ctx, wait))
    }

    /// Window position of a handle. A reclaimed handle wraps around to a
    /// huge offset, so it falls outside the window like a never-issued one.
    fn position(&self, slot: RqSlot) -> usize {
        usize::try_from(slot.generation.wrapping_sub(self.head_generation)).unwrap_or(usize::MAX)
    }

    fn entry(&self, slot: RqSlot) -> Option<&Entry<T>> {
        self.window.get(self.position(slot))
    }

    fn entry_mut(&mut self, slot: RqSlot) -> Result<&mut Entry<T>, RqError> {
        let idx = self.position(slot);
        self.window.get_mut(idx).ok_or(RqError::StaleSlot)
    }

    /// Applies `from -> to` to a live entry, reporting stale handles and
    /// entries in any other status.
    fn transition(
        &mut self,
        slot: RqSlot,
        from: RqEntryStatus,
        to: RqEntryStatus,
    ) -> Result<&mut Entry<T>, RqError> {
        let e = self.entry_mut(slot)?;
        if e.status != from {
            return Err(RqError::BadTransition { found: e.status });
        }
        e.status = to;
        Ok(e)
    }

    /// The `ContextSwitch` instruction's RQ side: running -> blocked.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] for reclaimed handles,
    /// [`RqError::BadTransition`] unless the entry is running.
    pub fn block(&mut self, slot: RqSlot) -> Result<(), RqError> {
        self.transition(slot, RqEntryStatus::Running, RqEntryStatus::Blocked)?;
        Ok(())
    }

    /// The NIC response path: blocked -> ready.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] / [`RqError::BadTransition`] as for `block`.
    pub fn unblock(&mut self, slot: RqSlot) -> Result<(), RqError> {
        self.unblock_at(slot, Cycles::ZERO)
    }

    /// Timed [`RequestQueue::unblock`]: re-stamps the entry's ready time,
    /// so the wait reported at dequeue covers only the post-unblock span.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] / [`RqError::BadTransition`] as for `block`.
    pub fn unblock_at(&mut self, slot: RqSlot, now: Cycles) -> Result<(), RqError> {
        self.transition(slot, RqEntryStatus::Blocked, RqEntryStatus::Ready)?
            .ready_since = now;
        self.ready += 1;
        Ok(())
    }

    /// The `Complete` instruction: running -> finished, then advance the
    /// head over finished entries, reclaiming their slots.
    ///
    /// # Errors
    ///
    /// [`RqError::StaleSlot`] / [`RqError::BadTransition`] as for `block`.
    pub fn complete(&mut self, slot: RqSlot) -> Result<(), RqError> {
        self.transition(slot, RqEntryStatus::Running, RqEntryStatus::Finished)?;
        while self
            .window
            .front()
            .is_some_and(|e| e.status == RqEntryStatus::Finished)
        {
            self.window.pop_front();
            self.head_generation += 1;
        }
        #[cfg(feature = "sim-sanitizer")]
        self.check_occupancy();
        Ok(())
    }

    /// Status of an entry; `None` for stale handles.
    pub fn status(&self, slot: RqSlot) -> Option<RqEntryStatus> {
        self.entry(slot).map(|e| e.status)
    }

    /// Immutable access to a request's context memory.
    pub fn ctx(&self, slot: RqSlot) -> Option<&T> {
        self.entry(slot).map(|e| &e.ctx)
    }

    /// Mutable access to a request's context memory (the NIC writes RPC
    /// responses here, the core saves register state here).
    pub fn ctx_mut(&mut self, slot: RqSlot) -> Option<&mut T> {
        self.entry_mut(slot).ok().map(|e| &mut e.ctx)
    }

    /// The per-core Work flag (§4.3): whether a ready entry exists for
    /// `service`.
    pub fn has_ready(&self, service: u32) -> bool {
        self.ready_entries(Some(service)).next().is_some()
    }

    /// Whether any service has a ready entry.
    pub fn has_any_ready(&self) -> bool {
        self.ready > 0
    }

    /// Count of entries in a given status.
    pub fn count_status(&self, status: RqEntryStatus) -> usize {
        self.window.iter().filter(|e| e.status == status).count()
    }

    /// Total accepted enqueues.
    pub fn enqueue_count(&self) -> u64 {
        self.enqueues
    }

    /// Total rejected enqueues (RQ full).
    pub fn rejection_count(&self) -> u64 {
        self.rejections
    }

    /// Accumulated Ready-state residence across all timed dequeues — the
    /// RQ's own view of queue-wait, cross-checked against the system
    /// simulator's per-request attribution.
    pub fn ready_wait_cycles(&self) -> Cycles {
        self.ready_wait
    }
}

/// The §4.3 "more advanced design": the RQ_Map table partitions the RQ
/// among co-located services, eliminating cross-service contention for
/// entries. Implemented as one sub-queue per service with a bounded total
/// capacity; shares follow the per-service core assignment.
///
/// The paper describes but does not evaluate this design; this crate
/// implements it as an extension and the bench suite ablates it.
///
/// # Examples
///
/// ```
/// use um_sched::PartitionedRq;
///
/// let mut rq: PartitionedRq<&str> = PartitionedRq::new(64);
/// rq.set_share(1, 48);
/// rq.set_share(2, 16);
/// rq.enqueue(1, "a").unwrap();
/// assert!(rq.dequeue(1).is_some());
/// assert!(rq.dequeue(2).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedRq<T> {
    total_capacity: usize,
    partitions: BTreeMap<u32, RequestQueue<T>>,
    default_share: usize,
}

impl<T> PartitionedRq<T> {
    /// Creates a partitioned RQ with `total_capacity` entries overall.
    ///
    /// # Panics
    ///
    /// Panics if `total_capacity` is zero.
    pub fn new(total_capacity: usize) -> Self {
        assert!(total_capacity > 0, "need nonzero capacity");
        Self {
            total_capacity,
            partitions: BTreeMap::new(),
            default_share: total_capacity,
        }
    }

    /// Total capacity across partitions.
    pub fn total_capacity(&self) -> usize {
        self.total_capacity
    }

    /// Assigns `service` a partition of `entries` slots (recorded in the
    /// RQ_Map).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds the total capacity, or if the
    /// partition still holds entries (repartitioning is applied between
    /// bursts, after the partition drains — matching how the hardware
    /// would switch RQ_Map rows).
    pub fn set_share(&mut self, service: u32, entries: usize) {
        assert!(
            entries > 0 && entries <= self.total_capacity,
            "share {entries} outside 1..={}",
            self.total_capacity
        );
        match self.partitions.get_mut(&service) {
            Some(existing) if existing.capacity() == entries => {}
            Some(existing) => {
                // Shares only change between bursts in our simulations, so
                // the partition is drained here; hardware would let it
                // drain naturally before applying the new RQ_Map row.
                assert!(
                    existing.is_empty(),
                    "online repartitioning with queued entries is not modelled"
                );
                *existing = RequestQueue::new(entries);
            }
            None => {
                self.partitions.insert(service, RequestQueue::new(entries));
            }
        }
    }

    fn partition_mut(&mut self, service: u32) -> &mut RequestQueue<T> {
        let default_share = self.default_share;
        self.partitions
            .entry(service)
            .or_insert_with(|| RequestQueue::new(default_share))
    }

    /// Enqueues into the service's partition.
    ///
    /// # Errors
    ///
    /// [`RqError::Full`] when the partition is exhausted — even if other
    /// partitions have room; that isolation is the point of RQ_Map.
    pub fn enqueue(&mut self, service: u32, ctx: T) -> Result<RqSlot, RqError> {
        self.partition_mut(service).enqueue(service, ctx)
    }

    /// Dequeues the oldest ready entry of `service` from its partition.
    pub fn dequeue(&mut self, service: u32) -> Option<(RqSlot, &T)> {
        // Only consult the service's own partition (the Dequeue instruction
        // checks the RQ_Map first, §4.3).
        self.partitions.get_mut(&service)?.dequeue(service)
    }

    /// Forwards to the partition's `block`.
    ///
    /// # Errors
    ///
    /// As [`RequestQueue::block`]; stale if the service has no partition.
    pub fn block(&mut self, service: u32, slot: RqSlot) -> Result<(), RqError> {
        self.partitions
            .get_mut(&service)
            .ok_or(RqError::StaleSlot)?
            .block(slot)
    }

    /// Forwards to the partition's `unblock`.
    ///
    /// # Errors
    ///
    /// As [`RequestQueue::unblock`].
    pub fn unblock(&mut self, service: u32, slot: RqSlot) -> Result<(), RqError> {
        self.partitions
            .get_mut(&service)
            .ok_or(RqError::StaleSlot)?
            .unblock(slot)
    }

    /// Forwards to the partition's `complete`.
    ///
    /// # Errors
    ///
    /// As [`RequestQueue::complete`].
    pub fn complete(&mut self, service: u32, slot: RqSlot) -> Result<(), RqError> {
        self.partitions
            .get_mut(&service)
            .ok_or(RqError::StaleSlot)?
            .complete(slot)
    }

    /// Whether `service` has ready work.
    pub fn has_ready(&self, service: u32) -> bool {
        self.partitions
            .get(&service)
            .is_some_and(|q| q.has_ready(service))
    }

    /// Services with a configured partition.
    pub fn services(&self) -> impl Iterator<Item = u32> + '_ {
        self.partitions.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_order_per_service() {
        let mut rq = RequestQueue::new(8);
        let a = rq.enqueue(1, "a").unwrap();
        let _b = rq.enqueue(2, "b").unwrap();
        let c = rq.enqueue(1, "c").unwrap();
        assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(a));
        assert_eq!(rq.dequeue(1).map(|(s, _)| s), Some(c));
        assert_eq!(rq.dequeue(1), None); // only service 2 left
    }

    #[test]
    fn full_queue_rejects() {
        let mut rq = RequestQueue::new(2);
        rq.enqueue(1, 0).unwrap();
        rq.enqueue(1, 1).unwrap();
        assert_eq!(rq.enqueue(1, 2), Err(RqError::Full));
        assert_eq!(rq.rejection_count(), 1);
    }

    #[test]
    fn complete_reclaims_head_slots() {
        let mut rq = RequestQueue::new(2);
        let a = rq.enqueue(1, 0).unwrap();
        let b = rq.enqueue(1, 1).unwrap();
        rq.dequeue(1).unwrap();
        rq.complete(a).unwrap();
        assert_eq!(rq.len(), 1);
        let c = rq.enqueue(1, 2).unwrap(); // reuses a's slot
        assert_ne!(c.generation, a.generation);
        assert_eq!(rq.status(a), None, "stale handle must not resolve");
        let _ = b;
    }

    #[test]
    fn out_of_order_completion_delays_reclaim() {
        let mut rq = RequestQueue::new(3);
        let a = rq.enqueue(1, 0).unwrap();
        let b = rq.enqueue(1, 1).unwrap();
        rq.dequeue(1).unwrap(); // a running
        rq.dequeue(1).unwrap(); // b running
        rq.complete(b).unwrap();
        // Head (a) not finished: b's slot is not yet reclaimed.
        assert_eq!(rq.len(), 2);
        rq.complete(a).unwrap();
        // Now both reclaim.
        assert_eq!(rq.len(), 0);
        assert!(rq.is_empty());
    }

    #[test]
    fn block_unblock_cycle() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(7, "ctx").unwrap();
        rq.dequeue(7).unwrap();
        rq.block(a).unwrap();
        assert_eq!(rq.status(a), Some(RqEntryStatus::Blocked));
        assert!(!rq.has_ready(7));
        rq.unblock(a).unwrap();
        assert!(rq.has_ready(7));
        let (again, _) = rq.dequeue(7).unwrap();
        assert_eq!(again, a);
    }

    #[test]
    fn bad_transitions_rejected() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(1, ()).unwrap();
        // Ready -> block is invalid (must be running).
        assert!(matches!(rq.block(a), Err(RqError::BadTransition { .. })));
        // Ready -> unblock is invalid.
        assert!(matches!(rq.unblock(a), Err(RqError::BadTransition { .. })));
        // Ready -> complete is invalid.
        assert!(matches!(rq.complete(a), Err(RqError::BadTransition { .. })));
    }

    #[test]
    fn blocked_requests_do_not_block_others() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue(1, "a").unwrap();
        let _b = rq.enqueue(1, "b").unwrap();
        rq.dequeue(1).unwrap();
        rq.block(a).unwrap();
        // b is still dequeueable although a (older) is blocked.
        let (slot, ctx) = rq.dequeue(1).unwrap();
        assert_eq!(*ctx, "b");
        assert_ne!(slot, a);
    }

    #[test]
    fn ctx_mut_updates() {
        let mut rq = RequestQueue::new(2);
        let a = rq.enqueue(1, vec![0u8; 4]).unwrap();
        rq.ctx_mut(a).unwrap().push(9);
        assert_eq!(rq.ctx(a).unwrap().len(), 5);
    }

    #[test]
    fn wraparound_preserves_fcfs() {
        let mut rq = RequestQueue::new(3);
        let mut order = Vec::new();
        // Push/complete enough to wrap several times.
        for i in 0..10 {
            let s = rq.enqueue(1, i).unwrap();
            let (got, &v) = rq.dequeue(1).unwrap();
            assert_eq!(got, s);
            order.push(v);
            rq.complete(s).unwrap();
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn srpt_picks_shortest() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue(1, 500u64).unwrap();
        rq.enqueue(1, 100u64).unwrap();
        rq.enqueue(1, 300u64).unwrap();
        let (_, &v) = rq.dequeue_with(1, DequeuePolicy::Srpt, |&rem| rem).unwrap();
        assert_eq!(v, 100);
    }

    #[test]
    fn dequeue_any_with_srpt_picks_shortest_across_services() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue(1, 900u64).unwrap();
        rq.enqueue(2, 50u64).unwrap();
        rq.enqueue(1, 300u64).unwrap();
        let (_, &v) = rq
            .dequeue_any_with(DequeuePolicy::Srpt, |&rem| rem)
            .unwrap();
        assert_eq!(v, 50);
        // FCFS ignores the estimator and takes the oldest.
        let (_, &v) = rq
            .dequeue_any_with(DequeuePolicy::Fcfs, |&rem| rem)
            .unwrap();
        assert_eq!(v, 900);
    }

    #[test]
    fn dequeue_any_ignores_service() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue(5, "x").unwrap();
        assert!(rq.dequeue(1).is_none());
        assert!(rq.dequeue_any().is_some());
    }

    #[test]
    fn counters() {
        let mut rq = RequestQueue::new(2);
        let a = rq.enqueue(1, ()).unwrap();
        rq.enqueue(1, ()).unwrap();
        let _ = rq.enqueue(1, ());
        assert_eq!(rq.enqueue_count(), 2);
        assert_eq!(rq.rejection_count(), 1);
        rq.dequeue(1).unwrap();
        assert_eq!(rq.count_status(RqEntryStatus::Running), 1);
        assert_eq!(rq.count_status(RqEntryStatus::Ready), 1);
        let _ = a;
    }

    #[test]
    fn partitioned_isolation() {
        let mut rq: PartitionedRq<u32> = PartitionedRq::new(8);
        rq.set_share(1, 2);
        rq.set_share(2, 6);
        rq.enqueue(1, 10).unwrap();
        rq.enqueue(1, 11).unwrap();
        // Service 1's partition is full even though service 2 has room.
        assert_eq!(rq.enqueue(1, 12), Err(RqError::Full));
        assert!(rq.enqueue(2, 20).is_ok());
    }

    #[test]
    fn partitioned_lifecycle() {
        let mut rq: PartitionedRq<&str> = PartitionedRq::new(8);
        rq.set_share(3, 4);
        let s = rq.enqueue(3, "req").unwrap();
        let (got, _) = rq.dequeue(3).unwrap();
        assert_eq!(got, s);
        rq.block(3, s).unwrap();
        rq.unblock(3, s).unwrap();
        rq.dequeue(3).unwrap();
        rq.complete(3, s).unwrap();
        assert!(!rq.has_ready(3));
    }

    #[test]
    fn partitioned_unknown_service_errors() {
        let mut rq: PartitionedRq<u32> = PartitionedRq::new(8);
        let fake = {
            let mut tmp: RequestQueue<u32> = RequestQueue::new(1);
            tmp.enqueue(9, 0).unwrap()
        };
        assert_eq!(rq.block(9, fake), Err(RqError::StaleSlot));
        assert!(rq.dequeue(9).is_none());
    }

    #[test]
    fn timed_dequeue_reports_ready_wait() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue_at(1, "a", Cycles::new(100)).unwrap();
        rq.enqueue_at(1, "b", Cycles::new(130)).unwrap();
        let (_, &ctx, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(150))
            .unwrap();
        assert_eq!(ctx, "a");
        assert_eq!(wait, Cycles::new(50));
        let (_, _, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(160))
            .unwrap();
        assert_eq!(wait, Cycles::new(30));
        assert_eq!(rq.ready_wait_cycles(), Cycles::new(80));
    }

    #[test]
    fn unblock_at_restarts_the_wait_clock() {
        let mut rq = RequestQueue::new(4);
        let a = rq.enqueue_at(1, (), Cycles::new(0)).unwrap();
        rq.dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(10))
            .unwrap();
        rq.block(a).unwrap();
        rq.unblock_at(a, Cycles::new(500)).unwrap();
        let (_, _, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(520))
            .unwrap();
        // Only the post-unblock span counts, not the blocked interval.
        assert_eq!(wait, Cycles::new(20));
    }

    #[test]
    fn timed_dequeue_racing_insertion_clamps_to_zero() {
        let mut rq = RequestQueue::new(4);
        rq.enqueue_at(1, (), Cycles::new(100)).unwrap();
        // A core dispatching "in the past" (insertion raced the idle scan)
        // must see zero wait, not an underflow.
        let (_, _, wait) = rq
            .dequeue_any_with_at(DequeuePolicy::Fcfs, |_| 0, Cycles::new(40))
            .unwrap();
        assert_eq!(wait, Cycles::ZERO);
    }

    #[test]
    fn repartition_empty_queue() {
        let mut rq: PartitionedRq<u32> = PartitionedRq::new(64);
        rq.set_share(1, 16);
        rq.set_share(1, 32); // grow while empty: fine
        rq.enqueue(1, 1).unwrap();
        assert!(rq.dequeue(1).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const SERVICES: u32 = 3;

    #[derive(Clone, Debug)]
    enum Op {
        Enqueue {
            service: u32,
            ctx: u64,
            now: u64,
        },
        /// `service: None` is the timed any-service dequeue.
        Dequeue {
            service: Option<u32>,
            srpt: bool,
            now: u64,
        },
        /// Handle operations pick among every handle ever issued, so
        /// reclaimed (stale) handles are exercised too.
        Block(usize),
        Unblock(usize, u64),
        Complete(usize),
        Status(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0..SERVICES, 0u64..4, 0u64..1_000)
                .prop_map(|(service, ctx, now)| Op::Enqueue { service, ctx, now }),
            3 => (proptest::option::of(0..SERVICES), proptest::bool::ANY, 0u64..1_000)
                .prop_map(|(service, srpt, now)| Op::Dequeue { service, srpt, now }),
            1 => (0usize..64).prop_map(Op::Block),
            1 => (0usize..64, 0u64..1_000).prop_map(|(h, now)| Op::Unblock(h, now)),
            2 => (0usize..64).prop_map(Op::Complete),
            1 => (0usize..64).prop_map(Op::Status),
        ]
    }

    /// The naive reference: the live entries head first, as
    /// `(generation, service, status, ctx, ready_since)`.
    struct Model {
        capacity: usize,
        entries: Vec<(u64, u32, RqEntryStatus, u64, u64)>,
        next_generation: u64,
        ready_wait: u64,
    }

    impl Model {
        fn enqueue(&mut self, service: u32, ctx: u64, now: u64) -> Result<u64, RqError> {
            if self.entries.len() == self.capacity {
                return Err(RqError::Full);
            }
            let generation = self.next_generation;
            self.next_generation += 1;
            self.entries
                .push((generation, service, RqEntryStatus::Ready, ctx, now));
            Ok(generation)
        }

        fn dequeue(
            &mut self,
            service: Option<u32>,
            srpt: bool,
            now: u64,
        ) -> Option<(u64, u64, u64)> {
            let mut best: Option<usize> = None;
            for (i, e) in self.entries.iter().enumerate() {
                if e.2 != RqEntryStatus::Ready || service.is_some_and(|s| s != e.1) {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) if srpt && e.3 < self.entries[b].3 => best = Some(i),
                    Some(_) => {}
                }
                if !srpt {
                    break;
                }
            }
            let e = &mut self.entries[best?];
            e.2 = RqEntryStatus::Running;
            let wait = now.saturating_sub(e.4);
            self.ready_wait += wait;
            Some((e.0, e.3, wait))
        }

        fn transition(
            &mut self,
            generation: u64,
            from: RqEntryStatus,
            to: RqEntryStatus,
            now: u64,
        ) -> Result<(), RqError> {
            let e = self
                .entries
                .iter_mut()
                .find(|e| e.0 == generation)
                .ok_or(RqError::StaleSlot)?;
            if e.2 != from {
                return Err(RqError::BadTransition { found: e.2 });
            }
            e.2 = to;
            if to == RqEntryStatus::Ready {
                e.4 = now;
            }
            while self
                .entries
                .first()
                .is_some_and(|e| e.2 == RqEntryStatus::Finished)
            {
                self.entries.remove(0);
            }
            Ok(())
        }

        fn status(&self, generation: u64) -> Option<RqEntryStatus> {
            self.entries.iter().find(|e| e.0 == generation).map(|e| e.2)
        }

        fn count(&self, status: RqEntryStatus) -> usize {
            self.entries.iter().filter(|e| e.2 == status).count()
        }
    }

    fn pick(handles: &[RqSlot], h: usize) -> Option<RqSlot> {
        handles.get(h % handles.len().max(1)).copied()
    }

    proptest! {
        /// Every operation agrees with the naive reference list: results
        /// and errors, FCFS/SRPT choice (with and without a service
        /// filter), `Full` at small capacities, stale handles after
        /// reclaim, and every observable count after each step.
        #[test]
        fn rq_state_machine(
            capacity in 1usize..6,
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut rq: RequestQueue<u64> = RequestQueue::new(capacity);
            let mut model = Model {
                capacity,
                entries: Vec::new(),
                next_generation: 0,
                ready_wait: 0,
            };
            let mut handles: Vec<RqSlot> = Vec::new();
            let mut rejections = 0u64;
            for op in ops {
                match op {
                    Op::Enqueue { service, ctx, now } => {
                        let got = rq.enqueue_at(service, ctx, Cycles::new(now));
                        let want = model.enqueue(service, ctx, now);
                        prop_assert_eq!(got.map(|s| s.generation), want);
                        match got {
                            Ok(slot) => handles.push(slot),
                            Err(_) => rejections += 1,
                        }
                    }
                    Op::Dequeue { service, srpt, now } => {
                        let policy = if srpt { DequeuePolicy::Srpt } else { DequeuePolicy::Fcfs };
                        let got = match service {
                            Some(svc) => rq
                                .dequeue_with(svc, policy, |&c| c)
                                .map(|(s, &c)| (s.generation, c, 0)),
                            None => rq
                                .dequeue_any_with_at(policy, |&c| c, Cycles::new(now))
                                .map(|(s, &c, w)| (s.generation, c, w.raw())),
                        };
                        // Untimed dequeues measure from time zero.
                        let want = model.dequeue(service, srpt, if service.is_some() { 0 } else { now });
                        prop_assert_eq!(got, want);
                    }
                    Op::Block(h) => {
                        let Some(slot) = pick(&handles, h) else { continue };
                        let want = model.transition(
                            slot.generation, RqEntryStatus::Running, RqEntryStatus::Blocked, 0,
                        );
                        prop_assert_eq!(rq.block(slot), want);
                    }
                    Op::Unblock(h, now) => {
                        let Some(slot) = pick(&handles, h) else { continue };
                        let want = model.transition(
                            slot.generation, RqEntryStatus::Blocked, RqEntryStatus::Ready, now,
                        );
                        prop_assert_eq!(rq.unblock_at(slot, Cycles::new(now)), want);
                    }
                    Op::Complete(h) => {
                        let Some(slot) = pick(&handles, h) else { continue };
                        let want = model.transition(
                            slot.generation, RqEntryStatus::Running, RqEntryStatus::Finished, 0,
                        );
                        prop_assert_eq!(rq.complete(slot), want);
                    }
                    Op::Status(h) => {
                        let Some(slot) = pick(&handles, h) else { continue };
                        let want = model.status(slot.generation);
                        prop_assert_eq!(rq.status(slot), want);
                        prop_assert_eq!(rq.ctx(slot).is_some(), want.is_some());
                    }
                }
                prop_assert_eq!(rq.len(), model.entries.len());
                prop_assert_eq!(rq.is_full(), model.entries.len() == capacity);
                prop_assert_eq!(rq.is_empty(), model.entries.is_empty());
                for status in [
                    RqEntryStatus::Ready,
                    RqEntryStatus::Running,
                    RqEntryStatus::Blocked,
                    RqEntryStatus::Finished,
                ] {
                    prop_assert_eq!(rq.count_status(status), model.count(status));
                }
                for svc in 0..SERVICES {
                    let want = model
                        .entries
                        .iter()
                        .any(|e| e.1 == svc && e.2 == RqEntryStatus::Ready);
                    prop_assert_eq!(rq.has_ready(svc), want);
                }
                prop_assert_eq!(rq.has_any_ready(), model.count(RqEntryStatus::Ready) > 0);
                prop_assert_eq!(rq.ready_wait_cycles(), Cycles::new(model.ready_wait));
                prop_assert_eq!(rq.rejection_count(), rejections);
            }
        }
    }
}
