//! The bottleneck: a byte-capacity drop-tail FIFO queue feeding a
//! fixed-rate link.
//!
//! Besides forwarding packets, the queue keeps the measurements the
//! paper's model is validated against: time-weighted average occupancy
//! (total, and per static flow — the model's `b_b` and `b_c`), drop
//! counts, and a log of every drop's time and flow, which the report
//! copies into [`crate::QueueReport::drops`] and nothing else reads.

use crate::aqm::{CodelState, QueueDiscipline, RedState};
use crate::packet::{FlowId, Packet};
use crate::time::{SimDuration, SimTime};
use crate::units::{Rate, MSS};
use std::collections::VecDeque;

/// A recorded tail-drop event.
#[derive(Debug, Clone, Copy)]
pub struct DropRecord {
    pub time: SimTime,
    pub flow: FlowId,
}

/// Drop-tail FIFO with byte-granularity capacity accounting.
#[derive(Debug)]
pub struct DropTailQueue {
    /// Link rate draining this queue.
    rate: Rate,
    /// Maximum queued bytes (excludes the packet in service on the link).
    capacity_bytes: u64,
    queue: VecDeque<Packet>,
    /// Enqueue timestamps, parallel to `queue`. Only maintained when the
    /// discipline needs sojourn times (CoDel); empty otherwise.
    enqueue_times: VecDeque<SimTime>,
    /// Whether `enqueue_times` is maintained.
    track_sojourn: bool,
    queued_bytes: u64,
    /// Per-flow queued bytes (indexed by `FlowId`), for every slot.
    per_flow_bytes: Vec<u64>,
    /// `per_flow_bytes` shadowed as f64 (always exact: packet-size sums
    /// stay far below 2^53), so the integral loop is pure float math the
    /// compiler can vectorize. Covers only the built-for flows, like
    /// `per_flow_integral`.
    per_flow_bytes_f64: Vec<f64>,
    /// The packet currently being serialized on the link, if any.
    in_service: Option<Packet>,
    /// Cached serialization time of one MSS at `rate`.
    ser_mss: SimDuration,
    /// Outage depth: while > 0 the link starts no new service (fault
    /// injection; overlapping outages nest). The packet already in
    /// service finishes serializing.
    paused: u32,
    /// Queue discipline and AQM state.
    discipline: QueueDiscipline,
    red: RedState,
    codel: CodelState,
    /// Drops made by the AQM (subset of `dropped_packets`).
    aqm_drops: u64,

    // --- statistics ---
    last_change: SimTime,
    /// ∫ queue_bytes dt (total), for time-weighted average occupancy.
    byte_time_integral: f64,
    /// ∫ queue_bytes dt per flow, for the flows the queue was built for
    /// only (see [`DropTailQueue::with_discipline`]); its length never
    /// changes.
    per_flow_integral: Vec<f64>,
    /// Peak queued bytes observed.
    peak_bytes: u64,
    drops: Vec<DropRecord>,
    enqueued_packets: u64,
    dropped_packets: u64,
    /// Per-flow packet counters for the conservation audit: every packet
    /// offered ends up exactly once in dropped, serviced, still-queued,
    /// or in-service (see [`crate::audit`]).
    per_flow_offered: Vec<u64>,
    per_flow_dropped: Vec<u64>,
    per_flow_serviced: Vec<u64>,
    /// Bytes that completed serialization on this link — the per-hop
    /// utilization numerator for multi-hop topologies.
    serviced_bytes: u64,
}

impl DropTailQueue {
    pub fn new(rate: Rate, capacity_bytes: u64, n_flows: usize) -> Self {
        Self::with_discipline(rate, capacity_bytes, n_flows, QueueDiscipline::DropTail)
    }

    /// A queue whose per-flow accounting covers flows `0..n_flows`.
    ///
    /// Those flows — the run's static flows, the only ones reported
    /// individually — also carry a per-flow occupancy integral
    /// ([`DropTailQueue::avg_occupancy_bytes_of`]). Workload slots added
    /// later by `grow_to` get byte and packet counters but no
    /// integral, so the cost of every enqueue and dequeue stays
    /// proportional to `n_flows`, not to a workload's slot count.
    pub fn with_discipline(
        rate: Rate,
        capacity_bytes: u64,
        n_flows: usize,
        discipline: QueueDiscipline,
    ) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        DropTailQueue {
            rate,
            capacity_bytes,
            discipline,
            red: RedState::default(),
            codel: CodelState::default(),
            aqm_drops: 0,
            queue: VecDeque::new(),
            enqueue_times: VecDeque::new(),
            track_sojourn: matches!(discipline, QueueDiscipline::Codel(_)),
            queued_bytes: 0,
            per_flow_bytes: vec![0; n_flows],
            per_flow_bytes_f64: vec![0.0; n_flows],
            in_service: None,
            ser_mss: rate.serialization_time(MSS),
            paused: 0,
            last_change: SimTime::ZERO,
            byte_time_integral: 0.0,
            per_flow_integral: vec![0.0; n_flows],
            peak_bytes: 0,
            drops: Vec::new(),
            enqueued_packets: 0,
            dropped_packets: 0,
            per_flow_offered: vec![0; n_flows],
            per_flow_dropped: vec![0; n_flows],
            per_flow_serviced: vec![0; n_flows],
            serviced_bytes: 0,
        }
    }

    /// Link rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Serialization time of `bytes` on this link. Memoized for the
    /// common MSS-sized packet (one f64 divide per dequeue otherwise);
    /// other sizes fall through to the identical [`Rate`] computation.
    #[inline]
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        if bytes == MSS {
            self.ser_mss
        } else {
            self.rate.serialization_time(bytes)
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently queued (not counting the packet in service).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Bytes currently queued belonging to `flow`.
    pub fn queued_bytes_of(&self, flow: FlowId) -> u64 {
        self.per_flow_bytes[flow.index()]
    }

    /// Whether the link is serializing a packet right now.
    pub fn link_busy(&self) -> bool {
        self.in_service.is_some()
    }

    fn advance_integrals(&mut self, now: SimTime) {
        // Integer zero-check first: skipping the ns→secs division on
        // same-instant calls is exact (dt > 0 iff the ns delta is > 0).
        let elapsed = now.saturating_since(self.last_change);
        if elapsed.as_nanos() == 0 {
            return;
        }
        let dt = elapsed.as_secs_f64();
        self.last_change = now;
        // Empty queue: every term would be `x + 0.0`, which reproduces
        // `x` bit-for-bit for these non-negative integrals, so the idle
        // case is O(1) instead of O(flows).
        if self.queued_bytes == 0 {
            return;
        }
        self.byte_time_integral += self.queued_bytes as f64 * dt;
        // Built-for flows only: both vectors have their constructed length.
        for (acc, b) in self
            .per_flow_integral
            .iter_mut()
            .zip(self.per_flow_bytes_f64.iter())
        {
            *acc += *b * dt;
        }
    }

    /// Offer a packet to the bottleneck at time `now`.
    ///
    /// Returns [`Offer::StartService`] if the link was idle — the packet
    /// goes straight into service and the caller must schedule a
    /// `LinkDequeue` event one serialization time later. Otherwise the
    /// packet is queued, or dropped if the queue is full.
    pub fn offer(&mut self, now: SimTime, pkt: Packet) -> Offer {
        self.advance_integrals(now);
        self.per_flow_offered[pkt.flow.index()] += 1;
        if self.paused == 0 && self.in_service.is_none() {
            self.in_service = Some(pkt);
            return Offer::StartService;
        }
        // RED: early-drop decision on arrival, before tail-drop.
        if let QueueDiscipline::Red(cfg) = self.discipline {
            if self.red.on_arrival(&cfg, self.queued_bytes) {
                self.dropped_packets += 1;
                self.aqm_drops += 1;
                self.per_flow_dropped[pkt.flow.index()] += 1;
                self.drops.push(DropRecord {
                    time: now,
                    flow: pkt.flow,
                });
                return Offer::Dropped;
            }
        }
        if self.queued_bytes + pkt.size <= self.capacity_bytes {
            self.queued_bytes += pkt.size;
            self.per_flow_bytes[pkt.flow.index()] += pkt.size;
            if let Some(b) = self.per_flow_bytes_f64.get_mut(pkt.flow.index()) {
                *b += pkt.size as f64;
            }
            self.peak_bytes = self.peak_bytes.max(self.queued_bytes);
            self.enqueued_packets += 1;
            self.queue.push_back(pkt);
            if self.track_sojourn {
                self.enqueue_times.push_back(now);
            }
            Offer::Queued
        } else {
            self.dropped_packets += 1;
            self.per_flow_dropped[pkt.flow.index()] += 1;
            self.drops.push(DropRecord {
                time: now,
                flow: pkt.flow,
            });
            Offer::Dropped
        }
    }

    /// The link finished serializing the packet in service.
    ///
    /// Returns the finished packet plus the size of the next packet now
    /// entering service (`None` if the link goes idle) so the caller can
    /// schedule the next `LinkDequeue`.
    pub fn service_complete(&mut self, now: SimTime) -> (Packet, Option<u64>) {
        let finished = self
            .in_service
            .take()
            .expect("service_complete on an idle link");
        self.advance_integrals(now);
        self.per_flow_serviced[finished.flow.index()] += 1;
        self.serviced_bytes += finished.size;
        if self.paused > 0 {
            // Link is down: the packet already on the wire finishes, but
            // nothing new enters service until `resume`.
            return (finished, None);
        }
        let next = self.start_next(now);
        (finished, next)
    }

    /// Pull the next packet (skipping CoDel head drops) into service.
    /// Requires an idle, unpaused link; returns the new in-service
    /// packet's size so the caller can schedule its `LinkDequeue`.
    fn start_next(&mut self, now: SimTime) -> Option<u64> {
        debug_assert!(self.in_service.is_none() && self.paused == 0);
        loop {
            match self.queue.pop_front() {
                Some(pkt) => {
                    self.queued_bytes -= pkt.size;
                    self.per_flow_bytes[pkt.flow.index()] -= pkt.size;
                    if let Some(b) = self.per_flow_bytes_f64.get_mut(pkt.flow.index()) {
                        *b -= pkt.size as f64;
                    }
                    // CoDel: head-drop decision at dequeue time.
                    if let QueueDiscipline::Codel(cfg) = self.discipline {
                        let enqueued_at = self
                            .enqueue_times
                            .pop_front()
                            .expect("enqueue_times in sync with queue");
                        let sojourn = now.saturating_since(enqueued_at);
                        if self.codel.on_dequeue(&cfg, now, sojourn) {
                            self.dropped_packets += 1;
                            self.aqm_drops += 1;
                            self.per_flow_dropped[pkt.flow.index()] += 1;
                            self.drops.push(DropRecord {
                                time: now,
                                flow: pkt.flow,
                            });
                            continue;
                        }
                    }
                    let size = pkt.size;
                    self.in_service = Some(pkt);
                    return Some(size);
                }
                None => return None,
            }
        }
    }

    /// Fault injection: the link goes down. Nested calls stack; the
    /// packet currently being serialized (if any) still completes.
    pub fn pause(&mut self, now: SimTime) {
        self.advance_integrals(now);
        self.paused += 1;
    }

    /// Fault injection: one `pause` level ends. When the last level
    /// clears and the link is idle, the head-of-line packet enters
    /// service; its size is returned so the caller schedules the
    /// corresponding `LinkDequeue`.
    pub fn resume(&mut self, now: SimTime) -> Option<u64> {
        debug_assert!(self.paused > 0, "resume without matching pause");
        self.paused = self.paused.saturating_sub(1);
        if self.paused == 0 && self.in_service.is_none() {
            self.advance_integrals(now);
            self.start_next(now)
        } else {
            None
        }
    }

    /// Whether the link is currently paused by an outage.
    pub fn is_paused(&self) -> bool {
        self.paused > 0
    }

    /// Fault injection: change the link capacity. The packet currently
    /// in service finishes at the old rate (its `LinkDequeue` is already
    /// scheduled); subsequent packets serialize at the new rate.
    pub fn set_rate(&mut self, rate: Rate) {
        self.rate = rate;
        self.ser_mss = rate.serialization_time(MSS);
    }

    /// Drops made by the AQM (RED early drops + CoDel head drops),
    /// excluded from which are plain tail drops.
    pub fn aqm_drops(&self) -> u64 {
        self.aqm_drops
    }

    /// The configured discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Finalize integrals at simulation end.
    pub fn finalize(&mut self, now: SimTime) {
        self.advance_integrals(now);
    }

    /// Bytes this link has finished serializing since t = 0.
    pub fn serviced_bytes(&self) -> u64 {
        self.serviced_bytes
    }

    /// Time-weighted average queue occupancy in bytes over the
    /// measurement window `[0, finalize]` (caller provides the window
    /// length used for normalization).
    pub fn avg_occupancy_bytes(&self, window_secs: f64) -> f64 {
        if window_secs <= 0.0 {
            return 0.0;
        }
        self.byte_time_integral / window_secs
    }

    /// Time-weighted average occupancy of one flow over the measurement
    /// window, in bytes.
    ///
    /// Defined only for the flows the queue was built for (the `n_flows`
    /// of [`DropTailQueue::with_discipline`]); a workload slot added by
    /// `grow_to` has no integral, and asking for one is a caller bug: it
    /// panics (with this message under debug assertions, as an
    /// out-of-range index otherwise), whatever the window.
    pub fn avg_occupancy_bytes_of(&self, flow: FlowId, window_secs: f64) -> f64 {
        debug_assert!(
            flow.index() < self.per_flow_integral.len(),
            "flow {} has no occupancy integral: the queue was built for {} flows",
            flow.index(),
            self.per_flow_integral.len()
        );
        let integral = self.per_flow_integral[flow.index()];
        if window_secs <= 0.0 {
            return 0.0;
        }
        integral / window_secs
    }

    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    pub fn enqueued_packets(&self) -> u64 {
        self.enqueued_packets
    }

    /// Packets `flow` has offered to the bottleneck.
    pub fn offered_packets_of(&self, flow: FlowId) -> u64 {
        self.per_flow_offered[flow.index()]
    }

    /// Packets of `flow` dropped at the bottleneck (tail + AQM).
    pub fn dropped_packets_of(&self, flow: FlowId) -> u64 {
        self.per_flow_dropped[flow.index()]
    }

    /// Packets of `flow` that completed serialization on the link.
    pub fn serviced_packets_of(&self, flow: FlowId) -> u64 {
        self.per_flow_serviced[flow.index()]
    }

    /// The flow whose packet is currently being serialized, if any.
    pub fn in_service_flow(&self) -> Option<FlowId> {
        self.in_service.as_ref().map(|p| p.flow)
    }

    /// Extend the per-flow byte and packet counters to cover `n_flows`
    /// flows. Used by the open-loop workload when a spawned flow outgrows
    /// the slot table; existing counters are untouched. The new slots get
    /// no occupancy integral: workload flows are reported in aggregate,
    /// so nothing reads one, and integrating every slot would make each
    /// enqueue and dequeue cost O(slots).
    pub(crate) fn grow_to(&mut self, n_flows: usize) {
        if n_flows <= self.per_flow_bytes.len() {
            return;
        }
        self.per_flow_bytes.resize(n_flows, 0);
        self.per_flow_offered.resize(n_flows, 0);
        self.per_flow_dropped.resize(n_flows, 0);
        self.per_flow_serviced.resize(n_flows, 0);
    }

    /// Reset the conservation counters of a quiescent recycled slot so
    /// the next workload flow reusing it starts from a clean ledger.
    /// Workload slots carry no occupancy integral, so there is none to
    /// reset.
    pub(crate) fn reset_flow_slot(&mut self, flow: FlowId) {
        debug_assert_eq!(
            self.per_flow_bytes[flow.index()],
            0,
            "recycling a slot with queued bytes"
        );
        self.per_flow_offered[flow.index()] = 0;
        self.per_flow_dropped[flow.index()] = 0;
        self.per_flow_serviced[flow.index()] = 0;
    }

    /// Test hook: corrupt a per-flow conservation counter so the audit's
    /// detection of a seeded accounting bug can itself be tested.
    #[cfg(test)]
    pub(crate) fn test_corrupt_serviced_counter(&mut self, flow: FlowId) {
        self.per_flow_serviced[flow.index()] += 1;
    }
}

/// Result of offering a packet to the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Link was idle; packet went straight into service.
    StartService,
    /// Packet joined the queue.
    Queued,
    /// Queue full; packet dropped.
    Dropped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::units::MSS;

    fn pkt(flow: u32, seq: u64) -> Packet {
        Packet {
            flow: FlowId(flow),
            seq,
            size: MSS,
        }
    }

    fn queue(capacity_pkts: u64) -> DropTailQueue {
        DropTailQueue::new(Rate::from_mbps(12.0), capacity_pkts * MSS, 2)
    }

    #[test]
    fn idle_link_starts_service_immediately() {
        let mut q = queue(2);
        assert_eq!(q.offer(SimTime::ZERO, pkt(0, 0)), Offer::StartService);
        assert_eq!(q.queued_bytes(), 0);
        assert!(q.link_busy());
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut q = queue(2);
        let t = SimTime::ZERO;
        assert_eq!(q.offer(t, pkt(0, 0)), Offer::StartService);
        assert_eq!(q.offer(t, pkt(0, 1)), Offer::Queued);
        assert_eq!(q.offer(t, pkt(1, 2)), Offer::Queued);
        // Queue now holds 2 packets = capacity; next must drop.
        assert_eq!(q.offer(t, pkt(1, 3)), Offer::Dropped);
        assert_eq!(q.dropped_packets(), 1);
        assert_eq!(q.drops()[0].flow, FlowId(1));
        assert_eq!(q.queued_bytes(), 2 * MSS);
        assert_eq!(q.queued_bytes_of(FlowId(0)), MSS);
        assert_eq!(q.queued_bytes_of(FlowId(1)), MSS);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = queue(10);
        let t = SimTime::ZERO;
        assert_eq!(q.offer(t, pkt(0, 0)), Offer::StartService);
        for s in 1..5 {
            assert_eq!(q.offer(t, pkt(0, s)), Offer::Queued);
        }
        for s in 0..4 {
            let (finished, next) = q.service_complete(t);
            assert_eq!(finished.seq, s);
            assert_eq!(next, Some(MSS));
        }
        let (finished, next) = q.service_complete(t);
        assert_eq!(finished.seq, 4);
        assert_eq!(next, None);
        assert!(!q.link_busy());
    }

    #[test]
    fn occupancy_integral_is_time_weighted() {
        let mut q = queue(10);
        let t0 = SimTime::ZERO;
        assert_eq!(q.offer(t0, pkt(0, 0)), Offer::StartService);
        assert_eq!(q.offer(t0, pkt(0, 1)), Offer::Queued);
        // One MSS queued for 1 second.
        let t1 = t0 + SimDuration::from_secs_f64(1.0);
        q.finalize(t1);
        let avg = q.avg_occupancy_bytes(1.0);
        assert!((avg - MSS as f64).abs() < 1e-6, "avg={avg}");
        let avg0 = q.avg_occupancy_bytes_of(FlowId(0), 1.0);
        assert!((avg0 - MSS as f64).abs() < 1e-6);
        let avg1 = q.avg_occupancy_bytes_of(FlowId(1), 1.0);
        assert!(avg1.abs() < 1e-9);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut q = queue(5);
        let t = SimTime::ZERO;
        assert_eq!(q.offer(t, pkt(0, 0)), Offer::StartService);
        for s in 1..=5 {
            assert_eq!(q.offer(t, pkt(0, s)), Offer::Queued);
        }
        assert_eq!(q.peak_bytes(), 5 * MSS);
    }

    #[test]
    #[should_panic]
    fn service_complete_on_idle_link_panics() {
        let mut q = queue(1);
        let _ = q.service_complete(SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn occupancy_of_a_grown_slot_panics() {
        let mut q = queue(4);
        q.grow_to(5);
        let _ = q.avg_occupancy_bytes_of(FlowId(3), 0.0);
    }

    /// Reference occupancy integrator over every slot: on each advance
    /// `acc_i += b_i * dt` for all slots, `b_i` read from the per-slot
    /// byte counters (exact as f64).
    struct RefIntegrals {
        last: SimTime,
        total: f64,
        per_slot: Vec<f64>,
    }

    impl RefIntegrals {
        fn advance(&mut self, q: &DropTailQueue, now: SimTime) {
            let elapsed = now.saturating_since(self.last);
            if elapsed.as_nanos() == 0 {
                return;
            }
            let dt = elapsed.as_secs_f64();
            self.last = now;
            self.total += q.queued_bytes() as f64 * dt;
            for (i, acc) in self.per_slot.iter_mut().enumerate() {
                *acc += q.queued_bytes_of(FlowId(i as u32)) as f64 * dt;
            }
        }

        /// The queue's averages equal the reference's, bit for bit, for
        /// the total and each of the `k` built-for flows.
        fn assert_matches(&self, q: &DropTailQueue, k: usize) {
            let window = 0.37;
            let bits = |integral: f64| (integral / window).to_bits();
            assert_eq!(q.avg_occupancy_bytes(window).to_bits(), bits(self.total));
            for f in 0..k {
                assert_eq!(
                    q.avg_occupancy_bytes_of(FlowId(f as u32), window).to_bits(),
                    bits(self.per_slot[f]),
                    "flow {f}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// A queue built for `k` flows, then grown to hundreds of
        /// workload slots (some recycled) under a random stream of
        /// offers, dequeues, outages and time steps, reports every
        /// built-for flow's occupancy bit for bit as the all-slot
        /// reference does, and its integral storage never grows.
        #[test]
        fn built_for_integrals_match_an_all_slot_integrator(
            shape in (1usize..12, 2u64..40, 0u8..3),
            ops in proptest::prop::collection::vec(
                (0u8..8, 0u32..u32::MAX, 0u64..5_000_000),
                50..400,
            ),
        ) {
            let (k, capacity_pkts, discipline) = shape;
            let rate = Rate::from_mbps(12.0);
            let capacity = capacity_pkts * MSS;
            let discipline = match discipline {
                0 => QueueDiscipline::DropTail,
                1 => QueueDiscipline::Red(crate::aqm::RedConfig::for_capacity(capacity)),
                _ => QueueDiscipline::Codel(crate::aqm::CodelConfig::default()),
            };
            let mut q = DropTailQueue::with_discipline(rate, capacity, k, discipline);
            let mut r = RefIntegrals { last: SimTime::ZERO, total: 0.0, per_slot: vec![0.0; k] };
            let mut now = SimTime::ZERO;
            let mut pauses = 0u32;
            let mut seq = 0u64;
            for (op, a, b) in ops {
                let slots = r.per_slot.len();
                match op {
                    0..=2 => {
                        let size = [MSS, MSS, 1, 52, 700][b as usize % 5];
                        // Half the offers go to a built-for flow, which
                        // would otherwise be a few of hundreds of slots.
                        let span = if a % 2 == 0 { k } else { slots } as u32;
                        let pkt = Packet { flow: FlowId(a / 2 % span), seq, size };
                        seq += 1;
                        r.advance(&q, now);
                        q.offer(now, pkt);
                    }
                    3 if q.link_busy() => {
                        r.advance(&q, now);
                        q.service_complete(now);
                    }
                    4 => now += SimDuration(b),
                    5 if slots < 512 => {
                        let n = slots + 1 + a as usize % 64;
                        q.grow_to(n);
                        r.per_slot.resize(n, 0.0);
                    }
                    6 if slots > k => {
                        let slot = FlowId((k + a as usize % (slots - k)) as u32);
                        if q.queued_bytes_of(slot) == 0 && q.in_service_flow() != Some(slot) {
                            q.reset_flow_slot(slot);
                        }
                    }
                    7 if pauses > 0 && b % 2 == 0 => {
                        if pauses == 1 && !q.link_busy() {
                            r.advance(&q, now);
                        }
                        pauses -= 1;
                        q.resume(now);
                    }
                    7 => {
                        r.advance(&q, now);
                        q.pause(now);
                        pauses += 1;
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(q.per_flow_integral.len(), k);
                proptest::prop_assert_eq!(q.per_flow_bytes_f64.len(), k);
                r.assert_matches(&q, k);
            }
            now += SimDuration::from_millis(3);
            r.advance(&q, now);
            q.finalize(now);
            r.assert_matches(&q, k);
        }
    }
}
