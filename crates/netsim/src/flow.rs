//! Flow endpoints: a backlogged sender with SACK-style loss detection,
//! fast retransmit, RTO fallback, optional pacing — plus the (trivial)
//! receiver, folded into the same struct.
//!
//! The transport is deliberately a *minimal faithful* TCP data path:
//!
//! * per-packet ACKs (equivalent to SACK with no ACK compression),
//! * dup-threshold (3) loss marking — exact in this topology because the
//!   bottleneck is FIFO, so per-flow delivery is in order and a gap in the
//!   ACK stream can only mean a drop,
//! * at most one congestion event per round trip (fast-recovery
//!   semantics: losses of packets sent before the last back-off do not
//!   back off again),
//! * RTO (`srtt + 4·rttvar`, floored) as the deadlock-free fallback when
//!   an entire window is lost.
//!
//! Sequence numbers are dense (0, 1, 2, …), so the sender's scoreboard is
//! a `Scoreboard` ring buffer indexed by `seq - head_seq` rather than a
//! search tree: insert, remove and the common in-order ACK are O(1).
//! Dup-ACK loss marking never scans the window: the scoreboard keeps the
//! unmarked original transmissions below the highest ACK so far (each
//! slot is classified once, as that front passes it) and the in-flight
//! retransmissions in send order, and an ACK visits only entries whose
//! dup count it can change, plus stale entries it drops. Each
//! transmission is visited O(1) times in total (≤ `DUP_THRESH` counted
//! passes, one classification, one removal), so marking costs amortized
//! O(1) per ACK however deep the queue inflates the window (a scan up
//! from the head would cost O(window) per ACK while a hole pins it).
//! The retransmission queue is a sorted `VecDeque` (loss bursts are small
//! and nearly sorted), and the receiver's out-of-order set is a window
//! bitmap offset by `rcv_next`.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cc::{AckSample, CongestionControl, FlowView};
use crate::event::{Event, EventQueue};
use crate::packet::{FlowId, Packet};
use crate::queue::{DropTailQueue, Offer};
use crate::routing::CompiledPath;
use crate::stats::FlowStats;
use crate::time::{SimDuration, SimTime};

/// Minimum retransmission timeout. Linux uses 200 ms; we keep that floor.
const MIN_RTO: SimDuration = SimDuration(200_000_000);
/// Maximum retransmission timeout.
const MAX_RTO: SimDuration = SimDuration(60_000_000_000);
/// Dup-ACK threshold for loss marking.
const DUP_THRESH: u8 = 3;

/// Scoreboard entry for one outstanding sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SentPacket {
    size: u64,
    sent_time: SimTime,
    /// Monotonic per-flow transmission counter. Dup-ACK loss marking is
    /// RACK-like: an ACK only bumps the dup counter of packets that were
    /// transmitted *before* the ACKed packet, so a retransmission is never
    /// spuriously re-marked by ACKs of data sent before it.
    txid: u64,
    is_retransmit: bool,
    delivered_at_send: u64,
    delivered_time_at_send: SimTime,
    /// Number of later-sequence packets ACKed since this was sent.
    dup_count: u8,
    /// Declared lost, awaiting (or undergoing) retransmission.
    marked_lost: bool,
}

/// The sender's outstanding-packet table, as a ring buffer over the
/// contiguous sequence range `[head_seq, head_seq + slots.len())`, plus
/// the two lists dup-ACK marking walks instead of the window.
///
/// Invariant: when non-empty, the front slot is occupied (`head_seq` is
/// the lowest outstanding sequence), so "anything outstanding below X?"
/// is a single comparison.
#[derive(Debug, Default)]
struct Scoreboard {
    head_seq: u64,
    slots: VecDeque<Option<SentPacket>>,
    outstanding: usize,
    /// One past the highest sequence ACKed so far. Slots below it have
    /// been classified into `holes` exactly once.
    ack_front: u64,
    /// `(txid, seq)` of the original transmissions that were outstanding
    /// and unmarked when `ack_front` passed them, ascending by `seq`.
    /// Entries since ACKed or marked go stale and are dropped when a walk
    /// reaches them.
    holes: VecDeque<(u64, u64)>,
    /// `(txid, seq)` of every retransmission sent since the last RTO, in
    /// send (= `txid`) order; stale entries are dropped the same way.
    rtx_sent: VecDeque<(u64, u64)>,
    /// Test hook: mark losses with the reference window scan instead.
    #[cfg(test)]
    linear_marking: bool,
    /// Test hook: entries (slots or list entries) loss marking examined.
    #[cfg(test)]
    mark_visits: u64,
}

/// One more packet sent later has been ACKed past `p`: bump its dup count
/// and mark it lost at the threshold. True when this call marked it.
fn pass_over(p: &mut SentPacket) -> bool {
    p.dup_count = p.dup_count.saturating_add(1);
    p.marked_lost = p.dup_count >= DUP_THRESH;
    p.marked_lost
}

impl Scoreboard {
    fn is_empty(&self) -> bool {
        self.outstanding == 0
    }

    /// Lowest outstanding sequence number (meaningless when empty).
    fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Insert `seq`: either the next new sequence (appended) or a
    /// retransmission replacing its marked-lost entry in place.
    fn insert(&mut self, seq: u64, p: SentPacket) {
        if p.is_retransmit {
            self.rtx_sent.push_back((p.txid, seq));
        }
        if self.slots.is_empty() {
            self.head_seq = seq;
            self.slots.push_back(Some(p));
            self.outstanding += 1;
            return;
        }
        debug_assert!(seq >= self.head_seq, "sequence below scoreboard head");
        let idx = (seq - self.head_seq) as usize;
        if idx == self.slots.len() {
            self.slots.push_back(Some(p));
            self.outstanding += 1;
        } else {
            let slot = &mut self.slots[idx];
            debug_assert!(slot.is_some(), "retransmit must replace a live entry");
            if slot.is_none() {
                self.outstanding += 1;
            }
            *slot = Some(p);
        }
    }

    /// Remove and return the entry for `seq`, advancing the head past any
    /// leading hole it opens.
    fn remove(&mut self, seq: u64) -> Option<SentPacket> {
        if seq < self.head_seq {
            return None;
        }
        let idx = (seq - self.head_seq) as usize;
        if idx >= self.slots.len() {
            return None;
        }
        let taken = self.slots[idx].take();
        if taken.is_some() {
            self.outstanding -= 1;
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.head_seq += 1;
            }
        }
        taken
    }

    /// Dup-threshold loss marking for an ACK of `seq` (already removed)
    /// whose transmission was `acked_txid`: every outstanding, unmarked
    /// packet below `seq` that was sent before it gains one dup count,
    /// and `lost(seq, size)` is called for each one this marks lost.
    ///
    /// Originals are sent in sequence order, so every original below
    /// `seq` was sent before the ACKed transmission (its own original
    /// included): the live entries of `holes` below `seq` all qualify.
    /// A retransmission qualifies when its `txid` is below `acked_txid`,
    /// so the `rtx_sent` walk stops at the first later one. A walk drops
    /// the entries it finds stale or marks lost, and each entry is counted
    /// at most `DUP_THRESH` times, so the cost is amortized O(1) per
    /// transmission rather than O(window) per ACK. (The one exception, a
    /// retransmission stepped over by the ACK of a lower sequence sent
    /// after it, needs a retransmission to be lost again.)
    fn mark_passed(&mut self, seq: u64, acked_txid: u64, mut lost: impl FnMut(u64, u64)) {
        #[cfg(test)]
        if self.linear_marking {
            return self.mark_passed_linear(seq, acked_txid, lost);
        }
        let head = self.head_seq;
        if seq >= self.ack_front {
            let end = head + self.slots.len() as u64;
            for s in self.ack_front.max(head)..seq.min(end) {
                #[cfg(test)]
                {
                    self.mark_visits += 1;
                }
                if let Some(p) = &self.slots[(s - head) as usize] {
                    if !p.is_retransmit && !p.marked_lost {
                        self.holes.push_back((p.txid, s));
                    }
                }
            }
            self.ack_front = seq + 1;
        }
        // Pass over `(txid, s)` if it still names an outstanding, unmarked
        // transmission, reporting it if that marks it lost. Returns whether
        // the entry stays listed.
        let slots = &mut self.slots;
        let mut pass = |txid: u64, s: u64| -> bool {
            let slot = s
                .checked_sub(head)
                .and_then(|idx| slots.get_mut(idx as usize));
            match slot.and_then(Option::as_mut) {
                Some(p) if p.txid == txid && !p.marked_lost => {
                    let marked = pass_over(p);
                    if marked {
                        lost(s, p.size);
                    }
                    !marked
                }
                _ => false,
            }
        };
        let mut i = 0;
        while let Some(&(txid, s)) = self.holes.get(i) {
            if s >= seq {
                break;
            }
            #[cfg(test)]
            {
                self.mark_visits += 1;
            }
            if pass(txid, s) {
                i += 1;
            } else {
                self.holes.remove(i);
            }
        }
        let mut i = 0;
        while let Some(&(txid, s)) = self.rtx_sent.get(i) {
            if txid >= acked_txid {
                break;
            }
            #[cfg(test)]
            {
                self.mark_visits += 1;
            }
            // Sent before the ACKed packet but above it: not passed.
            if s >= seq || pass(txid, s) {
                i += 1;
            } else {
                self.rtx_sent.remove(i);
            }
        }
    }

    /// RTO: mark every outstanding, unmarked packet lost, calling
    /// `lost(seq, size)` for each. Nothing is left for dup marking to
    /// count, so both lists are emptied.
    fn mark_all_lost(&mut self, mut lost: impl FnMut(u64, u64)) {
        self.holes.clear();
        self.rtx_sent.clear();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(p) = slot {
                if !p.marked_lost {
                    p.marked_lost = true;
                    lost(self.head_seq + idx as u64, p.size);
                }
            }
        }
    }

    /// Reference oracle for [`Scoreboard::mark_passed`]: the window scan
    /// it replaced, which examines every slot from the head up to `seq`.
    #[cfg(test)]
    fn mark_passed_linear(&mut self, seq: u64, acked_txid: u64, mut lost: impl FnMut(u64, u64)) {
        let upto = (seq.saturating_sub(self.head_seq) as usize).min(self.slots.len());
        for idx in 0..upto {
            self.mark_visits += 1;
            if let Some(p) = self.slots[idx].as_mut() {
                if p.marked_lost || p.txid >= acked_txid {
                    continue;
                }
                if pass_over(p) {
                    lost(self.head_seq + idx as u64, p.size);
                }
            }
        }
    }
}

/// Time to release one `mss`-byte packet at `rate` bytes/sec.
fn pacing_gap(mss: u64, rate: f64) -> SimDuration {
    debug_assert!(rate > 0.0);
    SimDuration::from_secs_f64(mss as f64 / rate)
}

/// Insert `seq` into the sorted retransmission queue.
fn rtx_insert(queue: &mut VecDeque<u64>, seq: u64) {
    match queue.back() {
        // Losses are mostly marked in ascending order, so the common
        // case is a plain append.
        Some(&last) if last < seq => queue.push_back(seq),
        None => queue.push_back(seq),
        _ => match queue.binary_search(&seq) {
            Ok(_) => debug_assert!(false, "sequence queued for rtx twice"),
            Err(pos) => queue.insert(pos, seq),
        },
    }
}

/// Snapshot of the RTO-computation inputs at a deferred [`Flow::arm_rto`].
#[derive(Debug, Clone, Copy)]
struct RtoArm {
    at: SimTime,
    srtt: Option<f64>,
    rttvar: f64,
    backoff: u32,
}

/// One flow: sender state machine plus receiver bookkeeping.
pub struct Flow {
    pub id: FlowId,
    mss: u64,
    cc: Box<dyn CongestionControl>,
    /// Cached [`CongestionControl::is_open_loop`]: skip assembling the
    /// per-ACK sample/view when the CC ignores feedback entirely.
    cc_open_loop: bool,
    /// `cc.cwnd_bytes()` and `cc.pacing_rate()`, copied after every
    /// `&mut` callback (see [`Flow::sync_cc`]). A CC changes state only
    /// inside its callbacks, so the copies are exact, and the send loop
    /// and the cwnd integral read them instead of a virtual call (which
    /// for most CCAs rounds an `f64` on every read).
    cwnd: u64,
    pacing: Option<f64>,
    /// The spacing `mss / pacing` as a [`SimDuration`], recomputed only
    /// when the pacing rate changes (it holds for many sends).
    pacing_gap: Option<SimDuration>,
    /// One-way propagation delay, bottleneck → receiver.
    pub prop_fwd: SimDuration,
    /// One-way propagation delay, receiver → sender (ACK path).
    pub prop_rev: SimDuration,
    pub start_time: SimTime,
    started: bool,
    /// Stop after this many payload bytes (None = backlogged forever).
    byte_limit: Option<u64>,
    /// When the last payload byte was delivered (finite flows only).
    completion_time: Option<SimTime>,
    /// Dismantled after delivering its byte limit (see [`Flow::teardown`]):
    /// pending events become no-ops and stats are frozen.
    torn_down: bool,
    /// Completion edge not yet observed by the simulator's event loop
    /// (consumed by [`Flow::take_just_completed`]).
    just_completed: bool,
    /// `RtoCheck` events scheduled but not yet fired for this flow.
    rto_checks_pending: u32,
    /// `AckArrive` events scheduled but not yet fired (maintained by the
    /// simulator's event loop via [`Flow::note_ack_scheduled`]).
    acks_inflight: u32,
    /// The flow's route through the compiled [`crate::topo::Topology`]
    /// (on a dumbbell: queue slot 0, zero extra propagation).
    path: Arc<CompiledPath>,
    /// `HopArrive` events in flight for this flow (packets propagating
    /// between hops); part of the quiescence test for slot recycling.
    hops_in_flight: u32,
    /// Test hook: keep the pre-fix behavior (completed flows stay live)
    /// so the event-count regression test has a baseline to compare to.
    #[cfg(test)]
    pub(crate) teardown_disabled: bool,

    // --- sender scoreboard ---
    next_seq: u64,
    next_txid: u64,
    unacked: Scoreboard,
    /// Lost sequences awaiting retransmission, ascending.
    rtx_queue: VecDeque<u64>,
    inflight_bytes: u64,
    delivered_bytes: u64,
    delivered_time: SimTime,
    /// Sequence number that must be exceeded by a loss to start a new
    /// congestion event (the `next_seq` at the previous event).
    recovery_end: u64,
    in_recovery: bool,

    // --- RTT estimation ---
    srtt: Option<f64>,
    /// `srtt` pre-converted to a [`SimDuration`] (kept in lockstep), so
    /// building a [`FlowView`] per CC callback does no float→ns rounding.
    srtt_dur: Option<SimDuration>,
    rttvar: f64,
    min_rtt: Option<SimDuration>,

    // --- timers ---
    rto_deadline: SimTime,
    /// A deferred re-arm whose deadline has not been computed yet; when
    /// set it supersedes `rto_deadline` (see [`Flow::arm_rto`]).
    rto_lazy: Option<RtoArm>,
    rto_backoff: u32,
    next_rto_check: SimTime,
    pacing_release: SimTime,
    pacing_event_pending: bool,

    // --- receiver ---
    rcv_next: u64,
    /// Window bitmap: `rcv_ooo[i]` ⇔ sequence `rcv_next + i` received
    /// out of order. Index 0 is always false (else `rcv_next` advances).
    rcv_ooo: VecDeque<bool>,

    pub stats: FlowStats,
}

impl Flow {
    /// A flow with base RTT `base_rtt` that sends over `path` from
    /// `start_time` on.
    pub fn new(
        id: FlowId,
        cc: Box<dyn CongestionControl>,
        mss: u64,
        base_rtt: SimDuration,
        start_time: SimTime,
        path: Arc<CompiledPath>,
    ) -> Self {
        let cc_open_loop = cc.is_open_loop();
        let (cwnd, pacing) = (cc.cwnd_bytes(), cc.pacing_rate());
        let pacing_gap = pacing.map(|rate| pacing_gap(mss, rate));
        // Split the base RTT between the forward (data) and reverse (ACK)
        // paths; the split is arbitrary as long as the sum is the base RTT.
        let prop_fwd = SimDuration(base_rtt.0 / 2);
        let prop_rev = SimDuration(base_rtt.0 - prop_fwd.0);
        Flow {
            id,
            mss,
            cc,
            cc_open_loop,
            cwnd,
            pacing,
            pacing_gap,
            prop_fwd,
            prop_rev,
            start_time,
            started: false,
            byte_limit: None,
            completion_time: None,
            torn_down: false,
            just_completed: false,
            rto_checks_pending: 0,
            acks_inflight: 0,
            path,
            hops_in_flight: 0,
            #[cfg(test)]
            teardown_disabled: false,
            next_seq: 0,
            next_txid: 0,
            unacked: Scoreboard::default(),
            rtx_queue: VecDeque::new(),
            inflight_bytes: 0,
            delivered_bytes: 0,
            delivered_time: SimTime::ZERO,
            recovery_end: 0,
            in_recovery: false,
            srtt: None,
            srtt_dur: None,
            rttvar: 0.0,
            min_rtt: None,
            rto_deadline: SimTime::FAR_FUTURE,
            rto_lazy: None,
            rto_backoff: 0,
            next_rto_check: SimTime::FAR_FUTURE,
            pacing_release: SimTime::ZERO,
            pacing_event_pending: false,
            rcv_next: 0,
            rcv_ooo: VecDeque::new(),
            stats: FlowStats::default(),
        }
    }

    /// The flow's base RTT (propagation only).
    pub fn base_rtt(&self) -> SimDuration {
        self.prop_fwd + self.prop_rev
    }

    /// Limit the flow to `bytes` of payload (a finite transfer). The
    /// limit is rounded up to whole segments.
    pub fn set_byte_limit(&mut self, bytes: u64) {
        self.byte_limit = Some(bytes);
    }

    /// When the flow finished delivering its byte limit, if it has.
    pub fn completion_time(&self) -> Option<SimTime> {
        self.completion_time
    }

    /// True when a finite flow has delivered everything.
    pub fn is_complete(&self) -> bool {
        self.completion_time.is_some()
    }

    /// True once `teardown` has dismantled this completed flow.
    pub fn is_torn_down(&self) -> bool {
        self.torn_down
    }

    /// Dismantle a completed flow: drop the scoreboard (with its loss
    /// marking lists), retransmission queue and receiver bitmap, zero the flight, and neutralize the
    /// timer state so any still-scheduled `RtoCheck`/`Pacing` events for
    /// this flow fire as no-ops. Stats (including the cwnd integral) are
    /// frozen as of `now`. The CC instance and `rcv_next` stay alive so
    /// auditing and duplicate detection on draining in-flight packets
    /// keep working.
    fn teardown(&mut self, now: SimTime) {
        self.integrate_cwnd(now);
        self.torn_down = true;
        self.unacked = Scoreboard::default();
        self.rtx_queue = VecDeque::new();
        self.rcv_ooo = VecDeque::new();
        self.inflight_bytes = 0;
        self.rto_deadline = SimTime::FAR_FUTURE;
        self.rto_lazy = None;
        self.next_rto_check = SimTime::FAR_FUTURE;
    }

    /// Whether any event referencing this flow is still scheduled. Used
    /// (with the queue's per-flow occupancy) to decide when a torn-down
    /// flow's slot is quiescent and safe to recycle.
    pub(crate) fn has_pending_events(&self) -> bool {
        self.pacing_event_pending
            || self.rto_checks_pending > 0
            || self.acks_inflight > 0
            || self.hops_in_flight > 0
    }

    /// The flow's compiled route.
    pub(crate) fn path(&self) -> &CompiledPath {
        &self.path
    }

    /// The queue slot this flow's packets enter first.
    pub(crate) fn ingress_slot(&self) -> u32 {
        self.path.ingress_slot()
    }

    /// A `HopArrive` for this flow was consumed (packet reached a queue).
    pub(crate) fn note_hop_arrived(&mut self) {
        self.hops_in_flight = self.hops_in_flight.saturating_sub(1);
    }

    /// A `HopArrive` for this flow was scheduled (packet left a hop).
    pub(crate) fn note_hop_scheduled(&mut self) {
        self.hops_in_flight += 1;
    }

    /// Packets currently propagating between hops (audit bookkeeping).
    pub(crate) fn hops_in_flight(&self) -> u32 {
        self.hops_in_flight
    }

    /// The simulator scheduled an `AckArrive` for this flow.
    pub(crate) fn note_ack_scheduled(&mut self) {
        self.acks_inflight += 1;
    }

    /// An `AckArrive` for this flow fired.
    pub(crate) fn note_ack_fired(&mut self) {
        self.acks_inflight = self.acks_inflight.saturating_sub(1);
    }

    /// Consume the completion edge (true exactly once, right after the
    /// byte limit is reached).
    pub(crate) fn take_just_completed(&mut self) -> bool {
        std::mem::take(&mut self.just_completed)
    }

    /// Whether new (never-sent) data remains.
    fn has_new_data(&self) -> bool {
        match self.byte_limit {
            None => true,
            Some(limit) => self.next_seq * self.mss < limit,
        }
    }

    pub fn cc_name(&self) -> &'static str {
        self.cc.name()
    }

    pub fn cc(&self) -> &dyn CongestionControl {
        &*self.cc
    }

    /// Segment size this flow sends with (audit: packet-count = bytes/mss).
    pub(crate) fn mss(&self) -> u64 {
        self.mss
    }

    pub fn inflight_bytes(&self) -> u64 {
        self.inflight_bytes
    }

    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    pub fn srtt_secs(&self) -> Option<f64> {
        self.srtt
    }

    fn view(&self) -> FlowView {
        FlowView {
            mss: self.mss,
            srtt: self.srtt_dur,
            min_rtt: self.min_rtt,
            inflight_bytes: self.inflight_bytes,
            delivered_bytes: self.delivered_bytes,
            in_recovery: self.in_recovery,
        }
    }

    /// Refresh the cached window and pacing rate after a CC callback.
    fn sync_cc(&mut self) {
        self.cwnd = self.cc.cwnd_bytes();
        let pacing = self.cc.pacing_rate();
        if pacing.map(f64::to_bits) != self.pacing.map(f64::to_bits) {
            self.pacing = pacing;
            self.pacing_gap = pacing.map(|rate| pacing_gap(self.mss, rate));
        }
    }

    /// Check that the cached window and pacing rate still match the CC
    /// (bitwise), i.e. that no state change bypassed [`Flow::sync_cc`].
    fn debug_assert_cc_synced(&self) {
        debug_assert_eq!(self.cwnd, self.cc.cwnd_bytes(), "cached cwnd is stale");
        debug_assert_eq!(
            self.pacing.map(f64::to_bits),
            self.cc.pacing_rate().map(f64::to_bits),
            "cached pacing rate is stale"
        );
        debug_assert_eq!(
            self.pacing_gap,
            self.pacing.map(|rate| pacing_gap(self.mss, rate)),
            "cached pacing gap is stale"
        );
    }

    fn integrate_cwnd(&mut self, now: SimTime) {
        // A torn-down flow's cwnd integral is frozen at completion time.
        if self.torn_down {
            return;
        }
        self.debug_assert_cc_synced();
        // Integer zero-check first: skipping the ns→secs division on
        // same-instant calls is exact (dt > 0 iff the ns delta is > 0).
        let elapsed = now.saturating_since(self.stats.last_cwnd_update);
        if elapsed.as_nanos() == 0 {
            return;
        }
        let dt = elapsed.as_secs_f64();
        let cwnd = self.cwnd;
        self.stats.cwnd_time_integral += cwnd as f64 * dt;
        self.stats.max_cwnd_bytes = self.stats.max_cwnd_bytes.max(cwnd);
        self.stats.last_cwnd_update = now;
    }

    /// Drop `seq` from the retransmission queue if present.
    fn rtx_cancel(&mut self, seq: u64) {
        if let Ok(pos) = self.rtx_queue.binary_search(&seq) {
            self.rtx_queue.remove(pos);
        }
    }

    /// Handle the flow-start event.
    pub fn on_start(&mut self, now: SimTime, queue: &mut DropTailQueue, events: &mut EventQueue) {
        self.started = true;
        self.stats.last_cwnd_update = now;
        self.try_send(now, queue, events);
    }

    /// Handle the pacing-timer event.
    pub fn on_pacing(&mut self, now: SimTime, queue: &mut DropTailQueue, events: &mut EventQueue) {
        self.pacing_event_pending = false;
        if self.torn_down {
            return;
        }
        self.try_send(now, queue, events);
    }

    /// Receiver-side bookkeeping for a delivered packet. Returns the number
    /// of *new* (non-duplicate) payload bytes, for goodput accounting.
    pub fn receiver_on_data(&mut self, seq: u64, size: u64) -> u64 {
        if seq < self.rcv_next {
            return 0; // duplicate
        }
        if seq == self.rcv_next {
            self.rcv_next += 1;
            if let Some(flag) = self.rcv_ooo.pop_front() {
                debug_assert!(!flag, "in-order slot marked out-of-order");
            }
            while self.rcv_ooo.front() == Some(&true) {
                self.rcv_ooo.pop_front();
                self.rcv_next += 1;
            }
        } else {
            let idx = (seq - self.rcv_next) as usize;
            if idx < self.rcv_ooo.len() && self.rcv_ooo[idx] {
                return 0; // duplicate
            }
            if idx >= self.rcv_ooo.len() {
                self.rcv_ooo.resize(idx + 1, false);
            }
            self.rcv_ooo[idx] = true;
        }
        size
    }

    fn rto_interval_from(srtt: Option<f64>, rttvar: f64, backoff: u32) -> SimDuration {
        let base = match srtt {
            Some(srtt) => SimDuration::from_secs_f64(srtt + 4.0 * rttvar),
            None => SimDuration::from_secs_f64(1.0),
        };
        let scaled = SimDuration(base.0.max(MIN_RTO.0).saturating_mul(1u64 << backoff.min(6)));
        scaled.min(MAX_RTO)
    }

    fn rto_interval(&self) -> SimDuration {
        Self::rto_interval_from(self.srtt, self.rttvar, self.rto_backoff)
    }

    fn arm_rto(&mut self, now: SimTime, events: &mut EventQueue) {
        if self.unacked.is_empty() {
            self.rto_deadline = SimTime::FAR_FUTURE;
            self.rto_lazy = None;
            return;
        }
        // The interval is clamped to ≥ MIN_RTO, so when the pending check
        // fires no later than `now + MIN_RTO` the new deadline cannot
        // precede it and nothing needs scheduling yet. Snapshot the
        // inputs and defer the float clamp chain to the check — the
        // common per-ACK case.
        if self.next_rto_check <= now + MIN_RTO {
            self.rto_lazy = Some(RtoArm {
                at: now,
                srtt: self.srtt,
                rttvar: self.rttvar,
                backoff: self.rto_backoff,
            });
            return;
        }
        self.rto_lazy = None;
        self.rto_deadline = now + self.rto_interval();
        if self.rto_deadline < self.next_rto_check {
            self.next_rto_check = self.rto_deadline;
            self.rto_checks_pending += 1;
            events.schedule(self.rto_deadline, Event::RtoCheck(self.id));
        }
    }

    /// Handle the (lazy-cancelled) RTO check event.
    pub fn on_rto_check(
        &mut self,
        now: SimTime,
        queue: &mut DropTailQueue,
        events: &mut EventQueue,
    ) {
        self.rto_checks_pending = self.rto_checks_pending.saturating_sub(1);
        if self.torn_down {
            return;
        }
        // Materialize a deferred re-arm before reading the deadline.
        if let Some(arm) = self.rto_lazy.take() {
            self.rto_deadline = arm.at + Self::rto_interval_from(arm.srtt, arm.rttvar, arm.backoff);
        }
        if now >= self.next_rto_check {
            self.next_rto_check = SimTime::FAR_FUTURE;
        }
        if self.unacked.is_empty() {
            return;
        }
        if now < self.rto_deadline {
            // Deadline moved later since this check was scheduled.
            if self.rto_deadline < self.next_rto_check {
                self.next_rto_check = self.rto_deadline;
                self.rto_checks_pending += 1;
                events.schedule(self.rto_deadline, Event::RtoCheck(self.id));
            }
            return;
        }
        // Genuine timeout: every outstanding packet is presumed lost.
        self.stats.rtos += 1;
        self.rto_backoff += 1;
        let (inflight, rtx_queue, stats) = (
            &mut self.inflight_bytes,
            &mut self.rtx_queue,
            &mut self.stats,
        );
        self.unacked.mark_all_lost(|seq, size| {
            *inflight = inflight.saturating_sub(size);
            rtx_insert(rtx_queue, seq);
            stats.lost_packets += 1;
        });
        self.in_recovery = true;
        self.recovery_end = self.next_seq;
        self.integrate_cwnd(now);
        if !self.cc_open_loop {
            let view = self.view();
            self.cc.on_rto(now, &view);
            self.sync_cc();
        }
        self.arm_rto(now, events);
        self.try_send(now, queue, events);
    }

    /// Handle an arriving ACK for sequence `seq`.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        seq: u64,
        queue: &mut DropTailQueue,
        events: &mut EventQueue,
    ) {
        // Stats (including `spurious_acks`) are frozen after teardown;
        // late ACKs of draining retransmissions are simply ignored.
        if self.torn_down {
            return;
        }
        let entry = match self.unacked.remove(seq) {
            Some(e) => e,
            None => {
                // ACK for a sequence we no longer track (e.g. both the
                // original and a spurious retransmission were delivered).
                self.stats.spurious_acks += 1;
                return;
            }
        };
        if entry.marked_lost {
            // Presumed lost but actually delivered (spurious RTO): it was
            // already removed from flight; cancel the pending retransmit.
            self.rtx_cancel(seq);
        } else {
            self.inflight_bytes = self.inflight_bytes.saturating_sub(entry.size);
        }
        self.rto_backoff = 0;

        // RTT sample (Karn's rule: skip retransmitted packets).
        let mut rtt_sample = None;
        if !entry.is_retransmit {
            let rtt = now - entry.sent_time;
            rtt_sample = Some(rtt);
            let r = rtt.as_secs_f64();
            match self.srtt {
                None => {
                    self.srtt = Some(r);
                    self.rttvar = r / 2.0;
                }
                Some(srtt) => {
                    self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                    self.srtt = Some(0.875 * srtt + 0.125 * r);
                }
            }
            self.srtt_dur = self.srtt.map(SimDuration::from_secs_f64);
            self.min_rtt = Some(match self.min_rtt {
                None => rtt,
                Some(m) => m.min(rtt),
            });
            self.stats.rtt_sum += r;
            self.stats.rtt_samples += 1;
        }

        // Delivery-rate sample (skip retransmits).
        let mut delivery_rate = None;
        if !entry.is_retransmit {
            let delta = self.delivered_bytes + entry.size - entry.delivered_at_send;
            let interval = now
                .saturating_since(entry.delivered_time_at_send)
                .as_secs_f64();
            if interval > 0.0 {
                delivery_rate = Some(delta as f64 / interval);
            }
        }
        self.delivered_bytes += entry.size;
        self.delivered_time = now;

        // Dup-threshold loss marking: every still-outstanding packet below
        // this sequence that was sent earlier has now been "passed" by one
        // more ACK. After a drop the head stays pinned at the hole for a
        // whole queue-inflated RTT, so scanning the window from the head
        // would cost O(window) per ACK; the scoreboard's lists visit only
        // the packets this ACK can pass (amortized O(1) per ACK).
        let mut newly_lost = 0u64;
        let mut max_lost_seq = None;
        let (inflight, rtx_queue, stats) = (
            &mut self.inflight_bytes,
            &mut self.rtx_queue,
            &mut self.stats,
        );
        self.unacked.mark_passed(seq, entry.txid, |s, size| {
            *inflight = inflight.saturating_sub(size);
            rtx_insert(rtx_queue, s);
            stats.lost_packets += 1;
            newly_lost += size;
            max_lost_seq = max_lost_seq.max(Some(s));
        });

        // Congestion event: first loss beyond the previous recovery point.
        if let Some(lost) = max_lost_seq {
            if lost >= self.recovery_end {
                self.in_recovery = true;
                self.recovery_end = self.next_seq;
                self.stats.congestion_events += 1;
                self.stats.backoff_times.push(now);
                self.integrate_cwnd(now);
                if !self.cc_open_loop {
                    let view = self.view();
                    self.cc.on_congestion_event(now, &view);
                    self.sync_cc();
                }
            }
        }

        // Exit recovery once nothing below the recovery point is
        // outstanding.
        if self.in_recovery
            && (self.unacked.is_empty() || self.unacked.head_seq() >= self.recovery_end)
        {
            self.in_recovery = false;
        }

        self.integrate_cwnd(now);
        if !self.cc_open_loop {
            let view = self.view();
            let sample = AckSample {
                now,
                acked_bytes: entry.size,
                rtt: rtt_sample,
                delivery_rate,
                delivered_total: self.delivered_bytes,
                packet_delivered_at_send: entry.delivered_at_send,
                inflight_bytes: self.inflight_bytes,
                newly_lost_bytes: newly_lost,
            };
            self.cc.on_ack(&sample, &view);
            self.sync_cc();
        }

        if let Some(limit) = self.byte_limit {
            if self.completion_time.is_none() && self.delivered_bytes >= limit {
                self.completion_time = Some(now);
                self.just_completed = true;
                #[cfg(test)]
                let keep_alive = self.teardown_disabled;
                #[cfg(not(test))]
                let keep_alive = false;
                if !keep_alive {
                    // Returning before arm_rto/try_send is what actually
                    // deschedules the flow: the completion ACK no longer
                    // plants a pacing event, and no new RTO check is armed.
                    self.teardown(now);
                    return;
                }
            }
        }
        self.arm_rto(now, events);
        self.try_send(now, queue, events);
    }

    /// Send as much as window and pacing allow.
    pub fn try_send(&mut self, now: SimTime, queue: &mut DropTailQueue, events: &mut EventQueue) {
        if !self.started || now < self.start_time {
            return;
        }
        self.debug_assert_cc_synced();
        loop {
            if self.inflight_bytes + self.mss > self.cwnd {
                break;
            }
            if let Some(gap) = self.pacing_gap {
                if now < self.pacing_release {
                    if !self.pacing_event_pending {
                        self.pacing_event_pending = true;
                        events.schedule(self.pacing_release, Event::Pacing(self.id));
                    }
                    break;
                }
                // Space the *next* packet.
                let base = if self.pacing_release > now {
                    self.pacing_release
                } else {
                    now
                };
                self.pacing_release = base + gap;
            }

            // Retransmissions take priority over new data.
            let (seq, is_retransmit) = match self.rtx_queue.pop_front() {
                Some(s) => (s, true),
                None => {
                    if !self.has_new_data() {
                        break; // finite flow: everything has been sent
                    }
                    let s = self.next_seq;
                    self.next_seq += 1;
                    (s, false)
                }
            };
            let txid = self.next_txid;
            self.next_txid += 1;
            let entry = SentPacket {
                size: self.mss,
                sent_time: now,
                txid,
                is_retransmit,
                delivered_at_send: self.delivered_bytes,
                delivered_time_at_send: if self.delivered_time == SimTime::ZERO {
                    now
                } else {
                    self.delivered_time
                },
                dup_count: 0,
                marked_lost: false,
            };
            let was_empty = self.unacked.is_empty();
            self.unacked.insert(seq, entry);
            self.inflight_bytes += self.mss;
            self.stats.sent_bytes += self.mss;
            if is_retransmit {
                self.stats.retransmits += 1;
            }
            self.integrate_cwnd(now);

            let pkt = Packet {
                flow: self.id,
                seq,
                size: self.mss,
            };
            let (ingress, pre_delay) = (self.path.ingress_slot(), self.path.pre_delay);
            if pre_delay.as_nanos() > 0 {
                // Sender-side propagation before the first rated hop:
                // the packet crosses the leading wires as one event.
                self.hops_in_flight += 1;
                events.schedule_hop(now + pre_delay, ingress, pkt);
            } else {
                match queue.offer(now, pkt) {
                    Offer::StartService => {
                        let done = now + queue.serialization_time(pkt.size);
                        events.schedule(done, Event::LinkDequeue(ingress));
                    }
                    Offer::Queued => {}
                    Offer::Dropped => {
                        // Tail drop: discovered later via dup-ACKs or RTO.
                    }
                }
            }
            if was_empty {
                self.arm_rto(now, events);
            }
        }
    }

    /// Mean of all RTT samples, in seconds.
    pub fn mean_rtt_secs(&self) -> Option<f64> {
        if self.stats.rtt_samples == 0 {
            None
        } else {
            Some(self.stats.rtt_sum / self.stats.rtt_samples as f64)
        }
    }

    /// Final cwnd-integral update at simulation end.
    pub fn finalize(&mut self, now: SimTime) {
        self.integrate_cwnd(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn entry(txid: u64) -> SentPacket {
        SentPacket {
            size: 1500,
            sent_time: SimTime::ZERO,
            txid,
            is_retransmit: false,
            delivered_at_send: 0,
            delivered_time_at_send: SimTime::ZERO,
            dup_count: 0,
            marked_lost: false,
        }
    }

    #[test]
    fn scoreboard_inserts_removes_and_tracks_head() {
        let mut sb = Scoreboard::default();
        assert!(sb.is_empty());
        for seq in 0..5 {
            sb.insert(seq, entry(seq));
        }
        assert_eq!(sb.head_seq(), 0);
        // Remove from the middle: head unchanged, hole opens.
        assert!(sb.remove(2).is_some());
        assert_eq!(sb.head_seq(), 0);
        assert!(sb.remove(2).is_none(), "double remove yields None");
        // Remove the head: advances past the hole at 2? No — 1 is live.
        assert!(sb.remove(0).is_some());
        assert_eq!(sb.head_seq(), 1);
        // Removing 1 skips the hole at 2 and lands on 3.
        assert!(sb.remove(1).is_some());
        assert_eq!(sb.head_seq(), 3);
        assert!(sb.remove(3).is_some());
        assert!(sb.remove(4).is_some());
        assert!(sb.is_empty());
        // After draining, appending the next sequence restarts cleanly.
        sb.insert(5, entry(5));
        assert_eq!(sb.head_seq(), 5);
        assert!(!sb.is_empty());
    }

    #[test]
    fn scoreboard_retransmit_replaces_in_place() {
        let mut sb = Scoreboard::default();
        sb.insert(0, entry(0));
        sb.insert(1, entry(1));
        let replacement = SentPacket {
            txid: 9,
            is_retransmit: true,
            ..entry(0)
        };
        sb.insert(0, replacement);
        assert_eq!(sb.outstanding, 2);
        let got = sb.remove(0).unwrap();
        assert_eq!(got.txid, 9);
        assert!(got.is_retransmit);
    }

    #[test]
    fn receiver_window_bitmap_matches_set_semantics() {
        let mut f = Flow::new(
            FlowId(0),
            Box::new(crate::cc::FixedWindow::new(10_000)),
            1500,
            SimDuration::from_millis(10),
            SimTime::ZERO,
            crate::routing::dumbbell_path(),
        );
        // In-order delivery.
        assert_eq!(f.receiver_on_data(0, 1500), 1500);
        assert_eq!(f.rcv_next, 1);
        // Gap: 2 and 4 arrive before 1.
        assert_eq!(f.receiver_on_data(2, 1500), 1500);
        assert_eq!(f.receiver_on_data(4, 1500), 1500);
        assert_eq!(f.rcv_next, 1);
        // Duplicates of buffered and already-delivered data count zero.
        assert_eq!(f.receiver_on_data(2, 1500), 0);
        assert_eq!(f.receiver_on_data(0, 1500), 0);
        // Filling the hole advances through the buffered run.
        assert_eq!(f.receiver_on_data(1, 1500), 1500);
        assert_eq!(f.rcv_next, 3);
        assert_eq!(f.receiver_on_data(3, 1500), 1500);
        assert_eq!(f.rcv_next, 5);
    }

    #[test]
    fn rtx_queue_stays_sorted_under_out_of_order_marking() {
        let mut f = Flow::new(
            FlowId(0),
            Box::new(crate::cc::FixedWindow::new(10_000)),
            1500,
            SimDuration::from_millis(10),
            SimTime::ZERO,
            crate::routing::dumbbell_path(),
        );
        for s in [5u64, 7, 3, 9, 4] {
            rtx_insert(&mut f.rtx_queue, s);
        }
        f.rtx_cancel(7);
        let drained: Vec<u64> = std::iter::from_fn(|| f.rtx_queue.pop_front()).collect();
        assert_eq!(drained, vec![3, 4, 5, 9]);
    }

    /// Fixed-window CC whose window the test can change mid-run (then
    /// calling [`Flow::sync_cc`]), logging every ACK's `newly_lost_bytes`.
    struct Recorder {
        cwnd: Arc<AtomicU64>,
        newly_lost: Arc<Mutex<Vec<u64>>>,
    }

    impl CongestionControl for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn on_ack(&mut self, ack: &AckSample, _view: &FlowView) {
            self.newly_lost.lock().unwrap().push(ack.newly_lost_bytes);
        }
        fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {}
        fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {}
        fn cwnd_bytes(&self) -> u64 {
            self.cwnd.load(Ordering::Relaxed)
        }
        fn pacing_rate(&self) -> Option<f64> {
            None
        }
    }

    const PKT: u64 = 1500;

    /// One started sender with a queue that never drops (the test decides
    /// which transmissions are lost by never ACKing them).
    struct Sender {
        flow: Flow,
        queue: DropTailQueue,
        events: EventQueue,
        newly_lost: Arc<Mutex<Vec<u64>>>,
    }

    impl Sender {
        fn start(linear_marking: bool, cwnd: &Arc<AtomicU64>, byte_limit: Option<u64>) -> Self {
            let newly_lost = Arc::new(Mutex::new(Vec::new()));
            let cc = Recorder {
                cwnd: Arc::clone(cwnd),
                newly_lost: Arc::clone(&newly_lost),
            };
            let rtt = SimDuration::from_millis(10);
            let path = crate::routing::dumbbell_path();
            let mut flow = Flow::new(FlowId(0), Box::new(cc), PKT, rtt, SimTime::ZERO, path);
            flow.unacked.linear_marking = linear_marking;
            if let Some(limit) = byte_limit {
                flow.set_byte_limit(limit);
            }
            let mut s = Sender {
                flow,
                queue: DropTailQueue::new(crate::units::Rate::from_mbps(100.0), 1 << 40, 1),
                events: EventQueue::new(),
                newly_lost,
            };
            s.flow.on_start(SimTime::ZERO, &mut s.queue, &mut s.events);
            s
        }

        fn ack(&mut self, now: SimTime, seq: u64) {
            self.flow
                .on_ack(now, seq, &mut self.queue, &mut self.events);
        }

        fn send(&mut self, now: SimTime) {
            self.flow.try_send(now, &mut self.queue, &mut self.events);
        }

        fn rto(&mut self, now: SimTime) {
            self.flow
                .on_rto_check(now, &mut self.queue, &mut self.events);
        }
    }

    /// Everything dup-ACK marking decides must agree between the two.
    fn assert_same_marking(a: &Sender, b: &Sender, step: usize) {
        let (fa, fb) = (&a.flow, &b.flow);
        assert_eq!(
            fa.unacked.head_seq, fb.unacked.head_seq,
            "head, step {step}"
        );
        // Per entry: dup_count, marked_lost, txid, retransmit flag.
        assert_eq!(
            fa.unacked.slots, fb.unacked.slots,
            "scoreboard, step {step}"
        );
        assert_eq!(fa.rtx_queue, fb.rtx_queue, "rtx_queue, step {step}");
        assert_eq!(
            fa.inflight_bytes, fb.inflight_bytes,
            "inflight, step {step}"
        );
        assert_eq!(
            fa.stats.lost_packets, fb.stats.lost_packets,
            "lost, step {step}"
        );
        // The congestion-event decision and recovery state.
        assert_eq!(
            fa.stats.congestion_events, fb.stats.congestion_events,
            "step {step}"
        );
        assert_eq!(fa.in_recovery, fb.in_recovery, "in_recovery, step {step}");
        assert_eq!(
            fa.recovery_end, fb.recovery_end,
            "recovery_end, step {step}"
        );
        assert_eq!(fa.next_txid, fb.next_txid, "sends, step {step}");
        assert_eq!(
            *a.newly_lost.lock().unwrap(),
            *b.newly_lost.lock().unwrap(),
            "newly_lost per ACK, step {step}"
        );
    }

    /// Run one op stream against the list-based marking and the reference
    /// window scan side by side, comparing after every op. Ops are
    /// `(kind, x)`: deliver the ACK of an in-flight transmission (mostly
    /// the oldest, sometimes a later one: reordering), drop one, ACK an
    /// arbitrary sequence (duplicate or spurious ACKs), resize the window,
    /// or fire an RTO. Returns the fast side's flow for coverage checks.
    fn drive_against_oracle(ops: &[(u8, u64)]) -> Flow {
        let cwnd = Arc::new(AtomicU64::new(8 * PKT));
        let mut fast = Sender::start(false, &cwnd, None);
        let mut oracle = Sender::start(true, &cwnd, None);
        // Transmissions on the wire, `(txid, seq)` in send order.
        let mut wire: VecDeque<(u64, u64)> = VecDeque::new();
        let mut seen_txid = 0;
        let mut now = SimTime::ZERO;
        for (step, &(kind, x)) in ops.iter().enumerate() {
            // Pick up what the last op sent (each sequence at most once
            // per op, so the scoreboard shows every new transmission).
            let mut sent: Vec<(u64, u64)> = fast
                .flow
                .unacked
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (p.txid, fast.flow.unacked.head_seq + i as u64)))
                .filter(|&(txid, _)| txid >= seen_txid)
                .collect();
            sent.sort_unstable();
            assert_eq!(sent.len() as u64, fast.flow.next_txid - seen_txid);
            seen_txid = fast.flow.next_txid;
            wire.extend(sent);

            now += SimDuration::from_millis(1);
            match kind {
                0..=6 if !wire.is_empty() => {
                    let k = if x < 40 { 0 } else { x as usize % 4 };
                    let (_, seq) = wire.remove(k.min(wire.len() - 1)).unwrap();
                    fast.ack(now, seq);
                    oracle.ack(now, seq);
                }
                7 | 8 if !wire.is_empty() => {
                    wire.remove(x as usize % wire.len());
                }
                9 => {
                    let seq = x % (fast.flow.next_seq + 1);
                    fast.ack(now, seq);
                    oracle.ack(now, seq);
                }
                10 => {
                    // A resize outside any callback: refresh both flows'
                    // cached copies, as a callback's return would.
                    cwnd.store((3 * x + 1) * PKT, Ordering::Relaxed);
                    fast.flow.sync_cc();
                    oracle.flow.sync_cc();
                    fast.send(now);
                    oracle.send(now);
                }
                11 => {
                    // Past any armed deadline (MAX_RTO is 60 s).
                    now += SimDuration::from_secs_f64(100.0);
                    fast.rto(now);
                    oracle.rto(now);
                }
                _ => {}
            }
            assert_same_marking(&fast, &oracle, step);
        }
        fast.flow
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The list-based marking makes exactly the window scan's
        /// decisions under reordered, duplicate and spurious ACKs,
        /// retransmissions and RTOs.
        #[test]
        fn loss_marking_matches_window_scan_oracle(
            ops in proptest::prop::collection::vec((0u8..12, 0u64..64), 1..400),
        ) {
            drive_against_oracle(&ops);
        }
    }

    /// The differential streams reach every path they are meant to test.
    #[test]
    fn oracle_streams_cover_loss_retransmit_and_rto() {
        use proptest::Strategy;
        let strategy = proptest::prop::collection::vec((0u8..12, 0u64..64), 300..400);
        let (mut lost, mut rtx, mut rtos, mut congestion, mut spurious) = (0, 0, 0, 0, 0);
        for case in 0..32 {
            let ops = strategy.sample(&mut proptest::case_rng("oracle_coverage", case));
            let f = drive_against_oracle(&ops);
            lost += f.stats.lost_packets;
            rtx += f.stats.retransmits;
            rtos += f.stats.rtos;
            congestion += f.stats.congestion_events;
            spurious += f.stats.spurious_acks;
        }
        for (what, n) in [
            ("losses", lost),
            ("retransmits", rtx),
            ("RTOs", rtos),
            ("congestion events", congestion),
            ("spurious ACKs", spurious),
        ] {
            assert!(n >= 10, "only {n} {what} across the streams");
        }
    }

    /// One hole at the head of a 4,000-packet window, then 4,000 ACKs of
    /// later packets: the head stays pinned at the hole the whole time,
    /// which made the window scan examine ~n²/2 slots. The lists must
    /// stay within a small constant of the ACKs plus sends.
    #[test]
    fn loss_marking_work_is_linear_in_acks_and_sends() {
        const WINDOW: u64 = 4_000;
        let run = |linear: bool| {
            let cwnd = Arc::new(AtomicU64::new(WINDOW * PKT));
            let mut s = Sender::start(linear, &cwnd, None);
            assert_eq!(s.flow.next_seq, WINDOW);
            for seq in 1..=WINDOW {
                s.ack(SimTime(seq * 1_000), seq);
            }
            assert_eq!(
                s.flow.unacked.head_seq(),
                0,
                "hole still pinned at the head"
            );
            assert_eq!(s.flow.stats.lost_packets, 1);
            assert_eq!(s.flow.stats.retransmits, 1);
            (s.flow.unacked.mark_visits, WINDOW + s.flow.next_txid)
        };
        let (visits, acks_and_sends) = run(false);
        assert!(
            visits <= 2 * acks_and_sends,
            "{visits} marking visits for {acks_and_sends} ACKs + sends"
        );
        let (scan_visits, _) = run(true);
        assert!(
            scan_visits > 7_000_000,
            "window scan made {scan_visits} visits"
        );
    }

    /// Teardown drops the loss-marking lists along with the scoreboard.
    #[test]
    fn teardown_drops_loss_marking_lists() {
        let cwnd = Arc::new(AtomicU64::new(20 * PKT));
        let mut s = Sender::start(false, &cwnd, Some(20 * PKT));
        let mut now = SimTime::ZERO;
        let mut ack = |s: &mut Sender, seq| {
            now += SimDuration::from_millis(1);
            s.ack(now, seq);
        };
        // Seq 0 is lost and retransmitted; 19 arrives ahead of 4..=18.
        for seq in [1, 2, 3, 19, 0] {
            ack(&mut s, seq);
        }
        assert_eq!(s.flow.stats.retransmits, 1);
        for seq in 4..18 {
            ack(&mut s, seq);
        }
        assert!(!s.flow.unacked.holes.is_empty());
        assert!(!s.flow.unacked.rtx_sent.is_empty());
        ack(&mut s, 18);
        assert!(s.flow.is_torn_down());
        assert_eq!(s.flow.unacked.holes.capacity(), 0);
        assert_eq!(s.flow.unacked.rtx_sent.capacity(), 0);
    }
}
