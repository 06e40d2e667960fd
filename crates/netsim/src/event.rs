//! The discrete-event engine: a time-ordered queue of simulation events.
//!
//! Events are ordered by `(time, insertion sequence)`, so simultaneous
//! events fire in insertion order and every run is deterministic.
//!
//! # Engine
//!
//! [`EventQueue`] is a calendar queue (a timer wheel with an overflow
//! level): simulated time is divided into ticks of `2^TICK_SHIFT`
//! nanoseconds, and a ring of `NUM_BUCKETS` buckets holds the pending
//! events of the next `NUM_BUCKETS` ticks. Scheduling within the ring is
//! an array index plus an inline-slot (or spill `Vec`) write; popping
//! jumps straight to the next occupied tick by scanning a one-bit-per-
//! bucket occupancy bitmap a word at a time. Events beyond the ring's
//! horizon (long RTO timers, flows starting seconds in) sit in an
//! overflow min-heap that is pulled in as the wheel advances.
//!
//! A tick is ~16 µs ([`TICK_NS`]), shorter than a packet's serialization
//! time on the figures' links, so most ticks hold a single event, which
//! pops straight from its bucket. The events of a tick that holds more
//! (`active`) are drained as one sorted run: a `Vec` ordered by
//! descending `(time, seq)`, so the next event is always its last element
//! and a pop is `Vec::pop`. The bucket's events are moved in and sorted
//! once, and an event scheduled into the draining tick (or the past) is
//! inserted at its ordered place, so ties within a tick still resolve by
//! `(time, seq)`. The result is O(1) amortized schedule/pop
//! versus the O(log n) of a global heap, with no sift per event. The ring
//! spans [`HORIZON_NS`] (~67 ms) in 4096 buckets, ~230 KB, so a simulator
//! builds its queue when a run starts rather than when it is configured.
//!
//! [`BinaryHeapQueue`] is the original global-heap engine, kept as an
//! executable specification: property tests drive both engines with the
//! same schedule stream and assert identical pop sequences.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::packet::{FlowId, Packet};
use crate::time::SimTime;

/// Everything that can happen in the simulator.
#[derive(Debug, Clone)]
pub enum Event {
    /// A flow's application starts sending.
    FlowStart(FlowId),
    /// A paced flow may release its next packet.
    Pacing(FlowId),
    /// The queue slot in the payload finished serializing the packet in
    /// service. A dumbbell has one slot, `0`; a multi-hop
    /// [`crate::topo::Topology`] has one per rated link.
    LinkDequeue(u32),
    /// A packet propagating between hops of a multi-hop route reaches
    /// queue slot `link`. The packet itself rides in the event queue's
    /// payload ledger under index `pkt` (see [`EventQueue::schedule_hop`]
    /// / [`EventQueue::claim_hop`]) so `Event` stays pointer-free and
    /// small; never scheduled on a dumbbell, whose paths have no
    /// propagation before or between rated hops.
    HopArrive { link: u32, pkt: u32 },
    /// The ACK for `seq` reaches its sender (receiver behaviour — ACK per
    /// packet, immediate — is folded into scheduling this event). Only
    /// the identity travels with the event; everything else the sender
    /// needs is on its scoreboard.
    AckArrive { flow: FlowId, seq: u64 },
    /// A flow's retransmission timer may have expired (lazy-cancelled:
    /// the flow re-checks its actual deadline).
    RtoCheck(FlowId),
    /// Periodic statistics sample (queue time series).
    StatsSample,
    /// A scheduled fault fires: index into the compiled
    /// [`crate::fault::FaultSchedule`] timeline for this run.
    Fault(u32),
    /// The open-loop workload spawns its next finite flow (scheduled only
    /// when a [`crate::workload::WorkloadConfig`] is set; the handler
    /// draws the flow size and the next inter-arrival gap).
    WorkloadArrival,
}

#[derive(Debug, Clone)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Tick width: 2^14 ns ≈ 16.4 µs. Finer than the per-packet event
/// spacing of the figures' links (a 1500 B packet serializes in 240 µs at
/// 50 Mbps, 120 µs at 100 Mbps), so most buckets hold one event and pop
/// without touching the `active` run.
const TICK_SHIFT: u32 = 14;
/// Ring size (power of two). Horizon = `NUM_BUCKETS << TICK_SHIFT` ≈
/// 67 ms — wide enough that pacing, serialization and RTT-scale
/// deadlines schedule directly into the ring; RTO-scale timers take the
/// overflow heap.
const NUM_BUCKETS: usize = 4096;
/// Width of one calendar tick in nanoseconds: events whose times fall in
/// the same tick share a ring bucket.
pub const TICK_NS: u64 = 1 << TICK_SHIFT;
/// Span of the calendar ring in nanoseconds: an event scheduled this far
/// past the current tick, or farther, waits in the overflow heap.
pub const HORIZON_NS: u64 = (NUM_BUCKETS as u64) << TICK_SHIFT;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Words in the bucket-occupancy bitmap.
const WORDS: usize = NUM_BUCKETS / 64;

/// One ring slot. The first event of a tick is stored inline so the
/// overwhelmingly common singleton bucket costs one cache line and no
/// allocation; simultaneous extras spill into `rest`.
#[derive(Debug, Default)]
struct Bucket {
    head: Option<Scheduled>,
    rest: Vec<Scheduled>,
}

fn tick_of(t: SimTime) -> u64 {
    t.0 >> TICK_SHIFT
}

/// Deterministic calendar queue of [`Event`]s keyed by time.
///
/// Pops in globally ascending `(time, insertion seq)` order — bit-for-bit
/// the same order as [`BinaryHeapQueue`].
#[derive(Debug)]
pub struct EventQueue {
    /// Tick currently being drained; all its events are in `active`.
    cur_tick: u64,
    /// Events of `cur_tick` (and any scheduled into the past), sorted by
    /// descending `(time, seq)`: the next event is the last element.
    active: Vec<Scheduled>,
    /// `ring[tick & BUCKET_MASK]` holds the events of `tick`, for ticks
    /// in `(cur_tick, cur_tick + NUM_BUCKETS)`. Unsorted within a bucket.
    ring: Vec<Bucket>,
    /// Total events in `ring`.
    ring_len: usize,
    /// One bit per ring bucket, set iff the bucket is non-empty, so the
    /// wheel can jump to the next occupied tick with a word scan instead
    /// of probing every empty bucket.
    occupied: [u64; WORDS],
    /// Events at or beyond the ring horizon, min-heap by `(time, seq)`.
    /// (Tick is monotone in time, so the top is also the earliest tick.)
    overflow: BinaryHeap<Reverse<Scheduled>>,
    /// Cached tick of the overflow top (`u64::MAX` when empty), so the
    /// wheel walk's eligibility test is one compare.
    overflow_next_tick: u64,
    next_seq: u64,
    /// Payloads of pending [`Event::HopArrive`] events. Keeping the
    /// [`Packet`] here instead of inside the variant keeps `Event`
    /// small; both `Vec`s stay empty (zero allocation) unless a
    /// multi-hop topology actually schedules hop propagation.
    hop_pkts: Vec<Packet>,
    hop_free: Vec<u32>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            cur_tick: 0,
            active: Vec::new(),
            ring: (0..NUM_BUCKETS).map(|_| Bucket::default()).collect(),
            ring_len: 0,
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            overflow_next_tick: u64::MAX,
            next_seq: 0,
            hop_pkts: Vec::new(),
            hop_free: Vec::new(),
        }
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled {
            time: at,
            seq,
            event,
        };
        let tick = tick_of(s.time);
        if tick <= self.cur_tick {
            // Current tick (or a time already in the past — the heap
            // engine accepted those too, and ordering still holds because
            // every earlier tick has been fully drained).
            let pos = self.active.partition_point(|a| *a > s);
            self.active.insert(pos, s);
        } else if tick - self.cur_tick < NUM_BUCKETS as u64 {
            self.ring_insert(tick, s);
        } else {
            self.overflow_next_tick = self.overflow_next_tick.min(tick);
            self.overflow.push(Reverse(s));
        }
    }

    fn ring_insert(&mut self, tick: u64, s: Scheduled) {
        let slot = (tick & BUCKET_MASK) as usize;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        // The occupancy bit says whether `head` is taken, so the common
        // empty-bucket case only stores into the ring, never loads from it.
        if self.occupied[word] & bit == 0 {
            debug_assert!(self.ring[slot].head.is_none());
            self.ring[slot].head = Some(s);
            self.occupied[word] |= bit;
        } else {
            self.ring[slot].rest.push(s);
        }
        self.ring_len += 1;
    }

    /// The earliest tick after `cur_tick` with a non-empty ring bucket.
    /// Requires `ring_len > 0`.
    fn next_occupied_tick(&self) -> u64 {
        debug_assert!(self.ring_len > 0);
        let cur_slot = (self.cur_tick & BUCKET_MASK) as usize;
        // `cur_tick`'s own slot is always empty (its tick has drained and
        // tick `cur_tick + NUM_BUCKETS` lives in overflow), so scanning
        // from the next slot and wrapping a full circle is exhaustive.
        let start = (cur_slot + 1) & BUCKET_MASK as usize;
        let mut w = start / 64;
        let first = self.occupied[w] & (!0u64 << (start % 64));
        let slot = if first != 0 {
            w * 64 + first.trailing_zeros() as usize
        } else {
            loop {
                w = (w + 1) % WORDS;
                let word = self.occupied[w];
                if word != 0 {
                    break w * 64 + word.trailing_zeros() as usize;
                }
            }
        };
        let delta = ((slot + NUM_BUCKETS - cur_slot) & BUCKET_MASK as usize) as u64;
        self.cur_tick + delta
    }

    /// Move overflow events whose ticks have come inside the ring horizon
    /// into the ring (or straight to `active` after a jump landed on
    /// their tick). Restores the invariant `overflow ticks ≥ cur_tick +
    /// NUM_BUCKETS` … except transiently right after a horizon move,
    /// which is exactly when this is called. `active` is empty on entry.
    fn pull_overflow(&mut self) {
        debug_assert!(self.active.is_empty());
        self.overflow_next_tick = u64::MAX;
        while let Some(Reverse(s)) = self.overflow.peek() {
            let tick = tick_of(s.time);
            if tick >= self.cur_tick + NUM_BUCKETS as u64 {
                self.overflow_next_tick = tick;
                break;
            }
            let Reverse(s) = self.overflow.pop().unwrap();
            if tick <= self.cur_tick {
                // Ascending off the heap; reversed into a run below.
                self.active.push(s);
            } else {
                self.ring_insert(tick, s);
            }
        }
        self.active.reverse();
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        loop {
            if let Some(s) = self.active.pop() {
                return Some((s.time, s.event));
            }
            if self.ring_len > 0 {
                // Jump the wheel straight to the next occupied bucket.
                // Any overflow event whose tick enters the horizon as the
                // cursor moves has a tick beyond every current ring event
                // (it was ≥ the old horizon), so pulling *after* the jump
                // still places it ahead of the cursor, never behind.
                self.cur_tick = self.next_occupied_tick();
                if self.overflow_next_tick < self.cur_tick + NUM_BUCKETS as u64 {
                    self.pull_overflow();
                }
                let slot = (self.cur_tick & BUCKET_MASK) as usize;
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                let bucket = &mut self.ring[slot];
                let head = bucket.head.take().expect("occupied bit without head");
                self.ring_len -= 1 + bucket.rest.len();
                // `active` is empty here (its pop just failed) and every
                // other pending event is in a later tick, so a lone bucket
                // entry — the common case — is the global minimum.
                if bucket.rest.is_empty() {
                    return Some((head.time, head.event));
                }
                // Move the tick into the run and sort it once. `append`
                // leaves the spill its capacity. `(time, seq)` keys are
                // unique, so an unstable sort is still deterministic.
                debug_assert!(self.active.is_empty());
                self.active.push(head);
                self.active.append(&mut bucket.rest);
                self.active.sort_unstable_by(|a, b| b.cmp(a));
            } else if !self.overflow.is_empty() {
                // The wheel is empty: jump straight to the earliest
                // overflow tick and redistribute what now fits.
                self.cur_tick = self.overflow_next_tick;
                self.pull_overflow();
            } else {
                return None;
            }
        }
    }

    /// Time of the earliest pending event.
    ///
    /// O(ring scan) in the worst case — fine for assertions and tests;
    /// the hot loop only ever pops.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.active.last() {
            return Some(s.time);
        }
        if self.ring_len > 0 {
            for dt in 1..NUM_BUCKETS as u64 {
                let bucket = &self.ring[((self.cur_tick + dt) & BUCKET_MASK) as usize];
                let min = bucket
                    .head
                    .iter()
                    .chain(bucket.rest.iter())
                    .map(|s| (s.time, s.seq))
                    .min();
                if let Some(min) = min {
                    return Some(min.0);
                }
            }
        }
        self.overflow.peek().map(|Reverse(s)| s.time)
    }

    pub fn len(&self) -> usize {
        self.active.len() + self.ring_len + self.overflow.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule a [`Event::HopArrive`] at `at` delivering `packet` to
    /// queue slot `link`, stashing the packet in the payload ledger.
    pub fn schedule_hop(&mut self, at: SimTime, link: u32, packet: Packet) {
        let pkt = match self.hop_free.pop() {
            Some(i) => {
                self.hop_pkts[i as usize] = packet;
                i
            }
            None => {
                self.hop_pkts.push(packet);
                (self.hop_pkts.len() - 1) as u32
            }
        };
        self.schedule(at, Event::HopArrive { link, pkt });
    }

    /// Retrieve (and release) the payload of a popped
    /// [`Event::HopArrive`]. Each ledger index must be claimed exactly
    /// once, by the handler of the event that owns it.
    pub fn claim_hop(&mut self, pkt: u32) -> Packet {
        self.hop_free.push(pkt);
        self.hop_pkts[pkt as usize]
    }
}

/// The original engine: one global min-heap keyed by `(time, seq)`.
///
/// Retained as the executable specification of event ordering; see the
/// `event_order` property tests, which check [`EventQueue`] pops exactly
/// the sequence this does.
#[derive(Debug, Default)]
pub struct BinaryHeapQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
}

impl BinaryHeapQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled {
            time: at,
            seq,
            event,
        }));
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.time, s.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(2.0), Event::LinkDequeue(0));
        q.schedule(SimTime::from_secs_f64(1.0), Event::FlowStart(FlowId(0)));
        q.schedule(SimTime::from_secs_f64(3.0), Event::StatsSample);
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_secs_f64(1.0));
        assert!(matches!(e1, Event::FlowStart(FlowId(0))));
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_secs_f64(2.0));
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, SimTime::from_secs_f64(3.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..10 {
            q.schedule(t, Event::FlowStart(FlowId(i)));
        }
        for i in 0..10 {
            let (_, e) = q.pop().unwrap();
            match e {
                Event::FlowStart(f) => assert_eq!(f, FlowId(i)),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(
            SimTime::ZERO + SimDuration::from_millis(5),
            Event::StatsSample,
        );
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(0.005)));
    }

    #[test]
    fn interleaves_ring_and_overflow_correctly() {
        // Events straddling the ring horizon (`HORIZON_NS`, ~67 ms) and
        // inserts that arrive while earlier events are being drained.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(10.0), Event::StatsSample); // overflow
        q.schedule(SimTime::from_secs_f64(0.001), Event::FlowStart(FlowId(0))); // ring
        q.schedule(SimTime::FAR_FUTURE, Event::RtoCheck(FlowId(1))); // overflow
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(0.001));
        // Insert behind the cursor's tick but ahead of remaining events.
        q.schedule(SimTime::from_secs_f64(0.002), Event::LinkDequeue(0));
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(0.002));
        assert!(matches!(e, Event::LinkDequeue(0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(10.0));
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::FAR_FUTURE);
        assert!(matches!(e, Event::RtoCheck(FlowId(1))));
        assert!(q.pop().is_none() && q.is_empty());
    }

    #[test]
    fn len_counts_all_levels() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, Event::StatsSample); // active tick
        q.schedule(SimTime::from_secs_f64(0.01), Event::StatsSample); // ring
        q.schedule(SimTime::from_secs_f64(100.0), Event::StatsSample); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn hop_ledger_round_trips_and_reuses_slots() {
        let mut q = EventQueue::new();
        let a = Packet {
            flow: FlowId(1),
            seq: 7,
            size: 1500,
        };
        let b = Packet {
            flow: FlowId(2),
            seq: 9,
            size: 400,
        };
        q.schedule_hop(SimTime::from_secs_f64(1.0), 3, a);
        q.schedule_hop(SimTime::from_secs_f64(2.0), 1, b);
        let (_, e) = q.pop().unwrap();
        let Event::HopArrive { link, pkt } = e else {
            panic!("expected HopArrive, got {e:?}");
        };
        assert_eq!(link, 3);
        let got = q.claim_hop(pkt);
        assert_eq!((got.flow, got.seq, got.size), (a.flow, a.seq, a.size));
        // The freed ledger slot is reused by the next in-flight packet.
        let c = Packet {
            flow: FlowId(5),
            seq: 11,
            size: 1500,
        };
        q.schedule_hop(SimTime::from_secs_f64(3.0), 0, c);
        let (_, e) = q.pop().unwrap();
        let Event::HopArrive { pkt: pb, .. } = e else {
            panic!("expected HopArrive, got {e:?}");
        };
        assert_eq!(q.claim_hop(pb).seq, 9);
        let (_, e) = q.pop().unwrap();
        let Event::HopArrive { pkt: pc, .. } = e else {
            panic!("expected HopArrive, got {e:?}");
        };
        assert_eq!(pc, pkt, "freed ledger slot is recycled");
        assert_eq!(q.claim_hop(pc).seq, 11);
    }

    #[test]
    fn reference_heap_same_behavior() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_secs_f64(2.0), Event::LinkDequeue(0));
        q.schedule(SimTime::from_secs_f64(1.0), Event::StatsSample);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(1.0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(1.0));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(2.0));
        assert!(q.pop().is_none());
    }
}
