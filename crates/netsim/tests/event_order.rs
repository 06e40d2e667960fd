//! Differential property tests for the event queue engines.
//!
//! The calendar [`EventQueue`] is a performance rewrite of the original
//! [`BinaryHeapQueue`], which is kept in-tree as the executable
//! specification. Determinism of every simulation hinges on both popping
//! the exact same `(time, insertion-seq)` order, so these tests drive the
//! two engines through identical schedule/pop streams — same-tick bursts,
//! multi-event ticks drained as one sorted run, schedules into the tick
//! being drained, cross-bucket gaps, and far-future RTO-style deadlines
//! that land in the overflow level — and require identical output at
//! every step.

use bbrdom_netsim::event::{BinaryHeapQueue, Event, EventQueue, HORIZON_NS, TICK_NS};
use bbrdom_netsim::{FlowId, SimTime};
use proptest::prelude::*;

/// Events are compared by an identifying tag smuggled through the `seq`
/// field of an [`Event::AckArrive`].
fn tagged(tag: u64) -> Event {
    Event::AckArrive {
        flow: FlowId(0),
        seq: tag,
    }
}

fn tag_of(e: &Event) -> u64 {
    match e {
        Event::AckArrive { seq, .. } => *seq,
        other => panic!("unexpected event popped: {other:?}"),
    }
}

/// One interaction with both queues: schedule a tagged event at `time`,
/// or (if `time` is `None`) pop once from each and compare.
enum Op {
    Schedule(SimTime),
    Pop,
}

/// Drive both engines through `ops`, asserting identical pops, lengths,
/// and peeked times throughout, then drain both to empty.
fn assert_engines_agree(ops: impl Iterator<Item = Op>) {
    let mut cal = EventQueue::new();
    let mut heap = BinaryHeapQueue::new();
    let mut tag = 0u64;
    let pop_both = |cal: &mut EventQueue, heap: &mut BinaryHeapQueue| -> bool {
        match (cal.pop(), heap.pop()) {
            (None, None) => false,
            (Some((tc, ec)), Some((th, eh))) => {
                assert_eq!(tc, th, "pop time diverged");
                assert_eq!(tag_of(&ec), tag_of(&eh), "pop order diverged at t={tc:?}");
                true
            }
            (c, h) => panic!("one engine ran dry early: calendar={c:?} heap={h:?}"),
        }
    };
    for op in ops {
        match op {
            Op::Schedule(t) => {
                cal.schedule(t, tagged(tag));
                heap.schedule(t, tagged(tag));
                tag += 1;
            }
            Op::Pop => {
                pop_both(&mut cal, &mut heap);
            }
        }
        assert_eq!(cal.len(), heap.len());
        assert_eq!(cal.peek_time(), heap.peek_time());
    }
    while pop_both(&mut cal, &mut heap) {
        assert_eq!(cal.peek_time(), heap.peek_time());
    }
    assert!(cal.is_empty() && heap.is_empty());
}

/// Events placed exactly at the ring's edges, seen from a cursor that
/// has advanced to a tick boundary and from one mid-tick: one tick short
/// of the horizon (the last ring bucket), at it (the first overflow
/// tick), one tick past it, and one nanosecond either side of each.
#[test]
fn horizon_boundaries_match_reference() {
    for cursor in [0, 5 * TICK_NS, 5 * TICK_NS + TICK_NS / 2, HORIZON_NS] {
        let edges = [HORIZON_NS - TICK_NS, HORIZON_NS, HORIZON_NS + TICK_NS];
        let mut ops = vec![Op::Schedule(SimTime(cursor)), Op::Pop];
        for e in edges {
            for t in [e - 1, e, e + 1] {
                ops.push(Op::Schedule(SimTime(cursor + t)));
            }
        }
        // Reverse order too, so each edge is inserted after later ones.
        for e in edges.iter().rev() {
            ops.push(Op::Schedule(SimTime(cursor + e)));
        }
        assert_engines_agree(ops.into_iter());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fully mixed streams: schedule gaps drawn from five scales
    /// (same-instant, sub-tick, within the ring horizon, within a tick of
    /// its edge, beyond it) with interleaved pops.
    #[test]
    fn mixed_horizon_streams_match_reference(
        ops in prop::collection::vec(
            (0u64..5, 0u64..2_000_000_000, prop::bool::weighted(0.4)),
            1..200,
        ),
    ) {
        let mut now = 0u64;
        let stream = ops.into_iter().map(|(kind, extra, pop)| {
            if pop {
                Op::Pop
            } else {
                let gap = match kind {
                    0 => 0,
                    1 => extra % TICK_NS,
                    2 => extra % HORIZON_NS,
                    3 => HORIZON_NS - TICK_NS + extra % (2 * TICK_NS),
                    _ => HORIZON_NS + extra,
                };
                // Advance the schedule cursor so later events usually land
                // later, as in a real simulation.
                now += gap / 4;
                Op::Schedule(SimTime(now + gap))
            }
        });
        assert_engines_agree(stream);
    }

    /// Heavy tie-breaking: every event lands on one of four fixed
    /// instants inside a single tick, so FIFO order among equal
    /// timestamps is the only thing distinguishing a correct pop order.
    #[test]
    fn same_tick_bursts_match_reference(
        ops in prop::collection::vec((0u64..4, prop::bool::weighted(0.3)), 1..150),
    ) {
        let stream = ops.into_iter().map(|(slot, pop)| {
            if pop {
                Op::Pop
            } else {
                Op::Schedule(SimTime(1_000_000 + slot * 7))
            }
        });
        assert_engines_agree(stream);
    }

    /// RTO-style load: a dense stream of near-term events with occasional
    /// deadlines ~1s out (far past the ring horizon, like the 1-second
    /// initial RTO check), so events must migrate overflow → ring →
    /// active exactly when the wheel reaches them.
    #[test]
    fn far_future_deadlines_match_reference(
        ops in prop::collection::vec(
            (0u64..500_000, prop::bool::weighted(0.1), prop::bool::weighted(0.5)),
            1..200,
        ),
    ) {
        let mut now = 0u64;
        let stream = ops.into_iter().flat_map(|(gap, far, pop)| {
            now += gap / 2;
            let t = if far {
                SimTime(now + 1_000_000_000 + gap)
            } else {
                SimTime(now + gap)
            };
            let mut step = vec![Op::Schedule(t)];
            if pop {
                step.push(Op::Pop);
            }
            step
        });
        assert_engines_agree(stream);
    }

    /// Multi-event ticks: bursts of 1–300 events, each into one tick a
    /// few ticks ahead of the last, with times drawn from four instants
    /// inside that tick, so most events tie exactly with many others and
    /// a bucket's spill holds them out of time order. Pops between bursts
    /// drain some ticks part-way, so later bursts also land in the tick
    /// being drained and in ticks already passed.
    #[test]
    fn multi_event_ticks_match_reference(
        bursts in prop::collection::vec(
            (0u64..3, prop::collection::vec(0u64..4, 1..301), 0usize..80),
            1..6,
        ),
    ) {
        let mut ops = Vec::new();
        for (i, (ahead, instants, pops)) in bursts.into_iter().enumerate() {
            let tick_start = (i as u64 * 2 + ahead) * TICK_NS;
            for k in instants {
                ops.push(Op::Schedule(SimTime(tick_start + k * (TICK_NS / 4) + 7)));
            }
            ops.extend((0..pops).map(|_| Op::Pop));
        }
        assert_engines_agree(ops.into_iter());
    }

    /// Schedules into the tick being drained. A burst fills tick 10 at
    /// four instants (with a lone event in an earlier tick, so the cursor
    /// arrives from behind, and one in the next tick) and is popped
    /// part-way; then each step schedules into a tick already passed, or
    /// into tick 10 earlier than every pending event, at a pending
    /// instant, just after one, or later than all, with pops interleaved.
    #[test]
    fn schedules_into_draining_tick_match_reference(
        burst in prop::collection::vec(0u64..4, 2..301),
        drained in 1usize..300,
        steps in prop::collection::vec(
            (0u64..5, 0u64..4, prop::bool::weighted(0.4)),
            1..120,
        ),
    ) {
        const TICK: u64 = 10;
        let start = TICK * TICK_NS;
        let instant = |k: u64| start + TICK_NS / 8 + k * (TICK_NS / 5);
        let mut ops = vec![
            Op::Schedule(SimTime((TICK - 3) * TICK_NS + 5)),
            Op::Schedule(SimTime((TICK + 1) * TICK_NS + 5)),
        ];
        let n = burst.len();
        ops.extend(burst.into_iter().map(|k| Op::Schedule(SimTime(instant(k)))));
        // The lone earlier event, then part of the burst.
        ops.extend((0..1 + drained.min(n - 1)).map(|_| Op::Pop));
        for (kind, k, pop) in steps {
            let t = match kind {
                0 => (TICK - 1 - k) * TICK_NS + k * 11,
                1 => start + k,
                2 => instant(k),
                3 => instant(k) + 1,
                _ => start + TICK_NS - 1 - k,
            };
            ops.push(Op::Schedule(SimTime(t)));
            if pop {
                ops.push(Op::Pop);
            }
        }
        assert_engines_agree(ops.into_iter());
    }
}
