//! Lowering a validated [`Topology`] into the flat form the hot loop
//! consumes.
//!
//! The event loop never walks the topology graph. [`compile`] enumerates
//! the rated links into dense *queue slots* (one [`crate::queue::DropTailQueue`]
//! each) and flattens every route into a [`CompiledPath`]: the slot
//! sequence plus the propagation delay before, between and after the
//! serializing hops. Delay-only links contribute only to those delays —
//! they cost zero events. Every run goes through [`compile`]: a config
//! without an explicit topology is lowered to [`Topology::dumbbell`],
//! one slot with all delays zero, so its flows pay no propagation beyond
//! their own base RTT.

use std::sync::Arc;

use crate::error::ConfigError;
use crate::time::SimDuration;
use crate::topo::Topology;
use crate::units::Rate;

/// One route, flattened for the event loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPath {
    /// Queue slots of the route's rated links, in traversal order.
    /// Never empty (validation requires a rated link per route).
    pub ser: Vec<u32>,
    /// Propagation accumulated before the first rated link (leading
    /// delay-only wires).
    pub pre_delay: SimDuration,
    /// `gaps[k]`: propagation between completing service at `ser[k]`
    /// and arriving at `ser[k + 1]`'s queue (the rated link's own delay
    /// plus any delay-only wires in between). Length `ser.len() - 1`.
    pub gaps: Vec<SimDuration>,
    /// Propagation after the last rated link completes service (its own
    /// delay plus trailing delay-only wires).
    pub post_delay: SimDuration,
    /// Total one-way route propagation (`pre + gaps + post`); the
    /// reverse (ACK) path is modeled as symmetric propagation with no
    /// serialization.
    pub rev_delay: SimDuration,
}

impl CompiledPath {
    /// The slot whose queue this path's packets enter first.
    pub fn ingress_slot(&self) -> u32 {
        self.ser[0]
    }

    /// Position of `slot` along this path (routes are ≤ a handful of
    /// hops, so a linear scan beats any map).
    pub fn hop_of(&self, slot: u32) -> usize {
        self.ser
            .iter()
            .position(|&s| s == slot)
            .expect("dequeue slot not on the flow's path")
    }
}

/// A fully lowered topology, ready to instantiate queues from.
#[derive(Debug, Clone)]
pub struct CompiledTopology {
    /// Per-slot `(rate, buffer_bytes)` for queue construction, indexed
    /// by queue slot (rated links in link order).
    pub queues: Vec<(Rate, u64)>,
    /// Link index → queue slot (`None` for delay-only links).
    pub link_slot: Vec<Option<u32>>,
    /// One compiled path per route, shared by the flows on it.
    pub paths: Vec<Arc<CompiledPath>>,
    /// Slot targeted by link-level faults (outage / capacity change).
    pub fault_slot: u32,
    /// Path index for open-loop workload flows, if routed.
    pub workload_path: Option<usize>,
}

/// Validate and lower `topo`. The only error source is
/// [`Topology::validate`]; a validated spec always compiles.
pub fn compile(topo: &Topology) -> Result<CompiledTopology, ConfigError> {
    topo.validate()?;
    let mut queues = Vec::new();
    let mut link_slot = Vec::with_capacity(topo.links.len());
    for l in &topo.links {
        link_slot.push(l.rate.map(|rate| {
            queues.push((rate, l.buffer_bytes));
            (queues.len() - 1) as u32
        }));
    }
    let paths = topo
        .routes
        .iter()
        .map(|route| {
            let mut ser = Vec::new();
            // segs[k] = propagation between rated hop k-1 and rated hop
            // k (segs[0] = before the first; the last = after the last).
            let mut segs = vec![SimDuration::ZERO];
            let mut rev_delay = SimDuration::ZERO;
            for &l in route {
                let link = &topo.links[l as usize];
                rev_delay = rev_delay + link.delay;
                match link_slot[l as usize] {
                    Some(slot) => {
                        ser.push(slot);
                        segs.push(link.delay);
                    }
                    None => {
                        let last = segs.last_mut().expect("segs never empty");
                        *last = *last + link.delay;
                    }
                }
            }
            let pre_delay = segs[0];
            let post_delay = segs[ser.len()];
            let gaps = segs[1..ser.len()].to_vec();
            Arc::new(CompiledPath {
                ser,
                pre_delay,
                gaps,
                post_delay,
                rev_delay,
            })
        })
        .collect();
    let fault_slot = match topo.fault_link {
        Some(l) => link_slot[l as usize].expect("validated fault link is rated"),
        None => {
            let l = topo
                .first_rated_link(0)
                .expect("validated route 0 has a rated link");
            link_slot[l as usize].expect("first rated link has a slot")
        }
    };
    Ok(CompiledTopology {
        queues,
        link_slot,
        paths,
        fault_slot,
        workload_path: topo.workload_route.map(|r| r as usize),
    })
}

/// Route 0 of a compiled dumbbell, for unit tests that build flows
/// without a simulator.
#[cfg(test)]
pub(crate) fn dumbbell_path() -> Arc<CompiledPath> {
    let t = Topology::dumbbell(Rate::from_mbps(10.0), 30_000);
    Arc::clone(&compile(&t).expect("the dumbbell compiles").paths[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::LinkSpec;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn dumbbell_compiles_to_one_slot_with_zero_delays() {
        let t = Topology::dumbbell(Rate::from_mbps(10.0), 30_000);
        let c = compile(&t).unwrap();
        assert_eq!(c.queues.len(), 1);
        assert_eq!(c.queues[0].1, 30_000);
        assert_eq!(c.link_slot, vec![None, Some(0), None]);
        assert_eq!(c.fault_slot, 0);
        assert_eq!(c.workload_path, Some(0));
        let p = &c.paths[0];
        assert_eq!(p.ser, vec![0]);
        assert!(p.gaps.is_empty());
        assert_eq!(p.pre_delay, SimDuration::ZERO);
        assert_eq!(p.post_delay, SimDuration::ZERO);
        assert_eq!(p.rev_delay, SimDuration::ZERO);
    }

    #[test]
    fn segment_delays_split_around_rated_hops() {
        // 0 -2ms-> 1 =3ms=> 2 -1ms-> 3 =4ms=> 4   (= rated, - wire)
        let t = Topology {
            n_nodes: 5,
            links: vec![
                LinkSpec::wire(0, 1, ms(2)),
                LinkSpec::rated(1, 2, Rate::from_mbps(10.0), ms(3), 30_000),
                LinkSpec::wire(2, 3, ms(1)),
                LinkSpec::rated(3, 4, Rate::from_mbps(5.0), ms(4), 30_000),
            ],
            routes: vec![vec![0, 1, 2, 3]],
            flow_routes: Vec::new(),
            workload_route: None,
            fault_link: None,
        };
        let c = compile(&t).unwrap();
        let p = &c.paths[0];
        assert_eq!(p.ser, vec![0, 1]);
        assert_eq!(p.pre_delay, ms(2));
        assert_eq!(p.gaps, vec![ms(4)]); // link 1's 3ms + wire 2's 1ms
        assert_eq!(p.post_delay, ms(4));
        assert_eq!(p.rev_delay, ms(10));
        assert_eq!(p.ingress_slot(), 0);
        assert_eq!(p.hop_of(1), 1);
        // Default fault target: first rated link of route 0.
        assert_eq!(c.fault_slot, 0);
    }

    #[test]
    fn parking_lot_routes_share_slots() {
        let t = Topology::parking_lot(3, Rate::from_mbps(10.0), ms(2), 30_000);
        let c = compile(&t).unwrap();
        assert_eq!(c.queues.len(), 3);
        assert_eq!(c.paths[0].ser, vec![0, 1, 2]);
        assert_eq!(c.paths[0].gaps, vec![ms(2), ms(2)]);
        assert_eq!(c.paths[0].rev_delay, ms(6));
        for h in 0..3u32 {
            let p = &c.paths[1 + h as usize];
            assert_eq!(p.ser, vec![h]);
            assert_eq!(p.rev_delay, ms(2));
        }
    }

    #[test]
    fn explicit_fault_link_selects_its_slot() {
        let mut t = Topology::parking_lot(3, Rate::from_mbps(10.0), ms(2), 30_000);
        t.fault_link = Some(2);
        let c = compile(&t).unwrap();
        assert_eq!(c.fault_slot, 2);
    }

    #[test]
    fn invalid_topology_fails_compile_with_typed_error() {
        let mut t = Topology::dumbbell(Rate::from_mbps(10.0), 30_000);
        t.routes[0] = vec![0, 5];
        match compile(&t) {
            Err(ConfigError::InvalidTopology { reason }) => {
                assert!(reason.contains("missing link"), "{reason}")
            }
            other => panic!("expected InvalidTopology, got {other:?}"),
        }
    }
}
