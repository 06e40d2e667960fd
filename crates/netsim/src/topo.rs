//! Arbitrary-topology specification: nodes, directed links, static routes.
//!
//! The paper's experiments share one bottleneck queue; a [`Topology`]
//! generalizes that to a directed graph of links — each
//! either *rated* (it owns a drop-tail/AQM queue and serializes packets
//! at a fixed rate) or *delay-only* (pure propagation, no queue, no
//! events) — plus static routes that flows follow hop by hop
//! (enqueue → serialize → propagate at every rated link).
//!
//! Everything is validated up front by [`Topology::validate`], which
//! returns a typed [`ConfigError::InvalidTopology`] naming the offending
//! element instead of panicking mid-run. The validated spec is lowered
//! by [`crate::routing::compile`] into flat per-flow paths the hot loop
//! consumes. A config without a topology runs [`Topology::dumbbell`],
//! which lowers to one queue slot with zero extra delays; spelling that
//! dumbbell out explicitly gives bit-identical reports (see the
//! `topology_equivalence` suite).

use crate::error::ConfigError;
use crate::time::SimDuration;
use crate::units::Rate;

/// A directed link between two topology nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Source node index (`< Topology::n_nodes`).
    pub from: u32,
    /// Destination node index.
    pub to: u32,
    /// `Some(rate)` makes this a *rated* link: it owns a queue and
    /// serializes packets. `None` makes it delay-only: packets cross it
    /// in exactly `delay` with no queueing and no events.
    pub rate: Option<Rate>,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue capacity in bytes. Must be positive for rated links;
    /// ignored (conventionally zero) for delay-only links.
    pub buffer_bytes: u64,
}

impl LinkSpec {
    /// A rated (serializing) link.
    pub fn rated(from: u32, to: u32, rate: Rate, delay: SimDuration, buffer_bytes: u64) -> Self {
        LinkSpec {
            from,
            to,
            rate: Some(rate),
            delay,
            buffer_bytes,
        }
    }

    /// A delay-only (pure propagation) link.
    pub fn wire(from: u32, to: u32, delay: SimDuration) -> Self {
        LinkSpec {
            from,
            to,
            rate: None,
            delay,
            buffer_bytes: 0,
        }
    }
}

/// A network topology with static per-flow routing.
///
/// Units are the simulator's own ([`Rate`], [`SimDuration`], bytes);
/// the experiments layer owns the paper-unit (`mbps`/`ms`/BDP) spec and
/// lowers it to this.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of nodes; link endpoints index into `0..n_nodes`.
    pub n_nodes: u32,
    /// The directed links.
    pub links: Vec<LinkSpec>,
    /// Routes, each an ordered list of link indices forming a connected
    /// forward path (link `i`'s head is link `i+1`'s tail).
    pub routes: Vec<Vec<u32>>,
    /// Route taken by configured flow `i` (`flow_routes[i]` indexes
    /// `routes`). Empty means every flow follows route `0`. When
    /// non-empty its length must equal the flow count (checked at run
    /// setup, where the flow count is known).
    pub flow_routes: Vec<u32>,
    /// Route taken by open-loop workload flows. `None` rejects workload
    /// configs with a typed error instead of guessing.
    pub workload_route: Option<u32>,
    /// Rated link targeted by link-level faults (outages and capacity
    /// changes). `None` targets the first rated link of route `0`.
    pub fault_link: Option<u32>,
}

impl Topology {
    /// The single-bottleneck dumbbell as a 4-node / 3-link topology: a
    /// zero-delay access wire, the rated bottleneck, and a zero-delay
    /// egress wire. Compiles to one queue slot with zero extra delays
    /// and zero extra events (per-flow RTT stays on the flows
    /// themselves). A [`crate::SimConfig`] without a topology runs this.
    pub fn dumbbell(rate: Rate, buffer_bytes: u64) -> Self {
        Topology {
            n_nodes: 4,
            links: vec![
                LinkSpec::wire(0, 1, SimDuration::ZERO),
                LinkSpec::rated(1, 2, rate, SimDuration::ZERO, buffer_bytes),
                LinkSpec::wire(2, 3, SimDuration::ZERO),
            ],
            routes: vec![vec![0, 1, 2]],
            flow_routes: Vec::new(),
            workload_route: Some(0),
            fault_link: None,
        }
    }

    /// A parking-lot chain of `hops` rated links in series. Route `0`
    /// traverses the whole chain (the "long" path); route `1 + h` covers
    /// only hop `h`, for per-hop cross-traffic that shares just that
    /// bottleneck with the long flows.
    pub fn parking_lot(
        hops: u32,
        rate: Rate,
        per_hop_delay: SimDuration,
        buffer_bytes: u64,
    ) -> Self {
        let links = (0..hops)
            .map(|h| LinkSpec::rated(h, h + 1, rate, per_hop_delay, buffer_bytes))
            .collect();
        let mut routes = vec![(0..hops).collect::<Vec<u32>>()];
        routes.extend((0..hops).map(|h| vec![h]));
        Topology {
            n_nodes: hops + 1,
            links,
            routes,
            flow_routes: Vec::new(),
            workload_route: Some(0),
            fault_link: None,
        }
    }

    /// The first rated link on route `r`, if any.
    pub(crate) fn first_rated_link(&self, r: usize) -> Option<u32> {
        self.routes
            .get(r)?
            .iter()
            .copied()
            .find(|&l| self.links[l as usize].rate.is_some())
    }

    /// Structural validation. Every reachable misconfiguration returns a
    /// typed [`ConfigError::InvalidTopology`]; a `Topology` that passes
    /// compiles and runs without panicking.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |reason: String| Err(ConfigError::InvalidTopology { reason });
        if self.n_nodes < 2 {
            return bad(format!("need at least 2 nodes, got {}", self.n_nodes));
        }
        if self.links.is_empty() {
            return bad("no links".into());
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.from >= self.n_nodes || l.to >= self.n_nodes {
                return bad(format!(
                    "link {i} endpoints {}->{} outside 0..{}",
                    l.from, l.to, self.n_nodes
                ));
            }
            if l.from == l.to {
                return bad(format!("link {i} is a self-loop at node {}", l.from));
            }
            if let Some(rate) = l.rate {
                if !rate.bytes_per_sec().is_finite() || rate.bytes_per_sec() <= 0.0 {
                    return bad(format!("link {i} rate must be positive and finite"));
                }
                if l.buffer_bytes == 0 {
                    return bad(format!("rated link {i} has a zero-byte buffer"));
                }
            }
        }
        if self.routes.is_empty() {
            return bad("no routes".into());
        }
        for (r, route) in self.routes.iter().enumerate() {
            if route.is_empty() {
                return bad(format!("route {r} is empty"));
            }
            let mut visited = vec![false; self.n_nodes as usize];
            for (pos, &l) in route.iter().enumerate() {
                let Some(link) = self.links.get(l as usize) else {
                    return bad(format!(
                        "route {r} references missing link {l} (only {} links)",
                        self.links.len()
                    ));
                };
                if pos == 0 {
                    visited[link.from as usize] = true;
                } else {
                    let prev = &self.links[route[pos - 1] as usize];
                    if prev.to != link.from {
                        return bad(format!(
                            "route {r} is disconnected at hop {pos}: link {} ends at node {} \
                             but link {l} starts at node {}",
                            route[pos - 1],
                            prev.to,
                            link.from
                        ));
                    }
                }
                if visited[link.to as usize] {
                    return bad(format!("route {r} revisits node {} (cycle)", link.to));
                }
                visited[link.to as usize] = true;
            }
            if self.first_rated_link(r).is_none() {
                return bad(format!(
                    "route {r} has no rated link; nothing bounds its throughput"
                ));
            }
        }
        for (i, &fr) in self.flow_routes.iter().enumerate() {
            if fr as usize >= self.routes.len() {
                return bad(format!(
                    "flow {i} assigned to missing route {fr} (only {} routes)",
                    self.routes.len()
                ));
            }
        }
        if let Some(wr) = self.workload_route {
            if wr as usize >= self.routes.len() {
                return bad(format!("workload route {wr} does not exist"));
            }
        }
        if let Some(fl) = self.fault_link {
            let Some(link) = self.links.get(fl as usize) else {
                return bad(format!("fault link {fl} does not exist"));
            };
            if link.rate.is_none() {
                return bad(format!(
                    "fault link {fl} is delay-only; faults need a queue"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> Rate {
        Rate::from_mbps(10.0)
    }

    fn reason(t: &Topology) -> String {
        match t.validate() {
            Err(ConfigError::InvalidTopology { reason }) => reason,
            other => panic!("expected InvalidTopology, got {other:?}"),
        }
    }

    #[test]
    fn dumbbell_and_parking_lot_builders_validate() {
        Topology::dumbbell(rate(), 30_000).validate().unwrap();
        for hops in 1..=4 {
            let t = Topology::parking_lot(hops, rate(), SimDuration::from_millis(2), 30_000);
            t.validate().unwrap();
            assert_eq!(t.routes.len(), 1 + hops as usize);
            assert_eq!(t.routes[0].len(), hops as usize);
        }
    }

    #[test]
    fn missing_link_reference_is_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.routes[0] = vec![0, 9, 2];
        assert!(reason(&t).contains("missing link 9"), "{}", reason(&t));
    }

    #[test]
    fn disconnected_route_is_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.routes[0] = vec![0, 2]; // skips the 1->2 bottleneck: 0->1 then 2->3
        assert!(reason(&t).contains("disconnected"), "{}", reason(&t));
    }

    #[test]
    fn cyclic_route_is_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.links.push(LinkSpec::wire(2, 1, SimDuration::ZERO));
        t.links
            .push(LinkSpec::rated(1, 2, rate(), SimDuration::ZERO, 30_000));
        t.routes[0] = vec![0, 1, 3, 4, 2]; // ... 1->2->1->2 ...
        assert!(reason(&t).contains("revisits node"), "{}", reason(&t));
    }

    #[test]
    fn self_loop_and_bad_endpoints_are_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.links[0].to = 0;
        assert!(reason(&t).contains("self-loop"), "{}", reason(&t));
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.links[2].to = 40;
        assert!(reason(&t).contains("outside"), "{}", reason(&t));
    }

    #[test]
    fn unbuffered_rated_link_is_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.links[1].buffer_bytes = 0;
        assert!(reason(&t).contains("zero-byte buffer"), "{}", reason(&t));
    }

    #[test]
    fn route_with_no_rated_link_is_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.routes.push(vec![2]); // egress wire only
        assert!(reason(&t).contains("no rated link"), "{}", reason(&t));
    }

    #[test]
    fn dangling_flow_workload_and_fault_references_are_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.flow_routes = vec![0, 7];
        assert!(reason(&t).contains("missing route 7"), "{}", reason(&t));
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.workload_route = Some(3);
        assert!(reason(&t).contains("workload route 3"), "{}", reason(&t));
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.fault_link = Some(0); // the delay-only access wire
        assert!(reason(&t).contains("delay-only"), "{}", reason(&t));
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.fault_link = Some(9);
        assert!(reason(&t).contains("does not exist"), "{}", reason(&t));
    }

    #[test]
    fn empty_collections_are_typed() {
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.routes = vec![];
        assert!(reason(&t).contains("no routes"));
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.routes[0] = vec![];
        assert!(reason(&t).contains("route 0 is empty"));
        let mut t = Topology::dumbbell(rate(), 30_000);
        t.links = vec![];
        assert!(reason(&t).contains("no links"));
        let t = Topology {
            n_nodes: 1,
            ..Topology::dumbbell(rate(), 30_000)
        };
        assert!(reason(&t).contains("at least 2 nodes"));
    }
}
