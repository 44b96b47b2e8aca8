//! Switch-level routes and their conversion to port-tag paths.
//!
//! Routing algorithms work at switch granularity; the host agent then
//! converts a [`Route`] into the port-tag [`Path`] that actually goes into
//! the packet header. The conversion needs the topology, because only the
//! graph knows which output port faces which neighbor.

use serde::{Deserialize, Serialize};

use dumbnet_types::{heap, DumbNetError, HostId, Path, Result, SwitchId};

use crate::graph::Topology;

/// A route as a sequence of switches from the source's leaf switch to the
/// destination's leaf switch (both inclusive).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    switches: Vec<SwitchId>,
}

impl Route {
    /// The heap the switch list holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        heap::vec(&self.switches)
    }

    /// Creates a route from a switch sequence.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::TopologyInvariant`] for an empty sequence
    /// or one with an immediate repeat (`…-S-S-…`).
    pub fn new(switches: Vec<SwitchId>) -> Result<Route> {
        if switches.is_empty() {
            return Err(DumbNetError::TopologyInvariant(
                "route must visit at least one switch".into(),
            ));
        }
        if switches.windows(2).any(|w| w[0] == w[1]) {
            return Err(DumbNetError::TopologyInvariant(
                "route repeats a switch consecutively".into(),
            ));
        }
        Ok(Route { switches })
    }

    /// The switches visited, in order.
    #[must_use]
    pub fn switches(&self) -> &[SwitchId] {
        &self.switches
    }

    /// First switch (the source host's leaf).
    #[must_use]
    pub fn first(&self) -> SwitchId {
        self.switches[0]
    }

    /// Last switch (the destination host's leaf).
    #[must_use]
    pub fn last(&self) -> SwitchId {
        *self.switches.last().expect("route non-empty")
    }

    /// Number of switch-to-switch hops.
    #[must_use]
    pub fn link_hops(&self) -> usize {
        self.switches.len() - 1
    }

    /// Returns `true` if no switch is visited twice (loop-free).
    #[must_use]
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.switches.len());
        self.switches.iter().all(|s| seen.insert(*s))
    }

    /// Returns `true` if every consecutive switch pair is joined by an up
    /// link in `topo`.
    #[must_use]
    pub fn is_valid_in(&self, topo: &Topology) -> bool {
        self.switches
            .windows(2)
            .all(|w| topo.port_towards(w[0], w[1]).is_some())
    }

    /// Converts the route into the port-tag path a packet from `src` to
    /// `dst` must carry.
    ///
    /// The path has one tag per switch the packet traverses: for each
    /// intermediate switch the output port toward the next switch, and for
    /// the final switch the port facing the destination host.
    ///
    /// # Errors
    ///
    /// Fails if the route's endpoints don't match the hosts' attachment
    /// switches, if any consecutive pair has no up link, or if the
    /// resulting path would be over-long.
    pub fn to_tag_path(&self, topo: &Topology, src: HostId, dst: HostId) -> Result<Path> {
        let src_info = topo.host(src)?;
        let dst_info = topo.host(dst)?;
        if src_info.attached.switch != self.first() {
            return Err(DumbNetError::PathRejected(format!(
                "route starts at {} but {} attaches to {}",
                self.first(),
                src,
                src_info.attached.switch
            )));
        }
        if dst_info.attached.switch != self.last() {
            return Err(DumbNetError::PathRejected(format!(
                "route ends at {} but {} attaches to {}",
                self.last(),
                dst,
                dst_info.attached.switch
            )));
        }
        let mut path = Path::empty();
        for w in self.switches.windows(2) {
            let port = topo.port_towards(w[0], w[1]).ok_or_else(|| {
                DumbNetError::PathRejected(format!("no up link {} → {}", w[0], w[1]))
            })?;
            path = path.push(port.into())?;
        }
        path = path.push(dst_info.attached.port.into())?;
        Ok(path)
    }
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for s in &self.switches {
            if !first {
                write!(f, "→")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_types::PortNo;

    fn line3() -> (Topology, Vec<SwitchId>, HostId, HostId) {
        // h0 - s0 - s1 - s2 - h1, with known port numbers.
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..3).map(|_| t.add_switch(8)).collect();
        t.connect(s[0], 2, s[1], 1).unwrap();
        t.connect(s[1], 2, s[2], 1).unwrap();
        let h0 = t.add_host(s[0], PortNo::new(5).unwrap()).unwrap();
        let h1 = t.add_host(s[2], PortNo::new(6).unwrap()).unwrap();
        (t, s, h0, h1)
    }

    #[test]
    fn tag_path_matches_ports() {
        let (t, s, h0, h1) = line3();
        let r = Route::new(vec![s[0], s[1], s[2]]).unwrap();
        let p = r.to_tag_path(&t, h0, h1).unwrap();
        assert_eq!(p.to_string(), "2-2-6-ø");
    }

    #[test]
    fn same_switch_route_is_single_tag() {
        let mut t = Topology::new();
        let s = t.add_switch(8);
        let a = t.add_host(s, PortNo::new(1).unwrap()).unwrap();
        let b = t.add_host(s, PortNo::new(2).unwrap()).unwrap();
        let r = Route::new(vec![s]).unwrap();
        assert_eq!(r.to_tag_path(&t, a, b).unwrap().to_string(), "2-ø");
        assert_eq!(r.to_tag_path(&t, b, a).unwrap().to_string(), "1-ø");
    }

    #[test]
    fn endpoint_mismatch_rejected() {
        let (t, s, h0, h1) = line3();
        let r = Route::new(vec![s[1], s[2]]).unwrap();
        assert!(matches!(
            r.to_tag_path(&t, h0, h1),
            Err(DumbNetError::PathRejected(_))
        ));
    }

    #[test]
    fn down_link_rejected() {
        let (mut t, s, h0, h1) = line3();
        let l = t.link_between(s[0], s[1]).unwrap().id;
        t.set_link_state(l, false).unwrap();
        let r = Route::new(vec![s[0], s[1], s[2]]).unwrap();
        assert!(r.to_tag_path(&t, h0, h1).is_err());
        assert!(!r.is_valid_in(&t));
    }

    #[test]
    fn constructor_rejects_degenerate() {
        assert!(Route::new(vec![]).is_err());
        assert!(Route::new(vec![SwitchId(1), SwitchId(1)]).is_err());
    }

    #[test]
    fn simplicity_check() {
        let r = Route::new(vec![SwitchId(0), SwitchId(1), SwitchId(0)]).unwrap();
        assert!(!r.is_simple());
        let r = Route::new(vec![SwitchId(0), SwitchId(1), SwitchId(2)]).unwrap();
        assert!(r.is_simple());
    }
}
