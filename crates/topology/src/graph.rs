//! The port-level topology graph.
//!
//! DumbNet routes are sequences of *output ports*, so the graph tracks not
//! just which switches are adjacent but through which port pair each link
//! runs. Switches and hosts use dense IDs (`SwitchId(0..s)`,
//! `HostId(0..h)`) so lookups are vector indexing.
//!
//! The adjacency has one representation: each switch's port slots. A
//! trunk port's slot names its link, the switch at the far end and
//! whether the link is up, so [`Topology::neighbors`] is one scan of the
//! switch's own ports — in ascending port order, which is contract (the
//! order of a path graph's edges, and so the bytes of a `PathReply`,
//! follow from it) — and [`Topology::link_between`] is a scan of one
//! switch's ports, not of every link. [`Topology::set_link_state`]
//! keeps the `up` copies on both ends equal to [`Link::up`];
//! [`Topology::check_invariants`] cross-checks them.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dumbnet_types::{
    heap, DumbNetError, HostId, LinkId, MacAddr, PortId, PortNo, Result, SwitchId,
};

/// What a switch port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Attachment {
    /// The port is one end of a switch-to-switch link.
    Link(LinkId),
    /// The port faces a host.
    Host(HostId),
}

/// One port of a switch, as stored: what [`Attachment`] says plus, for
/// a trunk port, the two facts every routing scan wants without a trip
/// to the link table. Dense switch and host indices are held as `u32`
/// (the tables assert they fit) so a slot is 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum PortSlot {
    /// Nothing is wired here.
    Free,
    /// The port faces the host with this dense ID.
    Host(u32),
    /// The port is one end of link `id`.
    Link {
        /// The link's `LinkId`.
        id: u32,
        /// The switch at the far end. Both ends of a loop-back cable
        /// name their own switch.
        peer: u32,
        /// Copy of [`Link::up`].
        up: bool,
    },
}

const _: () = assert!(std::mem::size_of::<PortSlot>() <= 12);

impl PortSlot {
    fn attachment(self) -> Option<Attachment> {
        match self {
            PortSlot::Free => None,
            PortSlot::Host(h) => Some(Attachment::Host(HostId::new(u64::from(h)))),
            PortSlot::Link { id, .. } => Some(Attachment::Link(LinkId::new(id))),
        }
    }
}

/// The port stored at index `ix` of a switch's slots.
fn port_at(ix: usize) -> PortNo {
    PortNo::from_index(ix).expect("stored index valid")
}

/// A dense switch ID as the slots hold it.
fn dense(sw: SwitchId) -> u32 {
    u32::try_from(sw.get()).expect("switch table fits in u32")
}

/// A switch and its port map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchInfo {
    /// The switch's unique identity (replies to ID-query tags).
    pub id: SwitchId,
    /// Number of physical ports.
    pub ports: u8,
    /// `wiring[p.index()]` describes what port `p` connects to.
    wiring: Vec<PortSlot>,
}

impl SwitchInfo {
    /// What the given port is wired to, if anything.
    #[must_use]
    pub fn attachment(&self, port: PortNo) -> Option<Attachment> {
        self.wiring.get(port.index())?.attachment()
    }

    /// Iterates over `(port, attachment)` for all wired ports, in
    /// ascending port order.
    pub fn wired_ports(&self) -> impl Iterator<Item = (PortNo, Attachment)> + '_ {
        self.wiring
            .iter()
            .enumerate()
            .filter_map(|(ix, slot)| slot.attachment().map(|att| (port_at(ix), att)))
    }

    /// The highest wired port, if any.
    #[must_use]
    pub fn top_port(&self) -> Option<PortNo> {
        self.wiring
            .iter()
            .rposition(|&slot| slot != PortSlot::Free)
            .and_then(PortNo::from_index)
    }

    /// First unwired port, if any (used by generators and tests).
    #[must_use]
    pub fn free_port(&self) -> Option<PortNo> {
        self.wiring
            .iter()
            .position(|&slot| slot == PortSlot::Free)
            .and_then(PortNo::from_index)
    }

    /// Number of wired ports.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.wiring
            .iter()
            .filter(|&&slot| slot != PortSlot::Free)
            .count()
    }
}

/// A host and its attachment point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HostInfo {
    /// Dense host identity.
    pub id: HostId,
    /// The host's MAC address (derived from the ID).
    pub mac: MacAddr,
    /// The switch port the host hangs off.
    pub attached: PortId,
}

/// An undirected switch-to-switch link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Link {
    /// Link identity.
    pub id: LinkId,
    /// One endpoint.
    pub a: PortId,
    /// The other endpoint.
    pub b: PortId,
    /// Administrative/physical state; down links are invisible to routing.
    pub up: bool,
}

impl Link {
    /// Given one endpoint switch, returns `(local_port, remote_end)`.
    ///
    /// Returns `None` if `sw` is not an endpoint of this link.
    #[must_use]
    pub fn from_switch(&self, sw: SwitchId) -> Option<(PortNo, PortId)> {
        if self.a.switch == sw {
            Some((self.a.port, self.b))
        } else if self.b.switch == sw {
            Some((self.b.port, self.a))
        } else {
            None
        }
    }
}

/// The fabric topology: switches, hosts, and links with port detail.
///
/// # Examples
///
/// Building the 5-switch example of Figure 1 by hand:
///
/// ```
/// use dumbnet_topology::Topology;
/// use dumbnet_types::{PortNo, SwitchId};
///
/// let mut topo = Topology::new();
/// let s = (0..5).map(|_| topo.add_switch(16)).collect::<Vec<_>>();
/// topo.connect(s[2], 1, s[0], 1).unwrap(); // S3-1 ↔ S1-1 in paper numbering
/// let h = topo.add_host(s[2], PortNo::new(9).unwrap()).unwrap();
/// assert_eq!(topo.host(h).unwrap().attached.switch, s[2]);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    switches: Vec<SwitchInfo>,
    hosts: Vec<HostInfo>,
    links: Vec<Link>,
    /// MAC → host index, for reverse lookup.
    mac_index: HashMap<MacAddr, HostId>,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a switch with `ports` physical ports and returns its ID.
    ///
    /// Port counts above 254 are clamped: the one-byte tag space cannot
    /// address more ports.
    ///
    /// # Panics
    ///
    /// Panics when the switch table would outgrow the `u32` indices the
    /// port slots hold.
    pub fn add_switch(&mut self, ports: u8) -> SwitchId {
        let id = u32::try_from(self.switches.len()).expect("switch table fits in u32");
        let id = SwitchId::new(u64::from(id));
        let ports = ports.min(0xFE);
        self.switches.push(SwitchInfo {
            id,
            ports,
            wiring: vec![PortSlot::Free; usize::from(ports)],
        });
        id
    }

    /// Adds a host on `(switch, port)` with the default MAC derived from
    /// its dense ID, and returns the ID.
    ///
    /// # Errors
    ///
    /// Fails if the switch or port does not exist or the port is wired.
    pub fn add_host(&mut self, switch: SwitchId, port: PortNo) -> Result<HostId> {
        let mac = MacAddr::for_host(self.hosts.len() as u64);
        self.add_host_with_mac(switch, port, mac)
    }

    /// Adds a host on `(switch, port)` with an explicit MAC address —
    /// used when reconstructing a topology from discovery results, where
    /// host identities are externally given.
    ///
    /// # Errors
    ///
    /// Fails if the switch or port does not exist, the port is wired, or
    /// the MAC is already present.
    ///
    /// # Panics
    ///
    /// Panics when the host table would outgrow the `u32` indices the
    /// port slots hold.
    pub fn add_host_with_mac(
        &mut self,
        switch: SwitchId,
        port: PortNo,
        mac: MacAddr,
    ) -> Result<HostId> {
        if self.mac_index.contains_key(&mac) {
            return Err(DumbNetError::TopologyInvariant(format!(
                "duplicate host MAC {mac}"
            )));
        }
        let dense_id = u32::try_from(self.hosts.len()).expect("host table fits in u32");
        let id = HostId::new(u64::from(dense_id));
        let slot = self.port_slot_mut(switch, port)?;
        if *slot != PortSlot::Free {
            return Err(DumbNetError::PortInUse(
                PortId::new(switch, port).to_string(),
            ));
        }
        *slot = PortSlot::Host(dense_id);
        let info = HostInfo {
            id,
            mac,
            attached: PortId::new(switch, port),
        };
        self.hosts.push(info);
        self.mac_index.insert(mac, id);
        Ok(id)
    }

    /// Adds a host on the first free port of `switch`.
    ///
    /// # Errors
    ///
    /// Fails if the switch is unknown or has no free ports.
    pub fn add_host_auto(&mut self, switch: SwitchId) -> Result<HostId> {
        let port = self
            .switch(switch)?
            .free_port()
            .ok_or_else(|| DumbNetError::PortInUse(format!("{switch}-*")))?;
        self.add_host(switch, port)
    }

    /// Connects two switch ports with a link; ports are raw numbers for
    /// generator convenience.
    ///
    /// # Errors
    ///
    /// Fails on invalid/unknown ports, already-wired ports, or self-loops.
    pub fn connect(&mut self, sa: SwitchId, pa: u8, sb: SwitchId, pb: u8) -> Result<LinkId> {
        let pa = PortNo::try_new(pa)?;
        let pb = PortNo::try_new(pb)?;
        self.connect_ports(PortId::new(sa, pa), PortId::new(sb, pb))
    }

    /// Connects two switch ports with a link.
    ///
    /// # Errors
    ///
    /// Fails on unknown ports, already-wired ports, or self-loops
    /// (`a.switch == b.switch` is allowed only on distinct ports — the
    /// discovery algorithm must cope with loopback cables, so we permit
    /// them).
    pub fn connect_ports(&mut self, a: PortId, b: PortId) -> Result<LinkId> {
        if a == b {
            return Err(DumbNetError::TopologyInvariant(format!(
                "cannot wire port {a} to itself"
            )));
        }
        // Validate both before mutating either.
        if *self.port_slot(a.switch, a.port)? != PortSlot::Free {
            return Err(DumbNetError::PortInUse(a.to_string()));
        }
        if *self.port_slot(b.switch, b.port)? != PortSlot::Free {
            return Err(DumbNetError::PortInUse(b.to_string()));
        }
        let id = u32::try_from(self.links.len()).expect("link table fits in u32");
        self.links.push(Link {
            id: LinkId::new(id),
            a,
            b,
            up: true,
        });
        for (end, far) in [(a, b), (b, a)] {
            *self.port_slot_mut(end.switch, end.port)? = PortSlot::Link {
                id,
                peer: dense(far.switch),
                up: true,
            };
        }
        Ok(LinkId::new(id))
    }

    /// Connects two switches using each side's first free port.
    ///
    /// # Errors
    ///
    /// Fails if either switch lacks a free port.
    pub fn connect_auto(&mut self, sa: SwitchId, sb: SwitchId) -> Result<LinkId> {
        let pa = self
            .switch(sa)?
            .free_port()
            .ok_or_else(|| DumbNetError::PortInUse(format!("{sa}-*")))?;
        let pb = self
            .switch(sb)?
            .free_port()
            .ok_or_else(|| DumbNetError::PortInUse(format!("{sb}-*")))?;
        self.connect_ports(PortId::new(sa, pa), PortId::new(sb, pb))
    }

    /// The heap the topology holds: its switch, host and link tables,
    /// each switch's port slots, and the MAC index.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let ports: usize = self.switches.iter().map(|s| heap::vec(&s.wiring)).sum();
        heap::vec(&self.switches)
            + ports
            + heap::vec(&self.hosts)
            + heap::vec(&self.links)
            + heap::hash_map(&self.mac_index)
    }

    /// Number of switches.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of links (regardless of state).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a switch.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownSwitch`] for out-of-range IDs.
    pub fn switch(&self, id: SwitchId) -> Result<&SwitchInfo> {
        self.switches
            .get(id.get() as usize)
            .ok_or(DumbNetError::UnknownSwitch(id.get()))
    }

    /// Looks up a host.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownHost`] for out-of-range IDs.
    pub fn host(&self, id: HostId) -> Result<&HostInfo> {
        self.hosts
            .get(id.get() as usize)
            .ok_or(DumbNetError::UnknownHost(id.get()))
    }

    /// Looks up a host by MAC address.
    #[must_use]
    pub fn host_by_mac(&self, mac: MacAddr) -> Option<&HostInfo> {
        self.mac_index
            .get(&mac)
            .and_then(|&id| self.hosts.get(id.get() as usize))
    }

    /// Looks up a link.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownLink`] for out-of-range IDs.
    pub fn link(&self, id: LinkId) -> Result<&Link> {
        self.links
            .get(id.index())
            .ok_or(DumbNetError::UnknownLink(id.get()))
    }

    /// Iterates over all switches.
    pub fn switches(&self) -> impl Iterator<Item = &SwitchInfo> {
        self.switches.iter()
    }

    /// Iterates over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &HostInfo> {
        self.hosts.iter()
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Sets a link up or down. Returns the previous state.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::UnknownLink`] for out-of-range IDs.
    pub fn set_link_state(&mut self, id: LinkId, up: bool) -> Result<bool> {
        let link = self
            .links
            .get_mut(id.index())
            .ok_or(DumbNetError::UnknownLink(id.get()))?;
        let was = std::mem::replace(&mut link.up, up);
        for end in [link.a, link.b] {
            match self.port_slot_mut(end.switch, end.port)? {
                PortSlot::Link { up: slot_up, .. } => *slot_up = up,
                other => unreachable!("link {id} endpoint {end} wired to {other:?}"),
            }
        }
        Ok(was)
    }

    /// The link between two switches, if one exists, whatever its state
    /// (the lowest [`LinkId`] for multi-link pairs). Scans `a`'s ports,
    /// so the cost is `a`'s port count, not the fabric's link count.
    #[must_use]
    pub fn link_between(&self, a: SwitchId, b: SwitchId) -> Option<&Link> {
        let b = u32::try_from(b.get()).ok()?;
        let first = self
            .slots(a)
            .iter()
            .filter_map(|&slot| match slot {
                PortSlot::Link { id, peer, .. } if peer == b => Some(id),
                _ => None,
            })
            .min()?;
        self.links.get(first as usize)
    }

    /// The link attached to `(switch, port)`, if that port is a trunk.
    #[must_use]
    pub fn link_at(&self, port: PortId) -> Option<&Link> {
        match self.attachment(port)? {
            Attachment::Link(id) => self.links.get(id.index()),
            Attachment::Host(_) => None,
        }
    }

    /// What `(switch, port)` is wired to.
    #[must_use]
    pub fn attachment(&self, port: PortId) -> Option<Attachment> {
        self.switches
            .get(port.switch.get() as usize)
            .and_then(|s| s.attachment(port.port))
    }

    /// Up-link neighbors of a switch, `(out_port, neighbor, link)` in
    /// ascending port order: one scan of the switch's own port slots.
    ///
    /// Down links are skipped — this is the routing view.
    pub fn neighbors(&self, sw: SwitchId) -> impl Iterator<Item = (PortNo, SwitchId, LinkId)> + '_ {
        self.slots(sw)
            .iter()
            .enumerate()
            .filter_map(|(ix, &slot)| match slot {
                PortSlot::Link { id, peer, up: true } => {
                    Some((port_at(ix), SwitchId::new(u64::from(peer)), LinkId::new(id)))
                }
                _ => None,
            })
    }

    /// The switches [`Topology::neighbors`] yields, in the same order,
    /// for the scans in [`crate::spath`] that use neither port nor link:
    /// assembling the unused two costs a BFS a third of its time.
    pub(crate) fn peers(&self, sw: SwitchId) -> impl Iterator<Item = SwitchId> + '_ {
        self.slots(sw).iter().filter_map(|&slot| match slot {
            PortSlot::Link { peer, up: true, .. } => Some(SwitchId::new(u64::from(peer))),
            _ => None,
        })
    }

    /// Hosts attached to a switch: `(port, host)`.
    pub fn hosts_on(&self, sw: SwitchId) -> impl Iterator<Item = (PortNo, HostId)> + '_ {
        self.switches
            .get(sw.get() as usize)
            .into_iter()
            .flat_map(|info| {
                info.wired_ports().filter_map(|(port, att)| match att {
                    Attachment::Host(h) => Some((port, h)),
                    Attachment::Link(_) => None,
                })
            })
    }

    /// The output port on `from` that reaches `to` over an up link, if
    /// any. Used when converting switch routes to tag paths.
    #[must_use]
    pub fn port_towards(&self, from: SwitchId, to: SwitchId) -> Option<PortNo> {
        self.neighbors(from)
            .find(|&(_, n, _)| n == to)
            .map(|(p, _, _)| p)
    }

    /// Checks structural invariants; used by tests and after applying
    /// topology patches.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::TopologyInvariant`] describing the first
    /// violation found.
    pub fn check_invariants(&self) -> Result<()> {
        for (ix, link) in self.links.iter().enumerate() {
            if link.id.index() != ix {
                return Err(DumbNetError::TopologyInvariant(format!(
                    "link {ix} stored under wrong id {}",
                    link.id
                )));
            }
            for end in [link.a, link.b] {
                match self.attachment(end) {
                    Some(Attachment::Link(l)) if l == link.id => {}
                    other => {
                        return Err(DumbNetError::TopologyInvariant(format!(
                            "link {} endpoint {end} wired to {other:?}",
                            link.id
                        )))
                    }
                }
            }
        }
        // Every trunk slot repeats what its link says: the switch at the
        // far end, and whether the link is up.
        for info in &self.switches {
            for (ix, slot) in info.wiring.iter().enumerate() {
                let PortSlot::Link { id, peer, up } = *slot else {
                    continue;
                };
                let here = PortId::new(info.id, port_at(ix));
                let far = self.links.get(id as usize).and_then(|l| {
                    let far = if l.a == here {
                        l.b
                    } else if l.b == here {
                        l.a
                    } else {
                        return None;
                    };
                    Some((dense(far.switch), l.up))
                });
                if far != Some((peer, up)) {
                    return Err(DumbNetError::TopologyInvariant(format!(
                        "port {here} holds {slot:?}, its link says {far:?}"
                    )));
                }
            }
        }
        for host in &self.hosts {
            match self.attachment(host.attached) {
                Some(Attachment::Host(h)) if h == host.id => {}
                other => {
                    return Err(DumbNetError::TopologyInvariant(format!(
                        "host {} attachment {} wired to {other:?}",
                        host.id, host.attached
                    )))
                }
            }
        }
        Ok(())
    }

    /// Structural equality ignoring host MAC index internals: same
    /// switches (port counts), hosts (attachments) and up-links.
    ///
    /// Used to validate that discovery reconstructed the real topology.
    #[must_use]
    pub fn same_structure(&self, other: &Topology) -> bool {
        if self.switches.len() != other.switches.len() || self.hosts.len() != other.hosts.len() {
            return false;
        }
        let key = |t: &Topology| {
            let mut links: Vec<(PortId, PortId)> = t
                .links
                .iter()
                .filter(|l| l.up)
                .map(|l| if l.a <= l.b { (l.a, l.b) } else { (l.b, l.a) })
                .collect();
            links.sort();
            let mut hosts: Vec<(MacAddr, PortId)> =
                t.hosts.iter().map(|h| (h.mac, h.attached)).collect();
            hosts.sort();
            (links, hosts)
        };
        key(self) == key(other)
    }

    /// The port slots of `sw`; none for an unknown switch.
    fn slots(&self, sw: SwitchId) -> &[PortSlot] {
        self.switches
            .get(sw.get() as usize)
            .map_or(&[], |info| &info.wiring)
    }

    fn port_slot(&self, sw: SwitchId, port: PortNo) -> Result<&PortSlot> {
        let info = self.switch(sw)?;
        info.wiring
            .get(port.index())
            .ok_or(DumbNetError::InvalidPort(port.get()))
    }

    fn port_slot_mut(&mut self, sw: SwitchId, port: PortNo) -> Result<&mut PortSlot> {
        let info = self
            .switches
            .get_mut(sw.get() as usize)
            .ok_or(DumbNetError::UnknownSwitch(sw.get()))?;
        info.wiring
            .get_mut(port.index())
            .ok_or(DumbNetError::InvalidPort(port.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scan over every link that `link_between` used to be.
    fn oracle_link_between(t: &Topology, a: SwitchId, b: SwitchId) -> Option<&Link> {
        t.links
            .iter()
            .find(|l| (l.a.switch == a && l.b.switch == b) || (l.a.switch == b && l.b.switch == a))
    }

    /// The derivation `neighbors` used to be: each wired port's link,
    /// looked up in the link table and turned round with `from_switch`.
    fn oracle_neighbors(t: &Topology, sw: SwitchId) -> Vec<(PortNo, SwitchId, LinkId)> {
        let Ok(info) = t.switch(sw) else {
            return Vec::new();
        };
        info.wired_ports()
            .filter_map(|(port, att)| match att {
                Attachment::Link(lid) => {
                    let link = t.link(lid).ok()?;
                    if !link.up {
                        return None;
                    }
                    let (_, remote) = link.from_switch(sw)?;
                    Some((port, remote.switch, lid))
                }
                Attachment::Host(_) => None,
            })
            .collect()
    }

    /// Slots against the link table, then both lookups against their
    /// oracles for every switch pair (one unknown switch included).
    fn assert_matches_oracles(t: &Topology) {
        t.check_invariants().unwrap();
        for info in t.switches() {
            let last = info.wired_ports().last().map(|(p, _)| p);
            assert_eq!(info.top_port(), last, "top_port({})", info.id);
        }
        let ids: Vec<SwitchId> = (0..=t.switch_count() as u64).map(SwitchId::new).collect();
        for &a in &ids {
            assert_eq!(
                t.neighbors(a).collect::<Vec<_>>(),
                oracle_neighbors(t, a),
                "neighbors({a})"
            );
            for &b in &ids {
                assert_eq!(
                    t.link_between(a, b).map(|l| l.id),
                    oracle_link_between(t, a, b).map(|l| l.id),
                    "link_between({a}, {b})"
                );
            }
        }
    }

    /// Two parallel links, a loop-back cable, a down link, and free
    /// ports left over.
    fn awkward() -> Topology {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..4).map(|_| t.add_switch(8)).collect();
        t.connect(s[0], 3, s[1], 2).unwrap();
        t.connect(s[1], 1, s[0], 1).unwrap(); // Parallel, lower ports, higher id.
        t.connect(s[2], 4, s[2], 2).unwrap(); // Loop-back.
        let down = t.connect(s[1], 5, s[2], 1).unwrap();
        t.connect(s[2], 6, s[3], 1).unwrap();
        t.add_host(s[0], PortNo::new(2).unwrap()).unwrap();
        t.add_host(s[3], PortNo::new(4).unwrap()).unwrap();
        t.set_link_state(down, false).unwrap();
        t
    }

    #[test]
    fn lookups_match_their_oracles_through_rewiring() {
        let mut fat = generators::fat_tree(4, 2, None).topology;
        // The generated fat-tree has no free port; give the rewiring
        // below somewhere to land.
        fat.add_switch(6);
        fat.add_switch(6);
        for (seed, mut t) in [generators::testbed().topology, fat, awkward()]
            .into_iter()
            .enumerate()
        {
            assert_matches_oracles(&t);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            for _ in 0..40 {
                if rng.gen_bool(0.4) {
                    // Wire two free ports, loop-backs and parallels welcome.
                    let free: Vec<PortId> = t
                        .switches()
                        .flat_map(|info| {
                            PortNo::first(info.ports)
                                .filter(|&p| info.attachment(p).is_none())
                                .map(|p| PortId::new(info.id, p))
                        })
                        .collect();
                    if free.len() >= 2 {
                        let a = free[rng.gen_range(0..free.len())];
                        let b = free[rng.gen_range(0..free.len())];
                        assert_eq!(t.connect_ports(a, b).is_ok(), a != b);
                    }
                } else {
                    let id = LinkId::new(rng.gen_range(0..t.link_count() as u32));
                    let was = t.link(id).unwrap().up;
                    let up = rng.gen_bool(0.5);
                    assert_eq!(t.set_link_state(id, up).unwrap(), was);
                }
                assert_matches_oracles(&t);
            }
            // Down, up, down twice on one link: the second "down" is a
            // no-op that must leave both slots down.
            let id = LinkId::new(0);
            t.set_link_state(id, true).unwrap();
            for (up, was) in [(false, true), (true, false), (false, true), (false, false)] {
                assert_eq!(t.set_link_state(id, up).unwrap(), was);
                assert_matches_oracles(&t);
            }
        }
    }

    #[test]
    fn link_between_prefers_the_lowest_link_id_and_sees_down_links() {
        let t = awkward();
        let s: Vec<SwitchId> = t.switches().map(|info| info.id).collect();
        // The parallel pair: L0 sits on higher ports than L1 at both ends.
        assert_eq!(t.link_between(s[0], s[1]).unwrap().id, LinkId::new(0));
        assert_eq!(t.link_between(s[1], s[0]).unwrap().id, LinkId::new(0));
        assert_eq!(t.link_between(s[2], s[2]).unwrap().id, LinkId::new(2));
        let down = t.link_between(s[2], s[1]).unwrap();
        assert!(!down.up);
        assert_eq!(t.port_towards(s[2], s[1]), None);
        assert!(t.link_between(s[0], s[3]).is_none());
    }

    #[test]
    fn invariants_catch_a_slot_that_disagrees_with_its_link() {
        let mut t = awkward();
        t.links[0].up = false; // Behind set_link_state's back.
        assert!(t.check_invariants().is_err());
        t.links[0].up = true;
        t.check_invariants().unwrap();
        t.switches[3].wiring[5] = PortSlot::Link {
            id: 0,
            peer: 0,
            up: true,
        };
        assert!(t.check_invariants().is_err());
    }

    /// Builds the Figure 1 topology from the paper: five switches, the
    /// controller C3 on S3 port 9, hosts as drawn.
    fn figure1() -> (Topology, Vec<SwitchId>, Vec<HostId>) {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..5).map(|_| t.add_switch(12)).collect();
        // Links (1-based switch names in the paper => s[i-1] here):
        // S3-1 ↔ S1-1, S3-2 ↔ S2-1 (paper fig edge labels vary; ports
        // chosen to match the §3.2 example where they matter).
        t.connect(s[2], 1, s[0], 1).unwrap();
        t.connect(s[2], 2, s[1], 1).unwrap();
        t.connect(s[0], 2, s[3], 1).unwrap();
        t.connect(s[1], 2, s[3], 3).unwrap();
        t.connect(s[1], 3, s[4], 1).unwrap();
        t.connect(s[3], 2, s[4], 2).unwrap();
        let hosts = vec![
            t.add_host(s[2], PortNo::new(9).unwrap()).unwrap(), // C3
            t.add_host(s[0], PortNo::new(5).unwrap()).unwrap(), // H1
            t.add_host(s[1], PortNo::new(5).unwrap()).unwrap(), // H2
            t.add_host(s[2], PortNo::new(5).unwrap()).unwrap(), // H3
            t.add_host(s[3], PortNo::new(5).unwrap()).unwrap(), // H4
            t.add_host(s[4], PortNo::new(5).unwrap()).unwrap(), // H5
        ];
        (t, s, hosts)
    }

    #[test]
    fn figure1_builds_and_validates() {
        let (t, s, h) = figure1();
        t.check_invariants().unwrap();
        assert_eq!(t.switch_count(), 5);
        assert_eq!(t.host_count(), 6);
        assert_eq!(t.link_count(), 6);
        assert_eq!(t.neighbors(s[2]).count(), 2);
        assert_eq!(t.hosts_on(s[2]).count(), 2);
        let c3 = t.host(h[0]).unwrap();
        assert_eq!(c3.attached.port.get(), 9);
    }

    #[test]
    fn double_wiring_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let c = t.add_switch(4);
        t.connect(a, 1, b, 1).unwrap();
        assert!(matches!(
            t.connect(a, 1, c, 1),
            Err(DumbNetError::PortInUse(_))
        ));
        // Failed connect must not leave half-wired state.
        t.check_invariants().unwrap();
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn host_on_wired_port_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        t.connect(a, 1, b, 1).unwrap();
        assert!(t.add_host(a, PortNo::new(1).unwrap()).is_err());
        assert_eq!(t.host_count(), 0);
    }

    #[test]
    fn link_state_hides_neighbors() {
        let mut t = Topology::new();
        let a = t.add_switch(4);
        let b = t.add_switch(4);
        let l = t.connect(a, 1, b, 1).unwrap();
        assert_eq!(t.neighbors(a).count(), 1);
        assert!(t.set_link_state(l, false).unwrap());
        assert_eq!(t.neighbors(a).count(), 0);
        assert!(!t.set_link_state(l, true).unwrap());
        assert_eq!(t.neighbors(a).count(), 1);
    }

    #[test]
    fn mac_lookup_round_trips() {
        let (t, _, hosts) = figure1();
        for &h in &hosts {
            let info = t.host(h).unwrap();
            assert_eq!(t.host_by_mac(info.mac).unwrap().id, h);
        }
        assert!(t.host_by_mac(MacAddr::BROADCAST).is_none());
    }

    #[test]
    fn port_towards_respects_port_numbers() {
        let (t, s, _) = figure1();
        assert_eq!(t.port_towards(s[2], s[0]).unwrap().get(), 1);
        assert_eq!(t.port_towards(s[0], s[2]).unwrap().get(), 1);
        assert_eq!(t.port_towards(s[2], s[1]).unwrap().get(), 2);
        assert_eq!(t.port_towards(s[2], s[4]), None);
    }

    #[test]
    fn same_structure_detects_differences() {
        let (t1, _, _) = figure1();
        let (mut t2, _, _) = figure1();
        assert!(t1.same_structure(&t2));
        let l = t2.links().next().unwrap().id;
        t2.set_link_state(l, false).unwrap();
        assert!(!t1.same_structure(&t2));
    }

    #[test]
    fn auto_connect_uses_free_ports() {
        let mut t = Topology::new();
        let a = t.add_switch(2);
        let b = t.add_switch(2);
        t.connect_auto(a, b).unwrap();
        t.connect_auto(a, b).unwrap();
        assert!(t.connect_auto(a, b).is_err());
        assert_eq!(t.link_count(), 2);
        // Parallel links both visible.
        assert_eq!(t.neighbors(a).count(), 2);
    }

    #[test]
    fn oversized_switch_clamped() {
        let mut t = Topology::new();
        let s = t.add_switch(255);
        assert_eq!(t.switch(s).unwrap().ports, 254);
    }
}
