//! The software layer-3 router (§6.3).
//!
//! "A router is simply a number of host agents running on the same node,
//! one for each DumbNet (or other conventional) subnet. When it sends
//! packet to a connecting DumbNet network, it adds tags to the outgoing
//! packet as a normal host does."
//!
//! The [`L3Router`] node below attaches one NIC per subnet. Each subnet
//! attachment carries its own prefix and per-destination tag paths (the
//! per-subnet "host agent" state). Forwarding is plain longest-prefix
//! matching over the configured subnets, then DumbNet tagging for the
//! egress subnet — and the paper's claim holds: the core logic is well
//! under 100 lines.
//!
//! The module also implements the optional cross-subnet shortcut: when
//! two DumbNet subnets share a direct inter-switch link, the router can
//! hand the source a concatenated tag path so traffic bypasses the
//! router entirely ([`combined_path`]).

use std::any::Any;
use std::collections::HashMap;

use dumbnet_packet::{Packet, Payload};
use dumbnet_sim::{Ctx, Node};
use dumbnet_types::{DumbNetError, MacAddr, Path, PortNo, Result};

/// One subnet attachment of the router.
#[derive(Debug, Clone)]
pub struct Subnet {
    /// The router NIC wired into this subnet.
    pub port: PortNo,
    /// Network prefix (host byte order) and mask, e.g.
    /// `(0x0A00_0000, 0xFF00_0000)` for 10.0.0.0/8.
    pub prefix: (u32, u32),
    /// Tag paths from the router's attachment to each host IP in the
    /// subnet (the subnet-local PathTable).
    pub paths: HashMap<u32, Path>,
}

impl Subnet {
    /// Whether `ip` falls inside this subnet.
    #[must_use]
    pub fn contains(&self, ip: u32) -> bool {
        ip & self.prefix.1 == self.prefix.0 & self.prefix.1
    }
}

/// Router configuration.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// The attached subnets.
    pub subnets: Vec<Subnet>,
}

/// The router node.
#[derive(Debug)]
pub struct L3Router {
    mac: MacAddr,
    config: RouterConfig,
    /// Packets forwarded between subnets.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
}

impl L3Router {
    /// Creates a router with the given MAC and subnet attachments.
    #[must_use]
    pub fn new(mac: MacAddr, config: RouterConfig) -> L3Router {
        L3Router {
            mac,
            config,
            forwarded: 0,
            no_route: 0,
        }
    }

    /// Longest-prefix-match over the configured subnets.
    #[must_use]
    fn route(&self, dst_ip: u32) -> Option<&Subnet> {
        self.config
            .subnets
            .iter()
            .filter(|s| s.contains(dst_ip))
            .max_by_key(|s| s.prefix.1.count_ones())
    }
}

impl Node for L3Router {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _in_port: PortNo, pkt: Packet) {
        // The router's ingress is a normal host agent's: the packet must
        // arrive fully consumed.
        if !pkt.path.is_empty() {
            return;
        }
        let Payload::Ip { dst_ip, .. } = pkt.payload else {
            return; // The router only forwards routed traffic.
        };
        match self
            .route(dst_ip)
            .and_then(|s| s.paths.get(&dst_ip).map(|p| (s.port, p.clone())))
        {
            Some((port, path)) => {
                self.forwarded += 1;
                let out = Packet {
                    dst: pkt.dst,
                    src: self.mac,
                    path,
                    payload: pkt.payload,
                    ecn: pkt.ecn,
                };
                ctx.send(port, out);
            }
            None => self.no_route += 1,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The cross-subnet source-routing shortcut (§6.3): given the tag path
/// from the source to the shortcut link's egress inside subnet A and the
/// tag path from the shortcut's far side to the destination inside
/// subnet B, produce the combined path the *source* can stamp directly,
/// bypassing the router.
///
/// # Errors
///
/// Returns [`DumbNetError::PathTooLong`] when the concatenation exceeds
/// the tag budget.
pub fn combined_path(to_border: &Path, from_border: &Path) -> Result<Path> {
    if from_border.is_empty() {
        return Err(DumbNetError::PathRejected(
            "cross-subnet path must enter the far subnet".into(),
        ));
    }
    to_border.concat(from_border)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_sim::{Engine, LinkParams, NodeAddr, World};
    use dumbnet_switch::{DumbSwitch, DumbSwitchConfig};
    use dumbnet_types::{SimTime, SwitchId};

    struct Sink {
        got: Vec<Packet>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: PortNo, pkt: Packet) {
            self.got.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn p(n: u8) -> PortNo {
        PortNo::new(n).unwrap()
    }

    const NET_A: (u32, u32) = (0x0A00_0000, 0xFFFF_0000); // 10.0/16.
    const NET_B: (u32, u32) = (0x0A01_0000, 0xFFFF_0000); // 10.1/16.

    /// Two one-switch subnets joined by the router:
    /// hostA — swA(p1) … swA(p2) — router — swB(p2) … swB(p1) — hostB.
    fn two_subnets() -> (World, NodeAddr, NodeAddr, NodeAddr) {
        let mut w = World::new(0);
        let sw_a = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(0),
            8,
            DumbSwitchConfig::default(),
        )));
        let sw_b = w.add_node(Box::new(DumbSwitch::new(
            SwitchId(1),
            8,
            DumbSwitchConfig::default(),
        )));
        let host_a = w.add_node(Box::new(Sink { got: vec![] }));
        let host_b = w.add_node(Box::new(Sink { got: vec![] }));
        // Router: port 1 into subnet A, port 2 into subnet B. Its paths:
        // 10.0.0.1 → hostA via swA port 1; 10.1.0.1 → hostB via swB p1.
        let mut paths_a = HashMap::new();
        paths_a.insert(0x0A00_0001, Path::from_ports([1]).unwrap());
        let mut paths_b = HashMap::new();
        paths_b.insert(0x0A01_0001, Path::from_ports([1]).unwrap());
        let router = L3Router::new(
            MacAddr::for_host(99),
            RouterConfig {
                subnets: vec![
                    Subnet {
                        port: p(1),
                        prefix: NET_A,
                        paths: paths_a,
                    },
                    Subnet {
                        port: p(2),
                        prefix: NET_B,
                        paths: paths_b,
                    },
                ],
            },
        );
        let r = w.add_node(Box::new(router));
        w.wire(host_a, p(1), sw_a, p(1), LinkParams::ten_gig())
            .unwrap();
        w.wire(r, p(1), sw_a, p(2), LinkParams::ten_gig()).unwrap();
        w.wire(r, p(2), sw_b, p(2), LinkParams::ten_gig()).unwrap();
        w.wire(host_b, p(1), sw_b, p(1), LinkParams::ten_gig())
            .unwrap();
        (w, host_a, host_b, r)
    }

    fn ip_pkt(dst_ip: u32, path: Path) -> Packet {
        Packet {
            dst: MacAddr::for_host(99), // L2 destination: the router.
            src: MacAddr::for_host(0),
            path,
            payload: Payload::Ip {
                src_ip: 0x0A00_0001,
                dst_ip,
                flow: 1,
                seq: 0,
                bytes: 500,
            },
            ecn: false,
        }
    }

    #[test]
    fn forwards_between_subnets() {
        let (mut w, _host_a, host_b, r) = two_subnets();
        // Host A sends to 10.1.0.1 via the router: path to router within
        // subnet A is swA port 2.
        let pkt = ip_pkt(0x0A01_0001, Path::from_ports([2]).unwrap());
        // Inject at swA as if host A transmitted.
        w.inject(SimTime::ZERO, NodeAddr(0), p(1), pkt);
        w.run_to_idle(100);
        let got = &w.node::<Sink>(host_b).unwrap().got;
        assert_eq!(got.len(), 1);
        assert!(got[0].path.is_empty());
        assert_eq!(w.node::<L3Router>(r).unwrap().forwarded, 1);
    }

    #[test]
    fn unroutable_counted_and_dropped() {
        let (mut w, _a, host_b, r) = two_subnets();
        // 192.168.0.1 matches neither subnet.
        let pkt = ip_pkt(0xC0A8_0001, Path::from_ports([2]).unwrap());
        w.inject(SimTime::ZERO, NodeAddr(0), p(1), pkt);
        w.run_to_idle(100);
        assert!(w.node::<Sink>(host_b).unwrap().got.is_empty());
        assert_eq!(w.node::<L3Router>(r).unwrap().no_route, 1);
    }

    #[test]
    fn router_ignores_mid_path_packets() {
        let (mut w, _a, host_b, r) = two_subnets();
        // A packet that reaches the router with tags left is misrouted.
        let pkt = ip_pkt(0x0A01_0001, Path::from_ports([2, 3]).unwrap());
        w.inject(SimTime::ZERO, NodeAddr(0), p(1), pkt);
        w.run_to_idle(100);
        assert_eq!(w.node::<L3Router>(r).unwrap().forwarded, 0);
        assert!(w.node::<Sink>(host_b).unwrap().got.is_empty());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut paths_wide = HashMap::new();
        paths_wide.insert(0x0A01_0001, Path::from_ports([9]).unwrap());
        let mut paths_narrow = HashMap::new();
        paths_narrow.insert(0x0A01_0001, Path::from_ports([8]).unwrap());
        let r = L3Router::new(
            MacAddr::for_host(99),
            RouterConfig {
                subnets: vec![
                    Subnet {
                        port: p(1),
                        prefix: (0x0A00_0000, 0xFF00_0000), // 10/8.
                        paths: paths_wide,
                    },
                    Subnet {
                        port: p(2),
                        prefix: NET_B, // 10.1/16 — more specific.
                        paths: paths_narrow,
                    },
                ],
            },
        );
        let subnet = r.route(0x0A01_0001).unwrap();
        assert_eq!(subnet.port, p(2));
    }

    #[test]
    fn combined_path_concatenates() {
        let a = Path::from_ports([2, 5]).unwrap(); // To the border link.
        let b = Path::from_ports([3, 1]).unwrap(); // Beyond it.
        let c = combined_path(&a, &b).unwrap();
        assert_eq!(c.to_string(), "2-5-3-1-ø");
        assert!(combined_path(&a, &Path::empty()).is_err());
    }

    #[test]
    fn combined_path_end_to_end() {
        // Join the two subnets with a direct swA(p3)↔swB(p3) shortcut
        // and send with a concatenated path, bypassing the router.
        let (mut w, _a, host_b, r) = two_subnets();
        w.wire(NodeAddr(0), p(3), NodeAddr(1), p(3), LinkParams::ten_gig())
            .unwrap();
        // From host A: swA out p3 (shortcut), then swB out p1 (host B).
        let to_border = Path::from_ports([3]).unwrap();
        let from_border = Path::from_ports([1]).unwrap();
        let path = combined_path(&to_border, &from_border).unwrap();
        let pkt = ip_pkt(0x0A01_0001, path);
        w.inject(SimTime::ZERO, NodeAddr(0), p(1), pkt);
        w.run_to_idle(100);
        assert_eq!(w.node::<Sink>(host_b).unwrap().got.len(), 1);
        // The router never saw it.
        assert_eq!(w.node::<L3Router>(r).unwrap().forwarded, 0);
    }
}
