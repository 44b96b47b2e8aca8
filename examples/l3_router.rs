//! The software layer-3 router (§6.3): two DumbNet subnets joined by a
//! router node, plus the cross-subnet source-routing shortcut.
//!
//! Run with `cargo run --example l3_router`.

use std::collections::HashMap;

use dumbnet::ext::router::{combined_path, L3Router, RouterConfig, Subnet};
use dumbnet::packet::{Packet, Payload};
use dumbnet::sim::{Ctx, Engine, LinkParams, Node, World};
use dumbnet::switch::{DumbSwitch, DumbSwitchConfig};
use dumbnet::types::{MacAddr, Path, PortNo, SimTime, SwitchId};

/// Minimal host that records what it receives.
struct EchoHost {
    name: &'static str,
    received: u64,
}

impl Node for EchoHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: PortNo, pkt: Packet) {
        if let Payload::Ip { src_ip, dst_ip, .. } = pkt.payload {
            self.received += 1;
            println!(
                "  {} received {:#010x} → {:#010x} at {}",
                self.name,
                src_ip,
                dst_ip,
                ctx.now()
            );
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn p(n: u8) -> PortNo {
    PortNo::new(n).unwrap()
}

fn main() {
    // Subnet A (10.0/16): swA with host A on port 1, router on port 2.
    // Subnet B (10.1/16): swB with host B on port 1, router on port 2.
    // Optional shortcut: swA port 3 ↔ swB port 3.
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
    let host_a = w.add_node(Box::new(EchoHost {
        name: "hostA",
        received: 0,
    }));
    let host_b = w.add_node(Box::new(EchoHost {
        name: "hostB",
        received: 0,
    }));

    let mut paths_a = HashMap::new();
    paths_a.insert(0x0A00_0001, Path::from_ports([1]).unwrap());
    let mut paths_b = HashMap::new();
    paths_b.insert(0x0A01_0001, Path::from_ports([1]).unwrap());
    let router = w.add_node(Box::new(L3Router::new(
        MacAddr::for_host(99),
        RouterConfig {
            subnets: vec![
                Subnet {
                    port: p(1),
                    prefix: (0x0A00_0000, 0xFFFF_0000),
                    paths: paths_a,
                },
                Subnet {
                    port: p(2),
                    prefix: (0x0A01_0000, 0xFFFF_0000),
                    paths: paths_b,
                },
            ],
        },
    )));

    w.wire(host_a, p(1), sw_a, p(1), LinkParams::ten_gig())
        .unwrap();
    w.wire(router, p(1), sw_a, p(2), LinkParams::ten_gig())
        .unwrap();
    w.wire(router, p(2), sw_b, p(2), LinkParams::ten_gig())
        .unwrap();
    w.wire(host_b, p(1), sw_b, p(1), LinkParams::ten_gig())
        .unwrap();
    w.wire(sw_a, p(3), sw_b, p(3), LinkParams::ten_gig())
        .unwrap();

    // 1) Via the router: host A → 10.1.0.1, L2 path to the router.
    println!("via router:");
    let via_router = Packet {
        dst: MacAddr::for_host(99),
        src: MacAddr::for_host(0),
        path: Path::from_ports([2]).unwrap(),
        payload: Payload::Ip {
            src_ip: 0x0A00_0001,
            dst_ip: 0x0A01_0001,
            flow: 1,
            seq: 0,
            bytes: 800,
        },
        ecn: false,
    };
    w.inject(SimTime::ZERO, sw_a, p(1), via_router);
    w.run_to_idle(1000);

    // 2) Via the shortcut: the router reveals the combined path and the
    //    source stamps it directly (§6.3).
    println!("\nvia cross-subnet shortcut (router bypassed):");
    let to_border = Path::from_ports([3]).unwrap();
    let beyond = Path::from_ports([1]).unwrap();
    let shortcut = combined_path(&to_border, &beyond).unwrap();
    println!("  combined tag path: {shortcut}");
    let direct = Packet {
        dst: MacAddr::for_host(1),
        src: MacAddr::for_host(0),
        path: shortcut,
        payload: Payload::Ip {
            src_ip: 0x0A00_0001,
            dst_ip: 0x0A01_0001,
            flow: 2,
            seq: 0,
            bytes: 800,
        },
        ecn: false,
    };
    w.inject(w.now(), sw_a, p(1), direct);
    w.run_to_idle(1000);

    let r = w.node::<L3Router>(router).unwrap();
    println!(
        "\nrouter forwarded {} packet(s); host B received {}",
        r.forwarded,
        w.node::<EchoHost>(host_b).unwrap().received
    );
}
