//! Regression test for the fenced-campaign race: a delayed vote must
//! never promote a candidate whose campaign term the group has already
//! moved past.
//!
//! Scenario (REVIEW finding, high severity): a topology-less follower
//! campaigns for term 2; a peer refuses with a higher term (5), which
//! the candidate adopts; a *granted* reply for the old term 2 then
//! straggles in. Before the fix the stale vote was still counted and
//! `promote_to(2)` fired with the log already at term 5 — a
//! `debug_assert` panic in debug builds and a same-term second leader
//! in release. After the fix the higher-term refusal drops the
//! campaign on the spot and the late vote is ignored.

use dumbnet_controller::{Controller, ControllerConfig, ReplicaRole};
use dumbnet_packet::{ControlMessage, Packet};
use dumbnet_sim::{Engine, World};
use dumbnet_types::{HostId, MacAddr, Path, PortNo, SimDuration, SimTime};

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn delayed_vote_for_fenced_campaign_is_not_counted() {
    // Member macs 1 (us, lowest — campaigns first, no stagger), 2, 3.
    let me = MacAddr::for_host(1);
    let cfg = ControllerConfig {
        peers: vec![me, MacAddr::for_host(2), MacAddr::for_host(3)],
        is_leader: false,
        takeover_timeout: SimDuration::from_millis(250),
        ..ControllerConfig::default()
    };
    let mut world = World::new(7);
    let addr = world.add_node(Box::new(Controller::new(HostId(1), cfg)));
    let nic = PortNo::new(1).unwrap();

    // t = 250 ms: the takeover timer fires and the follower campaigns
    // for term 2 (flooded — it has no topology; the flood dies on the
    // unwired NIC, which is fine, the campaign state is what matters).
    world.run_until(at_ms(260));
    {
        let ctrl = world.node::<Controller>(addr).unwrap();
        assert_eq!(ctrl.stats().elections_started, 1, "campaign never started");
        assert!(!ctrl.stats().is_leader);
    }

    // t = 300 ms: peer 2 refuses, echoing its own higher term 5. The
    // candidate must adopt term 5 and abandon the term-2 campaign.
    let refusal = ControlMessage::LeaderQueryReply {
        candidate: me,
        responder: MacAddr::for_host(2),
        term: 5,
        granted: false,
        leader: false,
        ttl: 0,
    };
    world.inject(
        at_ms(300),
        addr,
        nic,
        Packet::control(me, MacAddr::for_host(2), Path::empty(), refusal),
    );

    // t = 320 ms: peer 3's granted vote for the dead term-2 campaign
    // arrives late. With self + this vote the old code held an election
    // quorum (2 of 3) and promoted into term 2 <= 5.
    let late_vote = ControlMessage::LeaderQueryReply {
        candidate: me,
        responder: MacAddr::for_host(3),
        term: 2,
        granted: true,
        leader: false,
        ttl: 0,
    };
    world.inject(
        at_ms(320),
        addr,
        nic,
        Packet::control(me, MacAddr::for_host(3), Path::empty(), late_vote),
    );

    // Assert before the next takeover window can start a fresh (and
    // legitimate) campaign.
    world.run_until(at_ms(400));
    let ctrl = world.node::<Controller>(addr).unwrap();
    assert!(
        !ctrl.stats().is_leader,
        "stale vote promoted a fenced candidate"
    );
    assert_eq!(ctrl.replication().role(), ReplicaRole::Follower);
    assert_eq!(ctrl.replication().term(), 5, "higher term not adopted");
    assert!(
        ctrl.stats().terms_led.is_empty(),
        "led a term it never won: {:?}",
        ctrl.stats().terms_led
    );
}
