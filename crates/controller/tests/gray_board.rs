//! The gray-failure scoreboard (DESIGN.md §10.3) stepped without a
//! `World`: one valid fixture and one doctored input per clause, each
//! with the exact effects expected.

use dumbnet_controller::gray::{Edge, Effect, GrayBoard};
use dumbnet_controller::{Replica, ReplicaRole, MAX_FLAPS};
use dumbnet_packet::control::TopoDelta;
use dumbnet_types::{MacAddr, SimDuration, SimTime, SwitchId};

const EDGE: Edge = (SwitchId(1), SwitchId(2));

fn host(n: u64) -> MacAddr {
    MacAddr::for_host(n)
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A leader of a group of `members`; a lone one always holds its lease,
/// one of three that never heard a peer does not.
fn leader(members: u64) -> Replica {
    let group = (0..members).map(host).collect();
    let (beat, patience) = (SimDuration::from_millis(20), SimDuration::from_millis(100));
    Replica::new(host(0), group, ReplicaRole::Leader, beat, patience)
}

/// The board with its replica, playing the adapter: a `Mark` or
/// `Refresh` is proposed to the log at once, as `Controller::judge` does.
struct Rig {
    board: GrayBoard,
    replica: Replica,
}

impl Rig {
    fn new(members: u64) -> Rig {
        Rig {
            board: GrayBoard::default(),
            replica: leader(members),
        }
    }

    fn commit(&mut self, effects: &[Effect]) {
        for effect in effects {
            let mut delta = TopoDelta::default();
            match effect {
                Effect::Accepted => continue,
                Effect::Mark(edge, true) => delta.quarantine.push(*edge),
                Effect::Mark(edge, false) => delta.unquarantine.push(*edge),
                Effect::Refresh(held) => delta.quarantine.clone_from(held),
            }
            self.replica.propose(delta, &mut Vec::new());
        }
    }

    fn report(&mut self, ms: u64, reporter: u64, seq: u64, loss_permille: u16) -> Vec<Effect> {
        let (mut out, from) = (Vec::new(), (host(reporter), seq));
        self.board.on_report(
            at_ms(ms),
            &self.replica,
            from,
            EDGE,
            loss_permille,
            &mut out,
        );
        self.commit(&out);
        out
    }

    fn probation(&mut self, ms: u64) -> Vec<Effect> {
        let mut out = Vec::new();
        self.board.on_probation(at_ms(ms), &self.replica, &mut out);
        self.commit(&out);
        out
    }
}

#[test]
fn two_distinct_reporters_quarantine_and_three_clean_ticks_release() {
    let mut rig = Rig::new(1);
    assert_eq!(rig.report(10, 7, 1, 600), [Effect::Accepted]);
    // The same reporter again is still one accuser.
    assert_eq!(rig.report(12, 7, 2, 900), [Effect::Accepted]);
    let quarantined = [Effect::Accepted, Effect::Mark(EDGE, true)];
    assert_eq!(rig.report(15, 8, 1, 300), quarantined);
    assert!(rig.replica.quarantined().contains(&EDGE));
    // Held: more dirty evidence changes nothing.
    assert_eq!(rig.report(18, 9, 1, 1000), [Effect::Accepted]);
    // A live accuser holds the streak at zero; clean reports (≤ 50 ‰)
    // retire theirs, the third's evidence ages out after 50 ms.
    assert_eq!(rig.probation(20), []);
    assert_eq!(rig.report(22, 7, 3, 50), [Effect::Accepted]);
    assert_eq!(rig.report(24, 8, 2, 0), [Effect::Accepted]);
    assert_eq!(rig.probation(40), []);
    assert_eq!(rig.probation(60), []);
    // Reporter 9 aged out: streak 1. Nothing released, and the set was
    // last asserted 65 ms ago: it is re-asserted whole.
    assert_eq!(rig.probation(80), [Effect::Refresh(vec![EDGE])]);
    assert_eq!(rig.probation(100), []);
    assert_eq!(rig.probation(120), [Effect::Mark(EDGE, false)]);
    assert!(rig.replica.quarantined().is_empty());
    assert_eq!(rig.board.flaps(), [(EDGE, 1)]);
}

#[test]
fn replayed_or_reordered_sequence_numbers_are_ignored() {
    let mut rig = Rig::new(1);
    assert_eq!(rig.report(10, 7, 5, 600), [Effect::Accepted]);
    assert_eq!(rig.report(11, 7, 5, 600), []);
    assert_eq!(rig.report(12, 7, 4, 0), []);
    // The fence is per reporter: another's low sequence is fresh.
    let quarantined = [Effect::Accepted, Effect::Mark(EDGE, true)];
    assert_eq!(rig.report(13, 8, 1, 600), quarantined);
}

#[test]
fn lease_lapsed_leader_records_but_does_not_append() {
    // Three members, no peer ever heard: leading, but not under a lease.
    let mut rig = Rig::new(3);
    assert!(rig.replica.is_leader() && !rig.replica.may_mutate(at_ms(10)));
    assert_eq!(rig.report(10, 7, 1, 600), [Effect::Accepted]);
    assert_eq!(rig.report(11, 8, 1, 600), [Effect::Accepted]);
    assert_eq!(rig.board.flaps(), [(EDGE, 0)]);
    // Nor does it age evidence or pardon what it inherited.
    rig.commit(&[Effect::Mark(EDGE, true)]);
    for tick in 1..10 {
        assert_eq!(rig.probation(20 * tick), []);
    }
}

#[test]
fn quarantine_is_reasserted_every_refresh_interval_while_held() {
    let mut rig = Rig::new(1);
    rig.report(10, 7, 1, 600);
    rig.report(10, 8, 1, 600);
    // Accusers renew every 40 ms, so nothing is released; the set was
    // asserted at 10 ms and is due again 60 ms later, and 60 after that.
    let mut refreshed = Vec::new();
    for tick in 1..=8u64 {
        if tick % 2 == 0 {
            rig.report(20 * tick - 1, 7, 1 + tick, 600);
            rig.report(20 * tick - 1, 8, 1 + tick, 600);
        }
        match rig.probation(20 * tick).as_slice() {
            [] => {}
            [Effect::Refresh(held)] if held[..] == [EDGE] => refreshed.push(20 * tick),
            other => panic!("tick {tick}: {other:?}"),
        }
    }
    assert_eq!(refreshed, [80, 140]);
}

#[test]
fn flap_budget_exhausted_pins_the_edge_sticky() {
    let mut rig = Rig::new(1);
    let mut seq = 0;
    for flap in 1..=MAX_FLAPS + 1 {
        let start = 1_000 * u64::from(flap);
        seq += 1;
        rig.report(start, 7, seq, 600);
        let quarantined = [Effect::Accepted, Effect::Mark(EDGE, true)];
        assert_eq!(rig.report(start, 8, seq, 600), quarantined);
        assert_eq!(rig.board.flaps(), [(EDGE, flap)]);
        // Evidence ages out within three ticks; three clean ticks later
        // the edge is released — until the budget is spent.
        let released: Vec<Effect> = (1..=10)
            .flat_map(|tick| rig.probation(start + 20 * tick))
            .filter(|e| matches!(e, Effect::Mark(..)))
            .collect();
        if flap <= MAX_FLAPS {
            assert_eq!(released, [Effect::Mark(EDGE, false)], "flap {flap}");
        } else {
            assert_eq!(released, [], "a sticky edge is never released");
        }
    }
    // Only a hard link event resets it.
    rig.board.forget(EDGE);
    assert_eq!(rig.board.flaps(), []);
}
