//! Packets a cold host holds for one destination until the controller's
//! path reply arrives (§5.2).
//!
//! A `DataStream` parks one packet per interval, all alike but for a
//! sequence number that counts down, so a backlog stores *runs*: one
//! 32-byte record stands for every consecutive packet of a stream, and
//! only what a run cannot describe — control packets, ECN-marked or
//! tagged data, routed (`Ip`) payloads — is kept whole. [`Backlog::pop`]
//! hands the packets back one at a time, in push order and equal to the
//! ones pushed.

use std::collections::VecDeque;

use dumbnet_packet::{Packet, Payload};
use dumbnet_types::{MacAddr, Path};

/// One backlog entry.
#[derive(Debug)]
enum Parked {
    /// A packet no run describes.
    One(Packet),
    /// `count` untagged, unmarked data packets of `flow` from `src` to
    /// `dst`, `bytes` each, with sequence numbers `seq`, `seq − 1`, … in
    /// push order.
    Run {
        flow: u64,
        seq: u64,
        count: u64,
        bytes: usize,
    },
}

/// The packets parked for one destination, oldest first. Every call
/// names the same `dst` and `src`: a run stores neither, and its packets
/// are rebuilt from them.
#[derive(Debug, Default)]
pub(crate) struct Backlog {
    entries: VecDeque<Parked>,
}

impl Backlog {
    /// The heap the parked packets hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        dumbnet_types::heap::deque(&self.entries)
    }

    /// Parks `pkt` behind everything already parked.
    pub(crate) fn push(&mut self, dst: MacAddr, src: MacAddr, pkt: Packet) {
        let (flow, seq, bytes) = match pkt.payload {
            Payload::Data { flow, seq, bytes }
                if pkt.path.is_empty() && !pkt.ecn && pkt.src == src && pkt.dst == dst =>
            {
                (flow, seq, bytes)
            }
            _ => return self.entries.push_back(Parked::One(pkt)),
        };
        if let Some(Parked::Run {
            flow: run_flow,
            seq: first,
            count,
            bytes: run_bytes,
        }) = self.entries.back_mut()
        {
            // The run's last packet is `first − count + 1`; this one
            // joins when it is the next one down.
            if *run_flow == flow && *run_bytes == bytes && first.checked_sub(*count) == Some(seq) {
                *count += 1;
                return;
            }
        }
        self.entries.push_back(Parked::Run {
            flow,
            seq,
            count: 1,
            bytes,
        });
    }

    /// Takes the oldest parked packet.
    pub(crate) fn pop(&mut self, dst: MacAddr, src: MacAddr) -> Option<Packet> {
        if let Parked::Run {
            flow,
            seq,
            count,
            bytes,
        } = self.entries.front_mut()?
        {
            if *count > 1 {
                let pkt = Packet::data(dst, src, Path::empty(), *flow, *seq, *bytes);
                // Two or more packets count down from `seq`, so it is ≥ 1.
                *seq -= 1;
                *count -= 1;
                return Some(pkt);
            }
        }
        Some(match self.entries.pop_front()? {
            Parked::One(pkt) => pkt,
            Parked::Run {
                flow, seq, bytes, ..
            } => Packet::data(dst, src, Path::empty(), flow, seq, bytes),
        })
    }

    /// Whether nothing is parked.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dumbnet_packet::ControlMessage;
    use dumbnet_types::{SimTime, Tag};
    use proptest::prelude::*;

    const DST: MacAddr = MacAddr([2, 0, 0, 0, 0, 9]);
    const SRC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);

    #[test]
    fn a_single_stream_is_one_record() {
        let mut backlog = Backlog::default();
        for seq in (0..400).rev() {
            backlog.push(
                DST,
                SRC,
                Packet::data(DST, SRC, Path::empty(), 7, seq, 1_000),
            );
        }
        assert_eq!(backlog.entries.len(), 1, "{:?}", backlog.entries.front());
        for seq in (0..400).rev() {
            let want = Packet::data(DST, SRC, Path::empty(), 7, seq, 1_000);
            assert_eq!(backlog.pop(DST, SRC), Some(want));
        }
        assert_eq!(backlog.pop(DST, SRC), None);
        assert!(backlog.is_empty());
    }

    /// What sets a data packet apart from the rest of its stream.
    #[derive(Debug, Clone)]
    enum Oddity {
        None,
        Resized,
        Ecn,
        Tagged,
        Foreign,
        /// One above the next number down: the previous packet's again.
        Repeat,
    }

    /// One step of a parked-traffic script.
    #[derive(Debug, Clone)]
    enum Op {
        /// The next data packet of stream `flow` after skipping `gap`
        /// sequence numbers.
        Data { flow: u64, gap: u64, oddity: Oddity },
        /// A ping parked between the data.
        Control(u64),
        /// Hands the oldest packet back.
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        let oddity = prop_oneof![
            20 => Just(Oddity::None),
            1 => Just(Oddity::Resized),
            1 => Just(Oddity::Ecn),
            1 => Just(Oddity::Tagged),
            1 => Just(Oddity::Foreign),
            1 => Just(Oddity::Repeat),
        ];
        let gap = prop_oneof![6 => Just(0u64), 1 => 1u64..4];
        let data =
            (0u64..3, gap, oddity).prop_map(|(flow, gap, oddity)| Op::Data { flow, gap, oddity });
        prop_oneof![
            12 => data,
            1 => any::<u64>().prop_map(Op::Control),
            3 => Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever is pushed — interleaved streams counting down, with
        /// gaps, repeats, a changed size, ECN marks, tags, a foreign
        /// source and control packets among them — pops back exactly, in
        /// order, against a plain queue of whole packets.
        #[test]
        fn pops_what_was_pushed(flows in 1u64..=3, ops in proptest::collection::vec(op(), 0..300)) {
            let mut backlog = Backlog::default();
            let mut model: VecDeque<Packet> = VecDeque::new();
            // Each stream counts down from a small start, so runs also
            // reach sequence 0 and the stream restarts above it.
            let mut next = [20u64, 35, 50];
            for op in ops {
                let pkt = match op {
                    Op::Pop => {
                        prop_assert_eq!(backlog.pop(DST, SRC), model.pop_front());
                        continue;
                    }
                    Op::Control(seq) => {
                        let ping = ControlMessage::Ping { seq, sent_at: SimTime::ZERO };
                        Packet::control(DST, SRC, Path::empty(), ping)
                    }
                    Op::Data { flow, gap, oddity } => {
                        let flow = flow % flows;
                        let slot = &mut next[flow as usize];
                        let seq = slot.checked_sub(gap).unwrap_or(20 + 15 * flow);
                        *slot = seq.checked_sub(1).unwrap_or(20 + 15 * flow);
                        let mut pkt = Packet::data(DST, SRC, Path::empty(), flow, seq, 1_500);
                        match oddity {
                            Oddity::None => {}
                            Oddity::Resized => pkt.payload = Payload::Data { flow, seq, bytes: 64 },
                            Oddity::Ecn => pkt.ecn = true,
                            Oddity::Tagged => {
                                pkt.path = Path::from_tags([Tag(3), Tag(5)]).expect("valid tags");
                            }
                            Oddity::Foreign => pkt.src = DST,
                            Oddity::Repeat => {
                                pkt.payload = Payload::Data { flow, seq: seq + 1, bytes: 1_500 };
                            }
                        }
                        pkt
                    }
                };
                model.push_back(pkt.clone());
                backlog.push(DST, SRC, pkt);
            }
            while let Some(want) = model.pop_front() {
                prop_assert_eq!(backlog.pop(DST, SRC), Some(want));
            }
            prop_assert_eq!(backlog.pop(DST, SRC), None);
            prop_assert!(backlog.is_empty());
        }
    }
}
