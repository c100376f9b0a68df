//! Wire codec for DCO protocol messages (cross-shard transport).
//!
//! The sharded runner serializes every [`DcoMsg`] that crosses a worker
//! boundary with these impls. Format follows the `dco-sim` codec: fields in
//! declaration order, one tag byte per enum variant, all integers
//! little-endian fixed-width. Both ends of a pipe are the same binary, so
//! there is no versioning — only unambiguity and bounds-checked decoding.

use dco_sim::wire::wire_codec;

use crate::chunk::ChunkSeq;
use crate::index::ChunkIndex;
use crate::proto::DcoMsg;

wire_codec!(struct ChunkSeq(seq));
wire_codec!(struct ChunkIndex {
    seq,
    holder,
    avail,
    held_count,
});
wire_codec!(enum DcoMsg {
    0 => Chord(m),
    1 => Insert { key, index, ttl, fin },
    2 => Deregister { key, holder, ttl, fin },
    3 => Lookup { key, seq, origin, exclude, ttl, fin },
    4 => Provider { seq, provider },
    5 => ChunkRequest { seq },
    6 => ChunkData { seq },
    7 => Busy { seq },
    8 => NoChunk { seq },
    9 => IndexHandover { entries },
    10 => AttachRequest,
    11 => AttachAssign { coordinator },
    12 => ClientAttach,
    13 => ClientLookup { seq, exclude },
    14 => ClientInsert { index },
    15 => StableReport { longevity },
    16 => Promote,
    17 => CoordinatorAnnounce,
    18 => CoordinatorLost { dead },
});

#[cfg(test)]
mod tests {
    use super::*;
    use dco_dht::chord::{ChordMsg, RouteToken};
    use dco_dht::id::{ChordId, Peer};
    use dco_sim::net::Kbps;
    use dco_sim::node::NodeId;
    use dco_sim::wire::{decode_exact, encode_to_vec, WireError};

    fn index(n: u32) -> ChunkIndex {
        ChunkIndex {
            seq: ChunkSeq(n),
            holder: NodeId(n + 1),
            avail: Kbps(600),
            held_count: 3,
        }
    }

    /// `DcoMsg` has no `PartialEq`; equality is checked through the codec
    /// itself — decode then re-encode must reproduce the bytes.
    fn round_trip(msg: &DcoMsg) {
        let bytes = encode_to_vec(msg);
        let back = decode_exact::<DcoMsg>(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes, "{msg:?}");
    }

    fn samples() -> Vec<DcoMsg> {
        vec![
            DcoMsg::Chord(ChordMsg::FindSucc {
                key: ChordId(0xFACE),
                origin: Peer {
                    id: ChordId(5),
                    node: NodeId(5),
                },
                token: RouteToken::App(99),
                ttl: 64,
            }),
            DcoMsg::Insert {
                key: ChordId(12),
                index: index(7),
                ttl: 8,
                fin: true,
            },
            DcoMsg::Deregister {
                key: ChordId(13),
                holder: NodeId(2),
                ttl: 0,
                fin: false,
            },
            DcoMsg::Lookup {
                key: ChordId(u64::MAX),
                seq: ChunkSeq(41),
                origin: NodeId(9),
                exclude: Some(NodeId(1)),
                ttl: 5,
                fin: true,
            },
            DcoMsg::Provider {
                seq: ChunkSeq(41),
                provider: None,
            },
            DcoMsg::ChunkRequest { seq: ChunkSeq(1) },
            DcoMsg::ChunkData { seq: ChunkSeq(2) },
            DcoMsg::Busy { seq: ChunkSeq(3) },
            DcoMsg::NoChunk { seq: ChunkSeq(4) },
            DcoMsg::IndexHandover {
                entries: vec![(ChordId(1), vec![index(1), index(2)]), (ChordId(2), vec![])],
            },
            DcoMsg::AttachRequest,
            DcoMsg::AttachAssign {
                coordinator: NodeId(3),
            },
            DcoMsg::ClientAttach,
            DcoMsg::ClientLookup {
                seq: ChunkSeq(77),
                exclude: None,
            },
            DcoMsg::ClientInsert { index: index(9) },
            DcoMsg::StableReport { longevity: 0.875 },
            DcoMsg::Promote,
            DcoMsg::CoordinatorAnnounce,
            DcoMsg::CoordinatorLost { dead: NodeId(6) },
        ]
    }

    fn peer(n: u32) -> Peer {
        Peer {
            id: ChordId(0x0102_0304_0506_0708 * u64::from(n)),
            node: NodeId(n),
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Exact encodings, one per `RouteToken`, `ChordMsg` and `DcoMsg`
    /// variant, in that order.
    const GOLDEN: [&str; 29] = [
        "00",
        "010d000000",
        "02efbeadde00000000",
        "002a0000000000000038312a231c150e0707000000010300000040",
        "0109000000000000001815120f0c09060303000000021100000000000000",
        "02584d42372c21160b0b000000",
        "030108070605040302010100000002000000100e0c0a0806040202000000201c1814100c080404000000010000000500000002",
        "04403830282018100808000000",
        "05483f362d241b1209090000000150463c32281e140a0a000000",
        "06483f362d241b12090900000000",
        "0000cefa00000000000005000000000000000500000002630000000000000040",
        "010c00000000000000070000000800000058020000030000000801",
        "020d00000000000000020000000000",
        "03ffffffffffffffff290000000900000001010000000501",
        "042900000000",
        "0501000000",
        "0602000000",
        "0703000000",
        "0804000000",
        "09020000000100000000000000020000000100000002000000580200000300000002000000030000005802000003000000020000000000000000000000",
        "0a",
        "0b03000000",
        "0c",
        "0d4d00000000",
        "0e090000000a0000005802000003000000",
        "0f000000000000ec3f",
        "10",
        "11",
        "1206000000",
    ];

    /// Round trips pass for any format that agrees with itself, so they
    /// cannot catch a reordered field or a renumbered tag. This pins the
    /// bytes themselves.
    #[test]
    fn encodings_match_the_pinned_bytes() {
        let tokens = [
            RouteToken::Join,
            RouteToken::Finger(13),
            RouteToken::App(0xDEAD_BEEF),
        ];
        let chord = [
            ChordMsg::FindSucc {
                key: ChordId(42),
                origin: peer(7),
                token: RouteToken::Finger(3),
                ttl: 64,
            },
            ChordMsg::FoundSucc {
                key: ChordId(9),
                succ: peer(3),
                token: RouteToken::App(17),
            },
            ChordMsg::GetPred { from: peer(11) },
            ChordMsg::PredReply {
                pred: Some(peer(1)),
                succs: vec![peer(2), peer(4)],
                dead: vec![(NodeId(5), 2)],
            },
            ChordMsg::Notify { peer: peer(8) },
            ChordMsg::LeaveToPred {
                leaving: peer(9),
                new_succ: Some(peer(10)),
            },
            ChordMsg::LeaveToSucc {
                leaving: peer(9),
                new_pred: None,
            },
        ];
        let got: Vec<(String, String)> = tokens
            .iter()
            .map(|t| (format!("{t:?}"), hex(&encode_to_vec(t))))
            .chain(
                chord
                    .iter()
                    .map(|m| (format!("{m:?}"), hex(&encode_to_vec(m)))),
            )
            .chain(
                samples()
                    .iter()
                    .map(|m| (format!("{m:?}"), hex(&encode_to_vec(m)))),
            )
            .collect();
        assert_eq!(got.len(), GOLDEN.len());
        for ((label, bytes), want) in got.iter().zip(GOLDEN) {
            assert_eq!(bytes, want, "{label}");
        }
    }

    #[test]
    fn dco_messages_round_trip() {
        let samples = samples();
        // One sample per variant keeps this list honest as the enum grows.
        assert_eq!(samples.len(), 19);
        for msg in samples {
            round_trip(&msg);
        }
    }

    #[test]
    fn truncated_dco_messages_are_rejected() {
        for msg in samples() {
            let bytes = encode_to_vec(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_exact::<DcoMsg>(&bytes[..cut]).is_err(),
                    "cut at {cut} of {msg:?}"
                );
            }
        }
    }

    #[test]
    fn bad_variant_tags_are_rejected() {
        assert!(matches!(
            decode_exact::<DcoMsg>(&[250]),
            Err(WireError::BadTag(250))
        ));
    }
}
