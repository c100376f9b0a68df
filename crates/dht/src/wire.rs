//! Wire codec for Chord types (cross-shard transport).
//!
//! Sharded runs move [`ChordMsg`] values between worker processes inside
//! `DcoMsg` frames; these impls extend the `dco-sim` codec to the DHT layer.
//! Format: fields in declaration order, one tag byte per enum variant.

use dco_sim::wire::wire_codec;

use crate::chord::{ChordMsg, RouteToken};
use crate::id::{ChordId, Peer};

wire_codec!(struct ChordId(id));
wire_codec!(struct Peer { id, node });
wire_codec!(enum RouteToken {
    0 => Join,
    1 => Finger(k),
    2 => App(cookie),
});
wire_codec!(enum ChordMsg {
    0 => FindSucc { key, origin, token, ttl },
    1 => FoundSucc { key, succ, token },
    2 => GetPred { from },
    3 => PredReply { pred, succs, dead },
    4 => Notify { peer },
    5 => LeaveToPred { leaving, new_succ },
    6 => LeaveToSucc { leaving, new_pred },
});

#[cfg(test)]
mod tests {
    use super::*;
    use dco_sim::node::NodeId;
    use dco_sim::wire::{decode_exact, encode_to_vec, WireError};

    fn peer(n: u32) -> Peer {
        Peer {
            id: ChordId(0x1234_5678_9ABC_DEF0u64.wrapping_mul(u64::from(n) + 1)),
            node: NodeId(n),
        }
    }

    /// `ChordMsg` has no `PartialEq`, so equality is checked through the
    /// codec itself: decode then re-encode must reproduce the bytes.
    fn round_trip(msg: &ChordMsg) {
        let bytes = encode_to_vec(msg);
        let back = decode_exact::<ChordMsg>(&bytes).unwrap();
        assert_eq!(encode_to_vec(&back), bytes, "{msg:?}");
    }

    fn samples() -> Vec<ChordMsg> {
        vec![
            ChordMsg::FindSucc {
                key: ChordId(42),
                origin: peer(7),
                token: RouteToken::Join,
                ttl: 64,
            },
            ChordMsg::FindSucc {
                key: ChordId(u64::MAX),
                origin: peer(0),
                token: RouteToken::Finger(13),
                ttl: 1,
            },
            ChordMsg::FoundSucc {
                key: ChordId(9),
                succ: peer(3),
                token: RouteToken::App(0xDEAD_BEEF),
            },
            ChordMsg::GetPred { from: peer(11) },
            ChordMsg::PredReply {
                pred: None,
                succs: vec![],
                dead: vec![],
            },
            ChordMsg::PredReply {
                pred: Some(peer(1)),
                succs: vec![peer(2), peer(3), peer(4)],
                dead: vec![(NodeId(5), 2), (NodeId(6), 0)],
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
        ]
    }

    #[test]
    fn chord_messages_round_trip() {
        for msg in samples() {
            round_trip(&msg);
        }
    }

    #[test]
    fn route_tokens_round_trip() {
        for token in [
            RouteToken::Join,
            RouteToken::Finger(63),
            RouteToken::App(u64::MAX),
        ] {
            let bytes = encode_to_vec(&token);
            let back = decode_exact::<RouteToken>(&bytes).unwrap();
            assert_eq!(encode_to_vec(&back), bytes);
        }
    }

    #[test]
    fn truncated_chord_messages_are_rejected() {
        for msg in samples() {
            let bytes = encode_to_vec(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_exact::<ChordMsg>(&bytes[..cut]).is_err(),
                    "cut at {cut} of {msg:?}"
                );
            }
        }
    }

    #[test]
    fn bad_variant_tags_are_rejected() {
        assert!(matches!(
            decode_exact::<ChordMsg>(&[200]),
            Err(WireError::BadTag(200))
        ));
        assert!(matches!(
            decode_exact::<RouteToken>(&[7]),
            Err(WireError::BadTag(7))
        ));
    }
}
