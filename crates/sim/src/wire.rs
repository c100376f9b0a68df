//! In-tree binary wire codec.
//!
//! The sharded runner moves protocol messages between worker processes, and
//! the workspace has **zero external dependencies** — so serialization is a
//! small hand-rolled codec: fixed-width little-endian integers, `u32`
//! length-prefixed sequences, one tag byte per enum variant. No
//! self-description, no versioning — both ends of a pipe are always the
//! same binary (workers are re-execs of the orchestrator), so the format
//! only has to be unambiguous and cheap.
//!
//! The base cases are written out here: the integers, `bool`, `f64`,
//! `Option`, `Vec`, pairs and `String`. Every struct and enum on the wire
//! is declared once with [`wire_codec!`], which generates `encode` and
//! `decode` from the same field list, so the two cannot disagree on the
//! order of fields or the numbering of variants.
//!
//! Every decode is bounds-checked: a truncated or corrupt buffer yields
//! [`WireError`], never a panic or an out-of-bounds read.

use crate::counters::CounterSnapshot;
use crate::engine::RemoteMsg;
use crate::msg::SizeBits;
use crate::net::Kbps;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Decoding failure: the buffer ended early or a tag byte was invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the value needs.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire: truncated buffer"),
            WireError::BadTag(t) => write!(f, "wire: invalid enum tag {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over an encoded buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes one value.
    pub fn get<T: WireCodec>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }
}

/// A type that can be written to and read back from the wire.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh buffer (convenience for tests and frames).
pub fn encode_to_vec<T: WireCodec>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decodes a value that must consume the whole buffer.
pub fn decode_exact<T: WireCodec>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        // Trailing garbage means the stream is out of sync — reject rather
        // than silently drop bytes.
        return Err(WireError::Truncated);
    }
    Ok(v)
}

/// Implements [`WireCodec`] for a struct or an enum from one list of its
/// fields.
///
/// * `struct Name { a, b }` and `struct Name(a)` encode the fields in list
///   order. The list must name every field.
/// * `struct Name<T> { .. }` adds a `T: WireCodec` bound per parameter.
/// * `enum Name { 0 => Unit, 1 => Tuple(a), 2 => Named { a, b } }` writes
///   the tag byte, then the variant's fields in list order. An unknown tag
///   decodes to [`WireError::BadTag`].
///
/// ```
/// use dco_sim::wire::{decode_exact, encode_to_vec, wire_codec};
///
/// #[derive(Debug, PartialEq)]
/// struct Meters(u32);
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line(Meters),
///     Rect { w: u16, h: u16 },
/// }
/// wire_codec!(struct Meters(m));
/// wire_codec!(enum Shape { 0 => Dot, 1 => Line(len), 2 => Rect { w, h } });
///
/// let bytes = encode_to_vec(&Shape::Rect { w: 3, h: 4 });
/// assert_eq!(bytes, [2, 3, 0, 4, 0]);
/// assert_eq!(decode_exact::<Shape>(&bytes), Ok(Shape::Rect { w: 3, h: 4 }));
/// ```
#[macro_export]
macro_rules! wire_codec {
    (struct $name:ident $(<$($g:ident),+>)? { $($f:ident),* $(,)? }) => {
        impl$(<$($g: $crate::wire::WireCodec),+>)? $crate::wire::WireCodec
            for $name$(<$($g),+>)?
        {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let Self { $($f),* } = self;
                $($crate::wire::WireCodec::encode($f, out);)*
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(Self { $($f: r.get()?),* })
            }
        }
    };
    (struct $name:ident ($($f:ident),* $(,)?)) => {
        impl $crate::wire::WireCodec for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let Self($($f),*) = self;
                $($crate::wire::WireCodec::encode($f, out);)*
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(Self($({
                    let $f = r.get()?;
                    $f
                }),*))
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $var:ident $(($($tf:ident),*))? $({ $($sf:ident),* })?),* $(,)?
    }) => {
        impl $crate::wire::WireCodec for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(Self::$var $(($($tf),*))? $({ $($sf),* })? => {
                        out.push($tag);
                        $($($crate::wire::WireCodec::encode($tf, out);)*)?
                        $($($crate::wire::WireCodec::encode($sf, out);)*)?
                    })*
                }
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                match r.get::<u8>()? {
                    $($tag => ::core::result::Result::Ok(Self::$var
                        $(($({
                            let $tf = r.get()?;
                            $tf
                        }),*))?
                        $({ $($sf: r.get()?),* })?
                    ),)*
                    t => ::core::result::Result::Err($crate::wire::WireError::BadTag(t)),
                }
            }
        }
    };
}

pub use crate::wire_codec;

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let b = r.take(core::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, i64);

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.get()?))
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.get()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get::<u32>()? as usize;
        // A length prefix can claim at most `remaining` one-byte elements;
        // rejecting larger claims up front prevents huge pre-allocations
        // from a corrupt prefix.
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.get()?);
        }
        Ok(out)
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((r.get()?, r.get()?))
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get::<u32>()? as usize;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadTag(0xFF))
    }
}

wire_codec!(struct NodeId(id));
wire_codec!(struct Kbps(kbps));
wire_codec!(struct SizeBits(bits));
wire_codec!(struct SimTime(us));
wire_codec!(struct SimDuration(us));
wire_codec!(struct RemoteMsg<M> { at, key, from, to, msg });
wire_codec!(struct CounterSnapshot {
    control_total,
    data_total,
    by_tag,
    control_per_sec,
    dropped_dead,
    dropped_fault,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireCodec + PartialEq + core::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_exact::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(0xA5u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX - 3);
        round_trip(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEFu128);
        round_trip(-42i64);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(NodeId(77));
        round_trip(SimTime::from_micros(123_456_789));
        round_trip(SimDuration::from_millis(50));
        round_trip(SizeBits(600_000));
        round_trip(Kbps(600));
        round_trip(CounterSnapshot {
            control_total: 10,
            data_total: 3,
            by_tag: vec![("chord.notify".to_string(), 4), ("lookup".to_string(), 6)],
            control_per_sec: vec![1, 0, 9],
            dropped_dead: 2,
            dropped_fault: 0,
        });
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let v = 0.1f64 + 0.2; // classic non-representable sum
        let bytes = encode_to_vec(&v);
        let back = decode_exact::<f64>(&bytes).unwrap();
        assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Option::<u32>::None);
        round_trip(Some(9u64));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip((NodeId(1), 99u64));
        round_trip(vec![(3u32, Some(4u8)), (5, None)]);
        round_trip("chunk-driven overlay".to_string());
        round_trip(String::new());
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let bytes = encode_to_vec(&0xDEAD_BEEFu32);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_exact::<u32>(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        // A vector length prefix claiming more elements than the buffer holds.
        let mut evil = Vec::new();
        1_000_000u32.encode(&mut evil);
        assert_eq!(decode_exact::<Vec<u64>>(&evil), Err(WireError::Truncated));
        // Truncated mid-element.
        let mut v = encode_to_vec(&vec![1u64, 2, 3]);
        v.truncate(v.len() - 1);
        assert_eq!(decode_exact::<Vec<u64>>(&v), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert_eq!(decode_exact::<u32>(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(decode_exact::<bool>(&[2]), Err(WireError::BadTag(2)));
        assert_eq!(
            decode_exact::<Option<u8>>(&[9, 0]),
            Err(WireError::BadTag(9))
        );
    }
}
