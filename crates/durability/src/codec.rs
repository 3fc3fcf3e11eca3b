//! The binary codec of every WAL payload and snapshot blob: one layout
//! per record type, written once.
//!
//! The vendored serde stub cannot derive for data-carrying enums, so
//! records are encoded with an explicit little-endian writer/reader pair,
//! [`Enc`] and [`Dec`], and every durable type implements [`Wire`]. This
//! module implements it for the primitives, the ids, [`SimTime`],
//! `Duration` (nanoseconds as `u64`), tuples, `Vec<T>` (a `u64` length,
//! then the elements), `Option<T>` (a `bool` flag, then the value), and
//! the workload's `TaskKind`, `Task` and `Job`. A struct states its layout
//! once, as its field list in wire order, with
//! [`wire_struct!`](crate::wire_struct); a tagged enum states its tags and
//! each variant's fields with [`wire_enum!`](crate::wire_enum). The one
//! list drives both directions.
//!
//! Adding a field to a durable struct is one line: the field's name in its
//! `wire_struct!` list, where it lands in the layout (the decoder's struct
//! literal does not compile while a field is missing). It changes the
//! format, so bump the magic of every file that holds the type
//! ([`SNAPSHOT_MAGIC`](crate::snapshot::SNAPSHOT_MAGIC) for an image,
//! [`WAL_MAGIC`](crate::wal::WAL_MAGIC) as well for an event), and record
//! the new constants of the golden-format tests.
//!
//! Decoding is fully bounds-checked and returns `Err` (never panics) on
//! malformed input — the WAL CRC already rejects bit flips, but defence
//! in depth keeps recovery panic-free even against logic bugs.

use desim::SimTime;
use std::borrow::Cow;
use std::time::Duration;
use workload::{Job, JobId, ResourceId, Task, TaskId, TaskKind};

/// Decode failure: the payload is shorter or shaped differently than the
/// format requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed durability record: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A type with one binary layout: [`put`](Self::put) appends it,
/// [`get`](Self::get) reads it back.
pub trait Wire: Sized {
    /// Append this value's encoding to `e`.
    fn put(&self, e: &mut Enc);
    /// Read one value from `d`.
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
    /// Encode to a standalone byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.put(&mut e);
        e.finish()
    }
}

/// Implement [`Wire`] for a struct from its field list, in wire order.
///
/// ```
/// use durability::codec::{assert_roundtrip, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     len: u32,
///     start: u64,
/// }
/// durability::wire_struct!(Span { start, len });
///
/// let span = Span { len: 2, start: 1 };
/// assert_eq!(span.to_bytes(), [1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]);
/// assert_roundtrip(&span);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Wire::put(&self.$field, e);)*
            }
            fn get(
                d: &mut $crate::codec::Dec<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok(Self {
                    $($field: $crate::codec::Wire::get(d)?,)*
                })
            }
        }
    };
}

/// Implement [`Wire`] for an enum as a `u8` tag followed by the variant's
/// fields in wire order; a tag not listed decodes to
/// `DecodeError(unknown)`.
///
/// ```
/// use durability::codec::{Dec, DecodeError, Wire};
///
/// #[derive(Debug, PartialEq)]
/// enum Slot {
///     Free,
///     Held { until: u64, by: u32 },
/// }
/// durability::wire_enum!(Slot, "bad slot" {
///     0 => Free,
///     2 => Held { by, until },
/// });
///
/// assert_eq!(Slot::Free.to_bytes(), [0]);
/// assert_eq!(Slot::Held { until: 1, by: 3 }.to_bytes()[..5], [2, 3, 0, 0, 0]);
/// assert_eq!(Slot::get(&mut Dec::new(&[1])), Err(DecodeError("bad slot")));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty, $unknown:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, e: &mut $crate::codec::Enc) {
                match self {
                    $(Self::$variant $({ $($field),* })? => {
                        e.u8($tag);
                        $($($crate::codec::Wire::put($field, e);)*)?
                    })*
                }
            }
            fn get(
                d: &mut $crate::codec::Dec<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok(match d.u8()? {
                    $($tag => Self::$variant $({ $($field: $crate::codec::Wire::get(d)?),* })?,)*
                    _ => return Err($crate::codec::DecodeError($unknown)),
                })
            }
        }
    };
}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Start an empty buffer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finish, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Start over empty, keeping the buffer's allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write an `f64` as its little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Write a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Write a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Write a [`SimTime`] as its raw `i64`.
    pub fn time(&mut self, t: SimTime) {
        self.i64(t.0);
    }
}

/// Bounds-checked little-endian byte reader.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte was consumed.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read an `i64`, little-endian.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read an `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read a `u64` and narrow it to `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError("usize overflow"))
    }
    /// Read a `bool` byte, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("bad bool")),
        }
    }
    /// Read a [`SimTime`] from its raw `i64`.
    pub fn time(&mut self) -> Result<SimTime, DecodeError> {
        Ok(SimTime(self.i64()?))
    }
    /// Length prefix for a sequence, sanity-bounded by the bytes that
    /// remain (each element takes at least one byte) so corrupt lengths
    /// cannot trigger huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(DecodeError("sequence length exceeds payload"));
        }
        Ok(n)
    }
}

/// The scalars, each through its [`Enc`]/[`Dec`] primitive.
macro_rules! wire_scalar {
    ($($ty:ty => $method:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                e.$method(*self);
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                d.$method()
            }
        }
    )*};
}
wire_scalar!(u8 => u8, u32 => u32, u64 => u64, f64 => f64);
wire_scalar!(usize => usize, bool => bool, SimTime => time);

/// The ids, each as its raw `u32`.
macro_rules! wire_id {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                e.u32(self.0);
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
                Ok($ty(d.u32()?))
            }
        }
    )*};
}
wire_id!(JobId, TaskId, ResourceId);

impl Wire for Duration {
    fn put(&self, e: &mut Enc) {
        e.u64(self.as_nanos() as u64);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Duration::from_nanos(d.u64()?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
        self.2.put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(d)?, B::get(d)?, C::get(d)?))
    }
}

/// A `u64` length, then the elements; the length is bounded by
/// [`Dec::seq_len`].
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.usize(self.len());
        for x in self {
            x.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(d)?);
        }
        Ok(v)
    }
}

/// A `bool` flag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(x) = self {
            x.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(if d.bool()? { Some(T::get(d)?) } else { None })
    }
}

/// The value's own layout: an image can encode a borrowed field without
/// copying it, and decodes an owned one.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn put(&self, e: &mut Enc) {
        (**self).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Cow::Owned(T::get(d)?))
    }
}

crate::wire_enum!(TaskKind, "bad task kind" { 0 => Map, 1 => Reduce });
crate::wire_struct!(Task {
    id,
    job,
    kind,
    exec_time,
    req
});
crate::wire_struct!(Job {
    id,
    arrival,
    earliest_start,
    deadline,
    map_tasks,
    reduce_tasks
});

/// Test helper: `v` decodes back from its encoding, consuming every
/// byte, and every proper prefix of the encoding fails to decode.
pub fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_bytes();
    let mut d = Dec::new(&bytes);
    assert_eq!(T::get(&mut d).as_ref(), Ok(v));
    d.expect_end().unwrap();
    for cut in 0..bytes.len() {
        assert!(
            T::get(&mut Dec::new(&bytes[..cut])).is_err(),
            "{v:?} decoded from {cut} of its {} bytes",
            bytes.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(3.5);
        e.bool(true);
        e.time(SimTime::from_millis(1234));
        Some(0.25).put(&mut e);
        None::<f64>.put(&mut e);
        b"hello".to_vec().put(&mut e);
        Duration::from_nanos(1_234_567_891).put(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.time().unwrap(), SimTime::from_millis(1234));
        assert_eq!(Option::<f64>::get(&mut d).unwrap(), Some(0.25));
        assert_eq!(Option::<f64>::get(&mut d).unwrap(), None);
        assert_eq!(Vec::<u8>::get(&mut d).unwrap(), b"hello");
        assert_eq!(
            Duration::get(&mut d).unwrap(),
            Duration::from_nanos(1_234_567_891)
        );
        d.expect_end().unwrap();
    }

    #[test]
    fn job_roundtrip() {
        let t = |id: u32, kind| Task {
            id: TaskId(id),
            job: JobId(3),
            kind,
            exec_time: SimTime::from_millis(500),
            req: 1,
        };
        assert_roundtrip(&Job {
            id: JobId(3),
            arrival: SimTime::from_millis(10),
            earliest_start: SimTime::from_millis(20),
            deadline: SimTime::from_millis(90_000),
            map_tasks: vec![t(0, TaskKind::Map), t(1, TaskKind::Map)],
            reduce_tasks: vec![t(2, TaskKind::Reduce)],
        });
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        assert_roundtrip(&Job {
            id: JobId(1),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_millis(1000),
            map_tasks: vec![],
            reduce_tasks: vec![],
        });
        // A tag past the enum's last is refused, not misread.
        assert_eq!(
            TaskKind::get(&mut Dec::new(&[2])),
            Err(DecodeError("bad task kind"))
        );
    }

    #[test]
    fn corrupt_sequence_length_is_bounded() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // absurd length prefix
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(d.seq_len().is_err());
    }
}
