//! A minimal hand-rolled binary codec for WAL payloads and snapshot
//! blobs.
//!
//! The vendored serde stub cannot derive for data-carrying enums, and the
//! durability formats are tiny and fixed, so records are encoded with an
//! explicit little-endian writer/reader pair. Decoding is fully bounds-
//! checked and returns `Err` (never panics) on malformed input — the WAL
//! CRC already rejects bit flips, but defence in depth keeps recovery
//! panic-free even against logic bugs.

use desim::SimTime;
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
    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Encode a [`Task`].
    pub fn task(&mut self, t: &Task) {
        self.u32(t.id.0);
        self.u32(t.job.0);
        self.u8(match t.kind {
            TaskKind::Map => 0,
            TaskKind::Reduce => 1,
        });
        self.time(t.exec_time);
        self.u32(t.req);
    }

    /// Encode a [`Job`] with all its tasks.
    pub fn job(&mut self, j: &Job) {
        self.u32(j.id.0);
        self.time(j.arrival);
        self.time(j.earliest_start);
        self.time(j.deadline);
        self.u64(j.map_tasks.len() as u64);
        for t in &j.map_tasks {
            self.task(t);
        }
        self.u64(j.reduce_tasks.len() as u64);
        for t in &j.reduce_tasks {
            self.task(t);
        }
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
    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.usize()?;
        self.take(n)
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

    /// Decode a [`Task`].
    pub fn task(&mut self) -> Result<Task, DecodeError> {
        let id = TaskId(self.u32()?);
        let job = JobId(self.u32()?);
        let kind = match self.u8()? {
            0 => TaskKind::Map,
            1 => TaskKind::Reduce,
            _ => return Err(DecodeError("bad task kind")),
        };
        let exec_time = self.time()?;
        let req = self.u32()?;
        Ok(Task {
            id,
            job,
            kind,
            exec_time,
            req,
        })
    }

    /// Decode a [`Job`].
    pub fn job(&mut self) -> Result<Job, DecodeError> {
        let id = JobId(self.u32()?);
        let arrival = self.time()?;
        let earliest_start = self.time()?;
        let deadline = self.time()?;
        let n = self.seq_len()?;
        let mut map_tasks = Vec::with_capacity(n);
        for _ in 0..n {
            map_tasks.push(self.task()?);
        }
        let n = self.seq_len()?;
        let mut reduce_tasks = Vec::with_capacity(n);
        for _ in 0..n {
            reduce_tasks.push(self.task()?);
        }
        Ok(Job {
            id,
            arrival,
            earliest_start,
            deadline,
            map_tasks,
            reduce_tasks,
        })
    }

    /// Decode an optional `f64` flagged by a bool byte.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// Decode a [`ResourceId`].
    pub fn rid(&mut self) -> Result<ResourceId, DecodeError> {
        Ok(ResourceId(self.u32()?))
    }
}

impl Enc {
    /// Encode an optional `f64` as flag byte + value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.f64(x);
            }
            None => self.bool(false),
        }
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
        e.opt_f64(Some(0.25));
        e.opt_f64(None);
        e.bytes(b"hello");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), 3.5);
        assert!(d.bool().unwrap());
        assert_eq!(d.time().unwrap(), SimTime::from_millis(1234));
        assert_eq!(d.opt_f64().unwrap(), Some(0.25));
        assert_eq!(d.opt_f64().unwrap(), None);
        assert_eq!(d.bytes().unwrap(), b"hello");
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
        let job = Job {
            id: JobId(3),
            arrival: SimTime::from_millis(10),
            earliest_start: SimTime::from_millis(20),
            deadline: SimTime::from_millis(90_000),
            map_tasks: vec![t(0, TaskKind::Map), t(1, TaskKind::Map)],
            reduce_tasks: vec![t(2, TaskKind::Reduce)],
        };
        let mut e = Enc::new();
        e.job(&job);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.job().unwrap(), job);
        d.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut e = Enc::new();
        e.job(&Job {
            id: JobId(1),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_millis(1000),
            map_tasks: vec![],
            reduce_tasks: vec![],
        });
        let buf = e.finish();
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            assert!(d.job().is_err(), "cut at {cut} must error");
        }
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
