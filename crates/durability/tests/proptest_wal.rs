//! WAL corruption properties: against *arbitrary* truncation points and
//! *arbitrary* single-bit flips, recovery never panics, never yields a
//! partial or altered record, and always returns the longest valid
//! prefix of what was written — after which the log accepts fresh
//! appends as if the damage never happened.

use durability::wal::crc32;
use durability::{scratch_dir, Wal, WalConfig};
use proptest::prelude::*;

/// A batch of records with arbitrary contents and lengths (including
/// empty payloads, which are legal).
fn records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=64), 1..=12)
}

fn write_log(dir: &std::path::Path, recs: &[Vec<u8>]) -> std::path::PathBuf {
    let path = dir.join("wal.log");
    let mut wal = Wal::create(&path, WalConfig { sync_every: 1 }).unwrap();
    for r in recs {
        wal.append(r).unwrap();
    }
    path
}

/// Byte offset where record `i` starts (8-byte magic, then
/// `[len u32][crc u32][payload]` frames).
fn record_offsets(recs: &[Vec<u8>]) -> Vec<u64> {
    let mut offs = Vec::with_capacity(recs.len() + 1);
    let mut pos = 8u64;
    for r in recs {
        offs.push(pos);
        pos += 8 + r.len() as u64;
    }
    offs.push(pos);
    offs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the file at any byte keeps exactly the records that
    /// were entirely on disk before the cut — a torn frame is detected,
    /// never half-replayed — and the log stays appendable.
    #[test]
    fn arbitrary_truncation_keeps_longest_valid_prefix(
        recs in records(),
        cut_frac in 0.0f64..=1.0,
    ) {
        let dir = scratch_dir("pt-trunc");
        let path = write_log(&dir, &recs);
        let total = std::fs::metadata(&path).unwrap().len();
        let cut = (total as f64 * cut_frac) as u64;
        Wal::drop_unsynced(&path, cut).unwrap();

        let offs = record_offsets(&recs);
        let expect = offs[1..].iter().filter(|&&end| end <= cut).count();
        match Wal::recover(&path, WalConfig::default()) {
            Ok((mut wal, got)) => {
                prop_assert_eq!(&got[..], &recs[..expect], "cut at {} of {}", cut, total);
                // The damaged tail is gone: appends land on a clean log.
                wal.append(b"fresh").unwrap();
                drop(wal);
                let (_, again) = Wal::recover(&path, WalConfig::default()).unwrap();
                prop_assert_eq!(again.len(), expect + 1);
                prop_assert_eq!(&again[expect][..], b"fresh");
            }
            Err(_) => {
                // Only a cut into the 8-byte magic may make the file
                // unrecognizable as a WAL.
                prop_assert!(cut < 8, "recover errored with intact magic (cut {cut})");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Group commit keeps today's fsync cadence and loses only whole
    /// records: after n appends at `sync_every` k the durable prefix is
    /// exactly the first ⌊n/k⌋·k frames; the file holds exactly the frames
    /// a sync or a flush wrote; and a log dropped without a sync recovers
    /// those frames (every synced record among them, never a partial
    /// one), while a log synced before the drop recovers them all.
    #[test]
    fn group_commit_syncs_on_cadence_and_loses_only_the_batch(
        recs in records(),
        sync_every in 1u64..=5,
        flush_after in 0usize..=12,
        sync_before_drop in any::<bool>(),
    ) {
        let dir = scratch_dir("pt-batch");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, WalConfig { sync_every }).unwrap();
        for (i, r) in recs.iter().enumerate() {
            if i == flush_after {
                wal.flush().unwrap();
            }
            wal.append(r).unwrap();
        }
        let n = recs.len();
        let synced = n / sync_every as usize * sync_every as usize;
        let written = if flush_after < n { synced.max(flush_after) } else { synced };
        let offs = record_offsets(&recs);
        prop_assert_eq!(wal.synced_len(), offs[synced]);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), offs[written]);
        if sync_before_drop {
            wal.sync().unwrap();
        }
        drop(wal);
        let (_, got) = Wal::recover(&path, WalConfig::default()).unwrap();
        let expect = if sync_before_drop { n } else { written };
        prop_assert_eq!(&got[..], &recs[..expect]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit of the record area invalidates exactly the
    /// record it lands in (CRC-32 detects all single-bit errors):
    /// recovery returns the records before it, bit-exact, and drops the
    /// rest rather than replaying altered bytes.
    #[test]
    fn single_bit_flip_never_surfaces_corrupt_data(
        recs in records(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir("pt-flip");
        let path = write_log(&dir, &recs);
        let mut bytes = std::fs::read(&path).unwrap();
        let area = bytes.len() - 8; // spare the magic; bad magic is a separate, fatal error
        prop_assume!(area > 0);
        let pos = 8 + (area as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let offs = record_offsets(&recs);
        let hit = offs.windows(2).position(|w| (pos as u64) >= w[0] && (pos as u64) < w[1])
            .expect("flip must land inside some record frame");
        let (_, got) = Wal::recover(&path, WalConfig::default()).unwrap();
        prop_assert_eq!(
            &got[..],
            &recs[..hit],
            "flip at byte {} bit {} (record {})", pos, bit, hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The CRC the framing relies on: any single-bit flip in a payload
    /// changes its checksum.
    #[test]
    fn crc32_detects_every_single_bit_flip(
        data in prop::collection::vec(any::<u8>(), 1..=48),
        idx_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let idx = (data.len() as f64 * idx_frac) as usize;
        let mut flipped = data.clone();
        flipped[idx] ^= 1 << bit;
        prop_assert_ne!(crc32(&data), crc32(&flipped));
    }
}
