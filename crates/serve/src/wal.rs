//! Write-ahead update log: the durability half of crash recovery.
//!
//! Admitted update batches are appended here **before** the client's
//! ack is sent, so a crash after the ack can always be replayed. The
//! file layout is an 8-byte magic followed by self-delimiting records:
//!
//! ```text
//! GGWAL1\0\0 · record* · (possibly torn tail)
//! record = len u32 · crc u32 · payload
//! payload = seq u64 · n u32 · n × update   (update as in the wire protocol)
//! ```
//!
//! `len` is the payload length and `crc` its CRC-32, so a reader can
//! walk records front-to-back and stop at the first record whose length
//! runs past EOF or whose checksum fails — everything before that point
//! is intact, everything after is an unacknowledged torn tail and is
//! discarded by truncating to [`WalContents::valid_bytes`]. Updates use
//! the exact wire-protocol codec, so a replayed record is
//! byte-for-byte the batch a client once framed.
//!
//! Sequence numbers are assigned by the caller (monotonically, starting
//! at 1) and let recovery skip records already captured by a
//! checkpoint; [`compact_wal`] drops those records atomically
//! (write-temp + rename) once a checkpoint lands.

use crate::wire::{get_updates, put_updates};
use gograph_graph::codec::{Reader, Writer};
use gograph_graph::io::crc32;
use gograph_graph::EdgeUpdate;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a GoGraph WAL, version 1.
pub const WAL_MAGIC: &[u8; 8] = b"GGWAL1\0\0";

const FORMAT: &str = "GGWAL1 write-ahead log";

/// Records larger than this are treated as corruption — mirrors the
/// wire protocol's frame cap so a torn length field cannot drive a
/// gigabyte allocation during replay.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

/// How eagerly appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every append: an acked batch survives power
    /// loss, at one sync per batch.
    EveryBatch,
    /// Group commit: sync once every `n` appends (and on drop). An
    /// acked batch always survives *process* crashes; up to `n − 1`
    /// batches may be lost to a whole-machine failure.
    EveryN(u32),
    /// Never sync explicitly; the OS flushes at its leisure. Acked
    /// batches still survive process crashes (the write hit the page
    /// cache before the ack).
    Os,
}

/// An appendable write-ahead log.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    sync: SyncPolicy,
    since_sync: u32,
    len: u64,
}

impl WalWriter {
    /// Opens (or creates) the log at `path`, positioned to append. A
    /// fresh or empty file gets the magic; an existing file must carry
    /// it. Recovery must have truncated any torn tail first (see
    /// [`truncate_wal`]) — this writer appends blindly at EOF.
    pub fn open(path: &Path, sync: SyncPolicy) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let end = file.seek(SeekFrom::End(0))?;
        if end == 0 {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
        } else {
            let mut magic = [0u8; 8];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut magic)?;
            Reader::new(FORMAT, &magic).magic(WAL_MAGIC)?;
            file.seek(SeekFrom::End(0))?;
        }
        let len = file.stream_position()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            sync,
            since_sync: 0,
            len,
        })
    }

    /// Appends one batch under sequence number `seq` and applies the
    /// sync policy. Returns the record's size in bytes. The record is
    /// durable (per the policy) when this returns — callers ack only
    /// after that.
    pub fn append(&mut self, seq: u64, updates: &[EdgeUpdate]) -> io::Result<u64> {
        let record = encode_record(seq, updates);
        self.file.write_all(&record)?;
        self.len += record.len() as u64;
        self.since_sync += 1;
        let sync_now = match self.sync {
            SyncPolicy::EveryBatch => true,
            SyncPolicy::EveryN(n) => self.since_sync >= n.max(1),
            SyncPolicy::Os => false,
        };
        if sync_now {
            self.file.sync_data()?;
            self.since_sync = 0;
        }
        Ok(record.len() as u64)
    }

    /// Current log length in bytes (magic included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.since_sync = 0;
        Ok(())
    }
}

/// Frames one record: `len · crc · payload`, the payload being `seq`
/// and the batch in the wire codec.
fn encode_record(seq: u64, updates: &[EdgeUpdate]) -> Vec<u8> {
    let mut payload = Writer::with_capacity(16 + 17 * updates.len());
    payload.u64(seq);
    put_updates(&mut payload, updates);
    let mut record = Writer::with_capacity(8 + payload.len());
    record.u32(payload.len() as u32);
    record.u32(crc32(&payload));
    record.bytes(&payload);
    record.into_vec()
}

/// One replayable record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Caller-assigned sequence number.
    pub seq: u64,
    /// The batch exactly as appended.
    pub updates: Vec<EdgeUpdate>,
}

/// Whether the log ended cleanly or in a torn write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The last record ends exactly at EOF.
    Clean,
    /// Bytes after the last intact record fail framing or CRC — an
    /// unacknowledged torn append. Truncate to `valid_bytes`.
    CorruptTail,
}

/// Everything [`read_wal`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct WalContents {
    /// Intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn tail follows them.
    pub tail: TailStatus,
    /// Byte offset of the first non-intact byte: the length of the
    /// longest valid prefix (magic + intact records).
    pub valid_bytes: u64,
}

/// Walks the log front-to-back, collecting every intact record and
/// reporting where intactness ends. A missing file reads as an empty
/// clean log; a present file must carry the magic.
pub fn read_wal(path: &Path) -> io::Result<WalContents> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalContents {
                records: Vec::new(),
                tail: TailStatus::Clean,
                valid_bytes: 0,
            })
        }
        Err(e) => return Err(e),
    };
    Reader::new(FORMAT, &raw).magic(WAL_MAGIC)?;
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if pos == raw.len() {
            return Ok(WalContents {
                records,
                tail: TailStatus::Clean,
                valid_bytes: pos as u64,
            });
        }
        let Some(record) = parse_record(&raw[pos..]) else {
            return Ok(WalContents {
                records,
                tail: TailStatus::CorruptTail,
                valid_bytes: pos as u64,
            });
        };
        let (rec, consumed) = record;
        records.push(rec);
        pos += consumed;
    }
}

/// Parses one record off the front of `bytes`; `None` on any framing,
/// CRC or payload defect (all equivalent to a torn tail).
fn parse_record(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let mut r = Reader::new(FORMAT, bytes);
    let len = r.u32("record length").ok()?;
    let crc = r.u32("record crc").ok()?;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let payload = r.slice(len as usize, "record payload").ok()?;
    if crc32(payload) != crc {
        return None;
    }
    let mut p = Reader::new(FORMAT, payload);
    let seq = p.u64("record seq").ok()?;
    let updates = get_updates(&mut p).ok()?;
    p.finish().ok()?;
    Some((WalRecord { seq, updates }, r.offset()))
}

/// Discards a torn tail by truncating the log to its longest valid
/// prefix (from [`WalContents::valid_bytes`]). A `valid_bytes` of 0
/// (missing/empty log) is a no-op.
pub fn truncate_wal(path: &Path, valid_bytes: u64) -> io::Result<()> {
    if valid_bytes == 0 && !path.exists() {
        return Ok(());
    }
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_bytes.max(WAL_MAGIC.len() as u64))?;
    file.sync_data()?;
    Ok(())
}

/// Atomically rewrites the log keeping only records with
/// `seq > keep_after_seq` — called after a checkpoint at
/// `keep_after_seq` makes earlier records redundant. Crash-safe in
/// every window: the new log is written to a temp file, fsynced, then
/// renamed over the old one (a crash leaves either the old complete
/// log or the new complete log). Returns the number of records kept.
pub fn compact_wal(path: &Path, keep_after_seq: u64) -> io::Result<usize> {
    let contents = read_wal(path)?;
    let keep: Vec<&WalRecord> = contents
        .records
        .iter()
        .filter(|r| r.seq > keep_after_seq)
        .collect();
    let mut log = WAL_MAGIC.to_vec();
    for r in &keep {
        log.extend_from_slice(&encode_record(r.seq, &r.updates));
    }
    crate::write_atomic(path, &log)?;
    Ok(keep.len())
}

/// Reads the log and returns up to `max_records` intact records in the
/// half-open seq window `(after_seq, up_to_seq]`, in append order — the
/// primary's per-subscribe segment scan. `max_records` is clamped to at
/// least 1 so a subscriber can always make progress.
pub fn read_wal_segment(
    path: &Path,
    after_seq: u64,
    up_to_seq: u64,
    max_records: u32,
) -> io::Result<Vec<WalRecord>> {
    let contents = read_wal(path)?;
    Ok(contents
        .records
        .into_iter()
        .filter(|r| r.seq > after_seq && r.seq <= up_to_seq)
        .take(max_records.max(1) as usize)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gograph-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(k: u32) -> Vec<EdgeUpdate> {
        vec![
            EdgeUpdate::insert_weighted(k, k + 1, 1.5),
            EdgeUpdate::remove(k + 1, k),
        ]
    }

    #[test]
    fn append_read_roundtrip_and_reopen() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("updates.wal");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryBatch).unwrap();
        for seq in 1..=3u64 {
            w.append(seq, &batch(seq as u32)).unwrap();
        }
        drop(w);
        // Reopen appends after existing records.
        let mut w = WalWriter::open(&path, SyncPolicy::EveryN(8)).unwrap();
        w.append(4, &batch(4)).unwrap();
        w.sync().unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.tail, TailStatus::Clean);
        assert_eq!(contents.records.len(), 4);
        for (i, r) in contents.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.updates, batch(r.seq as u32));
        }
        assert_eq!(contents.valid_bytes, w.len_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_reads_honor_window_and_cap() {
        let dir = tmp_dir("segment");
        let path = dir.join("updates.wal");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryBatch).unwrap();
        for seq in 1..=6u64 {
            w.append(seq, &batch(seq as u32)).unwrap();
        }
        drop(w);
        let seg = read_wal_segment(&path, 2, 5, 2).unwrap();
        assert_eq!(
            seg.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4],
            "window is (after, up_to], capped"
        );
        let seg = read_wal_segment(&path, 2, 5, 100).unwrap();
        assert_eq!(seg.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(seg[0].updates, batch(3));
        // A zero cap still returns one record — progress is guaranteed.
        let seg = read_wal_segment(&path, 0, 6, 0).unwrap();
        assert_eq!(seg.len(), 1);
        assert!(read_wal_segment(&path, 6, 6, 8).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_offset_keeps_only_intact_prefix() {
        let dir = tmp_dir("truncate");
        let path = dir.join("updates.wal");
        let mut w = WalWriter::open(&path, SyncPolicy::Os).unwrap();
        for seq in 1..=5u64 {
            w.append(seq, &batch(seq as u32)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let intact = read_wal(&path).unwrap();
        assert_eq!(intact.records.len(), 5);
        // Record boundaries: prefix lengths at which the log is clean.
        let mut boundaries = vec![WAL_MAGIC.len() as u64];
        {
            let mut pos = WAL_MAGIC.len();
            while pos < full.len() {
                let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
                boundaries.push(pos as u64);
            }
        }
        for cut in WAL_MAGIC.len()..=full.len() {
            let cut_path = dir.join(format!("cut-{cut}.wal"));
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let c = read_wal(&cut_path).unwrap();
            // Every intact record must be a true prefix of the original.
            assert!(c.records.len() <= 5);
            for (i, r) in c.records.iter().enumerate() {
                assert_eq!(r, &intact.records[i], "cut at {cut}");
            }
            if boundaries.contains(&(cut as u64)) {
                assert_eq!(c.tail, TailStatus::Clean, "cut at {cut}");
            } else {
                assert_eq!(c.tail, TailStatus::CorruptTail, "cut at {cut}");
                assert!(boundaries.contains(&c.valid_bytes));
            }
            // Repair: truncate to the valid prefix, reopen, append.
            truncate_wal(&cut_path, c.valid_bytes).unwrap();
            let kept = c.records.len();
            let mut w = WalWriter::open(&cut_path, SyncPolicy::EveryBatch).unwrap();
            w.append(99, &batch(99)).unwrap();
            let after = read_wal(&cut_path).unwrap();
            assert_eq!(after.tail, TailStatus::Clean);
            assert_eq!(after.records.len(), kept + 1);
            assert_eq!(after.records.last().unwrap().seq, 99);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("updates.wal");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryBatch).unwrap();
        w.append(1, &batch(1)).unwrap();
        w.append(2, &batch(2)).unwrap();
        drop(w);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's payload.
        let idx = WAL_MAGIC.len() + 12;
        raw[idx] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let c = read_wal(&path).unwrap();
        assert_eq!(c.tail, TailStatus::CorruptTail);
        assert_eq!(
            c.records.len(),
            0,
            "corruption in record 1 invalidates it and everything after"
        );
        assert_eq!(c.valid_bytes, WAL_MAGIC.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_only_post_checkpoint_records() {
        let dir = tmp_dir("compact");
        let path = dir.join("updates.wal");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryBatch).unwrap();
        for seq in 1..=6u64 {
            w.append(seq, &batch(seq as u32)).unwrap();
        }
        drop(w);
        assert_eq!(compact_wal(&path, 4).unwrap(), 2);
        let c = read_wal(&path).unwrap();
        assert_eq!(c.tail, TailStatus::Clean);
        assert_eq!(
            c.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![5, 6]
        );
        // Compacted log accepts further appends.
        let mut w = WalWriter::open(&path, SyncPolicy::EveryBatch).unwrap();
        w.append(7, &batch(7)).unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reads_empty_and_bad_magic_errors() {
        let dir = tmp_dir("magic");
        let missing = dir.join("nope.wal");
        let c = read_wal(&missing).unwrap();
        assert!(c.records.is_empty());
        assert_eq!(c.tail, TailStatus::Clean);
        let bad = dir.join("bad.wal");
        std::fs::write(&bad, b"NOTAWAL!").unwrap();
        assert!(read_wal(&bad).is_err());
        assert!(WalWriter::open(&bad, SyncPolicy::Os).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One record, byte for byte: any change to the framing or to the
    /// update codec has to re-pin it on purpose.
    #[test]
    fn record_bytes_are_golden() {
        let updates = [EdgeUpdate::insert(1, 2), EdgeUpdate::remove(3, 4)];
        let golden: [u8; 46] = [
            0x26, 0x00, 0x00, 0x00, // payload length 38
            0xd2, 0x0b, 0x82, 0xb1, // CRC-32 of the payload
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 7
            0x02, 0x00, 0x00, 0x00, // 2 updates
            0x00, // insert
            0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // 1 -> 2
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // weight 1.0
            0x01, // remove
            0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, // 3 -> 4
        ];
        assert_eq!(&encode_record(7, &updates)[..], &golden[..]);
        let rec = WalRecord {
            seq: 7,
            updates: updates.to_vec(),
        };
        assert_eq!(parse_record(&golden), Some((rec, golden.len())));
    }
}
