//! Append-only `EngineEvent` write-ahead log (DESIGN.md §13).
//!
//! One record per *committed* batch, framed exactly like a wire frame —
//! `[u32 len][u32 crc32][payload]` — with payload
//! `[u64 epoch][u32 count][events…]` in the codec's binary event format.
//! The daemon appends **after** the engine validates and applies a batch
//! and **before** acknowledging it, so:
//!
//! * every record replays cleanly (validation already passed), and
//! * an acknowledged batch is in the log (durable up to the fsync
//!   policy), while a batch lost to a crash was never acknowledged.
//!
//! On open the log is scanned front to back; the first bad record —
//! truncated header, truncated payload, oversized length, CRC mismatch,
//! or undecodable events — marks the *torn tail* left by a crash
//! mid-append, and everything from that offset on is truncated away.
//! [`scan`] is the read-only version of the same walk (used by
//! `owp-inspect wal`), reporting what open would truncate without
//! touching the file.

use crate::codec::{self, CodecError, Cursor, FRAME_HEADER, MAX_FRAME};
use owp_engine::EngineEvent;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// When the WAL file is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record — maximum durability, the ack
    /// implies the record is on disk.
    Always,
    /// `fsync` only when a snapshot is taken (and on graceful shutdown).
    /// An OS crash can lose the un-synced suffix; a process crash cannot.
    OnSnapshot,
    /// Never `fsync` explicitly (tests/benchmarks).
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always` | `snapshot` | `never`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "snapshot" => Ok(FsyncPolicy::OnSnapshot),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("unknown fsync policy {other:?} (always|snapshot|never)")),
        }
    }
}

/// One decoded WAL record: the batch applied at `epoch`.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Engine epoch the batch produced.
    pub epoch: u64,
    /// The batch, in application order.
    pub events: Vec<EngineEvent>,
}

/// What a front-to-back scan found (the `owp-inspect wal` summary).
#[derive(Clone, Debug, Default)]
pub struct WalSummary {
    /// CRC-valid, decodable records.
    pub records: u64,
    /// Bytes of valid records including their 8-byte headers.
    pub valid_bytes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Epoch of the first valid record.
    pub first_epoch: Option<u64>,
    /// Epoch of the last valid record.
    pub last_epoch: Option<u64>,
    /// Bytes after the last valid record (0 = clean).
    pub torn_bytes: u64,
    /// Why the tail is torn, when it is.
    pub torn_reason: Option<String>,
}

impl WalSummary {
    /// `true` iff the file is wholly made of valid records.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0
    }
}

fn record_payload(epoch: u64, events: &[EngineEvent]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + events.len() * 9);
    codec::put_u64(&mut payload, epoch);
    codec::put_u32(&mut payload, events.len() as u32);
    for ev in events {
        codec::put_event(&mut payload, ev);
    }
    payload
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut cur = Cursor::new(payload);
    let epoch = cur.u64("record epoch")?;
    let events = codec::get_events(&mut cur)?;
    cur.done()?;
    Ok(WalRecord { epoch, events })
}

/// Walks `bytes` front to back, returning every valid record plus the
/// summary. Stops at the first bad record; resynchronization past a
/// corrupt region is impossible without record markers, so — as in any
/// length-prefixed log — corruption truncates the suffix.
fn scan_bytes(bytes: &[u8]) -> (WalSummary, Vec<WalRecord>) {
    let mut summary = WalSummary { file_bytes: bytes.len() as u64, ..WalSummary::default() };
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let left = bytes.len() - off;
        if left < FRAME_HEADER as usize {
            summary.torn_reason = Some(format!("{left}-byte partial record header"));
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            summary.torn_reason = Some(format!("oversized record length {len}"));
            break;
        }
        let body_end = off + FRAME_HEADER as usize + len as usize;
        if body_end > bytes.len() {
            summary.torn_reason = Some(format!(
                "record declares {len} payload bytes but only {} remain",
                left - FRAME_HEADER as usize
            ));
            break;
        }
        let payload = &bytes[off + FRAME_HEADER as usize..body_end];
        let got = codec::crc32(payload);
        if got != crc {
            summary.torn_reason =
                Some(format!("CRC mismatch (header {crc:#010x}, payload {got:#010x})"));
            break;
        }
        match decode_record(payload) {
            Ok(rec) => {
                if summary.first_epoch.is_none() {
                    summary.first_epoch = Some(rec.epoch);
                }
                summary.last_epoch = Some(rec.epoch);
                summary.records += 1;
                records.push(rec);
                off = body_end;
                summary.valid_bytes = off as u64;
            }
            Err(e) => {
                summary.torn_reason = Some(format!("undecodable record payload: {e}"));
                break;
            }
        }
    }
    summary.torn_bytes = summary.file_bytes - summary.valid_bytes;
    (summary, records)
}

/// Read-only scan of a WAL file: records + summary, file untouched.
pub fn scan(path: &Path) -> std::io::Result<(WalSummary, Vec<WalRecord>)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan_bytes(&bytes))
}

/// The open, appendable write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
    policy: FsyncPolicy,
}

impl Wal {
    /// Opens (or creates) the log at `path`, truncating any torn tail so
    /// the file ends at the last valid record. Returns the log positioned
    /// for append plus everything it already held — the recovery replay
    /// input.
    pub fn open(
        path: &Path,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Wal, Vec<WalRecord>, WalSummary)> {
        let mut bytes = Vec::new();
        if path.exists() {
            File::open(path)?.read_to_end(&mut bytes)?;
        }
        let (summary, records) = scan_bytes(&bytes);
        let file = OpenOptions::new().create(true).read(true).write(true).truncate(false).open(path)?;
        if summary.torn_bytes > 0 {
            file.set_len(summary.valid_bytes)?;
            file.sync_data()?;
        }
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            bytes: summary.valid_bytes,
            records: summary.records,
            policy,
        };
        Ok((wal, records, summary))
    }

    /// Appends one committed batch. Syncs iff the policy is
    /// [`FsyncPolicy::Always`].
    pub fn append(&mut self, epoch: u64, events: &[EngineEvent]) -> std::io::Result<()> {
        use std::io::Seek;
        let payload = record_payload(epoch, events);
        let mut rec = Vec::with_capacity(payload.len() + FRAME_HEADER as usize);
        codec::put_u32(&mut rec, payload.len() as u32);
        codec::put_u32(&mut rec, codec::crc32(&payload));
        rec.extend_from_slice(&payload);
        self.file.seek(std::io::SeekFrom::Start(self.bytes))?;
        self.file.write_all(&rec)?;
        self.bytes += rec.len() as u64;
        self.records += 1;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Forces the log to stable storage regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.policy != FsyncPolicy::Never {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Empties the log — called right after a snapshot durably covers
    /// every record (recovery skips records at or below the snapshot
    /// epoch anyway, so a crash between snapshot and reset is safe).
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.bytes = 0;
        self.records = 0;
        if self.policy != FsyncPolicy::Never {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Current log size in bytes (headers included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::NodeId;

    fn batch(i: u32) -> Vec<EngineEvent> {
        vec![
            EngineEvent::NodeLeave { node: NodeId(i) },
            EngineEvent::NodeJoin { node: NodeId(i) },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owp-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("matchd.wal")
    }

    #[test]
    fn append_reopen_replays_everything() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, records, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            assert!(records.is_empty());
            for e in 1..=5u64 {
                wal.append(e, &batch(e as u32)).expect("append");
            }
        }
        let (wal, records, summary) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(records.len(), 5);
        assert_eq!(summary.first_epoch, Some(1));
        assert_eq!(summary.last_epoch, Some(5));
        assert!(summary.is_clean());
        assert_eq!(wal.records(), 5);
        assert_eq!(records[2], WalRecord { epoch: 3, events: batch(3) });
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            wal.append(1, &batch(1)).expect("append");
            wal.append(2, &batch(2)).expect("append");
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append mode");
        f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xde, 0xad]).expect("garbage");
        drop(f);
        let before = std::fs::metadata(&path).expect("meta").len();
        let (summary, records) = scan(&path).expect("scan");
        assert_eq!(records.len(), 2);
        assert_eq!(summary.torn_bytes, 6);
        assert!(summary.torn_reason.as_deref().unwrap().contains("partial record header"));
        // Open truncates; the file shrinks back and a fresh scan is clean.
        let (_, records, open_summary) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        assert_eq!(records.len(), 2);
        assert_eq!(open_summary.torn_bytes, 6);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), before - 6);
        let (clean, _) = scan(&path).expect("rescan");
        assert!(clean.is_clean());
    }

    #[test]
    fn bit_flip_truncates_from_flip_point() {
        let path = tmp("flip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            for e in 1..=3u64 {
                wal.append(e, &batch(e as u32)).expect("append");
            }
        }
        let mut bytes = std::fs::read(&path).expect("read");
        let rec_len = bytes.len() / 3;
        bytes[rec_len + rec_len / 2] ^= 0x01; // inside record 2's payload
        std::fs::write(&path, &bytes).expect("write");
        let (summary, records) = scan(&path).expect("scan");
        assert_eq!(records.len(), 1);
        assert!(summary.torn_reason.as_deref().unwrap().contains("CRC mismatch"));
        assert_eq!(summary.torn_bytes, (bytes.len() - rec_len) as u64);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        wal.append(1, &batch(1)).expect("append");
        assert!(wal.bytes() > 0);
        wal.reset().expect("reset");
        assert_eq!(wal.bytes(), 0);
        wal.append(9, &batch(2)).expect("append after reset");
        let (_, records, _) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 9);
    }
}
