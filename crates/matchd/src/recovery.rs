//! Crash recovery: snapshot restore + WAL replay + certification.
//!
//! The recovery invariant (DESIGN.md §13): after an unclean stop, the
//! engine rebuilt from the latest snapshot plus the WAL suffix is
//! **certified** — its matching is bit-identical to a from-scratch
//! `lic()` over the recovered instance — before the daemon accepts a
//! single connection. A daemon that cannot prove this refuses to start.

use crate::snapshot::SnapshotStore;
use crate::wal::{FsyncPolicy, Wal, WalRecord};
use owp_engine::{Engine, Epoch};
use owp_matching::Problem;
use std::path::Path;

/// File name of the WAL inside a matchd data directory.
pub const WAL_FILE: &str = "matchd.wal";

/// The outcome of a successful recovery: a certified engine plus the
/// open WAL, positioned for append.
pub struct Recovery {
    /// The recovered, certified engine.
    pub engine: Engine,
    /// The WAL, torn tail already truncated.
    pub wal: Wal,
    /// Epoch the snapshot provided (0 when starting from the universe).
    pub snapshot_epoch: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Bytes of torn tail the WAL open truncated (0 on a clean stop).
    pub torn_bytes: u64,
}

/// Rebuilds the engine state of `data_dir`, or starts fresh from
/// `universe` when the directory holds no snapshot and no WAL. Fails —
/// and the daemon must not serve — if the snapshot is a delta
/// checkpoint written against a different universe, if the WAL cannot
/// replay, or if the recovered engine fails [`Engine::certify`].
pub fn recover(data_dir: &Path, universe: &Problem, policy: FsyncPolicy) -> Result<Recovery, String> {
    std::fs::create_dir_all(data_dir)
        .map_err(|e| format!("cannot create data dir {}: {e}", data_dir.display()))?;
    let store = SnapshotStore::new(data_dir);
    let (mut engine, snapshot_epoch) = match store.load(Some(universe))? {
        Some(snap) => {
            let engine = Engine::from_snapshot(&snap.origin, Epoch(snap.epoch))?;
            (engine, snap.epoch)
        }
        None => (Engine::new(universe.clone()), 0),
    };
    let (wal, records, summary) = Wal::open(&data_dir.join(WAL_FILE), policy)
        .map_err(|e| format!("cannot open WAL: {e}"))?;
    let replayed = replay(&mut engine, &records, snapshot_epoch)?;
    engine.certify().map_err(|e| format!("recovered engine failed certification: {e}"))?;
    Ok(Recovery { engine, wal, snapshot_epoch, replayed, torn_bytes: summary.torn_bytes })
}

/// Replays WAL `records` onto `engine`, which holds the state at epoch
/// `floor`: records at or below `floor` are already inside the snapshot
/// and are skipped, and every applied record must bring the engine to
/// exactly the epoch it was logged at. Returns the records applied.
///
/// This is the one replay loop: [`recover`] runs it before the daemon
/// serves, and `owp-inspect wal` runs it offline, so the inspector
/// certifies exactly the logs the daemon would recover.
pub fn replay(engine: &mut Engine, records: &[WalRecord], floor: u64) -> Result<usize, String> {
    let mut replayed = 0usize;
    for rec in records.iter().filter(|rec| rec.epoch > floor) {
        engine
            .apply_batch(&rec.events)
            .map_err(|e| format!("WAL record at epoch {} no longer validates: {e}", rec.epoch))?;
        if engine.epoch().0 != rec.epoch {
            return Err(format!(
                "WAL epoch discontinuity: replay reached {} but the record says {}",
                engine.epoch().0,
                rec.epoch
            ));
        }
        replayed += 1;
    }
    Ok(replayed)
}
