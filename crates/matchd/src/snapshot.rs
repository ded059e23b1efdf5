//! Durable matchd checkpoints (DESIGN.md §13).
//!
//! A checkpoint file is one CRC-framed record — `[u32 len][u32 crc]`
//! followed by the payload — written to a temp file, synced, atomically
//! renamed over `snapshot.bin`, and made durable by syncing the
//! directory. Readers therefore see either the old checkpoint or the new
//! one, never a torn mix, and the CRC catches bit rot after the fact.
//!
//! The v2 payload (all integers little-endian):
//!
//! ```text
//! [u64 epoch][u8 version = 2][u8 form][u32 n][u32 m]
//! form 0, delta: [u64 universe digest]
//! form 1, full:  m × [u32 u][u32 v]              the edge list, edge-id order
//! [⌈n/8⌉ bytes]  active bitmap, bit i of byte i/8 = node i, padding zero
//! [⌈m/8⌉ bytes]  present bitmap, the same for edge ids
//! [u32 count] count × [u32 node][u32 quota][u32 len][len × u32 list]
//! ```
//!
//! Override entries carry strictly increasing node ids. A delta
//! checkpoint holds an entry only for the nodes whose quota or list
//! differs from the universe the daemon started on, so the engine owner
//! writes O(n + m) bits plus O(changes) entries instead of the whole
//! instance; it decodes only against a universe with the same
//! [`universe_digest`]. A full checkpoint ([`SnapshotStore::save`])
//! carries the edge list and an entry for every node and needs no
//! universe. Version 1 — `[u64 epoch]` followed by the `OriginSnapshot`
//! JSON — is still read, so older data directories recover, but is no
//! longer written.
//!
//! Recovery decodes either into an [`OriginSnapshot`], restores it with
//! [`owp_engine::Engine::from_snapshot`] and replays WAL records with
//! epochs beyond it.

use crate::codec::{self, CodecError, Cursor, FRAME_HEADER};
use owp_engine::{DynamicProblem, OriginSnapshot};
use owp_graph::NodeId;
use owp_matching::Problem;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File name of the current snapshot inside a matchd data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const VERSION_2: u8 = 2;
const FORM_DELTA: u8 = 0;
const FORM_FULL: u8 = 1;
/// Smallest encoding of one override entry: node, quota, empty list.
const OVERRIDE_MIN: usize = 12;

/// Which record a checkpoint file held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointForm {
    /// Version 1: `OriginSnapshot` JSON. Read only.
    JsonV1,
    /// Version 2 with the edge list inline and every node's quota and list.
    Full,
    /// Version 2 against a universe digest, with `overrides` entries.
    Delta {
        /// Nodes whose quota or list differs from the universe.
        overrides: usize,
    },
}

/// A parsed snapshot: the epoch it was taken at plus the full instance.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedSnapshot {
    /// Engine epoch at capture time.
    pub epoch: u64,
    /// The dynamic instance, rebuilt from the record.
    pub origin: OriginSnapshot,
    /// The record it was decoded from.
    pub form: CheckpointForm,
}

/// FNV-1a-64 over a universe's node count, edge count, edge list (in
/// edge-id order), quotas, and preference lists (each prefixed by its
/// length), every number as a little-endian `u32`. A delta checkpoint
/// names its universe by this digest.
pub fn universe_digest(universe: &Problem) -> u64 {
    let g = &universe.graph;
    let mut h = Fnv::new();
    h.u32(g.node_count() as u32);
    h.u32(g.edge_count() as u32);
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        h.u32(u.0);
        h.u32(v.0);
    }
    for i in g.nodes() {
        h.u32(universe.quotas.get(i));
    }
    for i in g.nodes() {
        let list = universe.prefs.list(i);
        h.u32(list.len() as u32);
        for j in list {
            h.u32(j.0);
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The universe a delta checkpoint is written against: its digest plus a
/// flat copy of its quotas and preference lists, built once so a save
/// compares each node against it without touching the `Problem`.
pub struct UniverseBase {
    n: usize,
    m: usize,
    digest: u64,
    quotas: Vec<u32>,
    /// Node `i`'s list is `lists[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    lists: Vec<NodeId>,
}

impl UniverseBase {
    /// Copies `universe`'s quotas and lists and computes its digest.
    pub fn new(universe: &Problem) -> UniverseBase {
        let g = &universe.graph;
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        let mut lists = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for i in g.nodes() {
            lists.extend_from_slice(universe.prefs.list(i));
            offsets.push(lists.len() as u32);
        }
        UniverseBase {
            n: g.node_count(),
            m: g.edge_count(),
            digest: universe_digest(universe),
            quotas: g.nodes().map(|i| universe.quotas.get(i)).collect(),
            offsets,
            lists,
        }
    }

    fn list(&self, i: usize) -> &[NodeId] {
        &self.lists[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Starts a framed v2 record in `buf`: header placeholder, epoch,
/// version, form and sizes.
fn begin(buf: &mut Vec<u8>, epoch: u64, form: u8, n: usize, m: usize) {
    buf.clear();
    buf.extend_from_slice(&[0; FRAME_HEADER as usize]);
    codec::put_u64(buf, epoch);
    buf.push(VERSION_2);
    buf.push(form);
    codec::put_u32(buf, n as u32);
    codec::put_u32(buf, m as u32);
}

/// Packs `bits` eight to a byte, lowest bit first, padding with zeros.
fn put_bits(buf: &mut Vec<u8>, bits: impl Iterator<Item = bool>) {
    let (mut byte, mut k) = (0u8, 0);
    for bit in bits {
        byte |= (bit as u8) << k;
        k += 1;
        if k == 8 {
            buf.push(byte);
            (byte, k) = (0, 0);
        }
    }
    if k > 0 {
        buf.push(byte);
    }
}

fn put_override(
    buf: &mut Vec<u8>,
    node: u32,
    quota: u32,
    list: impl ExactSizeIterator<Item = u32>,
) {
    codec::put_u32(buf, node);
    codec::put_u32(buf, quota);
    codec::put_u32(buf, list.len() as u32);
    for j in list {
        codec::put_u32(buf, j);
    }
}

/// Fills in the frame header of the record `begin` started.
fn finish(buf: &mut [u8]) -> io::Result<()> {
    let header = FRAME_HEADER as usize;
    let len = u32::try_from(buf.len() - header).map_err(|_| {
        invalid(format!("checkpoint payload of {} bytes overflows its frame", buf.len()))
    })?;
    let crc = codec::crc32(&buf[header..]);
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Encodes a delta checkpoint of `dp` against `base` into `buf`.
fn encode_delta(
    buf: &mut Vec<u8>,
    epoch: u64,
    dp: &DynamicProblem,
    base: &UniverseBase,
) -> io::Result<()> {
    let g = dp.graph();
    if (g.node_count(), g.edge_count()) != (base.n, base.m) {
        return Err(invalid(format!(
            "instance of {} nodes and {} edges is not over the {}-node, {}-edge universe",
            g.node_count(),
            g.edge_count(),
            base.n,
            base.m
        )));
    }
    begin(buf, epoch, FORM_DELTA, base.n, base.m);
    codec::put_u64(buf, base.digest);
    put_bits(buf, g.nodes().map(|i| dp.is_active(i)));
    put_bits(buf, g.edges().map(|e| dp.is_present(e)));
    let count_at = buf.len();
    codec::put_u32(buf, 0);
    let mut count = 0u32;
    for i in g.nodes() {
        let (quota, list) = (dp.quotas().get(i), dp.prefs().list(i));
        if quota != base.quotas[i.index()] || list != base.list(i.index()) {
            put_override(buf, i.0, quota, list.iter().map(|j| j.0));
            count += 1;
        }
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    finish(buf)
}

/// Encodes a full checkpoint of `origin`: edge list inline, every node
/// overridden.
fn encode_full(buf: &mut Vec<u8>, epoch: u64, origin: &OriginSnapshot) -> io::Result<()> {
    let (n, m) = (origin.n, origin.edges.len());
    if origin.quotas.len() != n || origin.prefs.len() != n {
        return Err(invalid(format!("origin quota/preference tables do not cover its {n} nodes")));
    }
    let (active, present) = origin.flags().map_err(invalid)?;
    begin(buf, epoch, FORM_FULL, n, m);
    for &(u, v) in &origin.edges {
        codec::put_u32(buf, u);
        codec::put_u32(buf, v);
    }
    put_bits(buf, active.into_iter());
    put_bits(buf, present.into_iter());
    codec::put_u32(buf, n as u32);
    for (i, (&quota, list)) in origin.quotas.iter().zip(&origin.prefs).enumerate() {
        put_override(buf, i as u32, quota, list.iter().copied());
    }
    finish(buf)
}

/// Decodes a checkpoint file's bytes — frame, CRC, then a v1 or v2
/// payload. A delta record decodes only against the `universe` it was
/// written against. Structured errors, never a panic: every read is
/// bounds-checked and every count is checked against the bytes left
/// before anything is allocated for it.
pub fn decode_checkpoint(
    bytes: &[u8],
    universe: Option<&Problem>,
) -> Result<LoadedSnapshot, String> {
    let header = FRAME_HEADER as usize;
    if bytes.len() < header {
        return Err("too short to hold a header".into());
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let payload = &bytes[header..];
    if payload.len() != len {
        return Err(format!("declares {len} payload bytes but holds {}", payload.len()));
    }
    let got = codec::crc32(payload);
    if got != crc {
        return Err(format!("fails its CRC (header {crc:#010x}, payload {got:#010x})"));
    }
    let mut cur = Cursor::new(payload);
    let epoch = cur.u64("epoch").map_err(malformed)?;
    if cur.remaining() > 0 && payload[8] == b'{' {
        let doc =
            std::str::from_utf8(&payload[8..]).map_err(|_| "v1 body is not UTF-8".to_string())?;
        let origin = OriginSnapshot::parse(doc)?;
        return Ok(LoadedSnapshot { epoch, origin, form: CheckpointForm::JsonV1 });
    }
    match cur.u8("version").map_err(malformed)? {
        VERSION_2 => decode_v2(cur, epoch, universe),
        v => Err(format!("unknown checkpoint version {v}")),
    }
}

fn malformed(e: CodecError) -> String {
    format!("malformed checkpoint: {e}")
}

fn decode_v2(
    mut cur: Cursor<'_>,
    epoch: u64,
    universe: Option<&Problem>,
) -> Result<LoadedSnapshot, String> {
    let form = cur.u8("form").map_err(malformed)?;
    let n = cur.u32("node count").map_err(malformed)? as usize;
    let m = cur.u32("edge count").map_err(malformed)? as usize;
    let (edges, mut quotas, mut prefs) = match form {
        FORM_DELTA => {
            let digest = cur.u64("universe digest").map_err(malformed)?;
            let u = universe.ok_or(
                "delta checkpoint: it decodes only against the universe it was written \
                 against, and none was given (pass that universe with --universe <spec>)",
            )?;
            let g = &u.graph;
            let have = universe_digest(u);
            if (n, m, digest) != (g.node_count(), g.edge_count(), have) {
                return Err(format!(
                    "universe digest mismatch: the checkpoint was written against {n} nodes, \
                     {m} edges, digest {digest:016x}, but this universe has {} nodes, {} edges, \
                     digest {have:016x}",
                    g.node_count(),
                    g.edge_count()
                ));
            }
            let edges = g.edges().map(|e| g.endpoints(e)).map(|(a, b)| (a.0, b.0)).collect();
            let quotas = g.nodes().map(|i| u.quotas.get(i)).collect();
            let prefs = g.nodes().map(|i| u.prefs.list(i).iter().map(|j| j.0).collect()).collect();
            (edges, quotas, prefs)
        }
        FORM_FULL => {
            // Every node has an entry, so n and m are bounded by the bytes
            // left before anything is sized by them.
            if m.saturating_mul(8).saturating_add(n.saturating_mul(OVERRIDE_MIN)) > cur.remaining()
            {
                return Err(malformed(CodecError::Truncated { what: "full checkpoint body" }));
            }
            let mut edges = Vec::with_capacity(m);
            for _ in 0..m {
                edges.push((
                    cur.u32("edge endpoint").map_err(malformed)?,
                    cur.u32("edge endpoint").map_err(malformed)?,
                ));
            }
            (edges, vec![0; n], vec![Vec::new(); n])
        }
        f => return Err(format!("unknown checkpoint form {f}")),
    };
    let active = get_bits(&mut cur, n, "active bitmap")?;
    let present = get_bits(&mut cur, m, "present bitmap")?;
    let count = cur.count(OVERRIDE_MIN, "override count").map_err(malformed)?;
    if form == FORM_FULL && count != n {
        return Err(format!("full checkpoint overrides {count} of its {n} nodes"));
    }
    let mut next = 0usize;
    for _ in 0..count {
        let node = cur.u32("override node").map_err(malformed)? as usize;
        if node >= n || node < next {
            return Err(format!(
                "override for node {node} is out of order or beyond the {n}-node universe"
            ));
        }
        next = node + 1;
        quotas[node] = cur.u32("override quota").map_err(malformed)?;
        let len = cur.count(4, "override list").map_err(malformed)?;
        let list = &mut prefs[node];
        list.clear();
        for _ in 0..len {
            list.push(cur.u32("override list entry").map_err(malformed)?);
        }
    }
    cur.done().map_err(malformed)?;
    let form = match form {
        FORM_DELTA => CheckpointForm::Delta { overrides: count },
        _ => CheckpointForm::Full,
    };
    let origin = OriginSnapshot { n, edges, quotas, prefs, active, present };
    Ok(LoadedSnapshot { epoch, origin, form })
}

/// Reads `count` packed flags as a `0`/`1` string; padding bits must be 0.
fn get_bits(cur: &mut Cursor<'_>, count: usize, what: &'static str) -> Result<String, String> {
    let bytes = cur.take(count.div_ceil(8), what).map_err(malformed)?;
    if !count.is_multiple_of(8) && bytes[bytes.len() - 1] >> (count % 8) != 0 {
        return Err(format!("{what} sets padding bits"));
    }
    Ok((0..count).map(|k| if bytes[k / 8] >> (k % 8) & 1 == 1 { '1' } else { '0' }).collect())
}

/// Reads and verifies a snapshot file; a delta checkpoint needs the
/// `universe` it was written against. Structured errors, never a panic.
pub fn load_snapshot_file(
    path: &Path,
    universe: Option<&Problem>,
) -> Result<LoadedSnapshot, String> {
    let bytes =
        fs::read(path).map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
    decode_checkpoint(&bytes, universe).map_err(|e| format!("snapshot {}: {e}", path.display()))
}

/// The snapshot slot of one data directory.
pub struct SnapshotStore {
    dir: PathBuf,
    path: PathBuf,
    tmp: PathBuf,
}

impl SnapshotStore {
    /// Store rooted at `dir` (created on first save).
    pub fn new(dir: &Path) -> SnapshotStore {
        SnapshotStore {
            dir: dir.to_path_buf(),
            path: dir.join(SNAPSHOT_FILE),
            tmp: dir.join(format!("{SNAPSHOT_FILE}.tmp")),
        }
    }

    /// Path of the current snapshot file.
    pub fn path(&self) -> PathBuf {
        self.path.clone()
    }

    /// Writes a full checkpoint of `origin` durably. It decodes without
    /// a universe.
    pub fn save(&self, epoch: u64, origin: &OriginSnapshot) -> io::Result<()> {
        let mut buf = Vec::new();
        encode_full(&mut buf, epoch, origin)?;
        self.write_durably(&buf)
    }

    /// Writes a delta checkpoint of `dp` against `base` durably, encoding
    /// into `buf` (cleared first, so one buffer serves every save).
    /// Returns the file's size in bytes.
    pub fn save_delta(
        &self,
        epoch: u64,
        dp: &DynamicProblem,
        base: &UniverseBase,
        buf: &mut Vec<u8>,
    ) -> io::Result<usize> {
        encode_delta(buf, epoch, dp, base)?;
        self.write_durably(buf)?;
        Ok(buf.len())
    }

    /// Temp file, `fsync`, atomic rename, directory `fsync`. The caller
    /// truncates the WAL once this returns, so the rename itself must be
    /// durable first: without the directory sync a power cut could keep
    /// the truncation and lose the rename, and recovery would load the
    /// previous checkpoint with an empty log, losing acked epochs.
    fn write_durably(&self, bytes: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        {
            let mut f =
                OpenOptions::new().create(true).write(true).truncate(true).open(&self.tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        fs::rename(&self.tmp, &self.path)?;
        File::open(&self.dir)?.sync_all()
    }

    /// Loads the current snapshot; `Ok(None)` when none exists yet. A
    /// delta checkpoint needs the `universe` it was written against.
    pub fn load(&self, universe: Option<&Problem>) -> Result<Option<LoadedSnapshot>, String> {
        if !self.path.exists() {
            return Ok(None);
        }
        load_snapshot_file(&self.path, universe).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("owp-snap-{}-{name}", std::process::id()))
    }

    fn problem(n: usize, m: usize) -> Problem {
        let mut rng = StdRng::seed_from_u64(5);
        let g = owp_graph::generators::barabasi_albert(n, m, &mut rng);
        Problem::random_over(g, 2, 7)
    }

    #[test]
    fn save_load_round_trips() {
        let dp = DynamicProblem::new(problem(60, 3));
        let origin = OriginSnapshot::capture(&dp);
        let store = SnapshotStore::new(&dir("roundtrip"));
        store.save(17, &origin).expect("save");
        let loaded = store.load(None).expect("load").expect("present");
        assert_eq!(loaded.epoch, 17);
        assert_eq!(loaded.form, CheckpointForm::Full);
        assert_eq!(loaded.origin, origin);
        // And it restores to a bit-identical dynamic instance.
        let back = loaded.origin.restore().expect("restore");
        assert_eq!(OriginSnapshot::capture(&back), origin);
    }

    #[test]
    fn delta_of_the_universe_has_no_overrides() {
        let universe = problem(61, 2);
        let dp = DynamicProblem::new(universe.clone());
        let base = UniverseBase::new(&universe);
        let store = SnapshotStore::new(&dir("delta-empty"));
        let mut buf = Vec::new();
        let bytes = store.save_delta(4, &dp, &base, &mut buf).expect("save");
        assert_eq!(bytes as u64, fs::metadata(store.path()).expect("meta").len());
        let loaded = store.load(Some(&universe)).expect("load").expect("present");
        assert_eq!(loaded.form, CheckpointForm::Delta { overrides: 0 });
        assert_eq!(loaded.origin, OriginSnapshot::capture(&dp));
        let err = store.load(None).expect_err("a delta needs its universe");
        assert!(err.contains("--universe"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_is_a_structured_error() {
        let d = dir("corrupt");
        let dp = DynamicProblem::new(problem(30, 2));
        let store = SnapshotStore::new(&d);
        store.save(3, &OriginSnapshot::capture(&dp)).expect("save");
        let path = store.path();
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).expect("write");
        let err = store.load(None).expect_err("must fail");
        assert!(err.contains("CRC"), "{err}");
        assert!(store.load(None).is_err());
    }

    #[test]
    fn missing_snapshot_is_none() {
        let store = SnapshotStore::new(&dir("missing-nonexistent"));
        assert!(store.load(None).expect("ok").is_none());
    }
}
