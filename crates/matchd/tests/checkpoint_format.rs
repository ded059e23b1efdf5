//! The on-disk checkpoint formats a matchd data directory can hold.
//!
//! * `fixtures/v1-ba40` was written by the daemon while its snapshots
//!   were JSON `OriginSnapshot` records: a snapshot at epoch 8 of the
//!   universe `ba:40,2,2,5`, and a WAL holding epochs 9 and 10 past it.
//!   Existing data directories must keep recovering, and the daemon's
//!   next save replaces the JSON with a v2 delta record.
//! * Every v2 checkpoint, delta or full, decodes to exactly
//!   `OriginSnapshot::capture` of the engine it was taken from.
//! * Bytes from disk never panic the decoder: every prefix and every
//!   bit flip of a record (re-framed, so the decoder and not the CRC sees
//!   it) is `Ok` or a structured `Err`, and each malformed field is named.

use owp_engine::{Engine, EngineEvent, Epoch, OriginSnapshot};
use owp_graph::{EdgeId, NodeId};
use owp_matchd::codec::crc32;
use owp_matchd::{
    decode_checkpoint, from_spec, recover, universe_digest, CheckpointForm, FsyncPolicy, Matchd,
    MatchdClient, MatchdConfig, SnapshotStore, SubmitOutcome, UniverseBase, SNAPSHOT_FILE,
    WAL_FILE,
};
use owp_matching::Problem;
use owp_metrics::MetricsRegistry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

const FIXTURE_SPEC: &str = "ba:40,2,2,5";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owp-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A copy of the committed v1 fixture directory, so recovery may write.
fn v1_copy(name: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-ba40");
    let dir = scratch(name);
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(src.join(file), dir.join(file)).expect("copy fixture");
    }
    dir
}

/// The ten acknowledged batches the fixture daemon applied: every one a
/// leave/rejoin, an edge removal, a quota change and a reversed list.
fn fixture_batches(universe: &Problem) -> Vec<Vec<EngineEvent>> {
    let g = &universe.graph;
    (0..10u32)
        .map(|k| {
            let x = NodeId(k * 3 % 40);
            let (u, v) = g.endpoints(EdgeId(k * 5));
            let mut list = universe.prefs.list(NodeId(k + 10)).to_vec();
            list.reverse();
            vec![
                EngineEvent::NodeLeave { node: x },
                EngineEvent::EdgeRemove { u, v },
                EngineEvent::QuotaChange { node: NodeId(k + 20), quota: 1 + k % 3 },
                EngineEvent::PreferenceUpdate { node: NodeId(k + 10), list },
                EngineEvent::NodeJoin { node: x },
            ]
        })
        .collect()
}

#[test]
fn v1_fixture_recovers_certified_at_its_recorded_epoch() {
    let universe = from_spec(FIXTURE_SPEC).expect("spec");
    let dir = v1_copy("v1");
    let store = SnapshotStore::new(&dir);
    let before = store.load(None).expect("load").expect("present");
    assert_eq!(before.form, CheckpointForm::JsonV1);
    let rec = recover(&dir, &universe, FsyncPolicy::Never).expect("v1 directory recovers");
    assert_eq!(rec.snapshot_epoch, 8);
    assert_eq!(rec.replayed, 2);
    assert_eq!(rec.engine.epoch().0, 10);
    let mut reference = Engine::new(universe.clone());
    for batch in fixture_batches(&universe) {
        reference.apply_batch(&batch).expect("reference applies");
    }
    let state = OriginSnapshot::capture(reference.dynamic());
    assert_eq!(OriginSnapshot::capture(rec.engine.dynamic()), state);
    assert!(rec.engine.matching().same_edges(reference.matching()));
    rec.engine.certify().expect("certified");
    drop(rec);

    // The daemon's next save replaces the JSON with a v2 delta record
    // holding an override per changed node, and the directory recovers
    // from it to the same state.
    let mut config = MatchdConfig::new(&dir);
    config.fsync = FsyncPolicy::Never;
    config.snapshot_every = 1;
    let daemon =
        Matchd::start("127.0.0.1:0", &universe, config, MetricsRegistry::new()).expect("start");
    assert_eq!(daemon.recovered_epoch, 10);
    let node = NodeId(0);
    let mut client = MatchdClient::connect(daemon.local_addr()).expect("connect");
    let toggle = [EngineEvent::NodeLeave { node }, EngineEvent::NodeJoin { node }];
    match client.submit(&toggle).expect("submit") {
        SubmitOutcome::Accepted { epoch } => assert_eq!(epoch, 11),
        other => panic!("{other:?}"),
    }
    let stats = daemon.shutdown();
    stats.certify.expect("certified at shutdown");
    let after = store.load(Some(&universe)).expect("load").expect("present");
    assert_eq!(after.epoch, 11);
    let overrides = differing(&reference, &universe);
    assert!(overrides > 0);
    assert_eq!(after.form, CheckpointForm::Delta { overrides });
    assert_eq!(after.origin, state);
    let rec = recover(&dir, &universe, FsyncPolicy::Never).expect("v2 directory recovers");
    assert_eq!((rec.snapshot_epoch, rec.replayed), (11, 0));
    assert_eq!(OriginSnapshot::capture(rec.engine.dynamic()), state);
}

/// One batch of `count` valid events on distinct nodes and edges, using
/// all six kinds. Quota and list changes sometimes restore the
/// universe's own value, so overrides also disappear.
fn draw(engine: &Engine, universe: &Problem, rng: &mut StdRng, count: usize) -> Vec<EngineEvent> {
    let dp = engine.dynamic();
    let g = dp.graph();
    let (mut nodes, mut edges) = (HashSet::new(), HashSet::new());
    let mut out = Vec::new();
    while out.len() < count {
        let kind = rng.gen_range(0..6u32);
        if kind == 2 {
            let e = EdgeId(rng.gen_range(0..g.edge_count() as u32));
            if edges.insert(e) {
                let (u, v) = g.endpoints(e);
                out.push(if dp.is_present(e) {
                    EngineEvent::EdgeRemove { u, v }
                } else {
                    EngineEvent::EdgeAdd { u, v }
                });
            }
            continue;
        }
        let node = NodeId(rng.gen_range(0..g.node_count() as u32));
        if !nodes.insert(node) {
            continue;
        }
        let restore = rng.gen_range(0..4u32) == 0;
        out.push(match kind {
            0 | 1 if dp.is_active(node) => EngineEvent::NodeLeave { node },
            0 | 1 => EngineEvent::NodeJoin { node },
            3 if restore => EngineEvent::QuotaChange { node, quota: universe.quotas.get(node) },
            3 => EngineEvent::QuotaChange { node, quota: rng.gen_range(1..=4u32) },
            _ if restore => {
                EngineEvent::PreferenceUpdate { node, list: universe.prefs.list(node).to_vec() }
            }
            _ => {
                let mut list = universe.prefs.list(node).to_vec();
                list.shuffle(rng);
                EngineEvent::PreferenceUpdate { node, list }
            }
        });
    }
    out
}

/// Nodes whose quota or list differs from the universe's.
fn differing(engine: &Engine, universe: &Problem) -> usize {
    let dp = engine.dynamic();
    dp.graph()
        .nodes()
        .filter(|&i| {
            dp.quotas().get(i) != universe.quotas.get(i)
                || dp.prefs().list(i) != universe.prefs.list(i)
        })
        .count()
}

#[test]
fn every_checkpoint_decodes_to_the_captured_state() {
    let mut lasting = 0;
    for (spec, seed) in [("ba:300,3,2,11", 1u64), ("ring:120,2,4", 2), ("gnp:150,40,3,8", 3)] {
        let universe = from_spec(spec).expect("spec");
        let base = UniverseBase::new(&universe);
        let store = SnapshotStore::new(&scratch(&format!("roundtrip-{seed}")));
        let mut engine = Engine::new(universe.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = Vec::new();
        for step in 1..=60 {
            let count = rng.gen_range(1..=8usize);
            let batch = draw(&engine, &universe, &mut rng, count);
            engine.apply_batch(&batch).expect("valid batch");
            if step % 6 != 0 {
                continue;
            }
            let epoch = engine.epoch().0;
            let want = OriginSnapshot::capture(engine.dynamic());
            let bytes =
                store.save_delta(epoch, engine.dynamic(), &base, &mut buf).expect("delta save");
            let got = store.load(Some(&universe)).expect("decodes").expect("present");
            assert_eq!(bytes, buf.len());
            assert_eq!(got.epoch, epoch);
            let overrides = differing(&engine, &universe);
            assert_eq!(got.form, CheckpointForm::Delta { overrides }, "{spec} step {step}");
            assert_eq!(got.origin, want, "{spec} step {step}: delta");
            let restored = Engine::from_snapshot(&got.origin, Epoch(epoch)).expect("restores");
            restored.certify().expect("restored delta certifies");
            assert!(restored.matching().same_edges(engine.matching()));

            store.save(epoch, &want).expect("full save");
            let full = store.load(None).expect("decodes").expect("present");
            assert_eq!(full.form, CheckpointForm::Full);
            assert_eq!(full.origin, want, "{spec} step {step}: full");
            lasting = lasting.max(overrides);
        }
        engine.certify().expect("live engine certified");
    }
    assert!(lasting > 0, "quota and list changes must leave overrides");
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A hand-built delta payload over `universe`: every node active, every
/// edge present, `count` as the declared override count, then `body`.
fn delta_payload(universe: &Problem, count: u32, body: &[u32]) -> Vec<u8> {
    let (n, m) = (universe.graph.node_count(), universe.graph.edge_count());
    let mut p = Vec::new();
    p.extend_from_slice(&9u64.to_le_bytes());
    p.extend_from_slice(&[2, 0]);
    p.extend_from_slice(&(n as u32).to_le_bytes());
    p.extend_from_slice(&(m as u32).to_le_bytes());
    p.extend_from_slice(&universe_digest(universe).to_le_bytes());
    for bits in [n, m] {
        let mut bytes = vec![0xffu8; bits.div_ceil(8)];
        if !bits.is_multiple_of(8) {
            *bytes.last_mut().expect("non-empty") = (1u8 << (bits % 8)) - 1;
        }
        p.extend_from_slice(&bytes);
    }
    p.extend_from_slice(&count.to_le_bytes());
    for w in body {
        p.extend_from_slice(&w.to_le_bytes());
    }
    p
}

/// Decodes `payload` re-framed, then restores it as recovery would.
fn decode_and_restore(payload: &[u8], universe: &Problem) -> Result<(), String> {
    let snap = decode_checkpoint(&frame(payload), Some(universe))?;
    Engine::from_snapshot(&snap.origin, Epoch(snap.epoch)).map(drop)
}

#[test]
fn malformed_delta_fields_are_named_errors() {
    let universe = from_spec("ba:50,2,2,3").expect("spec");
    let g = &universe.graph;
    let node = NodeId(7);
    let list: Vec<u32> = universe.prefs.list(node).iter().map(|j| j.0).collect();
    let entry = |node: u32, list: &[u32]| {
        let mut w = vec![node, 2, list.len() as u32];
        w.extend_from_slice(list);
        w
    };
    assert!(decode_and_restore(&delta_payload(&universe, 1, &entry(7, &list)), &universe).is_ok());

    let err = decode_and_restore(&delta_payload(&universe, 1, &entry(50, &list)), &universe)
        .expect_err("node id = n");
    assert!(err.contains("node 50") && err.contains("50-node"), "{err}");
    let err = decode_and_restore(&delta_payload(&universe, 1, &entry(u32::MAX, &list)), &universe)
        .expect_err("node id far beyond n");
    assert!(err.contains("beyond"), "{err}");

    let stranger =
        g.nodes().find(|&j| j != node && g.edge_between(node, j).is_none()).expect("non-neighbour");
    let mut bad = list.clone();
    bad[0] = stranger.0;
    let err = decode_and_restore(&delta_payload(&universe, 1, &entry(7, &bad)), &universe)
        .expect_err("non-neighbour");
    assert!(err.contains("preference"), "{err}");
    let mut twice = list.clone();
    twice[1] = twice[0];
    let err = decode_and_restore(&delta_payload(&universe, 1, &entry(7, &twice)), &universe)
        .expect_err("repeated entry");
    assert!(err.contains("preference"), "{err}");

    let mut two = entry(9, &universe.prefs.list(NodeId(9)).iter().map(|j| j.0).collect::<Vec<_>>());
    two.extend(entry(7, &list));
    let err = decode_and_restore(&delta_payload(&universe, 2, &two), &universe)
        .expect_err("decreasing ids");
    assert!(err.contains("out of order"), "{err}");

    // Counts larger than the bytes left fail before anything is sized by them.
    let err = decode_and_restore(&delta_payload(&universe, u32::MAX, &[]), &universe)
        .expect_err("override count");
    assert!(err.contains("override count"), "{err}");
    let err = decode_and_restore(&delta_payload(&universe, 1, &[7, 2, u32::MAX]), &universe)
        .expect_err("list length");
    assert!(err.contains("override list"), "{err}");

    let mut payload = delta_payload(&universe, 0, &[]);
    payload.push(0);
    let err = decode_and_restore(&payload, &universe).expect_err("trailing byte");
    assert!(err.contains("trailing"), "{err}");
}

/// Every prefix of the framed record, every prefix of the payload
/// re-framed, and every single-bit flip of the payload re-framed: `Ok`
/// or a structured `Err`, never a panic. Returns how many flips decoded.
fn assert_total(record: &[u8], universe: Option<&Problem>) -> usize {
    for cut in 0..record.len() {
        assert!(decode_checkpoint(&record[..cut], universe).is_err(), "raw prefix {cut}");
    }
    let payload = &record[8..];
    for cut in 0..payload.len() {
        assert!(
            decode_checkpoint(&frame(&payload[..cut]), universe).is_err(),
            "payload prefix {cut}"
        );
    }
    let mut decoded = 0;
    for i in 0..payload.len() {
        for bit in 0..8 {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 1 << bit;
            if let Ok(snap) = decode_checkpoint(&frame(&flipped), universe) {
                decoded += 1;
                let _ = Engine::from_snapshot(&snap.origin, Epoch(snap.epoch));
            }
        }
    }
    decoded
}

#[test]
fn disk_bytes_never_panic_the_decoder() {
    let universe = from_spec("ring:21,2,6").expect("spec");
    let mut engine = Engine::new(universe.clone());
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..6 {
        let batch = draw(&engine, &universe, &mut rng, 4);
        engine.apply_batch(&batch).expect("valid batch");
    }
    let dir = scratch("fuzz");
    let store = SnapshotStore::new(&dir);
    let base = UniverseBase::new(&universe);
    store.save_delta(engine.epoch().0, engine.dynamic(), &base, &mut Vec::new()).expect("save");
    let delta = std::fs::read(store.path()).expect("read");
    // The flags, the epoch and the override values can take other valid
    // values, but no flip of the version, form, sizes or digest decodes.
    assert!(assert_total(&delta, Some(&universe)) > 0);
    let payload = &delta[8..];
    for i in 8..8 + 2 + 4 + 4 + 8 {
        for bit in 0..8 {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 1 << bit;
            let got = decode_checkpoint(&frame(&flipped), Some(&universe));
            assert!(got.is_err(), "payload byte {i} bit {bit} decoded");
        }
    }
    store.save(engine.epoch().0, &OriginSnapshot::capture(engine.dynamic())).expect("save");
    let full = std::fs::read(store.path()).expect("read");
    assert_total(&full, None);
}

#[test]
fn a_delta_directory_refuses_another_universe() {
    let universe = from_spec("ba:200,3,2,42").expect("spec");
    let dir = scratch("other-universe");
    let mut config = MatchdConfig::new(&dir);
    config.fsync = FsyncPolicy::Never;
    config.snapshot_every = 2;
    config.max_linger = Duration::from_micros(200);
    let daemon = Matchd::start("127.0.0.1:0", &universe, config.clone(), MetricsRegistry::new())
        .expect("start");
    let mut client = MatchdClient::connect(daemon.local_addr()).expect("connect");
    for chunk in owp_matchd::client_stream(&universe, 0, 1, 40).chunks(4) {
        assert!(matches!(client.submit(chunk).expect("submit"), SubmitOutcome::Accepted { .. }));
    }
    daemon.shutdown().certify.expect("certified");
    let form = SnapshotStore::new(&dir).load(Some(&universe)).expect("load").expect("present").form;
    assert!(matches!(form, CheckpointForm::Delta { .. }), "{form:?}");

    for other in ["ba:200,3,2,43", "ba:201,3,2,42", "ring:200,2,42"] {
        let other = from_spec(other).expect("spec");
        let err = recover(&dir, &other, FsyncPolicy::Never).err().expect("refused");
        assert!(err.contains("universe digest mismatch"), "{err}");
        let err = Matchd::start("127.0.0.1:0", &other, config.clone(), MetricsRegistry::new())
            .err()
            .expect("the daemon refuses to start");
        assert!(err.contains("universe digest mismatch"), "{err}");
    }
    recover(&dir, &universe, FsyncPolicy::Never).expect("its own universe still recovers");
}
