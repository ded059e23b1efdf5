//! Read-your-writes by content: once a SUBMIT is acknowledged, every
//! read must already reflect it. After each `Accepted { epoch }` the
//! client reads back every node's matches and satisfaction and compares
//! them, bit for bit, with a reference engine fed the same acknowledged
//! batches — so a publish that skipped or mis-built part of the view
//! fails here, not only one that published late.

use owp_engine::Engine;
use owp_graph::NodeId;
use owp_matchd::{
    client_stream, from_spec, FsyncPolicy, Matchd, MatchdClient, MatchdConfig, SubmitOutcome,
};
use owp_metrics::MetricsRegistry;
use std::time::Duration;

const SPEC: &str = "ba:300,3,2,11";

#[test]
fn every_ack_is_visible_in_every_node_read() {
    let dir = std::env::temp_dir().join(format!("owp-matchd-{}-ryw", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let universe = from_spec(SPEC).expect("spec");
    let mut config = MatchdConfig::new(&dir);
    config.max_linger = Duration::from_micros(200);
    config.snapshot_every = 8;
    config.fsync = FsyncPolicy::Never;
    let daemon =
        Matchd::start("127.0.0.1:0", &universe, config, MetricsRegistry::new()).expect("start");
    let mut client = MatchdClient::connect(daemon.local_addr()).expect("connect");
    let n = client.nodes;
    assert_eq!(n, 300);

    let mut reference = Engine::new(universe.clone());
    let stream = client_stream(&universe, 0, 1, 400);
    for chunk in stream.chunks(16) {
        let acked = match client.submit_with_retry(chunk, 50).expect("submit") {
            SubmitOutcome::Accepted { epoch } => epoch,
            SubmitOutcome::Busy { .. } => panic!("retries exhausted"),
            SubmitOutcome::Rejected { error } => panic!("rejected: {error}"),
        };
        reference.apply_batch(chunk).expect("reference applies");
        assert_eq!(reference.epoch().0, acked);
        for i in 0..n {
            let (epoch, peers) = client.my_matches(i).expect("matches");
            assert!(epoch >= acked, "node {i}: read epoch {epoch} behind ack {acked}");
            let want: Vec<u32> =
                reference.matching().connections(NodeId(i)).iter().map(|p| p.0).collect();
            assert_eq!(peers, want, "node {i} matches after ack {acked}");
            let (epoch, value) = client.satisfaction(i).expect("satisfaction");
            assert!(epoch >= acked, "node {i}: read epoch {epoch} behind ack {acked}");
            let want = reference.satisfaction(NodeId(i));
            assert_eq!(value.to_bits(), want.to_bits(), "node {i} satisfaction after ack {acked}");
        }
    }
    let stats = daemon.shutdown();
    stats.certify.expect("final state certified");
    assert_eq!(stats.epoch, reference.epoch().0);
    let _ = std::fs::remove_dir_all(&dir);
}
