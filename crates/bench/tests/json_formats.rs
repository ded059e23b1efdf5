//! Contracts of every JSON writer and reader in the workspace.
//!
//! * Each writer renders a small fixed input and the FNV-1a-64 digest of
//!   the output is pinned. The digests were captured before the writers
//!   moved onto the shared `owp_telemetry::json` helpers, so they prove
//!   the move changed no byte. Two were re-pinned since, on purpose: the
//!   event log's (one record per message event, then no engine events)
//!   and the forensic bundle's (no `causal_tail` field, then no flight
//!   ring). `OriginSnapshot::to_json` is also the on-disk format of
//!   matchd's durability snapshots: its digest must never need a new
//!   constant while existing data directories are meant to load.
//! * Every reader is fed every prefix, every single-bit flip and
//!   multibyte garbage derived from its writer's document, and must
//!   answer `Ok` or `Err` — never panic.

use owp_bench::campaign::{
    fnv1a64_hex, CampaignConfig, CampaignReport, CoverageRow, FaultClass, ViolationRecord,
    EVENT_BUCKETS,
};
use owp_bench::Table;
use owp_engine::{
    EngineEvent, ForensicBundle, InjectedFault, OriginSnapshot, RecordedStep, ShrinkResult,
};
use owp_graph::{EdgeId, NodeId};
use owp_matchd::{OpsStatus, SlowSpan, SnapshotSave};
use owp_metrics::{AuditViolation, InvariantKind, MetricsRegistry, MetricsSnapshot};
use owp_simnet::FaultPlan;
use owp_telemetry::json;
use owp_telemetry::{
    ConvergenceSample, ConvergenceSeries, EventLog, MessageKind, NodeEvent, SpanId, TelemetryEvent,
};

fn origin() -> OriginSnapshot {
    OriginSnapshot {
        n: 5,
        edges: vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        quotas: vec![1, 2, 0, 2, 4_000_000_000],
        prefs: vec![vec![2, 1], vec![0, 3], vec![3, 0], vec![4, 1, 2], vec![3]],
        active: "11011".into(),
        present: "10111".into(),
    }
}

fn bundle() -> ForensicBundle {
    let (n0, n1, n2, n3, n4) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
    ForensicBundle {
        trigger: "certify".into(),
        reason: "epoch 9: engine selects \"e3\"\nback\\slash\ttab".into(),
        epoch: 9,
        last_good_epoch: 7,
        rustc: "rustc 1.80.0 (test)".into(),
        config: "history=8".into(),
        seed: Some(123_456_789),
        origin_epoch: 5,
        origin: Some(origin()),
        cur_active: "11111".into(),
        cur_present: "11011".into(),
        steps: vec![
            RecordedStep {
                epoch: 6,
                events: vec![
                    EngineEvent::NodeJoin { node: n2 },
                    EngineEvent::NodeLeave { node: n4 },
                    EngineEvent::EdgeAdd { u: n0, v: n3 },
                    EngineEvent::EdgeRemove { u: n1, v: n3 },
                    EngineEvent::QuotaChange { node: n1, quota: 3 },
                    EngineEvent::PreferenceUpdate { node: n3, list: vec![n2, n1, n4] },
                ],
                fault: None,
            },
            RecordedStep { epoch: 7, events: vec![], fault: Some(InjectedFault::PhantomEdge { edge: EdgeId(2) }) },
            RecordedStep {
                epoch: 8,
                events: vec![EngineEvent::PreferenceUpdate { node: n0, list: vec![] }],
                fault: Some(InjectedFault::SkippedRepair { node: n0, list: vec![n1, n2] }),
            },
        ],
        shrunk: Some(ShrinkResult { start: 1, end: 2, replays: 4, error: "epoch 8: diverged \u{1}".into() }),
        metrics_json: Some("{\"counters\":{}}".into()),
    }
}

fn fault_plan() -> FaultPlan {
    FaultPlan::with_drop_probability(0.1)
        .duplicate(0.25)
        .reorder(0.0)
        .crash(NodeId(3), 50)
        .crash(NodeId(5), 70)
        .restart(NodeId(3), 90)
        .link_loss(NodeId(1), NodeId(2), 1.0)
        .link_loss(NodeId(2), NodeId(1), 0.0625)
        .partition(vec![NodeId(0), NodeId(1)], 10, 40)
        .partition(vec![NodeId(4)], 20, 30)
}

fn violations() -> Vec<AuditViolation> {
    vec![
        AuditViolation { kind: InvariantKind::QuotaFeasibility, epoch: Some(12), detail: "node 3 holds 4 > b=3 \"over\"".into() },
        AuditViolation { kind: InvariantKind::CausalAcyclicity, epoch: None, detail: "cycle_detected: s1 -> s2\npath\\x é".into() },
    ]
}

fn ops_status() -> OpsStatus {
    OpsStatus {
        epoch: 42,
        sigma_s: 12.345678,
        active: 100,
        matched: 55,
        queue_depth: 3,
        queue_capacity: 1024,
        wal_bytes: 2048,
        wal_records: 7,
        snapshot_epoch: 40,
        snapshot_age_epochs: 2,
        snapshot_save: None,
        connections: 4,
        connections_total: 9,
        requests_total: 1234,
        uptime_ms: 98765,
        ready: false,
        audit_clean: true,
        audit_passes: 11,
        audit_failures: 0,
        last_audit_epoch: 41,
        bundles_spooled: 0,
        rustc: "rustc \"x\" y\\z".into(),
        slow: vec![
            SlowSpan { req: 900, conn: 2, kind: "SUBMIT".into(), epoch: 41, queue_us: 120, apply_us: 340, ack_us: 15, total_us: 520 },
            SlowSpan { req: 7, conn: 1, kind: "QUERY_EPOCH".into(), epoch: 40, queue_us: 0, apply_us: 0, ack_us: 0, total_us: 90 },
        ],
    }
}

fn event_log() -> EventLog {
    let mut log = EventLog::enabled();
    let (a, b, n3, n5) = (NodeId(1), NodeId(2), NodeId(3), NodeId(5));
    for ev in [
        TelemetryEvent::Sent { time: 0, span: SpanId(0), parent: None, from: a, to: b, kind: MessageKind::Prop },
        TelemetryEvent::Delivered { time: 1, span: SpanId(0), from: a, to: b, kind: MessageKind::Prop },
        TelemetryEvent::Sent { time: 1, span: SpanId(1), parent: Some(SpanId(0)), from: b, to: a, kind: MessageKind::Rej },
        TelemetryEvent::Dropped { time: 2, span: SpanId(1), from: b, to: a, kind: MessageKind::Rej },
        TelemetryEvent::DeadLettered { time: 3, span: SpanId(2), from: NodeId(0), to: NodeId(4), kind: MessageKind::Ack },
        TelemetryEvent::Restarted { time: 3, node: NodeId(4) },
        TelemetryEvent::TimerFired { time: 4, node: n3, tag: 11 },
        TelemetryEvent::Node { time: 4, node: n3, event: NodeEvent::PropSent { to: n5 } },
        TelemetryEvent::Node { time: 4, node: n3, event: NodeEvent::RejSent { to: NodeId(6) } },
        TelemetryEvent::Node { time: 4, node: n3, event: NodeEvent::EdgeLocked { peer: n5 } },
        TelemetryEvent::Node { time: 5, node: n3, event: NodeEvent::NodeTerminated },
        TelemetryEvent::Node { time: 5, node: n3, event: NodeEvent::Retransmit { to: n5 } },
    ] {
        log.record(ev);
    }
    log
}

fn series() -> ConvergenceSeries {
    let mut s = ConvergenceSeries::new();
    for (round, edges, w) in [(0u64, 0usize, 0.0), (1, 3, 0.1 + 0.2), (2, 5, 2.0), (4, 5, 1e-7)] {
        s.push(ConvergenceSample {
            round,
            matched_edges: edges,
            total_weight: w,
            satisfaction_total: w * 3.5,
            messages_sent: round * 10,
            in_flight: 20 - round as usize,
            terminated_fraction: if round == 4 { f64::NAN } else { round as f64 / 3.0 },
        });
    }
    s
}

fn table() -> Table {
    let mut t = Table::new("ex \"15\" \\ é", &["n", "LID ms", "kind"]);
    t.row(vec!["100000".into(), "43.5".into(), "async".into()]);
    t.row(vec!["-2e3".into(), "1.5x".into(), "tab\there".into()]);
    t.note("line\nbreak");
    t
}

fn campaign_report() -> CampaignReport {
    let mut report = CampaignReport {
        config: CampaignConfig::new(0xE25, 10),
        coverage: FaultClass::ALL
            .iter()
            .map(|&class| CoverageRow { class, generated: 2, executed: 2, certified: 2, violated: 0 })
            .collect(),
        violations: vec![ViolationRecord {
            plan: 5,
            class: FaultClass::AsymmetricLoss,
            injected: true,
            sim_seed: u64::MAX,
            reasons: vec!["certify failed as designed: \"phantom\"\nedge 3".into()],
            plan_json: fault_plan().to_json(),
        }],
        event_histogram: [0; EVENT_BUCKETS],
        total_events: 4321,
        digest: String::new(),
    };
    report.event_histogram[3] = 10;
    report.digest = fnv1a64_hex(report.to_json().as_bytes());
    report
}

fn metrics_json() -> String {
    let reg = MetricsRegistry::new();
    reg.counter("messages_sent_total").add(42);
    reg.gauge("satisfaction_ratio").set(0.75);
    let h = reg.histogram("prop_latency_ticks");
    for v in [1u64, 2, 3, 100] {
        h.observe(v);
    }
    reg.snapshot().to_json()
}

#[test]
fn writer_output_bytes_are_pinned() {
    let audit: String = violations().iter().map(|v| v.to_json() + "\n").collect();
    let cases = [
        ("OriginSnapshot::to_json", origin().to_json(), "f588a0397f986761"),
        ("ForensicBundle::to_json", bundle().to_json(), "4e215ec0d8b88ad3"),
        ("FaultPlan::to_json", fault_plan().to_json(), "4fbe0638a8ed989b"),
        ("AuditViolation::to_json", audit, "a9d4bfdcae92c772"),
        ("OpsStatus::to_json", ops_status().to_json(), "515086e328c2899f"),
        ("EventLog::to_jsonl", event_log().to_jsonl(), "b00b2a6c91e579b3"),
        ("ConvergenceSeries::to_jsonl", series().to_jsonl(), "acf20db4bb082e01"),
        ("Table::to_json", table().to_json(), "18125d74db949f75"),
    ];
    for (name, doc, want) in cases {
        assert_eq!(fnv1a64_hex(doc.as_bytes()), want, "{name} changed its bytes:\n{doc}");
    }
}

/// Every single-bit flip, every prefix and a multibyte character spliced
/// in at every boundary of `doc`; invalid UTF-8 is read lossily.
fn mutations(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..doc.len() {
        for bit in 0..8 {
            let mut b = doc.as_bytes().to_vec();
            b[i] ^= 1 << bit;
            out.push(String::from_utf8_lossy(&b).into_owned());
        }
    }
    for i in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        out.push(doc[..i].to_string());
        out.push(format!("{}é{}", &doc[..i], &doc[i..]));
    }
    for garbage in [
        "{aaaaaaaaaaaé", "é", "{\"é\":é}", "[\"\u{10ffff}\"", "\u{feff}{}", "\"\\ué\"",
        "{\"counters\":{\"é\":1}", "🦀🦀🦀", "{\"a\":\"\\ud83d\"}", "[[[[[[[[[[[[[[[[[[[[",
    ] {
        out.push(garbage.to_string());
    }
    out
}

#[test]
fn parsers_never_panic_on_malformed_input() {
    // Each reader answers whether it accepted the document.
    type Reader = fn(&str) -> bool;
    let saved = OpsStatus {
        snapshot_save: Some(SnapshotSave { saves: 3, bytes: 10_038, mean_us: 930, p99_us: 2047 }),
        ..ops_status()
    };
    let readers: [(&str, String, Reader); 9] = [
        // The matchd data-directory path: parse, then restore.
        ("OriginSnapshot", origin().to_json(), |d| OriginSnapshot::parse(d).and_then(|o| o.restore()).is_ok()),
        ("ForensicBundle", bundle().to_json(), |d| ForensicBundle::parse(d).is_ok()),
        ("FaultPlan", fault_plan().to_json(), |d| FaultPlan::parse(d).is_ok()),
        ("CampaignReport", campaign_report().to_json(), |d| {
            CampaignReport::parse(d).is_ok_and(|r| r.verify_digest().is_ok())
        }),
        ("MetricsSnapshot::parse_json", metrics_json(), |d| MetricsSnapshot::parse_json(d).is_ok()),
        ("OpsStatus", ops_status().to_json(), |d| OpsStatus::parse(d).is_ok()),
        ("OpsStatus with snapshot_save", saved.to_json(), |d| OpsStatus::parse(d).is_ok()),
        ("EventLog", event_log().to_jsonl(), |d| EventLog::parse_jsonl(d).is_ok()),
        ("ConvergenceSeries", series().to_jsonl(), |d| ConvergenceSeries::parse_jsonl(d).is_ok()),
    ];
    for (name, golden, read) in readers {
        assert!(read(&golden), "{name} rejects its own golden document");
        for doc in mutations(&golden) {
            if std::panic::catch_unwind(|| read(&doc)).is_err() {
                panic!("{name} panicked on {doc:?}");
            }
        }
    }
}

#[test]
fn control_characters_in_audit_details_and_campaign_reasons_read_back() {
    let text = "tab\there\rcr\u{7}bell";
    let v = AuditViolation { kind: InvariantKind::Mutuality, epoch: Some(3), detail: text.into() };
    let line = v.to_json();
    assert!(!line.contains(['\t', '\r', '\u{7}']), "{line}");
    let doc = json::parse(&line).expect("audit JSON parses");
    assert_eq!(doc.field("detail").unwrap().as_str("detail"), Ok(text));

    let mut report = campaign_report();
    report.violations[0].reasons.push(text.into());
    let doc = report.to_json();
    assert!(!doc.contains(['\t', '\r', '\u{7}']), "{doc}");
    assert_eq!(CampaignReport::parse(&doc), Ok(report));
}
