//! Golden digest of LID runs: pins every observable of the protocol on
//! both engines, bit for bit.
//!
//! One FNV-1a digest covers, for several small seeded instances: the
//! per-kind send counts and every other transport counter, the end time,
//! the peak in-flight queue size, the round count, the sorted matched edge
//! list and the JSONL bytes of each traced run's event log. A change to the
//! LID state machine, the simulator's event order or the synchronous
//! engine's delivery order moves it; a pure speed-up must not. The traced
//! logs include the per-node protocol events.

use overlays_preferences::prelude::*;
use owp_telemetry::TelemetryEvent;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn result(&mut self, r: &LidResult) {
        for kind in [MessageKind::Prop, MessageKind::Rej, MessageKind::Ack] {
            self.word(r.stats.sent_of(kind));
        }
        let s = &r.stats;
        for x in [
            s.sent,
            s.delivered,
            s.dropped,
            s.dead_lettered,
            s.partition_dropped,
            s.duplicated,
            s.reordered,
            s.timers_fired,
            s.restarts,
            s.peak_in_flight as u64,
            r.end_time,
            r.rounds,
            r.terminated as u64,
            r.asymmetric_locks as u64,
        ] {
            self.word(x);
        }
        let edges = r.matching.edge_ids();
        self.word(edges.len() as u64);
        for e in edges {
            self.word(e.0 as u64);
        }
    }

    /// Hashes the log in the layout the constant was pinned on, where
    /// each message event took two lines: the endpoint line (`sent`,
    /// `delivered`, ...) and then the span line (`span_sent`,
    /// `span_delivered`, ...). Both are cut back out of the one merged
    /// line, so the constant also proves the merged line keeps every
    /// field of the two in the same order.
    fn log(&mut self, log: &EventLog) {
        let mut jsonl = String::new();
        for ev in log.events() {
            let line = ev.to_json();
            let span_fields = match *ev {
                TelemetryEvent::Sent { span, parent, .. } => {
                    let parent = parent.map_or("null".to_string(), |p| p.0.to_string());
                    format!(",\"span\":{},\"parent\":{parent}", span.0)
                }
                TelemetryEvent::Delivered { span, .. }
                | TelemetryEvent::Dropped { span, .. }
                | TelemetryEvent::DeadLettered { span, .. } => format!(",\"span\":{}", span.0),
                _ => {
                    jsonl.push_str(&line);
                    jsonl.push('\n');
                    continue;
                }
            };
            let plain = line.replacen(&span_fields, "", 1);
            assert_ne!(plain, line, "{line}");
            jsonl.push_str(&plain);
            jsonl.push('\n');
            // `span_sent` kept every field; the other span lines kept only
            // the time and the span.
            let mut span_line = line.replacen("{\"ev\":\"", "{\"ev\":\"span_", 1);
            if !matches!(ev, TelemetryEvent::Sent { .. }) {
                let end = span_line.find(",\"from\":").expect("endpoints follow the span");
                span_line.truncate(end);
                span_line.push('}');
            }
            jsonl.push_str(&span_line);
            jsonl.push('\n');
        }
        self.word(jsonl.len() as u64);
        self.bytes(jsonl.as_bytes());
    }
}

/// The digest with per-node events in every traced log.
const DIGEST_WITH_NODE_EVENTS: u64 = 0xe6cd_0fce_1e23_2df0;

fn instances() -> Vec<Problem> {
    let mut out: Vec<Problem> = (0..3u64)
        .map(|seed| {
            Problem::random_gnp(24 + 6 * seed as usize, 0.25, 2 + seed as u32, 0x11D0 + seed)
        })
        .collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x11D5);
    let g = owp_graph::generators::barabasi_albert(60, 3, &mut rng);
    out.push(Problem::random_over(g, 3, 0x11D5));
    out
}

fn lid_digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (i, p) in instances().iter().enumerate() {
        let seed = 7 + i as u64;
        for latency in [
            LatencyModel::Constant { ticks: 3 },
            LatencyModel::Uniform { lo: 1, hi: 17 },
            LatencyModel::Exponential { mean: 6.0 },
            LatencyModel::LogNormal {
                mu: 1.5,
                sigma: 0.8,
            },
        ] {
            let cfg = SimConfig::with_seed(seed).latency(latency);
            h.result(&run_lid(p, cfg.clone()));
            let r = run_lid(p, cfg.telemetry());
            h.result(&r);
            h.log(&r.log);
        }

        h.result(&run_lid_sync(p));
        let (r, series) = run_lid_sync_series(p);
        h.result(&r);
        h.bytes(series.to_jsonl().as_bytes());

        let cfg = SimConfig::with_seed(seed).latency(LatencyModel::Uniform { lo: 1, hi: 9 });
        let r = run_lid(p, cfg.telemetry());
        let dag = CausalDag::from_log(&r.log);
        h.result(&r);
        h.log(&r.log);
        let path = dag.critical_path();
        h.word(path.end_time);
        h.word(path.hops.len() as u64);

        // Plain LID under loss: non-terminated runs and one-sided locks.
        let lossy = SimConfig::with_seed(seed).faults(FaultPlan::with_drop_probability(0.2));
        h.result(&run_lid(p, lossy));

        let victim = NodeId((seed % p.node_count() as u64) as u32);
        for plan in [
            FaultPlan::with_drop_probability(0.25),
            FaultPlan::none().duplicate(0.3),
            FaultPlan::none().reorder(0.4),
            FaultPlan::none().crash(victim, 12).restart(victim, 90),
            FaultPlan::with_drop_probability(0.1)
                .duplicate(0.2)
                .reorder(0.3)
                .crash(victim, 20)
                .restart(victim, 140),
        ] {
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Uniform { lo: 1, hi: 10 })
                .faults(plan);
            h.result(&run_lid_reliable(p, cfg.clone(), 25));
            let r = run_lid_reliable(p, cfg.telemetry(), 25);
            h.result(&r);
            h.log(&r.log);
        }
    }
    h.0
}

#[test]
fn lid_run_digest_is_stable() {
    let got = lid_digest();
    assert_eq!(
        got, DIGEST_WITH_NODE_EVENTS,
        "LID run digest moved: {got:#018x}"
    );
}
