//! `owp-inspect` — offline post-processing of run artifacts.
//!
//! ```text
//! owp-inspect trace <series.jsonl>              per-phase convergence summary
//! owp-inspect metrics <snapshot.json|.prom>     metrics summary + audit report
//! owp-inspect causal <events.jsonl> [--top <k>] [--dot <path>]
//!                                               happens-before DAG summary
//! owp-inspect forensics <bundle.json>           post-mortem bundle: summarize,
//!                                               re-execute, verify
//! owp-inspect wal <matchd.wal> [--snapshot <snapshot.bin>] [--universe <spec>]
//!                                               matchd WAL: summarize, replay,
//!                                               certify
//! owp-inspect ops <host:port>                   live matchd admin plane: status,
//!                                               readiness, worst request spans
//! owp-inspect campaign <report.json> [--replay <plan>]
//!                                               chaos-campaign report: coverage
//!                                               ledger, attestation, verdict
//! ```
//!
//! **Exit-code contract, uniform across every subcommand:**
//!
//! * `0` — the artifact is clean (no violations, certificate holds,
//!   reproducer does not fail);
//! * `1` — the artifact records or reproduces a failure (audit
//!   violations, a failed Lemma 5 certificate, a forensic reproducer
//!   that still diverges);
//! * `2` — usage error: unknown flags/paths, unreadable or unparseable
//!   input, a bundle that cannot be re-executed.
//!
//! `trace` consumes the convergence series written by
//! `experiments e18 --trace-out <path>` (JSONL schema of
//! `owp_telemetry::series`) and splits the trajectory into its two
//! phases — *matching growth* up to the stabilization round, then the
//! *termination-detection tail* — with per-phase round, edge and message
//! accounting.
//!
//! `metrics` consumes a snapshot written by `experiments --metrics-out`
//! (JSON, or Prometheus text for `.prom` paths), prints every family with
//! interpolated histogram quantiles, and reports the audit verdict: exit
//! status 1 if the snapshot records any invariant violation, 0 otherwise.
//!
//! `causal` consumes a telemetry event log with span records (written by
//! `experiments e20 --trace-out <path>`, or any `EventLog::to_jsonl`
//! dump), reconstructs the happens-before DAG, verifies the empirical
//! Lemma 5 certificate (acyclicity + temporal consistency), and prints
//! the span/root/depth accounting, the top-k critical paths hop by hop,
//! the per-kind causation fan-out and the edge-lifecycle tally. With
//! `--dot <path>` a Graphviz digraph of the critical paths is written.
//! Exit status 1 if the certificate fails, 0 otherwise.
//!
//! `forensics` consumes a post-mortem bundle written by the engine's
//! forensic capture (`owp_engine::ForensicBundle`, e.g. via
//! `experiments e22 --forensics-out <dir>`): prints the provenance,
//! trigger, membership and history summary plus the shrunk
//! reproducer, then restores the bundled checkpoint and **re-executes**
//! the reproducer against a fresh engine. Exit status 1 iff the
//! reproducer still fails certification.
//!
//! `wal` consumes a matchd write-ahead log (`owp_matchd::wal` format):
//! prints the record count, epoch range, per-record CRC verdict and any
//! truncated torn-tail bytes. With `--snapshot` it restores the matching
//! snapshot, replays every WAL record past the snapshot's epoch, and
//! **certifies** the rebuilt engine (bit-identity with a from-scratch
//! `lic()`) — the same recovery path the daemon itself runs before
//! serving. The daemon's checkpoints are deltas against its universe, so
//! decoding one needs `--universe <spec>` (e.g. `ba:2000,3,2,42`, the
//! daemon's own spec) beside `--snapshot`; without it the command exits
//! 2 and says so. `--universe` alone replays from a fresh universe, for
//! WALs that predate any snapshot. Exit status 1 if the log has
//! torn/corrupt bytes or the replay fails to certify, 0 when clean.
//!
//! `campaign` consumes an attested chaos-campaign report (written by
//! `experiments e25 --campaign-out <path>`, canonical JSON of
//! `owp_bench::campaign::CampaignReport`): recomputes and checks the
//! FNV-1a attestation digest, prints the per-fault-class coverage ledger
//! with a coverage verdict (every class executed and certified at least
//! once), and lists every violation record with its reproducer
//! coordinates. Exit status 1 if the digest does not attest, a fault
//! class has zero coverage, or any *genuine* (non-injected) violation is
//! recorded — the intentional PhantomEdge canary is the detector working
//! as designed and stays exit 0. With `--replay <plan>` the plan is
//! re-derived from the embedded config and re-executed: exit 0 iff the
//! fresh outcome matches the recorded one exactly.
//!
//! `ops` is the one *live* subcommand: it connects to a running matchd's
//! admin listener (`--ops-addr`), fetches `/status` and `/readyz`, and
//! prints the daemon's health — epoch, ΣS, queue, WAL/snapshot state,
//! auditor verdict and the worst request spans. Exit status 0 when the
//! daemon is ready and the continuous auditor is clean, 1 when it is
//! unready or has recorded violations, 2 when the endpoint is
//! unreachable.
//!
//! Reports are accumulated and written in one shot with write errors
//! ignored, so piping into `head` never aborts the tool.

use owp_bench::campaign::{self, FaultClass};
use owp_metrics::MetricsSnapshot;
use owp_telemetry::{CausalDag, ConvergenceSample, ConvergenceSeries, EventLog};
use std::fmt::Write as _;
use std::io::Write as _;

fn fail(msg: &str) -> ! {
    eprintln!("owp-inspect: {msg}");
    std::process::exit(2);
}

fn emit(out: &str) {
    let _ = std::io::stdout().write_all(out.as_bytes());
}

fn phase_row(out: &mut String, label: &str, from: &ConvergenceSample, to: &ConvergenceSample) {
    let rounds = to.round - from.round;
    let _ = writeln!(
        out,
        "  {label:<22} rounds {:>4}..{:<4} ({rounds:>4})  edges +{:<6} msgs +{:<8} term {:>5.1}% -> {:>5.1}%",
        from.round,
        to.round,
        to.matched_edges.saturating_sub(from.matched_edges),
        to.messages_sent.saturating_sub(from.messages_sent),
        100.0 * from.terminated_fraction,
        100.0 * to.terminated_fraction,
    );
}

fn inspect_trace(path: &str) {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let series = ConvergenceSeries::parse_jsonl(&doc)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));

    let mut out = String::new();
    let Some(last) = series.last() else {
        emit(&format!("{path}: empty series\n"));
        return;
    };
    let first = &series.samples()[0];
    let stable = series.stabilization_round().unwrap_or(last.round);

    let _ = writeln!(
        out,
        "{path}: {} samples, rounds {}..{}",
        series.len(),
        first.round,
        last.round
    );
    let _ = writeln!(
        out,
        "  final: {} edges, weight {:.4}, ΣS {:.4}, {} msgs, {:.1}% terminated",
        last.matched_edges,
        last.total_weight,
        last.satisfaction_total,
        last.messages_sent,
        100.0 * last.terminated_fraction
    );
    let _ = writeln!(out, "  matching stable from round {stable}");

    // Phase split: growth until the matching stops changing, then pure
    // termination detection.
    let split = series
        .samples()
        .iter()
        .position(|s| s.round >= stable)
        .unwrap_or(series.len() - 1);
    let stable_sample = &series.samples()[split];
    out.push_str("phases:\n");
    phase_row(&mut out, "matching growth", first, stable_sample);
    phase_row(&mut out, "termination detection", stable_sample, last);

    let peak_in_flight = series.samples().iter().map(|s| s.in_flight).max().unwrap_or(0);
    let tail_msgs = last.messages_sent.saturating_sub(stable_sample.messages_sent);
    let tail_pct = if last.messages_sent > 0 {
        100.0 * tail_msgs as f64 / last.messages_sent as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  peak in-flight {peak_in_flight}; {tail_pct:.1}% of messages spent after stabilization"
    );
    emit(&out);
}

fn inspect_metrics(path: &str) {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let snap = if path.ends_with(".prom") {
        MetricsSnapshot::parse_prometheus(&doc)
    } else {
        MetricsSnapshot::parse_json(&doc)
    }
    .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} counters, {} gauges, {} histograms",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len()
    );
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "  counter   {name:<34} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "  gauge     {name:<34} {v:.4}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "  histogram {name:<34} n={} mean={:.1} p50~{:.1} p95~{:.1} p99~{:.1}",
            h.count,
            h.mean(),
            h.quantile_interpolated(0.5).unwrap_or(0.0),
            h.quantile_interpolated(0.95).unwrap_or(0.0),
            h.quantile_interpolated(0.99).unwrap_or(0.0),
        );
    }

    // The engine's steady-state allocation rate (E19) — 0 is the
    // DESIGN.md §11 zero-allocation contract, anything else is a
    // regression worth reading before the wall times move.
    let gauge = |key: &str| {
        snap.gauges.iter().find(|(name, _)| name == key).map(|&(_, v)| v)
    };
    if gauge(owp_metrics::ALLOCATIONS_PER_BATCH).is_some() {
        out.push_str("engine:\n");
        match gauge(owp_metrics::ALLOCATIONS_PER_BATCH) {
            Some(0.0) => out.push_str(
                "  steady-state batches allocation-free (engine_allocations_per_batch = 0)\n",
            ),
            Some(rate) => {
                let _ = writeln!(
                    out,
                    "  WARNING — engine_allocations_per_batch = {rate:.1}: the zero-allocation \
                     steady-state contract looks broken"
                );
            }
            None => {}
        }
    }

    let counter = |key: &str| {
        snap.counters.iter().find(|(name, _)| name == key).map(|&(_, v)| v)
    };
    let hist = |key: &str| snap.histograms.iter().find(|(name, _)| name == key).map(|(_, h)| h);

    // The daemon's ingest/durability/ops health (DESIGN.md §13-§14): a
    // snapshot scraped from matchd's `/metrics` summarizes here without
    // the reader pattern-matching forty raw families.
    if gauge(owp_metrics::MATCHD_WAL_BYTES).is_some()
        || gauge(owp_metrics::MATCHD_READY).is_some()
    {
        out.push_str("matchd:\n");
        if let Some(ready) = gauge(owp_metrics::MATCHD_READY) {
            let clean = gauge(owp_metrics::MATCHD_AUDIT_CLEAN).unwrap_or(1.0) != 0.0;
            let _ = writeln!(
                out,
                "  {} | auditor {} ({} pass(es), {} failure(s), last audited epoch {:.0})",
                if ready != 0.0 { "READY" } else { "NOT READY" },
                if clean { "clean" } else { "VIOLATION LATCHED" },
                counter(owp_metrics::MATCHD_AUDIT_PASSES).unwrap_or(0),
                counter(owp_metrics::MATCHD_AUDIT_FAILURES).unwrap_or(0),
                gauge(owp_metrics::MATCHD_AUDIT_LAST_EPOCH).unwrap_or(0.0),
            );
            if let Some(cost) = gauge(owp_metrics::MATCHD_AUDIT_COST_US) {
                let _ = writeln!(
                    out,
                    "  last audit cycle {cost:.0} us recurring (duty-cycle cap schedules \
                     the next one >= 99x that out)",
                );
            }
        }
        let _ = writeln!(
            out,
            "  queue depth {:.0}, {} admission reject(s) (backpressure)",
            gauge(owp_metrics::MATCHD_QUEUE_DEPTH).unwrap_or(0.0),
            counter(owp_metrics::MATCHD_ADMISSION_REJECTS).unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "  wal {:.0} byte(s) / {:.0} record(s) since snapshot epoch {:.0}",
            gauge(owp_metrics::MATCHD_WAL_BYTES).unwrap_or(0.0),
            gauge(owp_metrics::MATCHD_WAL_RECORDS).unwrap_or(0.0),
            gauge(owp_metrics::MATCHD_SNAPSHOT_EPOCH).unwrap_or(0.0),
        );
        if let Some(h) = hist(owp_metrics::MATCHD_SNAPSHOT_SAVE_US).filter(|h| h.count > 0) {
            let _ = writeln!(
                out,
                "  checkpoint save n={} mean={:.1}us p99~{:.1}us, newest {:.0} byte(s)",
                h.count,
                h.mean(),
                h.quantile_interpolated(0.99).unwrap_or(0.0),
                gauge(owp_metrics::MATCHD_SNAPSHOT_BYTES).unwrap_or(0.0),
            );
        }
        let _ = writeln!(
            out,
            "  {:.0} connection(s) open, {} total, {} request(s), {} ops scrape(s), {} bundle(s) spooled",
            gauge(owp_metrics::MATCHD_CONNECTIONS).unwrap_or(0.0),
            counter(owp_metrics::MATCHD_CONNECTIONS_TOTAL).unwrap_or(0),
            counter(owp_metrics::MATCHD_REQUESTS_TOTAL).unwrap_or(0),
            counter(owp_metrics::MATCHD_OPS_REQUESTS).unwrap_or(0),
            counter(owp_metrics::MATCHD_BUNDLES_SPOOLED).unwrap_or(0),
        );
        for (label, key) in [
            ("queue", owp_metrics::MATCHD_SPAN_QUEUE_US),
            ("apply", owp_metrics::MATCHD_SPAN_APPLY_US),
            ("ack", owp_metrics::MATCHD_SPAN_ACK_US),
        ] {
            if let Some(h) = hist(key) {
                if h.count > 0 {
                    let _ = writeln!(
                        out,
                        "  span {label:<5} n={} mean={:.1}us p99~{:.1}us",
                        h.count,
                        h.mean(),
                        h.quantile_interpolated(0.99).unwrap_or(0.0),
                    );
                }
            }
        }
    }

    // The chaos-campaign ledger (E25): per-fault-class coverage counters
    // written by `experiments e25 --metrics-out`.
    if let Some(total) = counter(campaign::CAMPAIGN_PLANS_TOTAL) {
        out.push_str("campaign:\n");
        let _ = writeln!(
            out,
            "  {total} plan(s) executed: {} certified, {} violated",
            counter(campaign::CAMPAIGN_CERTIFIED_TOTAL).unwrap_or(0),
            counter(campaign::CAMPAIGN_VIOLATIONS_TOTAL).unwrap_or(0),
        );
        for class in FaultClass::ALL {
            let plans = counter(class.plans_key()).unwrap_or(0);
            let violations = counter(class.violations_key()).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<16} {plans:>6} plan(s), {violations} violation(s)",
                class.label()
            );
        }
        if let Some(h) = hist(campaign::CAMPAIGN_PLAN_WALL_US) {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "  plan wall time n={} mean={:.0}us p99~{:.0}us",
                    h.count,
                    h.mean(),
                    h.quantile_interpolated(0.99).unwrap_or(0.0),
                );
            }
        }
    }

    out.push_str("audit:\n");
    let verdict = counter("audit_violations_total");
    match verdict {
        None => out.push_str("  no audit ran (snapshot has no audit_violations_total)\n"),
        Some(0) => {
            let checks = counter("audit_checks_total").unwrap_or(0);
            let _ = writeln!(out, "  clean — 0 violations over {checks} checks");
            for (name, v) in &snap.gauges {
                if name.starts_with("audit_") {
                    let _ = writeln!(out, "  {name} = {v:.4}");
                }
            }
        }
        Some(v) => {
            let _ = writeln!(out, "  FAILED — {v} invariant violation(s) recorded");
        }
    }
    emit(&out);
    if matches!(verdict, Some(v) if v > 0) {
        std::process::exit(1);
    }
}

fn inspect_causal(path: &str, top: usize, dot: Option<&str>) {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let log = EventLog::parse_jsonl(&doc)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    let dag = CausalDag::from_log(&log);

    let mut out = String::new();
    if dag.is_empty() {
        emit(&format!("{path}: no span records (was the trace written by e20?)\n"));
        return;
    }
    let (mut delivered, mut dropped, mut dead, mut in_flight) = (0u64, 0u64, 0u64, 0u64);
    for s in dag.spans() {
        match s.outcome {
            owp_telemetry::SpanOutcome::Delivered => delivered += 1,
            owp_telemetry::SpanOutcome::Dropped => dropped += 1,
            owp_telemetry::SpanOutcome::DeadLettered => dead += 1,
            owp_telemetry::SpanOutcome::InFlight => in_flight += 1,
        }
    }
    let _ = writeln!(
        out,
        "{path}: {} spans ({} roots), {} delivered, {} dropped, {} dead-lettered, {} in flight",
        dag.len(),
        dag.roots(),
        delivered,
        dropped,
        dead,
        in_flight
    );
    let _ = writeln!(
        out,
        "  happens-before: max depth {}, max fan-out {}",
        dag.max_depth(),
        dag.max_fanout()
    );

    let violations = dag.verify();
    if violations.is_empty() {
        out.push_str("  certificate: acyclic and temporally consistent (Lemma 5 holds)\n");
    } else {
        let _ = writeln!(out, "  certificate: FAILED — {} violation(s):", violations.len());
        for v in &violations {
            let _ = writeln!(out, "    {v}");
        }
    }

    let paths = dag.top_critical_paths(top);
    for (i, p) in paths.iter().enumerate() {
        let _ = writeln!(
            out,
            "critical path #{}: {} hops, latency {} (ends at t={})",
            i + 1,
            p.len(),
            p.total_latency(),
            p.end_time
        );
        for hop in &p.hops {
            let when = match hop.delivered {
                Some(d) => format!("{}..{d}", hop.sent),
                None => format!("{}..?", hop.sent),
            };
            let _ = writeln!(
                out,
                "  {:<6} {:<4} {:>5} -> {:<5} t={:<11} wait {:<4} flight {}",
                hop.span.to_string(),
                hop.kind.label(),
                hop.from.0,
                hop.to.0,
                when,
                hop.wait,
                hop.flight
            );
        }
    }

    let fanout = dag.kind_fanout();
    if !fanout.is_empty() {
        out.push_str("causation fan-out (parent kind -> child kind):\n");
        for ((pk, ck), n) in &fanout {
            let _ = writeln!(out, "  {pk:<5} -> {ck:<5} {n}");
        }
    }

    let lifecycles = dag.edge_lifecycles();
    if !lifecycles.is_empty() {
        let mut tally: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for l in &lifecycles {
            *tally.entry(l.outcome.label()).or_insert(0) += 1;
        }
        let counts: Vec<String> =
            tally.iter().map(|(k, v)| format!("{v} {k}")).collect();
        let _ = writeln!(
            out,
            "edge lifecycles: {} proposed pairs ({})",
            lifecycles.len(),
            counts.join(", ")
        );
    }

    if let Some(dot_path) = dot {
        match std::fs::write(dot_path, dag.to_dot(&paths)) {
            Ok(()) => {
                let _ = writeln!(out, "[wrote Graphviz digraph of {} path(s) to {dot_path}]", paths.len());
            }
            Err(e) => fail(&format!("cannot write {dot_path}: {e}")),
        }
    }

    emit(&out);
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

fn inspect_forensics(path: &str) {
    use owp_engine::{normalize_violation, ForensicBundle};

    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let bundle = ForensicBundle::parse(&doc)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: forensic bundle — trigger {:?} at epoch {}",
        bundle.trigger, bundle.epoch
    );
    let _ = writeln!(out, "  reason: {}", bundle.reason);
    let _ = writeln!(
        out,
        "  provenance: {} | {}{}",
        if bundle.rustc.is_empty() { "unknown rustc" } else { &bundle.rustc },
        bundle.config,
        match bundle.seed {
            Some(s) => format!(" | seed {s}"),
            None => String::new(),
        },
    );
    let active = bundle.cur_active.bytes().filter(|&b| b == b'1').count();
    let present = bundle.cur_present.bytes().filter(|&b| b == b'1').count();
    let _ = writeln!(
        out,
        "  membership at capture: {active}/{} nodes active, {present}/{} edges present",
        bundle.cur_active.len(),
        bundle.cur_present.len(),
    );
    let _ = writeln!(
        out,
        "  history: {} step(s) from checkpoint epoch {} (last good: {})",
        bundle.steps.len(),
        bundle.origin_epoch,
        bundle.last_good_epoch,
    );
    match &bundle.shrunk {
        Some(s) => {
            let _ = writeln!(
                out,
                "  shrunk reproducer: steps {}..={} ({} of {}; {} replay(s) spent)",
                s.start,
                s.end,
                s.end - s.start + 1,
                bundle.steps.len(),
                s.replays,
            );
        }
        None => out.push_str("  no shrunk reproducer (window did not reproduce the failure)\n"),
    }

    // Re-execute: restore the checkpoint, replay the reproducer, certify.
    match bundle.verify() {
        Err(e) => {
            emit(&out);
            fail(&format!("bundle cannot be re-executed: {e}"));
        }
        Ok(None) => {
            out.push_str("  re-execution: reproducer replays CLEAN — failure not reproduced\n");
            emit(&out);
        }
        Ok(Some(violation)) => {
            let matches = normalize_violation(&violation) == normalize_violation(&bundle.reason);
            let _ = writeln!(
                out,
                "  re-execution: reproducer STILL FAILS ({} recorded violation)\n    {violation}",
                if matches { "same as" } else { "DIFFERENT from" },
            );
            emit(&out);
            std::process::exit(1);
        }
    }
}

fn inspect_wal(path: &str, snapshot: Option<&str>, universe: Option<&str>) {
    use owp_matchd::wal;

    let (summary, records) = wal::scan(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} record(s), {} of {} bytes valid",
        summary.records, summary.valid_bytes, summary.file_bytes
    );
    match (summary.first_epoch, summary.last_epoch) {
        (Some(a), Some(b)) => {
            let _ = writeln!(out, "  epochs {a}..={b}");
        }
        _ => out.push_str("  epochs: none (empty log)\n"),
    }
    if summary.is_clean() {
        out.push_str("  integrity: clean — every record framed and CRC-verified\n");
    } else {
        let _ = writeln!(
            out,
            "  integrity: TORN TAIL — {} trailing byte(s) unusable: {}",
            summary.torn_bytes,
            summary.torn_reason.as_deref().unwrap_or("unknown"),
        );
    }

    // Replay-certify when a starting state is available.
    let universe = universe.map(|spec| owp_matchd::from_spec(spec).unwrap_or_else(|e| fail(&e)));
    let mut engine_and_floor = None;
    match (snapshot, universe) {
        (Some(snap_path), universe) => {
            let snap =
                owp_matchd::load_snapshot_file(std::path::Path::new(snap_path), universe.as_ref())
                    .unwrap_or_else(|e| fail(&e));
            let form = match snap.form {
                owp_matchd::CheckpointForm::JsonV1 => "v1 JSON".to_string(),
                owp_matchd::CheckpointForm::Full => "v2 full".to_string(),
                owp_matchd::CheckpointForm::Delta { overrides } => {
                    format!("v2 delta with {overrides} override(s)")
                }
            };
            let _ = writeln!(
                out,
                "  snapshot {snap_path}: epoch {}, {form}, CRC-verified, restores bit-identically",
                snap.epoch
            );
            let engine =
                owp_engine::Engine::from_snapshot(&snap.origin, owp_engine::Epoch(snap.epoch))
                    .unwrap_or_else(|e| fail(&format!("snapshot does not restore: {e}")));
            engine_and_floor = Some((engine, snap.epoch));
        }
        (None, Some(problem)) => {
            engine_and_floor = Some((owp_engine::Engine::new(problem), 0));
        }
        (None, None) => {
            out.push_str("  (no --snapshot/--universe: integrity scan only, no replay)\n");
        }
    }
    let mut replay_failed = false;
    if let Some((mut engine, floor)) = engine_and_floor {
        match owp_matchd::recovery::replay(&mut engine, &records, floor) {
            Err(e) => {
                let _ = writeln!(out, "  replay: FAILED — {e}");
                replay_failed = true;
            }
            Ok(replayed) => {
                let _ = writeln!(
                    out,
                    "  replay: {replayed} record(s) applied ({} at or below the \
                     snapshot epoch skipped), engine at epoch {}",
                    records.len() - replayed,
                    engine.epoch().0
                );
                match engine.certify() {
                    Ok(()) => out.push_str(
                        "  certify: recovered matching bit-identical to a from-scratch lic()\n",
                    ),
                    Err(e) => {
                        let _ = writeln!(out, "  certify: FAILED — {e}");
                        replay_failed = true;
                    }
                }
            }
        }
    }
    emit(&out);
    if !summary.is_clean() || replay_failed {
        std::process::exit(1);
    }
}

fn inspect_ops(addr: &str) {
    use owp_matchd::OpsStatus;

    let get = |path: &str| -> Result<(u16, String), String> {
        let mut s = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let _ = s.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        s.write_all(format!("GET {path} HTTP/1.0\r\nHost: inspect\r\n\r\n").as_bytes())
            .map_err(|e| format!("cannot write to {addr}: {e}"))?;
        owp_matchd::http::read_response(&mut s, 4 << 20)
    };

    let (code, body) = get("/status").unwrap_or_else(|e| fail(&e));
    if code != 200 {
        fail(&format!("{addr}/status answered {code}: {}", body.trim()));
    }
    let status = OpsStatus::parse(&body)
        .unwrap_or_else(|e| fail(&format!("cannot parse {addr}/status: {e}")));
    let (ready_code, ready_body) = get("/readyz").unwrap_or_else(|e| fail(&e));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{addr}: matchd up {:.1}s — epoch {}, ΣS {:.4}, {} active node(s), {} matched edge(s)",
        status.uptime_ms as f64 / 1e3,
        status.epoch,
        status.sigma_s,
        status.active,
        status.matched,
    );
    let _ = writeln!(
        out,
        "  readiness: {ready_code} {}",
        if ready_code == 200 { "ready".to_string() } else { format!("NOT READY — {}", ready_body.trim()) },
    );
    let _ = writeln!(
        out,
        "  auditor: {} — {} pass(es), {} failure(s), last audited epoch {}, {} bundle(s) spooled",
        if status.audit_clean { "clean" } else { "VIOLATION LATCHED" },
        status.audit_passes,
        status.audit_failures,
        status.last_audit_epoch,
        status.bundles_spooled,
    );
    let _ = writeln!(
        out,
        "  ingest: queue {}/{}, wal {} byte(s) / {} record(s), snapshot epoch {} ({} epoch(s) behind)",
        status.queue_depth,
        status.queue_capacity,
        status.wal_bytes,
        status.wal_records,
        status.snapshot_epoch,
        status.snapshot_age_epochs,
    );
    if let Some(save) = &status.snapshot_save {
        let _ = writeln!(
            out,
            "  checkpoints: {} saved, newest {} byte(s), owner cost mean {}us p99<={}us",
            save.saves, save.bytes, save.mean_us, save.p99_us,
        );
    }
    let _ = writeln!(
        out,
        "  traffic: {} open connection(s) of {} total, {} request(s)",
        status.connections, status.connections_total, status.requests_total,
    );
    if !status.slow.is_empty() {
        let _ = writeln!(out, "  worst request spans (of the last {}):", status.slow.len());
        for s in status.slow.iter().take(5) {
            let _ = writeln!(
                out,
                "    req {:>6} conn {:>3} {:<8} epoch {:<8} queue {:>6}us apply {:>6}us ack {:>6}us total {:>7}us",
                s.req, s.conn, s.kind, s.epoch, s.queue_us, s.apply_us, s.ack_us, s.total_us,
            );
        }
    }
    let _ = writeln!(out, "  build: {}", status.rustc);
    emit(&out);
    if ready_code != 200 || !status.audit_clean || status.audit_failures > 0 {
        std::process::exit(1);
    }
}

fn inspect_campaign(path: &str, replay_plan: Option<u64>) {
    use owp_bench::campaign::{replay, CampaignReport};

    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let report = CampaignReport::parse(&doc)
        .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));

    let mut out = String::new();
    let c = &report.config;
    let _ = writeln!(
        out,
        "{path}: chaos campaign — {} plan(s), seed {:#x}, gnp(n={}, b={}) x {} instance(s), \
         canary at plan {}",
        c.plans,
        c.seed,
        c.n,
        c.quota,
        c.instances,
        c.inject_at.map(|id| id.to_string()).unwrap_or_else(|| "-".into()),
    );

    let mut failed = false;
    match report.verify_digest() {
        Ok(()) => {
            let _ = writeln!(out, "  attestation: digest {} verifies", report.digest);
        }
        Err(e) => {
            let _ = writeln!(out, "  attestation: FAILED — {e}");
            failed = true;
        }
    }

    out.push_str("coverage:\n");
    let mut uncovered = Vec::new();
    for row in &report.coverage {
        let _ = writeln!(
            out,
            "  {:<16} generated {:>5}  executed {:>5}  certified {:>5}  violated {:>3}",
            row.class.label(),
            row.generated,
            row.executed,
            row.certified,
            row.violated,
        );
        if row.executed == 0 || row.certified == 0 {
            uncovered.push(row.class.label());
        }
    }
    if uncovered.is_empty() {
        out.push_str("  every fault class executed and certified at least once\n");
    } else {
        let _ = writeln!(out, "  COVERAGE GAP — no certified plans for: {}", uncovered.join(", "));
        failed = true;
    }

    let injected = report.violations.iter().filter(|v| v.injected).count();
    let genuine = report.violations.len() - injected;
    let _ = writeln!(
        out,
        "violations: {} ({injected} injected canary, {genuine} genuine); {} event(s) total",
        report.violations.len(),
        report.total_events,
    );
    for v in &report.violations {
        let first = v.reasons.first().map(String::as_str).unwrap_or("(none)");
        let _ = writeln!(
            out,
            "  plan {:>5} {:<16} {} — {first}",
            v.plan,
            v.class.label(),
            if v.injected { "injected" } else { "GENUINE" },
        );
    }
    if !report.clean() {
        failed = true;
    }
    let _ = writeln!(
        out,
        "verdict: {}",
        if report.clean() {
            "clean — every violation is the detected canary"
        } else {
            "VIOLATED — genuine certificate failures recorded"
        },
    );

    if let Some(plan_id) = replay_plan {
        match replay(&report, plan_id) {
            Err(e) => {
                emit(&out);
                fail(&format!("cannot replay plan {plan_id}: {e}"));
            }
            Ok(r) => {
                if r.matches {
                    let _ = writeln!(
                        out,
                        "replay plan {plan_id}: reproduces the recorded outcome exactly \
                         ({} reason(s))",
                        r.reasons.len(),
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "replay plan {plan_id}: MISMATCH — recorded {:?}, fresh run gives {:?}",
                        r.recorded, r.reasons,
                    );
                    failed = true;
                }
            }
        }
    }

    emit(&out);
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, path] if cmd == "trace" => inspect_trace(path),
        [cmd, path] if cmd == "metrics" => inspect_metrics(path),
        [cmd, path] if cmd == "forensics" => inspect_forensics(path),
        [cmd, addr] if cmd == "ops" => inspect_ops(addr),
        [cmd, rest @ ..] if cmd == "wal" && !rest.is_empty() => {
            let mut path: Option<&str> = None;
            let mut snapshot: Option<&str> = None;
            let mut universe: Option<&str> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--snapshot" => match it.next() {
                        Some(p) => snapshot = Some(p.as_str()),
                        None => fail("--snapshot requires a path argument"),
                    },
                    "--universe" => match it.next() {
                        Some(s) => universe = Some(s.as_str()),
                        None => fail("--universe requires a spec argument"),
                    },
                    _ if a.starts_with("--") => fail(&format!("unknown flag: {a}")),
                    _ if path.is_none() => path = Some(a.as_str()),
                    _ => fail("wal takes exactly one log path"),
                }
            }
            match path {
                Some(p) => inspect_wal(p, snapshot, universe),
                None => fail("wal requires a log path"),
            }
        }
        [cmd, rest @ ..] if cmd == "campaign" && !rest.is_empty() => {
            let mut path: Option<&str> = None;
            let mut replay_plan: Option<u64> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--replay" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(id) => replay_plan = Some(id),
                        None => fail("--replay requires a plan id"),
                    },
                    _ if a.starts_with("--") => fail(&format!("unknown flag: {a}")),
                    _ if path.is_none() => path = Some(a.as_str()),
                    _ => fail("campaign takes exactly one report path"),
                }
            }
            match path {
                Some(p) => inspect_campaign(p, replay_plan),
                None => fail("campaign requires a report path"),
            }
        }
        [cmd, rest @ ..] if cmd == "causal" && !rest.is_empty() => {
            let mut path: Option<&str> = None;
            let mut top = 1usize;
            let mut dot: Option<&str> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(k) if k > 0 => top = k,
                        _ => fail("--top requires a positive integer"),
                    },
                    "--dot" => match it.next() {
                        Some(p) => dot = Some(p.as_str()),
                        None => fail("--dot requires a path argument"),
                    },
                    _ if a.starts_with("--") => fail(&format!("unknown flag: {a}")),
                    _ if path.is_none() => path = Some(a.as_str()),
                    _ => fail("causal takes exactly one trace path"),
                }
            }
            match path {
                Some(p) => inspect_causal(p, top, dot),
                None => fail("causal requires a trace path"),
            }
        }
        _ => {
            eprintln!("usage: owp-inspect <trace|metrics|causal|forensics|wal|ops|campaign> <path|addr>");
            eprintln!("  trace     <series.jsonl>        per-phase convergence summary");
            eprintln!("  metrics   <snapshot.json|.prom> metrics summary + audit report");
            eprintln!("  causal    <events.jsonl> [--top <k>] [--dot <path>]");
            eprintln!("                                  happens-before DAG + critical paths");
            eprintln!("  forensics <bundle.json>         summarize + re-execute a post-mortem");
            eprintln!("                                  bundle (exit 1 iff it still fails)");
            eprintln!("  wal       <matchd.wal> [--snapshot <snapshot.bin>] [--universe <spec>]");
            eprintln!("                                  summarize a matchd WAL; with a start");
            eprintln!("                                  state, replay + certify the recovery");
            eprintln!("  ops       <host:port>           live matchd admin plane: status,");
            eprintln!("                                  readiness, auditor verdict, slow spans");
            eprintln!("  campaign  <report.json> [--replay <plan>]");
            eprintln!("                                  chaos-campaign report: attestation,");
            eprintln!("                                  coverage ledger, violation verdict");
            eprintln!("exit codes: 0 clean, 1 violation/failed certificate/live reproducer,");
            eprintln!("            2 usage or unreadable input");
            std::process::exit(2);
        }
    }
}
