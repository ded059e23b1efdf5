//! Performance guard: re-measures the guarded experiments and fails
//! (exit 1) if any tracked wall time regressed more than the tolerance
//! against the committed `BENCH_<id>.json` baselines.
//!
//! ```text
//! bench_guard [e15|e19|e20|e22|e23|e24|e25|all] [--baseline <path>] [--tolerance <pct>] [--slack-ms <ms>] [--exact-only] [--update]
//! ```
//!
//! Guarded experiments:
//!
//! * `e15` — end-to-end scale sweep: telemetry-off build and LID wall
//!   times per size (`BENCH_e15.json`), plus the per-node message count
//!   and sync round count per size, which are deterministic and checked
//!   for **exact** equality;
//! * `e19` — dynamic engine: bounded-repair and from-scratch-rebuild wall
//!   times per batch size (`BENCH_e19.json`);
//! * `e20` — causal critical path: span count, critical-path length /
//!   latency and sync round count per size (`BENCH_e20.json`). These are
//!   *deterministic structure*, not wall times, so the guard demands
//!   **exact** equality — any drift means the causal layer changed
//!   semantics, which is a correctness signal, not jitter;
//! * `e22` — forensic recorder: churn wall time with the history ring on
//!   vs off (`BENCH_e22.json`), plus an **absolute** ceiling of
//!   10% on the overhead column — the always-on black box's budget is a
//!   design contract, not a baseline, so it is checked against the
//!   constant rather than a committed measurement;
//! * `e25` — chaos campaign: the per-fault-class coverage ledger of the
//!   full seeded campaign (`BENCH_e25.json`). Like e20 these are
//!   **deterministic** counts, checked for exact equality — any drift
//!   means the plan generator, a protocol or a certificate changed
//!   behavior, which is a correctness signal, not jitter;
//! * `e23` — matchd daemon: end-to-end ingest wall time and p99
//!   submission round trip per linger setting over loopback TCP
//!   (`BENCH_e23.json`; honors `OWP_E23_N`). Loopback scheduling is
//!   noisier than an in-process loop, so CI checks it with a widened
//!   tolerance;
//! * `e24` — matchd ops plane: ingest wall time with the admin endpoint,
//!   continuous auditor and request spans on vs off per linger setting
//!   (`BENCH_e24.json`; honors `OWP_E24_N`), plus an **absolute** ceiling
//!   of 5% on the overhead of the pooled summary row (linger = -1, the
//!   median over every off/on pair across the whole linger grid) — like
//!   e22, the observability budget is a design contract checked against
//!   the constant, not a baseline. Only the pooled row is capped: a
//!   per-linger median sees a third of the pairs and its spread on a
//!   noisy box is wider than the budget itself.
//!
//! Flags:
//!
//! * `--baseline` — baseline JSON path override; only valid when a single
//!   experiment is selected (default `BENCH_<id>.json`, the document
//!   `experiments <id> --json` writes);
//! * `--tolerance` — allowed relative regression in percent (default 10);
//! * `--slack-ms` — absolute grace in milliseconds added on top of the
//!   relative envelope (default 40), so timer jitter on small values does
//!   not trip the guard;
//! * `--exact-only` — check only the exact (deterministic) columns, so a
//!   baseline measured on another machine can still be checked where no
//!   wall time from it would mean anything (CI checks E15's msgs/node and
//!   sync rounds against the committed `BENCH_e15.json` this way);
//! * `--update` — instead of checking, rewrite the baselines from the
//!   fresh measurements.
//!
//! Each guard runs `experiments::run(id, false, None)`, the full-size run
//! without a metrics registry. Every run here leaves the runtime telemetry
//! switch (`SimConfig::telemetry`) off, so the guard doubles as the
//! regression check for the cost of the untaken `Context::emit` branch.

use owp_bench::experiments::{self, tables_to_json};
use owp_telemetry::json;
use std::time::Instant;

/// How one guarded column is compared against its baseline.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// A wall time, checked within tolerance + slack.
    Timed,
    /// A deterministic structural value, checked for exact equality
    /// (tolerance/slack are ignored).
    Exact,
}

use Check::{Exact, Timed};

/// One guarded experiment: which headline-table columns are checked, and
/// how, and which column keys the rows when matching fresh runs against a
/// baseline.
struct Guard {
    id: &'static str,
    what: &'static str,
    key_col: usize,
    key_label: &'static str,
    cols: &'static [(&'static str, usize, Check)],
    /// Absolute ceiling on one column of every *fresh* row, checked
    /// independently of the baseline: `(label, column, ceiling)`. Used
    /// for ratio columns whose budget is a design contract rather than a
    /// committed measurement (E22 caps recording overhead at 10%).
    cap: Option<(&'static str, usize, f64)>,
    /// When set, the cap applies only to the row with this key — the
    /// experiment's pooled summary row — and the same column in the
    /// other rows is informational (E24 caps the cross-linger pooled
    /// overhead median, not the noisier per-linger medians).
    cap_key: Option<f64>,
}

const GUARDS: &[Guard] = &[
    Guard {
        id: "e15",
        what: "E15 scale sweep (full sizes, telemetry off)",
        key_col: 0,
        key_label: "n",
        cols: &[
            ("build ms", 2, Timed),
            ("LID ms", 3, Timed),
            ("msgs/node", 4, Exact),
            ("sync rounds", 5, Exact),
        ],
        cap: None,
        cap_key: None,
    },
    Guard {
        id: "e19",
        what: "E19 dynamic repair sweep (full sizes, telemetry off)",
        key_col: 0,
        key_label: "batch %",
        cols: &[("repair ms", 2, Timed), ("rebuild ms", 3, Timed)],
        cap: None,
        cap_key: None,
    },
    Guard {
        id: "e20",
        what: "E20 causal critical-path sweep (full sizes, deterministic)",
        key_col: 0,
        key_label: "n",
        cols: &[
            ("spans", 2, Exact),
            ("crit len", 5, Exact),
            ("crit latency", 6, Exact),
            ("sync rounds", 8, Exact),
        ],
        cap: None,
        cap_key: None,
    },
    Guard {
        id: "e22",
        what: "E22 recorder overhead (full size, E19 churn model)",
        key_col: 0,
        key_label: "ring",
        cols: &[("ms", 3, Timed)],
        cap: Some(("overhead %", 4, 10.0)),
        cap_key: None,
    },
    Guard {
        id: "e25",
        what: "E25 chaos-campaign coverage ledger (full campaign, deterministic)",
        key_col: 0,
        key_label: "class",
        cols: &[
            ("generated", 2, Exact),
            ("executed", 3, Exact),
            ("certified", 4, Exact),
            ("violated", 5, Exact),
        ],
        cap: None,
        cap_key: None,
    },
    Guard {
        id: "e23",
        what: "E23 matchd ingest sweep (full size, loopback TCP)",
        key_col: 0,
        key_label: "linger us",
        cols: &[("ingest ms", 4, Timed), ("p99 ms", 6, Timed)],
        cap: None,
        cap_key: None,
    },
    Guard {
        id: "e24",
        what: "E24 ops-plane overhead sweep (full size, scraped + audited)",
        key_col: 0,
        key_label: "linger us",
        cols: &[("off ms", 2, Timed), ("on ms", 3, Timed)],
        // The observability budget is a design contract: the admin
        // endpoint + continuous auditor + request spans may cost the
        // ingest path at most 5% events/s against the ops-off daemon.
        cap: Some(("pooled ov %", 6, 5.0)),
        cap_key: Some(-1.0),
    },
];

fn main() {
    let mut baseline_override: Option<String> = None;
    let mut tolerance_pct = 10.0f64;
    let mut slack_ms = 40.0f64;
    let mut update = false;
    let mut exact_only = false;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline" => baseline_override = Some(value("--baseline")),
            "--tolerance" => {
                tolerance_pct = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance wants a number (percent)");
                    std::process::exit(2);
                })
            }
            "--slack-ms" => {
                slack_ms = value("--slack-ms").parse().unwrap_or_else(|_| {
                    eprintln!("--slack-ms wants a number (milliseconds)");
                    std::process::exit(2);
                })
            }
            "--update" => update = true,
            "--exact-only" => exact_only = true,
            _ if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                eprintln!(
                    "usage: bench_guard [e15|e19|e20|e22|e23|e24|e25|all] [--baseline <path>] [--tolerance <pct>] [--slack-ms <ms>] [--exact-only] [--update]"
                );
                std::process::exit(2);
            }
            _ => ids.push(a),
        }
    }

    let selected: Vec<&Guard> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        GUARDS.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                GUARDS.iter().find(|g| g.id == id).unwrap_or_else(|| {
                    eprintln!(
                        "unknown experiment {id}; guarded: {}",
                        GUARDS.iter().map(|g| g.id).collect::<Vec<_>>().join(", ")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    };
    if baseline_override.is_some() && selected.len() != 1 {
        eprintln!("--baseline needs exactly one selected experiment");
        std::process::exit(2);
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    for g in &selected {
        let baseline_path = baseline_override
            .clone()
            .unwrap_or_else(|| format!("BENCH_{}.json", g.id));

        eprintln!("bench_guard: running the {}...", g.what);
        let start = Instant::now();
        let (tables, _) =
            experiments::run(g.id, false, None).expect("guarded ids are experiments");
        let elapsed = start.elapsed();
        let fresh = &tables[0];

        if update {
            let doc = tables_to_json(g.id, false, elapsed, &tables);
            if let Err(e) = std::fs::write(&baseline_path, doc) {
                eprintln!("cannot write {baseline_path}: {e}");
                std::process::exit(1);
            }
            println!("bench_guard: baseline {baseline_path} updated");
            continue;
        }

        let doc = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!(
                "cannot read baseline {baseline_path}: {e} (run `bench_guard {} --update` to create it)",
                g.id
            );
            std::process::exit(2);
        });
        let baseline = parse_first_rows(&doc).unwrap_or_else(|| {
            eprintln!(
                "{baseline_path} does not look like an `experiments {} --json` document",
                g.id
            );
            std::process::exit(2);
        });

        for base_row in &baseline {
            let key = base_row[g.key_col];
            let Some(fresh_row) = (0..fresh.row_count())
                .find(|&r| fresh.cell(r, g.key_col).parse::<f64>().ok() == Some(key))
            else {
                eprintln!(
                    "bench_guard: baseline row {}={key} has no fresh counterpart — skipped",
                    g.key_label
                );
                continue;
            };
            let capped = !exact_only && g.cap_key.is_none_or(|k| k == key);
            if let Some((label, col, ceiling)) = g.cap.filter(|_| capped) {
                let now: f64 = fresh.cell(fresh_row, col).parse().expect("numeric cell");
                compared += 1;
                let verdict = if now <= ceiling { "ok" } else { "OVER BUDGET" };
                println!(
                    "  [{}] {}={key:>8} {label:>10}: {now:.1} (ceiling {ceiling:.1}, absolute) {verdict}",
                    g.id, g.key_label
                );
                if now > ceiling {
                    failures += 1;
                }
            }
            for &(label, col, check) in g.cols.iter().filter(|c| !exact_only || c.2 == Exact) {
                let base = base_row[col];
                let now: f64 = fresh.cell(fresh_row, col).parse().expect("numeric cell");
                compared += 1;
                let failed = if check == Exact {
                    let verdict = if now == base { "ok" } else { "CHANGED" };
                    println!(
                        "  [{}] {}={key:>8} {label:>12}: baseline {base}, now {now} (exact) {verdict}",
                        g.id, g.key_label
                    );
                    now != base
                } else {
                    let limit = base * (1.0 + tolerance_pct / 100.0) + slack_ms;
                    let verdict = if now <= limit { "ok" } else { "REGRESSED" };
                    println!(
                        "  [{}] {}={key:>8} {label:>10}: baseline {base:>8.1} ms, now {now:>8.1} ms (limit {limit:.1} ms) {verdict}",
                        g.id, g.key_label
                    );
                    now > limit
                };
                if failed {
                    failures += 1;
                }
            }
        }
    }

    if update {
        return;
    }
    if compared == 0 {
        eprintln!("bench_guard: nothing compared — baseline/fresh key sets are disjoint");
        std::process::exit(2);
    }
    let timed = if exact_only {
        "skipped".to_string()
    } else {
        format!("{tolerance_pct}% +{slack_ms} ms")
    };
    if failures > 0 {
        eprintln!(
            "bench_guard: FAILED — {failures} of {compared} checks outside their envelope \
             (timed: {timed}; structural: exact)"
        );
        std::process::exit(1);
    }
    println!(
        "bench_guard: ok — {compared} checks within their envelopes \
         (timed: {timed}; structural: exact)"
    );
}

/// Extracts the first table's `"rows":[[...],...]` from a
/// `BENCH_<id>.json` document as numbers. Non-numeric cells (e.g. E20's
/// textual "certified" column) become `NaN` — the guarded columns are all
/// numeric, so a `NaN` is only ever compared if a guard misconfigures its
/// column indices, and `NaN` comparisons always fail loudly.
fn parse_first_rows(doc: &str) -> Option<Vec<Vec<f64>>> {
    let root = json::parse(doc).ok()?;
    let tables = root.field("tables").ok()?.as_arr("tables").ok()?;
    let rows = tables.first()?.field("rows").ok()?.as_arr("rows").ok()?;
    let cell = |c: &json::Value<'_>| c.as_f64("cell").unwrap_or(f64::NAN);
    rows.iter()
        .map(|row| Some(row.as_arr("row").ok()?.iter().map(cell).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parse_first_rows;

    #[test]
    fn parses_the_e15_document_shape() {
        let doc = r#"{"experiment":"e15","quick":false,"elapsed_ms":4778.1,"tables":[{"title":"t","headers":["n","edges","build ms","LID ms","msgs/node","sync rounds","mean sat"],"rows":[[10000,49985,120,136,9.8,9,0.688],[50000,249985,261,470,9.8,9,0.686]],"notes":[]},{"title":"phases","headers":["phase"],"rows":[["generate"]],"notes":[]}]}"#;
        let rows = parse_first_rows(doc).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], 10000.0);
        assert_eq!(rows[1][3], 470.0);
        // Only the first table is read — the string cell never trips it.
    }

    #[test]
    fn parses_the_e19_document_shape() {
        let doc = r#"{"experiment":"e19","quick":false,"elapsed_ms":9000.0,"tables":[{"title":"ba","headers":["batch %","events","repair ms","rebuild ms","speedup","dirty edges","dSigmaS"],"rows":[[0.1,20,0.4,11.2,28.0,260,-0.013],[1,200,2.1,11.5,5.5,2600,0.021]],"notes":[]},{"title":"er","headers":["batch %"],"rows":[[0.1]],"notes":[]}]}"#;
        let rows = parse_first_rows(doc).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], 0.1);
        assert_eq!(rows[1][3], 11.5);
    }

    #[test]
    fn parses_the_e20_document_shape() {
        let doc = r#"{"experiment":"e20","quick":false,"elapsed_ms":250.0,"tables":[{"title":"ba","headers":["n","edges","spans","roots","dag depth","crit len","crit latency","end time","sync rounds","max fanout","certified"],"rows":[[500,1990,3810,1500,7,6,91,91,7,72,"yes"],[1000,3990,7764,3000,7,7,101,101,7,98,"yes"]],"notes":[]},{"title":"er","headers":["n"],"rows":[[500]],"notes":[]}]}"#;
        let rows = parse_first_rows(doc).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], 3810.0); // spans
        assert_eq!(rows[1][5], 7.0); // crit len
        // The textual "certified" cell degrades to NaN instead of sinking
        // the document.
        assert!(rows[0][10].is_nan());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_first_rows("{}").is_none());
        assert!(parse_first_rows("no rows key at all").is_none());
    }
}
