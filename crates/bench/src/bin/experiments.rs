//! Experiment runner: regenerates every table/figure of `EXPERIMENTS.md`.
//!
//! ```text
//! experiments <e1|e2|...|e25|all> [--quick] [--json] [--metrics-out <path>]
//!             [--trace-out <path>] [--forensics-out <path>] [--campaign-out <path>]
//! ```
//!
//! With `--json`, each experiment additionally writes its tables to
//! `BENCH_<id>.json` in the current directory (e.g. `experiments e15 --json`
//! produces `BENCH_e15.json`) so perf numbers can be tracked across commits
//! without scraping stdout.
//!
//! With `--metrics-out <path>`, the experiments with a metrics form (e5,
//! e18, e19, e20, e23, e25; `experiments::ALL` marks them) run with one
//! shared `MetricsRegistry` — histograms, message counters and the online
//! invariant audit — and the final snapshot is written to `path`:
//! Prometheus text format if the path ends in `.prom`, JSON otherwise.
//! Any audit violation makes the run exit non-zero.
//!
//! Each artifact flag writes the artifact of the one experiment that
//! honours it (`experiments::ALL` lists which):
//!
//! * `--trace-out <path>` — `e18`'s per-round convergence series (schema
//!   in `owp_telemetry::series`) or `e20`'s span-annotated telemetry event
//!   log (the input of `owp-inspect causal`), as JSONL;
//! * `--forensics-out <path>` — the first post-mortem bundle `e22`'s
//!   injected-corruption sweep captured, as JSON (the input of
//!   `owp-inspect forensics`);
//! * `--campaign-out <path>` — `e25`'s attested chaos-campaign report as
//!   canonical JSON (the input of `owp-inspect campaign`).
//!
//! Before any experiment runs, the binary exits 2 on an unknown id, on a
//! path flag that no selected experiment honours, and on an artifact flag
//! that two selected experiments honour (the second would overwrite the
//! first). The other selected experiments warn and ignore an artifact
//! flag; `--metrics-out` collects from every selected experiment that
//! records metrics, and the rest run plain.

use owp_bench::experiments::{self, CAMPAIGN_OUT, FORENSICS_OUT, TRACE_OUT};
use owp_metrics::MetricsRegistry;
use std::collections::{BTreeMap, BTreeSet};
use std::process::exit;
use std::time::Instant;

const METRICS_OUT: &str = "--metrics-out";

/// The flags that take a path argument.
const PATH_FLAGS: [&str; 4] = [METRICS_OUT, TRACE_OUT, FORENSICS_OUT, CAMPAIGN_OUT];

fn write_or_exit(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    }
}

fn main() {
    let mut quick = false;
    let mut json = false;
    let mut paths: BTreeMap<&str, String> = BTreeMap::new();
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(&flag) = PATH_FLAGS.iter().find(|&&f| f == a) {
            let Some(path) = args.next() else {
                eprintln!("{flag} requires a path argument");
                exit(2);
            };
            paths.insert(flag, path);
            continue;
        }
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            _ if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                exit(2);
            }
            _ => ids.push(a),
        }
    }

    if ids.is_empty() {
        eprintln!(
            "usage: experiments <e1..e25|all> [--quick] [--json] [--metrics-out <path>] \
             [--trace-out <path>] [--forensics-out <path>] [--campaign-out <path>]"
        );
        let known: Vec<&str> = experiments::ALL.iter().map(|&(id, ..)| id).collect();
        eprintln!("known experiments: {}", known.join(", "));
        exit(2);
    }

    let selected: Vec<(&str, Option<&str>, bool)> = if ids.iter().any(|i| i == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter()
            .map(|id| {
                *experiments::ALL.iter().find(|(e, ..)| e == id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {id}");
                    exit(2);
                })
            })
            .collect()
    };

    let metrics_out = paths.remove(METRICS_OUT);
    if metrics_out.is_some() && !selected.iter().any(|&(.., metrics)| metrics) {
        let ids: Vec<&str> =
            experiments::ALL.iter().filter(|&&(.., m)| m).map(|&(id, ..)| id).collect();
        eprintln!(
            "{METRICS_OUT} given but no selected experiment records metrics (use {})",
            ids.join(", ")
        );
        exit(2);
    }
    let honouring = |list: &[(&'static str, Option<&str>, bool)], flag: &str| -> Vec<&'static str> {
        list.iter().filter(|(_, f, _)| *f == Some(flag)).map(|&(id, ..)| id).collect()
    };
    for &flag in paths.keys() {
        match honouring(&selected, flag).as_slice() {
            [_] => {}
            [] => {
                eprintln!(
                    "{flag} given but no selected experiment writes one (use {})",
                    honouring(experiments::ALL, flag).join(", ")
                );
                exit(2);
            }
            many => {
                eprintln!(
                    "{flag} is honoured by {}, and each would overwrite the other's file; \
                     select one of them",
                    many.join(" and ")
                );
                exit(2);
            }
        }
    }

    let registry = metrics_out.is_some().then(MetricsRegistry::new);
    let mut written = BTreeSet::new();
    for (id, honoured, _) in selected {
        for &flag in paths.keys().filter(|&&f| Some(f) != honoured) {
            eprintln!("warning: {id} writes no artifact for {flag}, ignored for it");
        }
        let start = Instant::now();
        let (tables, artifact) =
            experiments::run(id, quick, registry.as_ref()).expect("ids come from experiments::ALL");
        for t in &tables {
            println!();
            t.print();
        }
        let elapsed = start.elapsed();
        if json {
            let path = format!("BENCH_{id}.json");
            write_or_exit(&path, experiments::tables_to_json(id, quick, elapsed, &tables));
            println!("[{id}: wrote {path}]");
        }
        if let Some(a) = artifact {
            if let Some(path) = paths.get(a.flag()) {
                write_or_exit(path, a.serialize());
                println!("[{id}: wrote {} to {path}]", a.describe());
                written.insert(a.flag());
            }
        }
        println!("[{id} done in {elapsed:.1?}]");
    }

    if let (Some(reg), Some(path)) = (&registry, &metrics_out) {
        let snap = reg.snapshot();
        let doc = if path.ends_with(".prom") {
            snap.to_prometheus()
        } else {
            snap.to_json()
        };
        write_or_exit(path, doc);
        println!("[wrote metrics snapshot to {path}]");
        let violations = snap
            .counters
            .iter()
            .find(|(name, _)| name == "audit_violations_total")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        if violations > 0 {
            eprintln!("audit: {violations} invariant violation(s) detected during the run");
            exit(1);
        }
    }

    if let Some(flag) = paths.keys().find(|f| !written.contains(*f)) {
        eprintln!("{flag} given but the experiment that honours it attached no artifact");
        exit(2);
    }
}
