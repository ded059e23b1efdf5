//! `instance_tool` — generate, solve and verify problem instances from the
//! command line, using the plain-text instance format of `owp_graph::io`.
//!
//! ```text
//! cargo run --release --example instance_tool -- gen gnp 30 0.2 3 42 > inst.txt
//! cargo run --release --example instance_tool -- solve < inst.txt
//! cargo run --release --example instance_tool -- verify < inst.txt
//! ```
//!
//! Subcommands:
//! * `gen <gnp|ba|ws|regular> <n> <param> <b> <seed>` — emit an instance
//!   (graph + random preferences + uniform quota `b`) to stdout;
//! * `solve` — read an instance from stdin, run LIC and the distributed LID,
//!   print both reports (they must agree);
//! * `verify` — read an instance, run LIC, and machine-check the Lemma 3/4
//!   certificates.

use owp_graph::io::{read_instance, write_instance, Instance};
use owp_graph::{PreferenceTable, Quotas};
use owp_matching::lic::{lic, lic_with_order, SelectionPolicy};
use owp_matching::{verify, MatchingReport, Problem};
use owp_core::run_lid;
use owp_simnet::{MessageKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: instance_tool gen <gnp|ba|ws|regular> <n> <param> <b> <seed>");
    eprintln!("       instance_tool solve   (instance on stdin)");
    eprintln!("       instance_tool verify  (instance on stdin)");
    std::process::exit(2);
}

fn read_problem_from_stdin() -> Problem {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
    let inst = read_instance(&text).unwrap_or_else(|e| die(&format!("parse failure: {e}")));
    let prefs = inst
        .preferences
        .unwrap_or_else(|| die("instance has no preference lists"));
    let quotas = inst
        .quotas
        .unwrap_or_else(|| die("instance has no quotas"));
    Problem::new(inst.graph, prefs, quotas)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            if args.len() != 6 {
                die("gen needs 5 arguments");
            }
            let kind = args[1].as_str();
            let n: usize = args[2].parse().unwrap_or_else(|_| die("bad n"));
            let param: f64 = args[3].parse().unwrap_or_else(|_| die("bad param"));
            let b: u32 = args[4].parse().unwrap_or_else(|_| die("bad b"));
            let seed: u64 = args[5].parse().unwrap_or_else(|_| die("bad seed"));
            let mut rng = StdRng::seed_from_u64(seed);
            let g = match kind {
                "gnp" => owp_graph::generators::erdos_renyi(n, param, &mut rng),
                "ba" => owp_graph::generators::barabasi_albert(n, param as usize, &mut rng),
                "ws" => owp_graph::generators::watts_strogatz(n, param as usize, 0.2, &mut rng),
                "regular" => owp_graph::generators::random_regular(n, param as usize, &mut rng),
                _ => die("unknown topology kind"),
            };
            let prefs = PreferenceTable::random(&g, &mut rng);
            let quotas = Quotas::uniform(&g, b);
            print!(
                "{}",
                write_instance(&Instance {
                    graph: g,
                    preferences: Some(prefs),
                    quotas: Some(quotas),
                })
            );
        }
        Some("solve") => {
            let p = read_problem_from_stdin();
            let m_lic = lic(&p, SelectionPolicy::InOrder);
            let lid = run_lid(&p, SimConfig::with_seed(0));
            assert!(lid.terminated, "LID failed to terminate");
            assert!(
                lid.matching.same_edges(&m_lic),
                "LID diverged from LIC — this would falsify Lemma 6"
            );
            let report = MatchingReport::compute(&p, &m_lic);
            println!(
                "nodes {}  edges {}  matched {}",
                p.node_count(),
                p.edge_count(),
                report.edges
            );
            println!("total weight        {:.4}", report.total_weight);
            println!("total satisfaction  {:.4}", report.satisfaction_total);
            println!("mean satisfaction   {:.4}", report.satisfaction_mean);
            println!("min  satisfaction   {:.4}", report.satisfaction_min);
            println!("Jain fairness       {:.4}", report.jain_index);
            println!(
                "LID messages        {} PROP + {} REJ",
                lid.stats.sent_of(MessageKind::Prop),
                lid.stats.sent_of(MessageKind::Rej)
            );
            for i in p.nodes() {
                let conns: Vec<String> = m_lic
                    .connections(i)
                    .iter()
                    .map(|j| j.to_string())
                    .collect();
                println!("match {i}: {}", conns.join(" "));
            }
        }
        Some("verify") => {
            let p = read_problem_from_stdin();
            verify::check_weights(&p).unwrap_or_else(|e| die(&e));
            let (m, order) = lic_with_order(&p, SelectionPolicy::InOrder);
            verify::check_valid(&p, &m).unwrap_or_else(|e| die(&e));
            verify::check_maximal(&p, &m).unwrap_or_else(|e| die(&e));
            verify::check_selection_order(&p, &order).unwrap_or_else(|e| die(&e));
            verify::check_greedy_certificate(&p, &m).unwrap_or_else(|e| die(&e));
            println!(
                "OK: {} nodes, {} edges, {} matched — eq. 9 weights, validity, \
                 maximality, Lemma 3 history and Lemma 4 certificate all hold",
                p.node_count(),
                p.edge_count(),
                m.size()
            );
        }
        _ => die("missing subcommand"),
    }
}
