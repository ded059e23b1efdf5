//! Deterministic universe construction + the standard client workload.
//!
//! A matchd universe (the fixed node/edge ground set the engine ranges
//! over) must be reconstructible on restart from the same spec string —
//! the daemon only persists *dynamic* state (snapshot + WAL). Spec
//! grammar, all fields seeded and deterministic:
//!
//! * `ba:<n>,<m>,<b>,<seed>` — Barabási–Albert, `m` links per arrival;
//! * `gnp:<n>,<milli_p>,<b>,<seed>` — Erdős–Rényi with `p = milli_p/1000`;
//! * `ring:<n>,<b>,<seed>` — a cycle.
//!
//! `b` is the uniform quota; preferences are `Problem::random_over`
//! with the given seed, so the same spec yields the same eq. 9 weights
//! everywhere (daemon, bench driver, reference engine).

use owp_engine::EngineEvent;
use owp_graph::NodeId;
use owp_matching::Problem;
use rand::{rngs::StdRng, SeedableRng};

/// Parses a universe spec (see module docs) into a [`Problem`].
pub fn from_spec(spec: &str) -> Result<Problem, String> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("universe spec {spec:?} lacks a `kind:` prefix"))?;
    let nums: Vec<u64> = rest
        .split(',')
        .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad number {s:?} in {spec:?}")))
        .collect::<Result<_, _>>()?;
    let arity = |want: usize| -> Result<(), String> {
        if nums.len() == want {
            Ok(())
        } else {
            Err(format!("{kind}: expected {want} comma-separated numbers, got {}", nums.len()))
        }
    };
    match kind {
        "ba" => {
            arity(4)?;
            let mut rng = StdRng::seed_from_u64(nums[3]);
            let g = owp_graph::generators::barabasi_albert(nums[0] as usize, nums[1] as usize, &mut rng);
            Ok(Problem::random_over(g, nums[2] as u32, nums[3]))
        }
        "gnp" => {
            arity(4)?;
            let mut rng = StdRng::seed_from_u64(nums[3]);
            let g = owp_graph::generators::erdos_renyi(nums[0] as usize, nums[1] as f64 / 1000.0, &mut rng);
            Ok(Problem::random_over(g, nums[2] as u32, nums[3]))
        }
        "ring" => {
            arity(3)?;
            let g = owp_graph::generators::ring(nums[0] as usize);
            Ok(Problem::random_over(g, nums[1] as u32, nums[2]))
        }
        other => Err(format!("unknown universe kind {other:?} (ba|gnp|ring)")),
    }
}

/// The standard multi-client workload: client `c` of `clients` owns the
/// nodes `i ≡ c (mod clients)` and emits a self-inverse stream of
/// leave/rejoin pairs plus remove/add pairs over edges whose *both*
/// endpoints it owns. Ownership partitions the mutable state, so any
/// interleaving of the per-client streams — which is exactly what the
/// daemon's adaptive batching produces — stays valid, and the final
/// instance equals the initial one whenever `events` is a multiple of 2.
pub fn client_stream(problem: &Problem, client: usize, clients: usize, events: usize) -> Vec<EngineEvent> {
    let g = &problem.graph;
    let owned: Vec<u32> = (0..g.node_count() as u32)
        .filter(|i| (*i as usize) % clients == client)
        .collect();
    let owned_edges: Vec<(u32, u32)> = g
        .edges()
        .map(|e| g.endpoints(e))
        .map(|(u, v)| (u.0, v.0))
        .filter(|(u, v)| (*u as usize) % clients == client && (*v as usize) % clients == client)
        .collect();
    let mut out = Vec::with_capacity(events);
    if owned.is_empty() {
        return out;
    }
    let mut ni = 0usize;
    let mut ei = 0usize;
    while out.len() + 2 <= events {
        // Three node toggles for every edge toggle, when edges exist.
        for _ in 0..3 {
            if out.len() + 2 > events {
                break;
            }
            let x = NodeId(owned[ni % owned.len()]);
            ni += 1;
            out.push(EngineEvent::NodeLeave { node: x });
            out.push(EngineEvent::NodeJoin { node: x });
        }
        if !owned_edges.is_empty() && out.len() + 2 <= events {
            let (u, v) = owned_edges[ei % owned_edges.len()];
            ei += 1;
            out.push(EngineEvent::EdgeRemove { u: NodeId(u), v: NodeId(v) });
            out.push(EngineEvent::EdgeAdd { u: NodeId(u), v: NodeId(v) });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic() {
        let a = from_spec("ba:200,3,2,42").expect("spec");
        let b = from_spec("ba:200,3,2,42").expect("spec");
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert!(from_spec("ba:200,3,2").is_err());
        assert!(from_spec("nope:1,2,3").is_err());
        assert!(from_spec("ring:50,2,1").is_ok());
        assert!(from_spec("gnp:100,50,2,9").is_ok());
    }

    #[test]
    fn client_streams_are_valid_under_any_interleaving() {
        use owp_engine::Engine;
        let problem = from_spec("ba:120,3,2,7").expect("spec");
        let clients = 3;
        let streams: Vec<_> =
            (0..clients).map(|c| client_stream(&problem, c, clients, 40)).collect();
        // Round-robin interleave one event at a time — harsher than any
        // real batching — and apply in a single engine.
        let mut engine = Engine::new(problem);
        let mut idx = vec![0usize; clients];
        let mut merged = Vec::new();
        loop {
            let mut progressed = false;
            for (c, stream) in streams.iter().enumerate() {
                if idx[c] < stream.len() {
                    merged.push(stream[idx[c]].clone());
                    idx[c] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for chunk in merged.chunks(7) {
            engine.apply_batch(chunk).expect("valid interleaving");
        }
        engine.certify().expect("certified");
        // Self-inverse: everything returned to the initial state.
        assert_eq!(engine.epoch().0 as usize, merged.len().div_ceil(7));
    }
}
