//! Divergence forensics: the black-box batch history, the delta-debugging
//! shrinker and the self-contained post-mortem bundle (DESIGN.md §12).
//!
//! Live observability (telemetry, metrics, the auditor) answers *what is
//! happening*; this module answers *what happened* after the fact. The
//! engine keeps one always-on, bounded, allocation-free-in-steady-state
//! recorder: a [`StepRing`] of [`RecordedStep`]s — the applied event
//! batches themselves, plus any [`InjectedFault`]s — backed by a shadow
//! **checkpoint**: a full [`DynamicProblem`] copy advanced by each step
//! the ring evicts, so the retained window always replays from a
//! known-good origin. The engine is deterministic, so replaying the
//! window reproduces every batch's `DeltaReport` — its flips, evaluated
//! count and rerank count — without recording them.
//!
//! When [`crate::Engine::certify`] fails (or an `owp-metrics` auditor
//! violation is reported by the caller), [`crate::Engine::capture_bundle`]
//! freezes everything into a [`ForensicBundle`]: the history window,
//! last-good epoch, membership snapshots, provenance, and — via
//! [`shrink`] — a minimal reproducer. [`shrink`] is classic delta
//! debugging specialised to a suffix window: it bisects for the earliest
//! failing step, then bisects again to drop the longest clean prefix,
//! re-certifying a fresh engine ([`crate::Engine::from_dynamic`]) for
//! every candidate.
//!
//! Bundles serialize to a single JSON object (through
//! `owp_telemetry::json`) and round-trip through [`ForensicBundle::parse`];
//! `owp-inspect forensics <bundle>` summarizes and re-executes them, and
//! [`ForensicBundle::verify`] is the library half of that command.

use crate::dynamic::DynamicProblem;
use crate::engine::Engine;
use crate::event::{EngineError, EngineEvent};
use owp_graph::{EdgeId, GraphBuilder, NodeId, PreferenceTable, Quotas};
use owp_matching::Problem;
use owp_telemetry::json::{self, Value};
use std::fmt::Write as _;

/// The rustc that compiled this engine (provenance for bundles); stamped
/// by `build.rs`, `"unknown"` if the probe failed.
pub const RUSTC_VERSION: &str = match option_env!("OWP_RUSTC_VERSION") {
    Some(v) => v,
    None => "unknown",
};

/// A deliberate corruption, injected through [`Engine::inject_fault`] —
/// the chaos hook the forensics pipeline is proved against (experiment
/// E22, `tests/forensics.rs`). Faults are recorded as history steps so a
/// replay reproduces them at the same point in the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Forces `edge` into the maintained matching without repair — the
    /// "forced quota overflow": the canonical matching cannot contain it,
    /// so `certify()` diverges (and the auditor's quota-feasibility
    /// invariant fires once an endpoint exceeds its quota).
    PhantomEdge {
        /// Universe edge forced into the matching.
        edge: EdgeId,
    },
    /// Applies a preference update (and the weight/rank re-derivation)
    /// **without** repairing the matching — the "tampered weight": the
    /// maintained matching goes stale against the new eq. 9 weights.
    /// `list` must be a permutation of `node`'s universe neighbourhood.
    SkippedRepair {
        /// Node whose preference list is tampered with.
        node: NodeId,
        /// The new (valid) preference list the repair never sees.
        list: Vec<NodeId>,
    },
}

/// One entry of the engine's black-box history: the batch applied at
/// `epoch` (or an injected fault, with `events` empty).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordedStep {
    /// Engine epoch *after* the step was applied.
    pub epoch: u64,
    /// The applied event batch (empty for pure fault steps).
    pub events: Vec<EngineEvent>,
    /// The fault injected at this step, if any.
    pub fault: Option<InjectedFault>,
}

/// Fixed-capacity ring of [`RecordedStep`]s, oldest-first iteration,
/// slot reuse on overwrite (the inner event `Vec`s keep their capacity,
/// so recording a structural batch allocates nothing once warmed).
#[derive(Clone, Debug, Default)]
pub struct StepRing {
    cap: usize,
    slots: Vec<RecordedStep>,
    /// Oldest slot (== next overwrite target) once full.
    head: usize,
    evicted: u64,
}

impl StepRing {
    pub(crate) fn new(cap: usize) -> Self {
        StepRing {
            cap,
            slots: Vec::with_capacity(cap),
            head: 0,
            evicted: 0,
        }
    }

    /// The fixed step capacity (0 = history disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Steps currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` iff nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Steps evicted (overwritten) since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained steps, oldest first.
    pub fn steps(&self) -> impl Iterator<Item = &RecordedStep> {
        let (older, newer) = self.slots.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// The step the next push will overwrite, if the ring is full — the
    /// caller advances the shadow checkpoint past it first.
    pub(crate) fn evicting(&self) -> Option<&RecordedStep> {
        (self.cap > 0 && self.slots.len() == self.cap).then(|| &self.slots[self.head])
    }

    /// Records a step, reusing the oldest slot's buffers when full.
    pub(crate) fn push_step(
        &mut self,
        epoch: u64,
        events: &[EngineEvent],
        fault: Option<InjectedFault>,
    ) {
        if self.cap == 0 {
            return;
        }
        if self.slots.len() < self.cap {
            self.slots.push(RecordedStep {
                epoch,
                events: events.to_vec(),
                fault,
            });
        } else {
            let slot = &mut self.slots[self.head];
            slot.epoch = epoch;
            slot.events.clear();
            slot.events.extend_from_slice(events);
            slot.fault = fault;
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
        }
    }
}

/// Applies one evicted step's *state* effects (membership flags, quotas,
/// preference lists — everything a fresh engine's construction reads) to
/// the shadow checkpoint. Matching-only corruption (`PhantomEdge`) has no
/// state to carry: once such a step leaves the window it is no longer
/// reproducible from the checkpoint, which the bundle verdict reports
/// honestly instead of papering over.
pub(crate) fn advance_membership(
    dp: &mut DynamicProblem,
    events: &[EngineEvent],
    fault: Option<&InjectedFault>,
) {
    for ev in events {
        match ev {
            EngineEvent::NodeJoin { node } => dp.set_active(*node, true),
            EngineEvent::NodeLeave { node } => dp.set_active(*node, false),
            EngineEvent::EdgeAdd { u, v } => {
                let e = dp.graph().edge_between(*u, *v).expect("recorded batch was validated");
                dp.set_present(e, true);
            }
            EngineEvent::EdgeRemove { u, v } => {
                let e = dp.graph().edge_between(*u, *v).expect("recorded batch was validated");
                dp.set_present(e, false);
            }
            EngineEvent::QuotaChange { node, quota } => {
                let changed = dp.apply_quota(*node, *quota);
                dp.rerank(&changed);
            }
            EngineEvent::PreferenceUpdate { node, list } => {
                let changed = dp.apply_prefs(*node, list.clone());
                dp.rerank(&changed);
            }
        }
    }
    if let Some(InjectedFault::SkippedRepair { node, list }) = fault {
        let changed = dp.apply_prefs(*node, list.clone());
        dp.rerank(&changed);
    }
}

/// Replays `steps` against a fresh engine built from `origin`.
///
/// Outer `Err` — the stream itself no longer applies (validation error);
/// inner result — [`Engine::certify`] after the last step.
pub fn replay(
    origin: &DynamicProblem,
    steps: &[RecordedStep],
) -> Result<Result<(), String>, EngineError> {
    let mut e = Engine::from_dynamic(origin.clone());
    for step in steps {
        if !step.events.is_empty() {
            e.apply_batch(&step.events)?;
        }
        if let Some(f) = &step.fault {
            e.apply_fault(f);
        }
    }
    Ok(e.certify())
}

/// What [`shrink`] found: `steps[start..=end]` of the original window
/// still fails certification when replayed from the checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkResult {
    /// First step of the minimal reproducer (inclusive).
    pub start: usize,
    /// Last step of the minimal reproducer (inclusive) — the earliest
    /// step at which the prefix replay fails.
    pub end: usize,
    /// Fresh-engine replays the search spent (2·log₂ of the window plus
    /// bookkeeping).
    pub replays: u64,
    /// The certification error of the minimal reproducer.
    pub error: String,
}

impl ShrinkResult {
    /// Number of steps in the minimal reproducer.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Always `false` — a reproducer holds at least the failing step.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Delta-debugs the recorded window down to a minimal failing
/// prefix+batch: bisect for the earliest step index `end` whose prefix
/// replay `steps[0..=end]` fails certification, then scan for the largest
/// `start` such that `steps[start..=end]` still fails (candidates whose
/// truncated stream no longer validates count as non-failing, so
/// load-bearing prefix steps are kept). Every candidate is re-certified
/// against a fresh engine built from `origin`.
///
/// Returns `None` when the full window replays clean — the failure is not
/// reproducible from the retained history (e.g. the corrupting step was
/// evicted), which the bundle records rather than hides.
pub fn shrink(origin: &DynamicProblem, steps: &[RecordedStep]) -> Option<ShrinkResult> {
    let n = steps.len();
    if n == 0 {
        return None;
    }
    let mut replays = 0u64;
    let mut fails = |s: usize, f: usize| -> Option<String> {
        replays += 1;
        match replay(origin, &steps[s..=f]) {
            Ok(Err(msg)) => Some(msg),
            _ => None,
        }
    };
    let full_error = fails(0, n - 1)?;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fails(0, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let end = hi;
    // Prefix trim: the largest `start` whose suffix still fails. This
    // predicate is *not* monotone in `start` — dropping half of a
    // leave/join pair makes the suffix fail validation, not
    // certification — so bisection is unsound here; scan down from the
    // failing step instead (≤ window-size replays, window ≤ history
    // capacity).
    let mut start = 0usize;
    let mut error = None;
    for s in (1..=end).rev() {
        if let Some(msg) = fails(s, end) {
            start = s;
            error = Some(msg);
            break;
        }
    }
    let error = match error {
        Some(msg) => msg,
        None => fails(0, end).unwrap_or(full_error),
    };
    Some(ShrinkResult { start, end, replays, error })
}

/// Strips the `"epoch N: "` prefix [`Engine::certify`] errors carry, so a
/// violation reproduced at a different replay epoch still compares equal
/// to the original.
pub fn normalize_violation(msg: &str) -> &str {
    if let Some(rest) = msg.strip_prefix("epoch ") {
        if let Some(pos) = rest.find(": ") {
            let (num, tail) = rest.split_at(pos);
            if num.chars().all(|c| c.is_ascii_digit()) {
                return &tail[2..];
            }
        }
    }
    msg
}

/// A self-contained serialization of the shadow checkpoint: enough to
/// rebuild the exact [`DynamicProblem`] with [`OriginSnapshot::restore`].
/// Weights and ranks are **not** stored — the engine maintains them equal
/// to a fresh eq. 9 derivation from the (serialized) preference lists and
/// quotas, so `Problem::new` re-derives them bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct OriginSnapshot {
    /// Universe node count.
    pub n: usize,
    /// Universe edges as endpoint pairs, in edge-id order.
    /// (`GraphBuilder` assigns ids canonically from the edge set, so the
    /// round trip preserves every edge id.)
    pub edges: Vec<(u32, u32)>,
    /// Per-node quotas at the checkpoint.
    pub quotas: Vec<u32>,
    /// Per-node preference lists at the checkpoint.
    pub prefs: Vec<Vec<u32>>,
    /// Node-activity flags at the checkpoint, as a `0`/`1` string.
    pub active: String,
    /// Edge-presence flags at the checkpoint, as a `0`/`1` string.
    pub present: String,
}

fn bits(flags: impl Iterator<Item = bool>) -> String {
    flags.map(|b| if b { '1' } else { '0' }).collect()
}

fn unbits(s: &str, expect: usize, what: &str) -> Result<Vec<bool>, String> {
    if s.len() != expect {
        return Err(format!("{what}: expected {expect} flag bits, got {}", s.len()));
    }
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("{what}: invalid flag character {other:?}")),
        })
        .collect()
}

impl OriginSnapshot {
    /// Serializes a dynamic instance (the shadow checkpoint).
    pub fn capture(dp: &DynamicProblem) -> Self {
        let g = dp.graph();
        OriginSnapshot {
            n: g.node_count(),
            edges: g
                .edges()
                .map(|e| {
                    let (u, v) = g.endpoints(e);
                    (u.0, v.0)
                })
                .collect(),
            quotas: g.nodes().map(|i| dp.quotas().get(i)).collect(),
            prefs: g
                .nodes()
                .map(|i| dp.prefs().list(i).iter().map(|j| j.0).collect())
                .collect(),
            active: bits(g.nodes().map(|i| dp.is_active(i))),
            present: bits(g.edges().map(|e| dp.is_present(e))),
        }
    }

    /// Rebuilds just the static universe [`Problem`] — graph from the edge
    /// list, eq. 9 weights re-derived from the lists and quotas — without
    /// the membership flags or the [`DynamicProblem`] wrapper.
    ///
    /// This is the expensive, once-per-structure half of
    /// [`restore`](OriginSnapshot::restore): callers that audit a stream of
    /// snapshots over an unchanging universe (matchd's continuous auditor)
    /// rebuild the universe only when
    /// [`same_structure`](OriginSnapshot::same_structure) breaks, and
    /// re-parse just the [`flags`](OriginSnapshot::flags) per snapshot.
    pub fn restore_universe(&self) -> Result<Problem, String> {
        if self.quotas.len() != self.n || self.prefs.len() != self.n {
            return Err("origin quota/preference table length mismatch".into());
        }
        let mut b = GraphBuilder::new(self.n);
        for &(u, v) in &self.edges {
            if u as usize >= self.n || v as usize >= self.n || u == v {
                return Err(format!("origin edge ({u},{v}) out of range for n={}", self.n));
            }
            b.add_edge(NodeId(u), NodeId(v));
        }
        let g = b.build();
        if g.edge_count() != self.edges.len() {
            return Err("origin edge list contains duplicates".into());
        }
        let lists: Vec<Vec<NodeId>> = self
            .prefs
            .iter()
            .map(|l| l.iter().map(|&j| NodeId(j)).collect())
            .collect();
        let prefs = PreferenceTable::from_lists(&g, lists)
            .map_err(|e| format!("origin preference lists invalid: {e:?}"))?;
        let quotas = Quotas::from_vec(&g, self.quotas.clone());
        Ok(Problem::new(g, prefs, quotas))
    }

    /// Parses the membership flag strings into `(active, present)` bool
    /// vectors — the cheap, per-snapshot half of
    /// [`restore`](OriginSnapshot::restore).
    pub fn flags(&self) -> Result<(Vec<bool>, Vec<bool>), String> {
        let active = unbits(&self.active, self.n, "origin active flags")?;
        let present = unbits(&self.present, self.edges.len(), "origin present flags")?;
        Ok((active, present))
    }

    /// `true` iff `other` describes the same universe *structure* — node
    /// count, edge list, quotas and preference lists — ignoring the
    /// membership flags. Two snapshots with equal structure restore to
    /// the same [`Problem`] via
    /// [`restore_universe`](OriginSnapshot::restore_universe).
    pub fn same_structure(&self, other: &OriginSnapshot) -> bool {
        self.n == other.n
            && self.edges == other.edges
            && self.quotas == other.quotas
            && self.prefs == other.prefs
    }

    /// Rebuilds the dynamic instance: graph from the edge list, eq. 9
    /// weights re-derived from the lists and quotas, membership flags
    /// restored verbatim.
    pub fn restore(&self) -> Result<DynamicProblem, String> {
        let problem = self.restore_universe()?;
        let (active, present) = self.flags()?;
        Ok(DynamicProblem::from_parts(problem, active, present))
    }

    /// Serializes the snapshot as one self-contained JSON object — the
    /// same shape a [`ForensicBundle`]'s `origin` field embeds, and the
    /// payload `matchd`'s durability snapshots persist (DESIGN.md §13).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        self.write_json(&mut o);
        o
    }

    fn write_json(&self, o: &mut String) {
        let _ = write!(o, "{{\"n\":{}", self.n);
        o.push_str(",\"edges\":[");
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "[{u},{v}]");
        }
        o.push_str("],\"quotas\":");
        write_list(o, self.quotas.iter().copied());
        o.push_str(",\"prefs\":[");
        for (i, l) in self.prefs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_list(o, l.iter().copied());
        }
        o.push_str("],\"active\":");
        json::write_str(o, &self.active);
        o.push_str(",\"present\":");
        json::write_str(o, &self.present);
        o.push('}');
    }

    /// Parses a snapshot serialized by [`OriginSnapshot::to_json`].
    pub fn parse(doc: &str) -> Result<OriginSnapshot, String> {
        OriginSnapshot::from_json(&json::parse(doc)?)
    }

    fn from_json(v: &Value<'_>) -> Result<OriginSnapshot, String> {
        v.as_obj("origin")?;
        let edges = v
            .field("edges")?
            .as_arr("origin.edges")?
            .iter()
            .map(|pair| {
                let [a, b] = pair.as_tuple("origin edge")?;
                Ok((a.as_u32("edge endpoint")?, b.as_u32("edge endpoint")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let prefs = v
            .field("prefs")?
            .as_arr("origin.prefs")?
            .iter()
            .map(|l| u32_list(l, "origin preference list"))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(OriginSnapshot {
            n: v.field("n")?.as_usize("origin.n")?,
            edges,
            quotas: u32_list(v.field("quotas")?, "origin.quotas")?,
            prefs,
            active: v.field("active")?.as_str("origin.active")?.to_string(),
            present: v.field("present")?.as_str("origin.present")?.to_string(),
        })
    }
}

/// Appends `[a,b,...]`.
fn write_list(o: &mut String, items: impl IntoIterator<Item = u32>) {
    o.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{x}");
    }
    o.push(']');
}

fn u32_list(v: &Value<'_>, what: &str) -> Result<Vec<u32>, String> {
    v.as_arr(what)?.iter().map(|x| x.as_u32(what)).collect()
}

fn node_list(v: &Value<'_>, what: &str) -> Result<Vec<NodeId>, String> {
    Ok(u32_list(v, what)?.into_iter().map(NodeId).collect())
}

/// The self-contained post-mortem dump: everything needed to understand
/// and re-execute a divergence on another machine, in one JSON object.
/// Produced by [`Engine::capture_bundle`] / [`Engine::certify_with_forensics`],
/// consumed by `owp-inspect forensics` and [`ForensicBundle::verify`].
#[derive(Clone, Debug, PartialEq)]
pub struct ForensicBundle {
    /// What fired: `"certify"`, `"audit"`, or `"manual"`.
    pub trigger: String,
    /// The violation text (certification error or auditor violation).
    pub reason: String,
    /// Engine epoch when the bundle was captured.
    pub epoch: u64,
    /// Last epoch whose prefix replay certified clean (the capture epoch
    /// itself when nothing reproduces).
    pub last_good_epoch: u64,
    /// Compiler provenance ([`RUSTC_VERSION`]).
    pub rustc: String,
    /// Engine configuration (`history=N`, the history depth).
    pub config: String,
    /// Workload seed, when the caller has one.
    pub seed: Option<u64>,
    /// Epoch the shadow checkpoint corresponds to (state *before* the
    /// first retained step).
    pub origin_epoch: u64,
    /// The shadow checkpoint (`None` when history was disabled).
    pub origin: Option<OriginSnapshot>,
    /// Node-activity flags at capture time (`0`/`1` string).
    pub cur_active: String,
    /// Edge-presence flags at capture time (`0`/`1` string).
    pub cur_present: String,
    /// The retained history window, oldest first.
    pub steps: Vec<RecordedStep>,
    /// The minimal reproducer within [`ForensicBundle::steps`], when the
    /// window reproduces the failure.
    pub shrunk: Option<ShrinkResult>,
    /// A metrics snapshot (JSON) the caller attached, if any.
    pub metrics_json: Option<String>,
}

impl ForensicBundle {
    /// The minimal reproducer: the shrunk range when the shrinker found
    /// one, otherwise the whole retained window.
    pub fn reproducer(&self) -> &[RecordedStep] {
        match &self.shrunk {
            Some(s) => &self.steps[s.start..=s.end],
            None => &self.steps,
        }
    }

    /// Re-executes the reproducer against a fresh engine restored from
    /// the bundled checkpoint.
    ///
    /// * `Ok(Some(violation))` — the reproducer still fails (the bundle
    ///   is live); the violation text is the replay's certify error.
    /// * `Ok(None)` — the reproducer replays clean.
    /// * `Err` — the bundle cannot be re-executed (no checkpoint, or the
    ///   recorded stream no longer validates).
    pub fn verify(&self) -> Result<Option<String>, String> {
        let origin = self
            .origin
            .as_ref()
            .ok_or("bundle carries no checkpoint (history ring was disabled)")?;
        let dp = origin.restore()?;
        match replay(&dp, self.reproducer()) {
            Ok(Ok(())) => Ok(None),
            Ok(Err(violation)) => Ok(Some(violation)),
            Err(e) => Err(format!("recorded stream no longer validates: {e}")),
        }
    }

    /// Writes the bundle into a spool directory and returns the final
    /// path. The file lands atomically (write to a `.tmp` sibling, fsync,
    /// rename), so a watcher polling the directory never observes a
    /// half-written bundle — the contract matchd's continuous auditor
    /// relies on when it escalates a live violation. Names are
    /// `bundle-e<epoch>-<n>.json` with `n` bumped past any collision, so
    /// repeated captures at one epoch all survive.
    pub fn spool(&self, dir: &std::path::Path) -> Result<std::path::PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create spool dir: {e}"))?;
        let mut n = 0u32;
        let path = loop {
            let candidate = dir.join(format!("bundle-e{}-{n}.json", self.epoch));
            if !candidate.exists() {
                break candidate;
            }
            n += 1;
            if n > 10_000 {
                return Err("spool dir holds 10k bundles for this epoch".into());
            }
        };
        let tmp = path.with_extension("json.tmp");
        let doc = self.to_json();
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)
                .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
            f.write_all(doc.as_bytes())
                .and_then(|()| f.sync_all())
                .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        }
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Serializes the bundle as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        let str_field = |o: &mut String, key: &str, text: &str| {
            let _ = write!(o, ",\"{key}\":");
            json::write_str(o, text);
        };
        o.push_str("{\"format\":1");
        str_field(&mut o, "trigger", &self.trigger);
        str_field(&mut o, "reason", &self.reason);
        let _ = write!(o, ",\"epoch\":{}", self.epoch);
        let _ = write!(o, ",\"last_good_epoch\":{}", self.last_good_epoch);
        str_field(&mut o, "rustc", &self.rustc);
        str_field(&mut o, "config", &self.config);
        match self.seed {
            Some(s) => {
                let _ = write!(o, ",\"seed\":{s}");
            }
            None => o.push_str(",\"seed\":null"),
        }
        let _ = write!(o, ",\"origin_epoch\":{}", self.origin_epoch);
        o.push_str(",\"origin\":");
        match &self.origin {
            Some(or) => or.write_json(&mut o),
            None => o.push_str("null"),
        }
        str_field(&mut o, "cur_active", &self.cur_active);
        str_field(&mut o, "cur_present", &self.cur_present);
        o.push_str(",\"steps\":[");
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"epoch\":{},\"fault\":", step.epoch);
            match &step.fault {
                Some(f) => write_fault(&mut o, f),
                None => o.push_str("null"),
            }
            o.push_str(",\"events\":[");
            for (j, ev) in step.events.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                write_event(&mut o, ev);
            }
            o.push_str("]}");
        }
        o.push(']');
        match &self.shrunk {
            Some(s) => {
                let _ = write!(
                    o,
                    ",\"shrunk\":{{\"start\":{},\"end\":{},\"replays\":{},\"error\":",
                    s.start, s.end, s.replays
                );
                json::write_str(&mut o, &s.error);
                o.push('}');
            }
            None => o.push_str(",\"shrunk\":null"),
        }
        match &self.metrics_json {
            Some(m) => str_field(&mut o, "metrics", m),
            None => o.push_str(",\"metrics\":null"),
        }
        o.push('}');
        o
    }

    /// Parses a bundle written by [`ForensicBundle::to_json`].
    pub fn parse(doc: &str) -> Result<ForensicBundle, String> {
        let top = json::parse(doc)?;
        top.as_obj("bundle")?;
        let u64_at = |key: &str| top.field(key)?.as_u64(key);
        let str_at = |key: &str| Ok::<_, String>(top.field(key)?.as_str(key)?.to_string());
        let format = u64_at("format")?;
        if format != 1 {
            return Err(format!("unsupported bundle format {format}"));
        }
        let origin = top.field("origin")?.nullable().map(OriginSnapshot::from_json).transpose()?;
        let steps = top
            .field("steps")?
            .as_arr("steps")?
            .iter()
            .map(|st| {
                st.as_obj("step")?;
                Ok(RecordedStep {
                    epoch: st.field("epoch")?.as_u64("step epoch")?,
                    events: st
                        .field("events")?
                        .as_arr("step events")?
                        .iter()
                        .map(event_from_json)
                        .collect::<Result<Vec<_>, String>>()?,
                    fault: st.field("fault")?.nullable().map(fault_from_json).transpose()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let shrunk = match top.field("shrunk")?.nullable() {
            None => None,
            Some(sh) => {
                sh.as_obj("shrunk")?;
                let s = ShrinkResult {
                    start: sh.field("start")?.as_usize("shrunk.start")?,
                    end: sh.field("end")?.as_usize("shrunk.end")?,
                    replays: sh.field("replays")?.as_u64("shrunk.replays")?,
                    error: sh.field("error")?.as_str("shrunk.error")?.to_string(),
                };
                if s.start > s.end || s.end >= steps.len() {
                    return Err(format!(
                        "shrunk range {}..={} out of bounds for {} steps",
                        s.start,
                        s.end,
                        steps.len()
                    ));
                }
                Some(s)
            }
        };
        Ok(ForensicBundle {
            trigger: str_at("trigger")?,
            reason: str_at("reason")?,
            epoch: u64_at("epoch")?,
            last_good_epoch: u64_at("last_good_epoch")?,
            rustc: str_at("rustc")?,
            config: str_at("config")?,
            seed: top.field("seed")?.nullable().map(|v| v.as_u64("seed")).transpose()?,
            origin_epoch: u64_at("origin_epoch")?,
            origin,
            cur_active: str_at("cur_active")?,
            cur_present: str_at("cur_present")?,
            steps,
            shrunk,
            metrics_json: top
                .field("metrics")?
                .nullable()
                .map(|v| v.as_str("metrics").map(str::to_string))
                .transpose()?,
        })
    }
}

// ---------------------------------------------------------------------
// EngineEvent / InjectedFault (de)serialization
// ---------------------------------------------------------------------

fn write_event(o: &mut String, ev: &EngineEvent) {
    let _ = match ev {
        EngineEvent::NodeJoin { node } => write!(o, "{{\"t\":\"join\",\"node\":{}}}", node.0),
        EngineEvent::NodeLeave { node } => write!(o, "{{\"t\":\"leave\",\"node\":{}}}", node.0),
        EngineEvent::EdgeAdd { u, v } => {
            write!(o, "{{\"t\":\"eadd\",\"u\":{},\"v\":{}}}", u.0, v.0)
        }
        EngineEvent::EdgeRemove { u, v } => {
            write!(o, "{{\"t\":\"erem\",\"u\":{},\"v\":{}}}", u.0, v.0)
        }
        EngineEvent::QuotaChange { node, quota } => {
            write!(o, "{{\"t\":\"quota\",\"node\":{},\"q\":{quota}}}", node.0)
        }
        EngineEvent::PreferenceUpdate { node, list } => {
            let _ = write!(o, "{{\"t\":\"prefs\",\"node\":{},\"list\":", node.0);
            write_list(o, list.iter().map(|j| j.0));
            o.push('}');
            Ok(())
        }
    };
}

fn event_from_json(v: &Value<'_>) -> Result<EngineEvent, String> {
    let node = |k: &str| v.field(k)?.as_u32(k).map(NodeId);
    Ok(match v.field("t")?.as_str("event type")? {
        "join" => EngineEvent::NodeJoin { node: node("node")? },
        "leave" => EngineEvent::NodeLeave { node: node("node")? },
        "eadd" => EngineEvent::EdgeAdd { u: node("u")?, v: node("v")? },
        "erem" => EngineEvent::EdgeRemove { u: node("u")?, v: node("v")? },
        "quota" => EngineEvent::QuotaChange {
            node: node("node")?,
            quota: v.field("q")?.as_u32("quota")?,
        },
        "prefs" => EngineEvent::PreferenceUpdate {
            node: node("node")?,
            list: node_list(v.field("list")?, "preference list")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    })
}

fn write_fault(o: &mut String, f: &InjectedFault) {
    match f {
        InjectedFault::PhantomEdge { edge } => {
            let _ = write!(o, "{{\"t\":\"phantom\",\"edge\":{}}}", edge.0);
        }
        InjectedFault::SkippedRepair { node, list } => {
            let _ = write!(o, "{{\"t\":\"skip\",\"node\":{},\"list\":", node.0);
            write_list(o, list.iter().map(|j| j.0));
            o.push('}');
        }
    }
}

fn fault_from_json(v: &Value<'_>) -> Result<InjectedFault, String> {
    Ok(match v.field("t")?.as_str("fault type")? {
        "phantom" => InjectedFault::PhantomEdge {
            edge: EdgeId(v.field("edge")?.as_u32("fault edge")?),
        },
        "skip" => InjectedFault::SkippedRepair {
            node: NodeId(v.field("node")?.as_u32("fault node")?),
            list: node_list(v.field("list")?, "fault list")?,
        },
        other => return Err(format!("unknown fault type {other:?}")),
    })
}

// ---------------------------------------------------------------------
// Engine-side capture (lives here to keep engine.rs about repair)
// ---------------------------------------------------------------------

impl Engine {
    /// Freezes the engine's forensic state into a [`ForensicBundle`]:
    /// the retained history window and its
    /// checkpoint, membership snapshots, provenance, and — when the
    /// window reproduces a certification failure — the [`shrink`]-minimal
    /// reproducer. `trigger` is conventionally `"certify"`, `"audit"`, or
    /// `"manual"`; `seed`/`metrics_json` are caller-supplied provenance.
    pub fn capture_bundle(
        &self,
        trigger: &str,
        reason: &str,
        seed: Option<u64>,
        metrics_json: Option<&str>,
    ) -> ForensicBundle {
        let dp = self.dynamic();
        let g = dp.graph();
        let steps: Vec<RecordedStep> = self.history().steps().cloned().collect();
        let shrunk = self
            .checkpoint()
            .filter(|_| !steps.is_empty())
            .and_then(|ck| shrink(ck, &steps));
        let origin_epoch = self.checkpoint_epoch().0;
        let last_good_epoch = match &shrunk {
            Some(s) if s.end == 0 => origin_epoch,
            Some(s) => steps[s.end - 1].epoch,
            None => self.epoch().0,
        };
        ForensicBundle {
            trigger: trigger.to_string(),
            reason: reason.to_string(),
            epoch: self.epoch().0,
            last_good_epoch,
            rustc: RUSTC_VERSION.to_string(),
            config: format!("history={}", self.history().capacity()),
            seed,
            origin_epoch,
            origin: self.checkpoint().map(OriginSnapshot::capture),
            cur_active: bits(g.nodes().map(|i| dp.is_active(i))),
            cur_present: bits(g.edges().map(|e| dp.is_present(e))),
            steps,
            shrunk,
            metrics_json: metrics_json.map(str::to_string),
        }
    }

    /// [`Engine::certify`] with an automatic forensic dump: on divergence
    /// the full bundle (shrunk reproducer included) comes back instead of
    /// a bare message. The happy path costs exactly one `certify()`.
    pub fn certify_with_forensics(
        &self,
        seed: Option<u64>,
        metrics_json: Option<&str>,
    ) -> Result<(), Box<ForensicBundle>> {
        match self.certify() {
            Ok(()) => Ok(()),
            Err(reason) => {
                Err(Box::new(self.capture_bundle("certify", &reason, seed, metrics_json)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EngineEvent;

    fn problem(seed: u64) -> Problem {
        Problem::random_gnp(24, 0.3, 2, seed)
    }

    fn structural_stream(e: &Engine, batches: usize) -> Vec<Vec<EngineEvent>> {
        // Leave/rejoin walk over distinct nodes: deterministic, always
        // valid, every batch undone by the next.
        let n = e.dynamic().graph().node_count() as u32;
        (0..batches)
            .map(|i| {
                let node = NodeId((i as u32 / 2) % n);
                if i % 2 == 0 {
                    vec![EngineEvent::NodeLeave { node }]
                } else {
                    vec![EngineEvent::NodeJoin { node }]
                }
            })
            .collect()
    }

    /// An alive universe edge the engine currently does not select.
    fn unselected_alive_edge(e: &Engine) -> EdgeId {
        let dp = e.dynamic();
        dp.graph()
            .edges()
            .find(|&ed| dp.is_alive(ed) && !e.matching().contains(ed))
            .expect("G(24, .3) under quota 2 leaves unselected edges")
    }

    #[test]
    fn step_ring_evicts_oldest_and_reuses_slots() {
        let mut ring = StepRing::new(2);
        assert_eq!(ring.capacity(), 2);
        assert!(ring.evicting().is_none());
        ring.push_step(1, &[EngineEvent::NodeLeave { node: NodeId(0) }], None);
        ring.push_step(2, &[EngineEvent::NodeJoin { node: NodeId(0) }], None);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicting().unwrap().epoch, 1);
        ring.push_step(3, &[], Some(InjectedFault::PhantomEdge { edge: EdgeId(7) }));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 1);
        let epochs: Vec<u64> = ring.steps().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![2, 3], "oldest first after wraparound");
        assert!(ring.steps().last().unwrap().fault.is_some());
    }

    #[test]
    fn phantom_edge_shrinks_to_the_fault_step() {
        let mut e = Engine::new(problem(21));
        for b in structural_stream(&e, 6) {
            e.apply_batch(&b).unwrap();
        }
        e.certify().expect("clean before injection");
        let edge = unselected_alive_edge(&e);
        e.inject_fault(InjectedFault::PhantomEdge { edge });
        let reason = e.certify().expect_err("phantom edge must diverge");
        let bundle = e.capture_bundle("certify", &reason, Some(21), None);

        let shrunk = bundle.shrunk.clone().expect("window reproduces the fault");
        assert_eq!(
            bundle.reproducer().len(),
            1,
            "a self-contained fault shrinks to a single step"
        );
        assert!(bundle.reproducer()[0].fault.is_some());
        assert!(shrunk.replays >= 2, "bisection replayed candidates");
        let replayed = bundle.verify().expect("bundle re-executes").expect("still fails");
        assert_eq!(
            normalize_violation(&replayed),
            normalize_violation(&reason),
            "replay reproduces the same violation"
        );
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let mut e = Engine::new(problem(22));
        for b in structural_stream(&e, 4) {
            e.apply_batch(&b).unwrap();
        }
        let edge = unselected_alive_edge(&e);
        e.inject_fault(InjectedFault::PhantomEdge { edge });
        let reason = e.certify().unwrap_err();
        let bundle = e.certify_with_forensics(Some(22), Some("{\"counters\":[]}"))
            .expect_err("diverged");
        assert_eq!(bundle.trigger, "certify");
        assert_eq!(normalize_violation(&bundle.reason), normalize_violation(&reason));
        let parsed = ForensicBundle::parse(&bundle.to_json()).expect("bundle parses");
        assert_eq!(parsed, *bundle, "lossless round trip");
        assert!(parsed.verify().unwrap().is_some(), "parsed bundle still reproduces");
    }

    #[test]
    fn skipped_repair_reproduces_from_the_checkpoint() {
        let mut e = Engine::new(problem(23));
        for b in structural_stream(&e, 4) {
            e.apply_batch(&b).unwrap();
        }
        // Find a node whose preference reversal actually moves the
        // canonical matching (clone-probe; deterministic).
        let g_nodes = e.dynamic().graph().node_count() as u32;
        let fault = (0..g_nodes)
            .map(NodeId)
            .filter_map(|node| {
                let mut list: Vec<NodeId> =
                    e.dynamic().graph().neighbor_ids(node).collect();
                if list.len() < 2 {
                    return None;
                }
                list.reverse();
                let mut probe = e.clone();
                let f = InjectedFault::SkippedRepair { node, list };
                probe.apply_fault(&f);
                probe.certify().is_err().then_some(f)
            })
            .next()
            .expect("some reversal perturbs the matching");
        e.inject_fault(fault);
        let reason = e.certify().expect_err("tampered weights diverge");
        let bundle = e.capture_bundle("certify", &reason, None, None);
        assert!(bundle.shrunk.is_some());
        assert!(bundle.reproducer().len() <= bundle.steps.len());
        let replayed = bundle.verify().unwrap().expect("reproduces");
        assert_eq!(normalize_violation(&replayed), normalize_violation(&reason));
    }

    #[test]
    fn healthy_engine_captures_a_clean_bundle() {
        let mut e = Engine::new(problem(24));
        for b in structural_stream(&e, 4) {
            e.apply_batch(&b).unwrap();
        }
        e.certify_with_forensics(None, None).expect("healthy");
        let bundle = e.capture_bundle("manual", "snapshot for inspection", None, None);
        assert!(bundle.shrunk.is_none(), "nothing fails, nothing to shrink");
        assert_eq!(bundle.verify().unwrap(), None, "replay is clean");
        let parsed = ForensicBundle::parse(&bundle.to_json()).unwrap();
        assert_eq!(parsed, bundle);
    }

    #[test]
    fn eviction_advances_the_checkpoint() {
        // History capacity 3 over a longer stream: the window slides, the
        // checkpoint absorbs evicted steps, and a late fault still
        // reproduces from the advanced checkpoint.
        let mut e = Engine::with_history(problem(25), 3);
        for b in structural_stream(&e, 10) {
            e.apply_batch(&b).unwrap();
        }
        assert!(e.history().evicted() > 0, "window slid");
        assert_eq!(e.history().len(), 3);
        assert_eq!(
            e.checkpoint_epoch().0,
            e.history().steps().next().unwrap().epoch - 1,
            "checkpoint sits immediately before the oldest retained step"
        );
        let edge = unselected_alive_edge(&e);
        e.inject_fault(InjectedFault::PhantomEdge { edge });
        let reason = e.certify().unwrap_err();
        let bundle = e.capture_bundle("certify", &reason, None, None);
        assert!(bundle.shrunk.is_some(), "reproducible from the slid window");
        assert!(bundle.verify().unwrap().is_some());
    }

    #[test]
    fn normalization_strips_only_the_epoch_prefix() {
        assert_eq!(normalize_violation("epoch 12: engine selects X"), "engine selects X");
        assert_eq!(normalize_violation("epoch x: not a number"), "epoch x: not a number");
        assert_eq!(normalize_violation("no prefix"), "no prefix");
    }

    #[test]
    fn seed_round_trips_at_u64_max() {
        let mut e = Engine::new(problem(26));
        for b in structural_stream(&e, 2) {
            e.apply_batch(&b).unwrap();
        }
        let bundle = e.capture_bundle("manual", "widest seed", Some(u64::MAX), None);
        let parsed = ForensicBundle::parse(&bundle.to_json()).expect("a u64::MAX seed parses");
        assert_eq!(parsed.seed, Some(u64::MAX));
        assert_eq!(parsed, bundle);
    }

    #[test]
    fn bundle_with_the_retired_causal_tail_field_still_parses() {
        // Bundles written before the fields were retired hold an always
        // empty `"causal_tail":""` before the metrics, and older ones also
        // the flight ring's five keys before that.
        let mut e = Engine::new(problem(27));
        for b in structural_stream(&e, 2) {
            e.apply_batch(&b).unwrap();
        }
        let bundle = e.capture_bundle("manual", "older layout", None, None);
        let doc = bundle.to_json();
        let tail = ",\"causal_tail\":\"\",\"metrics\":";
        let ring = ",\"ring_capacity\":1024,\"ring_dropped\":0,\"ring_seen\":2,\
                    \"ring\":\"{\\\"ev\\\":\\\"engine_edge_added\\\",\\\"epoch\\\":1,\\\"edge\\\":4}\\n\",\
                    \"watermarks\":[[1,1],[2,2]]";
        for old in [
            doc.replacen(",\"metrics\":", tail, 1),
            doc.replacen(",\"metrics\":", &format!("{ring}{tail}"), 1),
        ] {
            assert_ne!(old, doc);
            assert_eq!(ForensicBundle::parse(&old), Ok(bundle.clone()));
        }
    }

    #[test]
    fn oversized_edge_endpoint_is_rejected() {
        // 2^32 must not truncate to node 0, which would restore cleanly.
        let doc = |u: &str| {
            format!(
                "{{\"n\":2,\"edges\":[[{u},1]],\"quotas\":[1,1],\"prefs\":[[1],[0]],\
                 \"active\":\"11\",\"present\":\"1\"}}"
            )
        };
        assert!(OriginSnapshot::parse(&doc("0")).unwrap().restore().is_ok());
        let err = OriginSnapshot::parse(&doc("4294967296")).unwrap_err();
        assert!(err.contains("4294967296 is out of range for u32"), "{err}");
    }

    #[test]
    fn malformed_bundles_are_structured_errors() {
        assert!(ForensicBundle::parse("").is_err());
        assert!(ForensicBundle::parse("not json").is_err());
        assert!(ForensicBundle::parse("{\"format\":2}").is_err());
        assert!(ForensicBundle::parse("{\"format\":1}").unwrap_err().contains("missing field"));
    }
}
