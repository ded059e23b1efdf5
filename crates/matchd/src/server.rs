//! The daemon: acceptor → bounded queue → engine owner → published view.
//!
//! Thread layout (DESIGN.md §13):
//!
//! * one **acceptor** thread polls a non-blocking listener and spawns a
//!   handler thread per connection (`std::net`, no async runtime);
//! * handler threads decode frames, answer **reads** directly from the
//!   epoch-stamped published view (an `Arc` swap — readers never touch
//!   the engine), and forward **submissions** into a bounded
//!   `sync_channel`; a full channel is answered `BUSY` + retry-after
//!   *without blocking* — that is the admission control;
//! * a single **engine owner** thread drains the channel into an `Owner`
//!   step machine (`owner.rs`), batching adaptively: a batch flushes when
//!   it reaches [`MatchdConfig::max_batch`] events or when the oldest
//!   queued submission has lingered [`MatchdConfig::max_linger`]. A flush
//!   applies the merged batch, appends it to the WAL and publishes the
//!   view; only then are the submitters acked, after the step, so an
//!   acknowledged write is always recoverable and readable.
//!
//! If a merged batch fails engine validation the owner falls back to
//! applying each submission separately: good submissions commit with
//! their own epochs, bad ones are `REJECTED` with the engine's error,
//! and one client's invalid event can never poison another's.

use crate::codec::{self, CodecError, Frame, PROTO_VERSION};
use crate::ops::{self, OpsCtx, OpsHandle, OpsShared};
use crate::owner::Owner;
use crate::recovery::recover;
use crate::snapshot::UniverseBase;
use crate::wal::FsyncPolicy;
use owp_engine::{
    DeltaReport, Engine, EngineError, EngineEvent, ForensicBundle, InjectedFault, OriginSnapshot,
};
use owp_graph::{EdgeId, NodeId};
use owp_metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, MATCHD_ADMISSION_REJECTS, MATCHD_CONNECTIONS,
    MATCHD_CONNECTIONS_TOTAL, MATCHD_REQUESTS_TOTAL, MATCHD_REQ_CONTROL_US, MATCHD_REQ_QUERY_US,
    MATCHD_REQ_SUBMIT_US,
};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. `Default` is a reasonable latency-leaning
/// middle ground; the bench driver sweeps the knobs.
#[derive(Clone, Debug)]
pub struct MatchdConfig {
    /// Directory holding `matchd.wal` and `snapshot.bin`.
    pub data_dir: PathBuf,
    /// Flush a batch once it holds this many events.
    pub max_batch: usize,
    /// Flush a batch once its oldest submission is this old.
    pub max_linger: Duration,
    /// Bounded ingest queue capacity (submissions, not events); beyond
    /// it, admission control answers `BUSY`.
    pub queue_capacity: usize,
    /// Take a snapshot (and reset the WAL) every this many epochs;
    /// 0 disables snapshots entirely.
    pub snapshot_every: u64,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Bind the ops plane (admin HTTP endpoint + continuous auditor) on
    /// this address (`"127.0.0.1:0"` picks an ephemeral port). `None`
    /// disables the ops plane entirely — the ingest path then pays no
    /// span bookkeeping beyond the lock-free histogram observations.
    pub ops_addr: Option<String>,
    /// How often the continuous auditor probes the engine owner.
    pub audit_every: Duration,
    /// Where the auditor spools [`ForensicBundle`]s on a violation;
    /// `None` still latches `/readyz` to 503 but keeps no bundle.
    pub spool_dir: Option<PathBuf>,
    /// `/readyz` turns 503 once the ingest queue reaches this fraction
    /// of [`MatchdConfig::queue_capacity`].
    pub ready_watermark: f64,
}

impl MatchdConfig {
    /// Defaults rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>) -> MatchdConfig {
        MatchdConfig {
            data_dir: data_dir.into(),
            max_batch: 256,
            max_linger: Duration::from_micros(2000),
            queue_capacity: 1024,
            snapshot_every: 256,
            fsync: FsyncPolicy::OnSnapshot,
            ops_addr: None,
            audit_every: Duration::from_millis(200),
            spool_dir: None,
            ready_watermark: 0.9,
        }
    }
}

/// Nodes per view chunk: the unit a publish rebuilds or shares.
const CHUNK: usize = 64;

/// `CHUNK` consecutive nodes of a [`View`]: matched peers in CSR form
/// plus satisfactions. Immutable once built; views share it by `Arc`.
#[derive(Debug)]
struct Chunk {
    /// The k-th node's peers are `peers[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    peers: Vec<u32>,
    sat: Vec<f64>,
}

impl Chunk {
    /// Reads chunk `c` off the engine — the one way a chunk is filled,
    /// for full and incremental builds alike.
    fn fill(engine: &Engine, c: usize) -> Chunk {
        let n = engine.dynamic().graph().node_count();
        let nodes = (c * CHUNK..((c + 1) * CHUNK).min(n)).map(|i| NodeId(i as u32));
        let m = engine.matching();
        let len = nodes.clone().map(|i| m.connections(i).len()).sum();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut peers = Vec::with_capacity(len);
        let mut sat = Vec::with_capacity(nodes.len());
        offsets.push(0);
        for i in nodes {
            peers.extend(m.connections(i).iter().map(|p| p.0));
            offsets.push(peers.len() as u32);
            sat.push(engine.satisfaction(i));
        }
        Chunk { offsets, peers, sat }
    }
}

/// The epoch-stamped published view: everything the read path may
/// answer, frozen at a batch boundary. Handlers clone an `Arc` to it
/// under a short lock and never touch the engine.
///
/// Copy-on-write: the per-node data lives in `Arc`-shared 64-node
/// chunks, and a publish refills only the chunks the batch dirtied, so
/// it costs O(delta) rather than O(n).
#[derive(Clone, Debug)]
pub struct View {
    /// Engine epoch this view reflects.
    pub epoch: u64,
    /// ΣS over active peers.
    pub sigma_s: f64,
    /// Active node count.
    pub active: u32,
    /// Matched edge count.
    pub matched: u32,
    chunks: Vec<Arc<Chunk>>,
}

impl View {
    /// Full build: every chunk filled from the engine. Used at start-up,
    /// after a fault injection, and as the oracle for [`View::advance`].
    pub(crate) fn from_engine(engine: &Engine) -> View {
        let n = engine.dynamic().graph().node_count();
        let chunks = (0..n.div_ceil(CHUNK)).map(|c| Arc::new(Chunk::fill(engine, c))).collect();
        View::stamp(engine, chunks)
    }

    /// Incremental build: shares every chunk of `self` except the ones
    /// `dirty` names, which are refilled from `engine`. Drains `dirty`.
    fn advance(&self, engine: &Engine, dirty: &mut DirtyChunks) -> View {
        let mut chunks = self.chunks.clone();
        dirty.0.sort_unstable();
        dirty.0.dedup();
        for c in dirty.0.drain(..) {
            chunks[c] = Arc::new(Chunk::fill(engine, c));
        }
        View::stamp(engine, chunks)
    }

    fn stamp(engine: &Engine, chunks: Vec<Arc<Chunk>>) -> View {
        View {
            epoch: engine.epoch().0,
            sigma_s: engine.total_satisfaction(),
            active: engine.dynamic().active_count() as u32,
            matched: engine.matching().size() as u32,
            chunks,
        }
    }

    /// The node's chunk and its index inside it (`None` for unknown ids).
    fn locate(&self, node: u32) -> Option<(&Chunk, usize)> {
        let i = node as usize;
        let chunk = self.chunks.get(i / CHUNK)?;
        (i % CHUNK < chunk.sat.len()).then_some((&**chunk, i % CHUNK))
    }

    /// The node's matched peers (empty for unknown ids).
    pub fn matches_of(&self, node: u32) -> &[u32] {
        match self.locate(node) {
            Some((c, k)) => &c.peers[c.offsets[k] as usize..c.offsets[k + 1] as usize],
            None => &[],
        }
    }

    /// The node's satisfaction (0 for inactive or unknown ids).
    pub fn satisfaction_of(&self, node: u32) -> f64 {
        self.locate(node).map_or(0.0, |(c, k)| c.sat[k])
    }
}

/// The view chunks an applied batch touched: those holding an endpoint
/// of an edge the repair added or removed, or the node of a join,
/// leave, quota change or preference update. These are exactly the
/// nodes whose connections or satisfaction the engine may have changed.
#[derive(Debug, Default)]
pub(crate) struct DirtyChunks(Vec<usize>);

impl DirtyChunks {
    fn note(&mut self, engine: &Engine, report: &DeltaReport, events: &[EngineEvent]) {
        let g = engine.dynamic().graph();
        for &e in report.edges_added.iter().chain(&report.edges_removed) {
            let (u, v) = g.endpoints(e);
            self.0.extend([u.index() / CHUNK, v.index() / CHUNK]);
        }
        for ev in events {
            match ev {
                EngineEvent::NodeJoin { node }
                | EngineEvent::NodeLeave { node }
                | EngineEvent::QuotaChange { node, .. }
                | EngineEvent::PreferenceUpdate { node, .. } => self.0.push(node.index() / CHUNK),
                EngineEvent::EdgeAdd { .. } | EngineEvent::EdgeRemove { .. } => {}
            }
        }
    }
}

/// Swaps in the view of `engine`'s state, rebuilt from the published
/// one where `dirty` says the last flush touched it. Only the engine
/// owner publishes, so reading the slot and then replacing it is safe.
pub(crate) fn publish(slot: &SharedView, engine: &Engine, dirty: &mut DirtyChunks) {
    let current = slot.lock().expect("view lock").clone();
    let next = Arc::new(current.advance(engine, dirty));
    *slot.lock().expect("view lock") = next;
}

pub(crate) type SharedView = Arc<Mutex<Arc<View>>>;

pub(crate) type Reply = Result<u64, String>;

pub(crate) struct Submission {
    pub(crate) events: Vec<EngineEvent>,
    pub(crate) enqueued: Instant,
    pub(crate) conn: u64,
    /// Daemon-wide request id of the carrying frame (the span key).
    pub(crate) req: u64,
    pub(crate) reply: Sender<Reply>,
}

impl AsRef<[EngineEvent]> for Submission {
    fn as_ref(&self) -> &[EngineEvent] {
        &self.events
    }
}

fn apply_one(
    engine: &mut Engine,
    events: &[EngineEvent],
    report: &mut DeltaReport,
) -> Result<u64, EngineError> {
    engine.apply_batch_into(events, report).map(|()| report.epoch.0)
}

/// Applies one flush to the engine: the merged batch of all `subs`, or,
/// if that fails validation as a whole, each submission alone — good
/// ones commit with their own epochs, bad ones get the engine's error.
/// `commit(epoch, events)` runs after every successful apply (the WAL
/// append); its `Err` refuses that ack. Every applied batch marks its
/// view chunks in `dirty`. Returns one reply per submission and the
/// number of batches flushed.
pub(crate) fn apply_flush<S: AsRef<[EngineEvent]>>(
    engine: &mut Engine,
    subs: &[S],
    merged: &mut Vec<EngineEvent>,
    report: &mut DeltaReport,
    dirty: &mut DirtyChunks,
    mut commit: impl FnMut(u64, &[EngineEvent]) -> Result<(), String>,
) -> (Vec<Reply>, u64) {
    merged.clear();
    for sub in subs {
        merged.extend_from_slice(sub.as_ref());
    }
    if let Ok(epoch) = apply_one(engine, merged, report) {
        dirty.note(engine, report, merged);
        let reply = commit(epoch, merged).map(|()| epoch);
        return (vec![reply; subs.len()], 1);
    }
    let mut batches = 0;
    let replies = subs
        .iter()
        .map(|sub| {
            let events = sub.as_ref();
            let epoch = apply_one(engine, events, report).map_err(|e| e.to_string())?;
            dirty.note(engine, report, events);
            commit(epoch, events)?;
            batches += 1;
            Ok(epoch)
        })
        .collect();
    (replies, batches)
}

/// An epoch-stamped copy of the engine's live state, captured by the
/// owner at a batch boundary for the continuous auditor. Restoring the
/// [`OriginSnapshot`] happens on the auditor thread — the owner only
/// pays the O(n + m) copy.
pub(crate) struct AuditProbe {
    /// Engine epoch the probe reflects.
    pub(crate) epoch: u64,
    /// Full dynamic-problem state (graph, prefs, quotas, membership).
    pub(crate) origin: OriginSnapshot,
    /// Universe edge ids currently selected by the maintained matching.
    pub(crate) matched: Vec<EdgeId>,
}

pub(crate) enum Ingest {
    Submit(Submission),
    /// Continuous-auditor rendezvous: the owner flushes any pending
    /// batch, then answers with an [`AuditProbe`] of the applied state.
    Probe(Sender<AuditProbe>),
    /// Escalation rendezvous: capture a [`ForensicBundle`] from the
    /// live engine (trigger `"audit"`).
    Capture {
        reason: String,
        reply: Sender<ForensicBundle>,
    },
    /// Chaos hook: corrupt the live engine through
    /// [`owp_engine::Engine::inject_fault`], then ack. The next audit
    /// pass (and final certification) will catch the damage.
    Inject(InjectedFault, Sender<()>),
    /// Graceful stop: flush, snapshot, certify.
    Shutdown,
    /// Crash simulation: stop *now*, dropping pending submissions —
    /// nothing past the last WAL append survives, exactly like SIGKILL.
    Abort,
}

/// Final daemon state, returned by [`Matchd::shutdown`] /
/// [`Matchd::abort`] / [`Matchd::wait`].
pub struct MatchdStats {
    /// Final engine epoch.
    pub epoch: u64,
    /// Final ΣS.
    pub sigma_s: f64,
    /// Batches flushed over the daemon's lifetime (this run).
    pub batches: u64,
    /// `true` for a clean shutdown, `false` for [`Matchd::abort`].
    pub graceful: bool,
    /// Certification of the final state (always computed, even on abort).
    pub certify: Result<(), String>,
    /// The final engine itself, for tests and experiments.
    pub engine: Engine,
}

/// A running daemon. Start with [`Matchd::start`]; stop with
/// [`Matchd::shutdown`] (graceful) or [`Matchd::abort`] (simulated
/// crash), or [`Matchd::wait`] for a client-initiated shutdown.
pub struct Matchd {
    addr: SocketAddr,
    ingest: SyncSender<Ingest>,
    owner: JoinHandle<MatchdStats>,
    acceptor: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    ops: Option<OpsHandle>,
    /// Epoch recovered from snapshot + WAL before serving.
    pub recovered_epoch: u64,
    /// WAL records replayed during recovery.
    pub replayed: usize,
    /// Torn-tail bytes truncated from the WAL on open.
    pub torn_bytes: u64,
}

/// A detachable shutdown trigger: lets a signal-watcher (or any other
/// thread) request the same graceful drain a client `SHUTDOWN` frame
/// produces, while the main thread blocks in [`Matchd::wait`].
#[derive(Clone)]
pub struct ShutdownHandle {
    ingest: SyncSender<Ingest>,
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Asks the daemon to drain, snapshot, fsync, and exit. Idempotent;
    /// safe to call after the daemon already stopped.
    pub fn request_shutdown(&self) {
        let _ = self.ingest.send(Ingest::Shutdown);
        self.stop.store(true, Ordering::SeqCst);
    }
}

struct ConnCtx {
    ingest: SyncSender<Ingest>,
    view: SharedView,
    registry: MetricsRegistry,
    depth: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    rejects: Counter,
    retry_ms: u32,
    nodes: u32,
    /// Daemon-wide monotone request id source (one id per decoded frame).
    req_ids: AtomicU64,
    /// Live handler-thread count backing the connections gauge.
    live: AtomicUsize,
    requests_total: Counter,
    req_submit_us: Histogram,
    req_query_us: Histogram,
    req_control_us: Histogram,
    conns: Gauge,
    conns_total: Counter,
    shared: Arc<OpsShared>,
}

impl ConnCtx {
    fn view(&self) -> Arc<View> {
        self.view.lock().expect("view lock").clone()
    }
}

/// Keeps the live-connection gauge honest however the handler returns.
struct ConnGuard<'a>(&'a ConnCtx);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let now = self.0.live.fetch_sub(1, Ordering::SeqCst) - 1;
        self.0.conns.set(now as f64);
    }
}

impl Matchd {
    /// Recovers `config.data_dir` (certifying the result), binds `addr`
    /// (`"127.0.0.1:0"` picks an ephemeral port), and starts serving.
    /// Recovery failure means no socket is ever bound.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        universe: &owp_matching::Problem,
        config: MatchdConfig,
        registry: MetricsRegistry,
    ) -> Result<Matchd, String> {
        owp_metrics::register_matchd_metrics(&registry);
        let rec = recover(&config.data_dir, universe, config.fsync)?;
        let recovered_epoch = rec.engine.epoch().0;
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        // The one-off O(n + m) copy every delta checkpoint compares against.
        let base = UniverseBase::new(universe);
        let (replayed, torn_bytes) = (rec.replayed, rec.torn_bytes);
        let owner = Owner::new(rec, base, &config, &registry);
        let view = Arc::clone(&owner.view);
        let depth = Arc::clone(&owner.depth);
        let shared = Arc::clone(&owner.shared);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel::<Ingest>(config.queue_capacity);
        let nodes = universe.graph.node_count() as u32;

        let owner = std::thread::Builder::new()
            .name("matchd-engine".into())
            .spawn(move || owner_thread(owner, rx))
            .map_err(|e| format!("cannot spawn engine owner: {e}"))?;

        let acceptor = {
            let ctx = Arc::new(ConnCtx {
                ingest: tx.clone(),
                view: Arc::clone(&view),
                registry: registry.clone(),
                depth: Arc::clone(&depth),
                stop: Arc::clone(&stop),
                rejects: registry.counter(MATCHD_ADMISSION_REJECTS),
                retry_ms: (config.max_linger.as_millis() as u32).max(1),
                nodes,
                req_ids: AtomicU64::new(0),
                live: AtomicUsize::new(0),
                requests_total: registry.counter(MATCHD_REQUESTS_TOTAL),
                req_submit_us: registry.histogram(MATCHD_REQ_SUBMIT_US),
                req_query_us: registry.histogram(MATCHD_REQ_QUERY_US),
                req_control_us: registry.histogram(MATCHD_REQ_CONTROL_US),
                conns: registry.gauge(MATCHD_CONNECTIONS),
                conns_total: registry.counter(MATCHD_CONNECTIONS_TOTAL),
                shared: Arc::clone(&shared),
            });
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("matchd-accept".into())
                .spawn(move || acceptor_loop(listener, stop, ctx))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };

        let ops_handle = match &config.ops_addr {
            Some(ops_addr) => Some(ops::spawn(
                ops_addr.as_str(),
                OpsCtx {
                    registry: registry.clone(),
                    view: Arc::clone(&view),
                    depth: Arc::clone(&depth),
                    ingest: tx.clone(),
                    shared: Arc::clone(&shared),
                    stop: Arc::clone(&stop),
                    queue_capacity: config.queue_capacity,
                    ready_watermark: config.ready_watermark,
                    audit_every: config.audit_every,
                    spool_dir: config.spool_dir.clone(),
                },
            )?),
            None => None,
        };

        Ok(Matchd {
            addr: local,
            ingest: tx,
            owner,
            acceptor,
            stop,
            ops: ops_handle,
            recovered_epoch,
            replayed,
            torn_bytes,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops plane's bound address, when configured.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|o| o.addr)
    }

    /// A detachable trigger for a graceful stop (the signal-handler
    /// path of the `matchd` binary).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { ingest: self.ingest.clone(), stop: Arc::clone(&self.stop) }
    }

    /// Corrupts the live engine with `fault` (a chaos/testing hook —
    /// the continuous auditor and final certification are expected to
    /// catch the damage). Blocks until the owner applied it.
    pub fn inject_fault(&self, fault: InjectedFault) -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.ingest
            .send(Ingest::Inject(fault, tx))
            .map_err(|_| "daemon is shutting down".to_string())?;
        rx.recv().map_err(|_| "daemon stopped before injecting".to_string())
    }

    fn join(self) -> MatchdStats {
        let stats = self.owner.join().expect("engine owner thread panicked");
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
        if let Some(ops) = self.ops {
            let _ = ops.listener.join();
            let _ = ops.auditor.join();
        }
        stats
    }

    /// Graceful stop: flush pending batches, snapshot, certify, join.
    pub fn shutdown(self) -> MatchdStats {
        let _ = self.ingest.send(Ingest::Shutdown);
        self.join()
    }

    /// Simulated crash: the owner stops without flushing pending
    /// submissions, final snapshot, or sync — in-memory state is thrown
    /// away and only WAL appends that already happened survive, the
    /// same durability cut SIGKILL produces.
    pub fn abort(self) -> MatchdStats {
        let _ = self.ingest.send(Ingest::Abort);
        self.join()
    }

    /// Blocks until a *client* sends [`Frame::Shutdown`], then joins.
    pub fn wait(self) -> MatchdStats {
        self.join()
    }
}

fn acceptor_loop(listener: TcpListener, stop: Arc<AtomicBool>, ctx: Arc<ConnCtx>) {
    let mut conn_id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn_id += 1;
                let ctx = Arc::clone(&ctx);
                let id = conn_id;
                let _ = std::thread::Builder::new()
                    .name(format!("matchd-conn-{id}"))
                    .spawn(move || handle_conn(stream, ctx, id));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)), // WouldBlock or a failed accept
        }
    }
}

fn handle_conn(mut stream: TcpStream, ctx: Arc<ConnCtx>, conn: u64) {
    let _ = stream.set_nodelay(true);
    ctx.conns_total.inc();
    let live_now = ctx.live.fetch_add(1, Ordering::SeqCst) + 1;
    ctx.conns.set(live_now as f64);
    let _guard = ConnGuard(&ctx);
    loop {
        let frame = match codec::read_frame(&mut stream) {
            Ok(f) => f,
            Err(CodecError::Eof) => return,
            Err(_) => return, // framing is lost; nothing safe to say
        };
        // Every decoded frame opens a request span: a daemon-wide
        // monotone id plus a wall-clock start. SUBMIT spans thread the
        // id through the ingest queue so the owner can attribute the
        // queue/apply/ack legs; read and control frames close their
        // span right here.
        let req = ctx.req_ids.fetch_add(1, Ordering::SeqCst) + 1;
        ctx.requests_total.inc();
        let span_start = Instant::now();
        let req_kind = frame.kind_label();
        let is_submit = matches!(frame, Frame::Submit { .. });
        // Read and control frames answer from one view, which also
        // stamps their slow-ring entry.
        let mut read_epoch = 0;
        let response = match frame {
            Frame::Submit { events } => {
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let sub = Submission {
                    events,
                    enqueued: Instant::now(),
                    conn,
                    req,
                    reply: reply_tx,
                };
                // Count the submission before it can reach the owner,
                // whose receive decrements: the other order lets the
                // depth wrap below zero, and `/readyz` reads a full queue.
                ctx.depth.fetch_add(1, Ordering::SeqCst);
                match ctx.ingest.try_send(Ingest::Submit(sub)) {
                    Ok(()) => match reply_rx.recv() {
                        Ok(Ok(epoch)) => Frame::Accepted { epoch },
                        Ok(Err(error)) => Frame::Rejected { error },
                        Err(_) => {
                            Frame::Rejected { error: "daemon stopped before applying".into() }
                        }
                    },
                    Err(TrySendError::Full(_)) => {
                        ctx.depth.fetch_sub(1, Ordering::SeqCst);
                        ctx.rejects.inc();
                        Frame::Busy { retry_after_ms: ctx.retry_ms }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        ctx.depth.fetch_sub(1, Ordering::SeqCst);
                        Frame::Rejected { error: "daemon is shutting down".into() }
                    }
                }
            }
            Frame::Shutdown => {
                let epoch = ctx.view().epoch;
                let _ = ctx.ingest.send(Ingest::Shutdown);
                ctx.stop.store(true, Ordering::SeqCst);
                let _ = codec::write_frame(&mut stream, &Frame::Bye { epoch });
                return;
            }
            frame => {
                let v = ctx.view();
                read_epoch = v.epoch;
                answer(frame, &v, &ctx)
            }
        };
        if codec::write_frame(&mut stream, &response).is_err() {
            return;
        }
        let total_us = span_start.elapsed().as_micros() as u64;
        if is_submit {
            // End-to-end as the client saw it; the queue/apply/ack legs
            // (and the slow-ring entry) come from the engine owner.
            ctx.req_submit_us.observe(total_us);
        } else {
            let hist = if req_kind.starts_with("QUERY") {
                &ctx.req_query_us
            } else {
                &ctx.req_control_us
            };
            hist.observe(total_us);
            ctx.shared.slow.note(req, conn, req_kind, read_epoch, 0, 0, 0, total_us);
        }
    }
}

/// The reply to a read or control frame, answered from view `v`.
fn answer(frame: Frame, v: &View, ctx: &ConnCtx) -> Frame {
    match frame {
        Frame::Hello { proto } if proto == PROTO_VERSION => {
            Frame::Welcome { proto: PROTO_VERSION, epoch: v.epoch, nodes: ctx.nodes }
        }
        Frame::Hello { proto } => {
            Frame::Rejected { error: format!("unsupported protocol version {proto}") }
        }
        Frame::QueryMatches { node } => {
            Frame::Matches { epoch: v.epoch, peers: v.matches_of(node).to_vec() }
        }
        Frame::QuerySatisfaction { node } => {
            Frame::Satisfaction { epoch: v.epoch, value: v.satisfaction_of(node) }
        }
        Frame::QueryEpoch => Frame::EpochInfo {
            epoch: v.epoch,
            sigma_s: v.sigma_s,
            active: v.active,
            matched: v.matched,
        },
        Frame::QueryMetrics => Frame::Metrics { json: ctx.registry.snapshot().to_json() },
        other => Frame::Rejected {
            error: format!("unexpected {} frame from a client", other.kind_label()),
        },
    }
}

/// The engine-owner thread: each channel receive is one
/// [`Owner::step`], each linger timeout one [`Owner::on_deadline`], and
/// the replies a step queued are sent after it.
fn owner_thread(mut owner: Owner, rx: Receiver<Ingest>) -> MatchdStats {
    loop {
        let msg = match owner.deadline() {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        let stop = match msg {
            Ok(msg) => owner.step(msg, Instant::now()),
            Err(RecvTimeoutError::Timeout) => {
                owner.on_deadline(Instant::now());
                None
            }
            Err(RecvTimeoutError::Disconnected) => Some(true), // all senders gone: clean stop
        };
        owner.send_acks(Instant::now());
        if let Some(graceful) = stop {
            return owner.finish(graceful, Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::from_spec;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// `count` valid events on nodes and edges not yet in `used_*`, so
    /// any set of submissions drawn against one state merges validly.
    fn draw(
        engine: &Engine,
        rng: &mut StdRng,
        used_nodes: &mut HashSet<u32>,
        used_edges: &mut HashSet<u32>,
        count: usize,
    ) -> Vec<EngineEvent> {
        let dp = engine.dynamic();
        let g = dp.graph();
        let mut out = Vec::new();
        while out.len() < count {
            let kind = rng.gen_range(0..6u32);
            if kind == 2 || kind == 3 {
                let e = EdgeId(rng.gen_range(0..g.edge_count() as u32));
                if !used_edges.insert(e.0) {
                    continue;
                }
                let (u, v) = g.endpoints(e);
                out.push(if dp.is_present(e) {
                    EngineEvent::EdgeRemove { u, v }
                } else {
                    EngineEvent::EdgeAdd { u, v }
                });
                continue;
            }
            let node = NodeId(rng.gen_range(0..g.node_count() as u32));
            if !used_nodes.insert(node.0) {
                continue;
            }
            out.push(match kind {
                0 | 1 if dp.is_active(node) => EngineEvent::NodeLeave { node },
                0 | 1 => EngineEvent::NodeJoin { node },
                4 => EngineEvent::QuotaChange { node, quota: rng.gen_range(1..=4u32) },
                _ => {
                    let mut list: Vec<NodeId> =
                        g.neighbors(node).iter().map(|&(v, _)| v).collect();
                    list.shuffle(rng);
                    EngineEvent::PreferenceUpdate { node, list }
                }
            });
        }
        out
    }

    fn assert_same(inc: &View, full: &View, n: u32) {
        assert_eq!(inc.epoch, full.epoch);
        assert_eq!(inc.active, full.active, "epoch {}", full.epoch);
        assert_eq!(inc.matched, full.matched, "epoch {}", full.epoch);
        assert_eq!(inc.sigma_s.to_bits(), full.sigma_s.to_bits(), "epoch {}", full.epoch);
        for i in 0..n {
            assert_eq!(inc.matches_of(i), full.matches_of(i), "node {i} at epoch {}", full.epoch);
            assert_eq!(
                inc.satisfaction_of(i).to_bits(),
                full.satisfaction_of(i).to_bits(),
                "node {i} at epoch {}",
                full.epoch
            );
        }
        for unknown in [n, u32::MAX] {
            assert!(inc.matches_of(unknown).is_empty());
            assert_eq!(inc.satisfaction_of(unknown).to_bits(), 0.0f64.to_bits());
        }
    }

    /// The incremental publish must equal a full rebuild after every
    /// flush, on the merged path and on the per-submission fallback.
    #[test]
    fn incremental_view_equals_full_rebuild() {
        let universe = from_spec("ba:1000,3,2,17").expect("spec");
        let n = universe.graph.node_count() as u32;
        let mut engine = Engine::new(universe);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut view = View::from_engine(&engine);
        let (mut merged, mut report) = (Vec::new(), DeltaReport::default());
        let mut dirty = DirtyChunks::default();
        let (mut kinds, mut shared) = (HashSet::new(), 0);
        for step in 0..80 {
            let (mut used_nodes, mut used_edges) = (HashSet::new(), HashSet::new());
            let mut subs: Vec<Vec<EngineEvent>> = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let count = rng.gen_range(1..=6usize);
                    draw(&engine, &mut rng, &mut used_nodes, &mut used_edges, count)
                })
                .collect();
            let poisoned = step % 5 == 4;
            if poisoned {
                let at = rng.gen_range(0..=subs.len());
                subs.insert(at, vec![EngineEvent::NodeLeave { node: NodeId(n + 7) }]);
            }
            let before = engine.epoch().0;
            let (replies, batches) = apply_flush(
                &mut engine,
                &subs,
                &mut merged,
                &mut report,
                &mut dirty,
                |_, _| Ok(()),
            );
            if poisoned {
                assert_eq!(batches as usize, subs.len() - 1);
                assert_eq!(replies.iter().filter(|r| r.is_err()).count(), 1);
            } else {
                assert_eq!(batches, 1);
                assert!(replies.iter().all(|r| *r == Ok(before + 1)));
            }
            for sub in &subs {
                kinds.extend(sub.iter().map(std::mem::discriminant));
            }
            let next = view.advance(&engine, &mut dirty);
            assert!(dirty.0.is_empty());
            shared +=
                next.chunks.iter().zip(&view.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
            view = next;
            assert_same(&view, &View::from_engine(&engine), n);
        }
        assert_eq!(kinds.len(), 6, "the stream must use every event kind");
        assert!(shared > 0, "no publish shared a chunk with its predecessor");
        engine.certify().expect("certified");
    }
}
