//! The engine owner as a step machine: one [`Owner`] holds everything the
//! engine-owner thread mutates, and each input is a step that takes the
//! time as an argument. A flush applies, logs and publishes before it
//! queues its replies, and only [`Owner::send_acks`] sends them, so every
//! ack a client sees is logged and readable. Batching decisions read only
//! the `now` arguments (the clock only times the apply leg and a save), so
//! tests drive the production owner with no thread, socket or wall time.

use crate::ops::OpsShared;
use crate::recovery::Recovery;
use crate::server::{
    apply_flush, publish, AuditProbe, DirtyChunks, Ingest, MatchdConfig, MatchdStats, Reply, SharedView,
    Submission, View,
};
use crate::snapshot::{SnapshotStore, UniverseBase};
use crate::wal::Wal;
use owp_engine::{DeltaReport, Engine, EngineEvent, OriginSnapshot};
use owp_metrics::{
    Gauge, Histogram, MetricsRegistry, MATCHD_BATCH_EVENTS, MATCHD_BATCH_LINGER_US, MATCHD_QUEUE_DEPTH,
    MATCHD_SNAPSHOT_BYTES, MATCHD_SNAPSHOT_EPOCH, MATCHD_SNAPSHOT_SAVE_US, MATCHD_SPAN_ACK_US,
    MATCHD_SPAN_APPLY_US, MATCHD_SPAN_QUEUE_US, MATCHD_WAL_BYTES, MATCHD_WAL_RECORDS,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A queued reply, with the engine epoch after its flush (the slow
/// ring's stamp), the flush's start and the end of its apply.
struct Ack {
    sub: Submission,
    reply: Reply,
    epoch: u64,
    start: Instant,
    applied: Instant,
}

/// Microseconds from `earlier` to `later` (0 if the clock disagrees).
fn us(later: Instant, earlier: Instant) -> u64 {
    later.saturating_duration_since(earlier).as_micros() as u64
}

/// The single engine owner: adaptive batching, WAL-before-ack, view
/// publication and periodic delta checkpoints.
pub(crate) struct Owner {
    engine: Engine,
    wal: Wal,
    pending: Vec<Submission>,
    pending_events: usize,
    acks: Vec<Ack>,
    batches: u64,
    merged: Vec<EngineEvent>,
    report: DeltaReport,
    dirty: DirtyChunks,
    /// Checkpoints: the universe a delta is measured against, one reusable
    /// payload buffer, and the newest checkpoint's epoch.
    store: SnapshotStore,
    base: UniverseBase,
    buf: Vec<u8>,
    checkpointed: u64,
    pub(crate) view: SharedView,
    /// Submissions in the ingest queue: handlers count up, the owner down.
    pub(crate) depth: Arc<AtomicUsize>,
    pub(crate) shared: Arc<OpsShared>,
    registry: MetricsRegistry,
    max_batch: usize,
    max_linger: Duration,
    snapshot_every: u64,
    queue_depth: Gauge,
    wal_bytes: Gauge,
    wal_records: Gauge,
    linger_us: Histogram,
    batch_events: Histogram,
    /// The queue, apply and ack legs of a SUBMIT span.
    spans: [Histogram; 3],
    save_us: Histogram,
    snapshot_bytes: Gauge,
    snapshot_epoch: Gauge,
}

impl Owner {
    /// The owner of a recovered data dir; delta checkpoints are measured against `base`.
    pub(crate) fn new(rec: Recovery, base: UniverseBase, cfg: &MatchdConfig, reg: &MetricsRegistry) -> Owner {
        let mut owner = Owner {
            view: Arc::new(Mutex::new(Arc::new(View::from_engine(&rec.engine)))),
            checkpointed: rec.engine.epoch().0,
            engine: rec.engine,
            wal: rec.wal,
            pending: Vec::new(),
            pending_events: 0,
            acks: Vec::new(),
            batches: 0,
            merged: Vec::new(),
            report: DeltaReport::default(),
            dirty: DirtyChunks::default(),
            store: SnapshotStore::new(&cfg.data_dir),
            base,
            buf: Vec::new(),
            depth: Arc::new(AtomicUsize::new(0)),
            shared: Arc::new(OpsShared::new()),
            registry: reg.clone(),
            max_batch: cfg.max_batch,
            max_linger: cfg.max_linger,
            snapshot_every: cfg.snapshot_every,
            queue_depth: reg.gauge(MATCHD_QUEUE_DEPTH),
            wal_bytes: reg.gauge(MATCHD_WAL_BYTES),
            wal_records: reg.gauge(MATCHD_WAL_RECORDS),
            linger_us: reg.histogram(MATCHD_BATCH_LINGER_US),
            batch_events: reg.histogram(MATCHD_BATCH_EVENTS),
            spans: [MATCHD_SPAN_QUEUE_US, MATCHD_SPAN_APPLY_US, MATCHD_SPAN_ACK_US].map(|k| reg.histogram(k)),
            save_us: reg.histogram(MATCHD_SNAPSHOT_SAVE_US),
            snapshot_bytes: reg.gauge(MATCHD_SNAPSHOT_BYTES),
            snapshot_epoch: reg.gauge(MATCHD_SNAPSHOT_EPOCH),
        };
        owner.checkpoint_after(owner.snapshot_every); // nothing is due yet: sets the WAL gauges
        owner
    }

    /// Handles one ingest message at time `now`. `Some(graceful)` means
    /// stop; the caller then hands the owner to [`Owner::finish`].
    pub(crate) fn step(&mut self, msg: Ingest, now: Instant) -> Option<bool> {
        match msg {
            Ingest::Submit(sub) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                self.queue_depth.set(self.depth.load(Ordering::SeqCst) as f64);
                self.pending_events += sub.events.len();
                self.pending.push(sub);
                if self.pending_events >= self.max_batch {
                    self.flush(now);
                }
            }
            // Control rendezvous from the ops plane: flush any pending
            // batch first so the answer reflects a consistent state at a
            // batch boundary, then reply on the requester's sender.
            Ingest::Probe(reply) => {
                self.flush(now);
                let (engine, dp) = (&self.engine, self.engine.dynamic());
                let matched = dp.graph().edges().filter(|&e| engine.matching().contains(e)).collect();
                let origin = OriginSnapshot::capture(dp);
                let _ = reply.send(AuditProbe { epoch: engine.epoch().0, origin, matched });
            }
            Ingest::Capture { reason, reply } => {
                self.flush(now);
                let metrics = self.registry.snapshot().to_json();
                let _ = reply.send(self.engine.capture_bundle("audit", &reason, None, Some(&metrics)));
            }
            Ingest::Inject(fault, ack) => {
                self.flush(now);
                self.checkpoint_after(self.snapshot_every); // a due checkpoint predates the fault
                self.engine.inject_fault(fault);
                *self.view.lock().expect("view lock") = Arc::new(View::from_engine(&self.engine));
                let _ = ack.send(());
            }
            Ingest::Shutdown => return Some(true),
            Ingest::Abort => return Some(false),
        }
        None
    }

    /// When the linger timer fires: the oldest pending submission's
    /// enqueue time plus `max_linger`, or `None` with nothing pending.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.pending.first().map(|sub| sub.enqueued + self.max_linger)
    }

    /// The linger timer: flushes once `now` has reached [`Owner::deadline`].
    pub(crate) fn on_deadline(&mut self, now: Instant) {
        if self.deadline().is_some_and(|at| now >= at) {
            self.flush(now);
        }
        self.queue_depth.set(self.depth.load(Ordering::SeqCst) as f64);
    }

    /// Sends every queued reply and records its span (the ack leg ends at
    /// `now`), then takes a checkpoint if one is due, so no ack waits for
    /// a save. The thread calls this after every step.
    pub(crate) fn send_acks(&mut self, now: Instant) {
        if self.acks.is_empty() {
            return;
        }
        for Ack { sub, reply, epoch, start, applied } in self.acks.drain(..) {
            let legs = [us(start, sub.enqueued), us(applied, start), us(now, applied)];
            for (hist, &leg) in self.spans.iter().zip(&legs) {
                hist.observe(leg);
            }
            let [queue, apply, ack] = legs;
            self.shared.slow.note(sub.req, sub.conn, "SUBMIT", epoch, queue, apply, ack, queue + apply + ack);
            let _ = sub.reply.send(reply);
        }
        self.checkpoint_after(self.snapshot_every);
    }

    /// Stops the owner. A graceful stop flushes and acks what is pending,
    /// takes a final checkpoint and syncs the WAL. An abort drops the
    /// pending submissions, the crash semantics: their reply senders hang
    /// up, which handlers report as "daemon stopped before applying".
    /// Either way the final state is certified.
    pub(crate) fn finish(mut self, graceful: bool, now: Instant) -> MatchdStats {
        if graceful {
            self.flush(now);
            self.send_acks(now);
            self.checkpoint_after(1);
            let _ = self.wal.sync();
        }
        let certify = self.engine.certify();
        let (epoch, sigma_s) = (self.engine.epoch().0, self.engine.total_satisfaction());
        MatchdStats { epoch, sigma_s, batches: self.batches, graceful, certify, engine: self.engine }
    }

    /// Applies and logs every pending submission as one flush, publishes
    /// the view, then queues the replies for [`Owner::send_acks`].
    fn flush(&mut self, now: Instant) {
        let Some(oldest) = self.pending.first() else { return };
        self.linger_us.observe(us(now, oldest.enqueued));
        self.batch_events.observe(std::mem::take(&mut self.pending_events) as u64);
        // A failed WAL append means the batch is applied but not logged:
        // the ack is refused so no client believes it durable.
        let wal = &mut self.wal;
        let (replies, flushed) = apply_flush(
            &mut self.engine,
            &self.pending,
            &mut self.merged,
            &mut self.report,
            &mut self.dirty,
            |epoch, events| wal.append(epoch, events).map_err(|e| format!("WAL append failed: {e}")),
        );
        self.batches += flushed;
        let (epoch, applied) = (self.engine.epoch().0, Instant::now());
        publish(&self.view, &self.engine, &mut self.dirty);
        let acks = self.pending.drain(..).zip(replies);
        self.acks.extend(acks.map(|(sub, reply)| Ack { sub, reply, epoch, start: now, applied }));
    }

    /// Takes a delta checkpoint once `epochs` epochs have passed since the
    /// last one (never with snapshots off), then sets the WAL gauges. The
    /// WAL is emptied only after the checkpoint and its directory entry
    /// are durable; a failed save leaves it for recovery to replay.
    fn checkpoint_after(&mut self, epochs: u64) {
        let epoch = self.engine.epoch().0;
        if self.snapshot_every > 0 && epoch - self.checkpointed >= epochs {
            let started = Instant::now();
            let dp = self.engine.dynamic();
            if let Ok(bytes) = self.store.save_delta(epoch, dp, &self.base, &mut self.buf) {
                let _ = self.wal.reset();
                self.checkpointed = epoch;
                self.save_us.observe(us(Instant::now(), started));
                self.snapshot_bytes.set(bytes as f64);
                self.snapshot_epoch.set(epoch as f64);
            }
        }
        self.wal_bytes.set(self.wal.bytes() as f64);
        self.wal_records.set(self.wal.records() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{recover, WAL_FILE};
    use crate::snapshot::{load_snapshot_file, SNAPSHOT_FILE};
    use crate::universe::{client_stream, from_spec};
    use owp_graph::NodeId;
    use owp_matching::Problem;
    use std::path::PathBuf;
    use std::sync::mpsc::{channel, Receiver, TryRecvError};

    const SPEC: &str = "ba:300,3,2,11";

    /// An owner recovered from a fresh data dir, the way `Matchd::start`
    /// builds one, with `tune` applied to the default config.
    fn owner(name: &str, tune: impl FnOnce(&mut MatchdConfig)) -> (Owner, Problem, PathBuf) {
        let universe = from_spec(SPEC).expect("spec");
        let dir = std::env::temp_dir().join(format!("owp-owner-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = MatchdConfig::new(&dir);
        tune(&mut config);
        let rec = recover(&dir, &universe, config.fsync).expect("recover");
        let owner = Owner::new(rec, UniverseBase::new(&universe), &config, &MetricsRegistry::new());
        (owner, universe, dir)
    }

    /// Submissions of two events each (a leave/rejoin or remove/add
    /// pair): any prefix applies cleanly in any grouping.
    fn pairs(universe: &Problem, count: usize) -> Vec<Vec<EngineEvent>> {
        client_stream(universe, 0, 1, 2 * count).chunks(2).map(<[EngineEvent]>::to_vec).collect()
    }

    /// One step with a submission enqueued at `at`, counted into the
    /// queue depth first as a connection handler does. Returns the
    /// submitter's end of the reply channel.
    fn submit(owner: &mut Owner, events: Vec<EngineEvent>, at: Instant) -> Receiver<Reply> {
        let (reply, rx) = channel();
        owner.depth.fetch_add(1, Ordering::SeqCst);
        let sub = Submission { events, enqueued: at, conn: 1, req: 1, reply };
        assert_eq!(owner.step(Ingest::Submit(sub), at), None);
        rx
    }

    fn published(owner: &Owner) -> Arc<View> {
        owner.view.lock().expect("view lock").clone()
    }

    fn sorted(mut peers: Vec<u32>) -> Vec<u32> {
        peers.sort_unstable();
        peers
    }

    /// (a) A flush publishes before it queues a reply, and no step sends
    /// one: between a flushing step and `send_acks` every queued ack is
    /// already in the published view, which equals a reference engine.
    #[test]
    fn acks_wait_for_the_publish_of_their_flush() {
        let (mut owner, universe, _dir) = owner("ack", |c| c.max_batch = 4);
        let mut reference = Engine::new(universe.clone());
        let t0 = Instant::now();
        let subs = pairs(&universe, 12);
        for (i, batch) in subs.chunks(2).enumerate() {
            let at = t0 + Duration::from_micros(10 * i as u64);
            let rxs: Vec<_> = batch.iter().map(|ev| submit(&mut owner, ev.clone(), at)).collect();
            reference.apply_batch(&batch.concat()).expect("valid");
            let view = published(&owner);
            assert_eq!(owner.acks.len(), 2, "max_batch reached: the step flushed");
            for ack in &owner.acks {
                let epoch = *ack.reply.as_ref().expect("accepted");
                assert!(epoch <= view.epoch, "ack for epoch {epoch} queued before its publish");
            }
            assert_eq!(view.epoch, reference.epoch().0);
            assert_eq!(view.matched as usize, reference.matching().size());
            for node in 0..universe.graph.node_count() as u32 {
                let peers = reference.matching().connections(NodeId(node)).iter().map(|p| p.0);
                assert_eq!(sorted(view.matches_of(node).to_vec()), sorted(peers.collect()));
            }
            assert!(rxs.iter().all(|rx| rx.try_recv() == Err(TryRecvError::Empty)));
            owner.send_acks(at);
            assert!(owner.acks.is_empty());
            assert!(rxs.iter().all(|rx| rx.try_recv() == Ok(Ok(view.epoch))));
        }
        assert!(owner.finish(true, t0).certify.is_ok());
    }

    /// (b) A poisoned submission in a merged flush is rejected alone; its
    /// neighbours commit with epochs of their own.
    #[test]
    fn a_poisoned_submission_is_rejected_alone() {
        let (mut owner, universe, dir) = owner("poison", |c| c.max_batch = 100);
        let t0 = Instant::now();
        let good = pairs(&universe, 2);
        let unknown = NodeId(universe.graph.node_count() as u32 + 7);
        let first = submit(&mut owner, good[0].clone(), t0);
        let poisoned = submit(&mut owner, vec![EngineEvent::NodeLeave { node: unknown }], t0);
        let last = submit(&mut owner, good[1].clone(), t0);
        owner.on_deadline(owner.deadline().expect("pending"));
        owner.send_acks(t0);
        assert_eq!(first.recv(), Ok(Ok(1)));
        assert!(matches!(poisoned.recv(), Ok(Err(_))));
        assert_eq!(last.recv(), Ok(Ok(2)));
        assert_eq!(owner.batches, 2);
        let (summary, _) = crate::wal::scan(&dir.join(WAL_FILE)).expect("scan");
        assert_eq!((summary.first_epoch, summary.last_epoch), (Some(1), Some(2)));
    }

    /// (c) Reaching `max_batch` on a submit flushes within that step;
    /// below it nothing flushes before the linger deadline.
    #[test]
    fn max_batch_flushes_in_the_step_and_linger_at_the_deadline() {
        let linger = Duration::from_millis(5);
        let (mut owner, universe, _dir) = owner("trigger", |c| {
            c.max_batch = 6;
            c.max_linger = linger;
        });
        let t0 = Instant::now();
        let subs = pairs(&universe, 5);
        assert_eq!(owner.deadline(), None);
        submit(&mut owner, subs[0].clone(), t0);
        submit(&mut owner, subs[1].clone(), t0 + Duration::from_millis(1));
        assert_eq!(owner.deadline(), Some(t0 + linger), "the oldest submission sets it");
        owner.on_deadline(t0 + linger - Duration::from_micros(1));
        assert_eq!((owner.engine.epoch().0, owner.acks.len()), (0, 0), "flushed early");
        owner.on_deadline(t0 + linger);
        assert_eq!((owner.engine.epoch().0, owner.acks.len()), (1, 2));
        assert_eq!(owner.deadline(), None);
        owner.send_acks(t0 + linger);
        let t1 = t0 + 2 * linger;
        submit(&mut owner, subs[2].clone(), t1);
        submit(&mut owner, subs[3].clone(), t1);
        assert_eq!(owner.engine.epoch().0, 1, "4 of 6 events pending");
        submit(&mut owner, subs[4].clone(), t1);
        assert_eq!((owner.engine.epoch().0, owner.acks.len()), (2, 3));
        assert_eq!(owner.deadline(), None);
    }

    /// (d) With `snapshot_every = 3`, the checkpoint lands on every third
    /// epoch, after that flush's acks are sent, and empties the WAL; a
    /// graceful stop checkpoints the rest.
    #[test]
    fn checkpoints_follow_the_cadence() {
        let (mut owner, universe, dir) = owner("cadence", |c| {
            c.max_batch = 2;
            c.snapshot_every = 3;
        });
        let t0 = Instant::now();
        let snapshot_epoch = || {
            let path = dir.join(SNAPSHOT_FILE);
            path.exists().then(|| load_snapshot_file(&path, Some(&universe)).expect("load").epoch)
        };
        let wal_records = || crate::wal::scan(&dir.join(WAL_FILE)).expect("scan").0.records;
        for (i, events) in pairs(&universe, 8).into_iter().enumerate() {
            let epoch = i as u64 + 1;
            submit(&mut owner, events, t0);
            let before = (epoch - 1) / 3 * 3;
            assert_eq!(snapshot_epoch(), (before > 0).then_some(before), "no save before the acks");
            owner.send_acks(t0);
            let ckpt = epoch / 3 * 3;
            assert_eq!(snapshot_epoch(), (ckpt > 0).then_some(ckpt), "epoch {epoch}");
            assert_eq!(wal_records(), epoch - ckpt, "epoch {epoch}");
        }
        assert!(owner.finish(true, t0).certify.is_ok());
        assert_eq!((snapshot_epoch(), wal_records()), (Some(8), 0));
    }

    /// (e) A probe flushes what is pending first, so its state sits at a
    /// batch boundary that includes every submission received before it.
    #[test]
    fn a_probe_sees_the_pending_batch() {
        let (mut owner, universe, _dir) = owner("probe", |c| c.max_batch = 100);
        let t0 = Instant::now();
        let subs = pairs(&universe, 3);
        for events in &subs {
            submit(&mut owner, events.clone(), t0);
        }
        let (tx, rx) = channel();
        assert_eq!(owner.step(Ingest::Probe(tx), t0), None);
        let probe = rx.try_recv().expect("a rendezvous reply is sent inside its step");
        let mut reference = Engine::new(universe);
        reference.apply_batch(&subs.concat()).expect("valid");
        assert_eq!(probe.epoch, 1);
        let g = reference.dynamic().graph();
        let matched: Vec<_> = g.edges().filter(|&e| reference.matching().contains(e)).collect();
        assert_eq!(probe.matched, matched);
        assert_eq!(owner.acks.len(), 3);
    }

    /// (f) An abort drops the pending submissions unapplied; their
    /// submitters see the reply channel hang up.
    #[test]
    fn abort_drops_pending_submissions() {
        let (mut owner, universe, dir) = owner("abort", |c| c.max_batch = 100);
        let t0 = Instant::now();
        let rxs: Vec<_> =
            pairs(&universe, 2).into_iter().map(|ev| submit(&mut owner, ev, t0)).collect();
        assert_eq!(owner.step(Ingest::Abort, t0), Some(false));
        owner.send_acks(t0);
        let exit = owner.finish(false, t0);
        assert!(!exit.graceful && exit.certify.is_ok());
        assert_eq!((exit.engine.epoch().0, exit.batches), (0, 0));
        assert!(rxs.iter().all(|rx| rx.recv().is_err()));
        assert_eq!(crate::wal::scan(&dir.join(WAL_FILE)).expect("scan").0.records, 0);
    }
}
