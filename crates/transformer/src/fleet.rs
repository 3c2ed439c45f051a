//! Shard-parallel serving fleet: N worker threads, each owning its own
//! [`DecodeScheduler`](ft_core::serve::DecodeScheduler) + [`ServeSession`]
//! over one shared [`TransformerModel`], behind one admission router.
//!
//! ```text
//!  caller threads           the board: one Mutex + one Condvar         shard threads
//!  ──────────────      ─────────────────────────────────────────      ───────────────
//!  Fleet::submit ──▶ id (atomic), projection, outbox
//!                ──▶ least-loaded live shard, in one critical     ──▶ pump: Shard::step
//!                    section: inbox push, load += projection,         until it says Wait,
//!                    hungry = false; notify_all                       then one wait_timeout
//!  StreamHandle ◀── bounded per-stream channel ◀──────────────────  event routing
//!
//!  ragged tails: an idle shard with an empty inbox marks itself hungry; a
//!  loaded shard asks its scheduler for one stream to give away, routes its
//!  Preempted event (if it held a slot), and posts scheduler state (fault
//!  ledger included) + outbox as a migrant on the board; the thief
//!  re-admits it through chunked re-prefill (bit-identical to a
//!  never-migrated run).
//! ```
//!
//! Design invariants:
//!
//! * **One entry point.** [`Fleet::submit`] is the only way into a serving
//!   loop and its [`StreamHandle`] the only way out — callers cannot tell
//!   how many shards serve them ([`FleetConfig::single`]: one).
//! * **One lock, one wait.** Every fact a routing or stealing decision
//!   reads — inboxes, loads, hungry flags, migrants, `open` — sits on one
//!   `Board` behind one mutex, never held across a sweep. A shard's
//!   `Shard::step` never blocks; its pump is the only code that waits,
//!   on the board's condition variable.
//! * **The shard is a pump.** It reports one fact per stream — its
//!   consumer owes a drain ([`ServeSession::set_blocked`]); which stream is
//!   fed, admitted, parked or exported is decided in one place,
//!   [`DecodeScheduler::plan`](ft_core::serve::DecodeScheduler::plan).
//! * **Fleet-unique ids.** One shared atomic allocator hands out
//!   [`StreamId`]s before routing, so ids are unique across shards and a
//!   migrated stream keeps its identity.
//! * **Bit-identical migration.** Only *pending* (queued or parked)
//!   streams migrate; a parked stream has no cache, so the move ships
//!   the scheduler state, which carries the fault ledger, and the thief rebuilds the
//!   cache by chunked re-prefill — the same machinery preemption uses,
//!   already pinned bit-identical by the preemption suite.
//! * **Lossless roll-up.** Every token, detection, repair, recovery,
//!   park, and speculation count lands in exactly one
//!   [`ShardReport`]; [`FleetReport::total`] is a plain sum. Event-level
//!   counters (tokens, recoveries, parks) are attributed to the shard
//!   where they happened; stream-level ledgers (the [`FtReport`] fault
//!   ledger, speculation) to the shard that retired the stream.
//! * **No caller waits on a dead shard.** A shard that panics leaves the
//!   board on its way out: its routed submissions and its streams' handles
//!   end without [`EngineEvent::Finished`], later submissions go to the
//!   live shards, and [`Fleet::shutdown`] re-raises the panic.
//! * **Composable parallelism.** Each shard thread caps the rayon-shim
//!   fan-out of its own sweeps to `max(1, cores / workers)`, so shards ×
//!   sweep-workers stays at about one thread per core instead of
//!   multiplying.

use crate::engine::{EngineConfig, StreamHandle};
use crate::model::{ServeSession, TransformerModel};
use ft_core::serve::{EngineEvent, GenerationRequest, RecoveryPolicy, StreamId, StreamState};
use ft_core::types::FtReport;
use ft_sim::{FaultInjector, NoFaults};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

// Why `try_submit` refused a request: defined beside
// `GenerationRequest::check`, which makes the decision.
pub use ft_core::serve::SubmitError;

/// Identity of one fleet shard (worker thread). Displays as `shardN`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Sizing and policy knobs of a [`Fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Shard worker threads. The default is the machine's available
    /// parallelism; see [`FleetConfig::single`] for one.
    pub workers: usize,
    /// Per-shard serving-loop knobs (scheduler sizing, channel capacity)
    /// — every shard runs the same config.
    pub engine: EngineConfig,
    /// Allow idle shards to steal parked/queued streams from loaded ones.
    /// Migration is bit-identical (park + chunked re-prefill); disable it
    /// to pin streams to their routed shard.
    pub steal: bool,
}

impl FleetConfig {
    /// The one-worker fleet: a single serving loop whose sweeps may use
    /// every core. Nothing to route between and nothing to steal from.
    pub fn single(engine: EngineConfig) -> FleetConfig {
        FleetConfig {
            workers: 1,
            engine,
            steal: false,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            engine: EngineConfig::default(),
            steal: true,
        }
    }
}

/// One shard's serving ledger. Event-level counters (tokens, recoveries,
/// parks, migrations) count where they *happened*; stream-level ledgers
/// (fault totals, speculation, finished ids) count on the shard that
/// *retired* the stream — recovery of a migrated stream is therefore
/// attributed to the shard that owned it when the fault hit.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Which shard (or the synthetic total row — see
    /// [`FleetReport::total`]).
    pub shard: ShardId,
    /// Streams retired on this shard.
    pub streams_finished: u64,
    /// Tokens emitted by this shard's sweeps (migrated streams count the
    /// tokens emitted here only — re-prefill replays are not re-emitted).
    pub tokens_emitted: u64,
    /// Re-prefill recovery attempts started on this shard.
    pub recoveries: u64,
    /// Park transitions (preemption, backpressure, or migration export)
    /// executed on this shard.
    pub preemptions: u64,
    /// Streams adopted from the migration board.
    pub migrations_in: u64,
    /// Streams shipped to the migration board.
    pub migrations_out: u64,
    /// Retired streams' fault ledgers, [`merged`](FtReport::merged): the
    /// per-shard per-site table (`cache_uncorrectable` sums each retired
    /// stream's peak attended poison level).
    pub faults: FtReport,
    /// History tokens re-fed by retired streams' recoveries.
    pub recovery_fed: u64,
    /// Speculative tokens drafted by retired streams.
    pub spec_drafted: u64,
    /// Speculative tokens committed by retired streams.
    pub spec_accepted: u64,
    /// Peak resident cache bytes of this shard's session.
    pub peak_cache_bytes: u64,
    /// Ids of the streams that retired here, in retirement order.
    pub finished_streams: Vec<StreamId>,
}

impl ShardReport {
    fn fold_finished(&mut self, f: &crate::model::FinishedStream) {
        self.streams_finished += 1;
        self.faults = self.faults.merged(&f.attention);
        self.recovery_fed += f.recovery_fed as u64;
        self.spec_drafted += f.spec_drafted;
        self.spec_accepted += f.spec_accepted;
        self.finished_streams.push(f.id);
    }

    fn absorb(&mut self, other: &ShardReport) {
        self.streams_finished += other.streams_finished;
        self.tokens_emitted += other.tokens_emitted;
        self.recoveries += other.recoveries;
        self.preemptions += other.preemptions;
        self.migrations_in += other.migrations_in;
        self.migrations_out += other.migrations_out;
        self.faults = self.faults.merged(&other.faults);
        self.recovery_fed += other.recovery_fed;
        self.spec_drafted += other.spec_drafted;
        self.spec_accepted += other.spec_accepted;
        self.peak_cache_bytes += other.peak_cache_bytes;
        self.finished_streams
            .extend_from_slice(&other.finished_streams);
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} streams, {} tok, {} recoveries, {} parks, {} in/{} out, \
             det {} rep {} unc {}, spec {}/{}, peak {} B",
            self.shard,
            self.streams_finished,
            self.tokens_emitted,
            self.recoveries,
            self.preemptions,
            self.migrations_in,
            self.migrations_out,
            self.faults.total_detected(),
            self.faults.total_repaired(),
            self.faults.cache_uncorrectable,
            self.spec_accepted,
            self.spec_drafted,
            self.peak_cache_bytes,
        )
    }
}

/// Per-shard ledgers of one fleet run, plus the fleet-level admission
/// count. The roll-up is lossless: [`total`](FleetReport::total) is a
/// plain per-counter sum over [`shards`](FleetReport::shards).
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// One ledger per shard, indexed by [`ShardId`].
    pub shards: Vec<ShardReport>,
    /// Streams admitted through the router.
    pub streams_submitted: u64,
}

impl FleetReport {
    /// Sum the per-shard ledgers into one fleet-level row. The synthetic
    /// row carries `ShardId(shards.len())`; `peak_cache_bytes` is the sum
    /// of per-shard peaks (an upper bound on the fleet-wide peak, since
    /// shards do not peak simultaneously), and `finished_streams` is the
    /// concatenation sorted by id.
    pub fn total(&self) -> ShardReport {
        let mut out = ShardReport {
            shard: ShardId(self.shards.len()),
            ..ShardReport::default()
        };
        for s in &self.shards {
            out.absorb(s);
        }
        out.finished_streams.sort_unstable();
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fleet: {} streams submitted", self.streams_submitted)?;
        for s in &self.shards {
            writeln!(f, "  {s}")?;
        }
        write!(f, "  total: {}", self.total())
    }
}

/// A request on its way to a shard: the router's pre-allocated id and the
/// stream's outbox, both made on the submitting thread.
struct Submission {
    id: StreamId,
    req: GenerationRequest,
    outbox: Outbox,
}

/// Worker-side event queue of one stream: everything the bounded channel
/// could not absorb yet, plus the stream's routing projection (released
/// when it retires or migrates). Migration ships the whole outbox, so
/// buffered events stay ordered across the move.
struct Outbox {
    tx: SyncSender<EngineEvent>,
    buf: VecDeque<EngineEvent>,
    /// See [`Outbox::bound`].
    bound: usize,
    finished: bool,
    dead: bool,
    projection: u64,
}

impl Outbox {
    fn new(tx: SyncSender<EngineEvent>, bound: usize, projection: u64) -> Outbox {
        Outbox {
            tx,
            buf: VecDeque::new(),
            bound,
            finished: false,
            dead: false,
            projection,
        }
    }

    /// Most events `buf` can hold. The scheduler stops producing for a
    /// stream whose backlog is non-empty, so between a plan that saw it
    /// empty and the next drain a stream emits one admission cycle's events:
    ///
    /// * `Resumed`, if that plan admitted it;
    /// * per sweep up to four lifecycle events (`FaultCorrected`,
    ///   `EvictedBlocks`, `CachePoisoned`, `Recovering`): that plan's sweep,
    ///   then — blocked — only the sweeps finishing the prefill it is in,
    ///   `⌈total / prefill_chunk⌉`, restarted by ≤ `max_attempts` recoveries;
    /// * the `1 + draft_len` tokens of the one sweep that samples (a
    ///   blocked stream past its prefill is not fed again);
    /// * `Finished`, or the `Preempted` of the park a blocked stream is
    ///   first in line for — after which it waits, silent, unadmitted.
    fn bound(req: &GenerationRequest, max_seq: usize, prefill_chunk: usize) -> usize {
        let total = (req.prompt.len().saturating_add(req.max_new_tokens)).min(max_seq);
        let attempts = match req.recovery {
            RecoveryPolicy::None => 0,
            RecoveryPolicy::ReprefillBounded { max_attempts }
            | RecoveryPolicy::ReprefillPartial { max_attempts } => max_attempts as usize,
        };
        let sweeps = 1 + (1 + attempts) * total.div_ceil(prefill_chunk);
        let draft_len = req.speculation.as_ref().map_or(0, |sp| sp.draft_len);
        1 + 4 * sweeps + (1 + draft_len) + 1
    }

    /// Push as much buffered backlog into the channel as fits.
    fn flush(&mut self) {
        while let Some(&ev) = self.buf.front() {
            match self.tx.try_send(ev) {
                Ok(()) => {
                    self.buf.pop_front();
                }
                Err(TrySendError::Full(_)) => return,
                Err(TrySendError::Disconnected(_)) => {
                    // Consumer dropped its handle: discard the backlog and
                    // stop routing to this stream. The outbox itself stays
                    // until the stream retires — it carries the projection.
                    self.dead = true;
                    self.buf.clear();
                    return;
                }
            }
        }
    }

    /// Undelivered events remain and the consumer is still attached.
    fn blocked(&self) -> bool {
        !self.dead && !self.buf.is_empty()
    }

    fn push(&mut self, ev: EngineEvent) {
        if self.dead {
            return;
        }
        if matches!(ev, EngineEvent::Finished { .. }) {
            self.finished = true;
        }
        self.buf.push_back(ev);
        self.flush();
        assert!(
            self.buf.len() <= self.bound,
            "{}: {} undelivered events exceed one admission cycle's {}",
            ev.stream(),
            self.buf.len(),
            self.bound
        );
    }
}

/// A parked/queued stream in flight between shards: scheduler state (the
/// full ledger — tokens, recoveries, priority, speculation counters and
/// the stream's one fault ledger, `state.report`) and the consumer's
/// outbox. No cache — the thief rebuilds it by chunked re-prefill.
struct Migrant {
    state: StreamState,
    outbox: Outbox,
    /// The donor, which may take the stream back only when no peer is
    /// hungry ([`may_adopt`]).
    from: ShardId,
}

/// Everything the submitting threads and the shards decide on, behind
/// [`FleetShared::board`]'s one lock. Nobody holds the lock across a sweep.
struct Board {
    /// Per shard: submissions routed there and not yet taken. `None` once
    /// the shard has left, which takes it out of routing.
    inboxes: Vec<Option<Vec<Submission>>>,
    /// Projected cache bytes per shard (admission-time projections, held
    /// until the stream retires or migrates away).
    loads: Vec<u64>,
    /// Per shard: idle and advertising for work. A shard sets its own flag
    /// only with an empty inbox and every routing there clears it, so a
    /// hungry shard has nothing in flight.
    hungry: Vec<bool>,
    /// Parked streams awaiting adoption ([`Board::board_step`]).
    migrants: VecDeque<Migrant>,
    /// Submissions may still arrive: the fleet is not shut down.
    open: bool,
    /// Bumped by every change a shard may act on other than a submission
    /// routed to it: a post, an adoption, a leaving shard, the shutdown,
    /// and a routing that ends a peer's hunger. A pump waits only while
    /// this is unchanged and its own inbox is empty, so a burst routed to
    /// one shard does not run a step on every other.
    changes: u64,
}

/// What an idle shard does after one look at the migration board.
enum BoardStep {
    /// Serve this migrant.
    Adopt(Box<Migrant>),
    /// Nothing to adopt and nothing left to do: leave the loop.
    Exit,
    /// Nothing to adopt now; wait for a change.
    Stay,
}

impl Board {
    fn new(workers: usize) -> Board {
        Board {
            inboxes: (0..workers).map(|_| Some(Vec::new())).collect(),
            loads: vec![0; workers],
            hungry: vec![false; workers],
            migrants: VecDeque::new(),
            open: true,
            changes: 0,
        }
    }

    /// The live shard with the smallest projected load (the first on ties).
    fn least_loaded(&self) -> Option<usize> {
        (0..self.loads.len())
            .filter(|&s| self.inboxes[s].is_some())
            .min_by_key(|&s| self.loads[s])
    }

    /// Hand `sub` to shard `s`: its load, its inbox, and — in the same
    /// critical section — the end of its hunger, which is news to a donor
    /// holding an export back for it.
    fn route(&mut self, s: usize, sub: Submission) {
        self.loads[s] += sub.outbox.projection;
        if std::mem::take(&mut self.hungry[s]) {
            self.changes += 1;
        }
        self.inboxes[s]
            .as_mut()
            .expect("routing picks a live shard")
            .push(sub);
    }

    /// Submissions routed to shard `me` and not yet taken.
    fn routed(&self, me: ShardId) -> usize {
        self.inboxes[me.0].as_ref().map_or(0, Vec::len)
    }

    fn peer_hungry(&self, me: ShardId) -> bool {
        (self.hungry.iter().enumerate()).any(|(s, &h)| s != me.0 && h)
    }

    /// The export rule: post a stream only for a hungry peer — which has
    /// nothing in flight — and only while no migrant is already waiting.
    fn export_wanted(&self, me: ShardId) -> bool {
        self.migrants.is_empty() && self.peer_hungry(me)
    }

    /// One look at the board by idle shard `me`: claim the first migrant
    /// [`may_adopt`] gives it. A `done` shard — shut down, every stream
    /// delivered — first clears its hungry flag, so a donor holding its
    /// own export back for this shard takes it back, and exits only when
    /// the board is empty. A hungry flag therefore always belongs to a
    /// shard that will look at the board again, and every migrant is
    /// adopted by a live shard.
    fn board_step(&mut self, me: ShardId, done: bool) -> BoardStep {
        if done {
            self.hungry[me.0] = false;
        }
        let peer_hungry = self.peer_hungry(me);
        match (self.migrants.iter()).position(|m| may_adopt(me, m.from, peer_hungry)) {
            Some(i) => {
                let m = self.migrants.remove(i).expect("position is in range");
                self.hungry[me.0] = false;
                self.loads[me.0] += m.outbox.projection;
                BoardStep::Adopt(Box::new(m))
            }
            None if done && self.migrants.is_empty() => BoardStep::Exit,
            None => BoardStep::Stay,
        }
    }

    /// Take shard `me` out of the fleet: out of routing and off the hungry
    /// list. Returns what was still routed to it.
    fn leave(&mut self, me: ShardId) -> Option<Vec<Submission>> {
        self.hungry[me.0] = false;
        self.inboxes[me.0].take()
    }
}

/// The adopt rule: an idle shard takes a migrant it exported itself only
/// when no peer is hungry. A hungry peer looks at the board again and will
/// take it, so a steal is never undone by its donor; with no peer hungry
/// the donor takes it back, so the board always drains.
fn may_adopt(me: ShardId, from: ShardId, peer_hungry: bool) -> bool {
    from != me || !peer_hungry
}

/// State shared by the router and every shard.
struct FleetShared {
    board: Mutex<Board>,
    /// Signalled on every [`Board::changes`] bump and every routing.
    wake: Condvar,
    /// Live per-shard ledgers, refreshed every step — the source of
    /// [`Fleet::report`] snapshots.
    live: Vec<Mutex<ShardReport>>,
}

impl FleetShared {
    fn new(workers: usize) -> FleetShared {
        FleetShared {
            board: Mutex::new(Board::new(workers)),
            wake: Condvar::new(),
            live: (0..workers)
                .map(|s| {
                    Mutex::new(ShardReport {
                        shard: ShardId(s),
                        ..ShardReport::default()
                    })
                })
                .collect(),
        }
    }

    /// Lock the board. No session code runs under the lock, so a shard
    /// that panics never leaves it half-updated and poisoning is ignored.
    fn board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a change waiting shards may act on, release the lock, and
    /// wake them.
    fn notify(&self, mut board: MutexGuard<'_, Board>) {
        board.changes += 1;
        drop(board);
        self.wake.notify_all();
    }
}

/// Handle to a sharded serving fleet: N worker threads behind one
/// admission router — see the module docs for the invariants.
/// Submissions are non-blocking from any number of caller threads.
///
/// ```no_run
/// use ft_transformer::{
///     BackendKind, Fleet, FleetConfig, GenerationRequest, ModelConfig, TransformerModel,
/// };
///
/// let cfg = ModelConfig {
///     name: "doc",
///     layers: 1,
///     heads: 2,
///     hidden: 16,
///     ffn_dim: 32,
///     vocab: 31,
///     max_seq: 32,
/// };
/// let model = TransformerModel::random(7, cfg, BackendKind::Flash).with_causal(true);
/// let fleet = Fleet::spawn(model, FleetConfig { workers: 4, ..Default::default() });
/// let handles: Vec<_> = (0..64)
///     .map(|i| fleet.submit(GenerationRequest::new(vec![1, 2, i], 8)))
///     .collect();
/// let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
/// let report = fleet.shutdown(); // per-shard attribution + lossless total
/// println!("{report}");
/// ```
pub struct Fleet {
    workers: Vec<Option<thread::JoinHandle<ShardReport>>>,
    shared: Arc<FleetShared>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    engine: EngineConfig,
    bytes_per_token: u64,
    window_slack: usize,
    max_seq: usize,
    default_window: Option<usize>,
}

impl Fleet {
    /// Spawn the fleet over an owned model with no fault injection.
    pub fn spawn(model: TransformerModel, cfg: FleetConfig) -> Fleet {
        Fleet::spawn_with(model, cfg, Arc::new(NoFaults))
    }

    /// Spawn the fleet with a shared fault injector: every shard's sweeps
    /// expose cache-resident state and kernel operations to `inj`, and
    /// per-request recovery runs unchanged on whichever shard owns the
    /// stream when the damage is attended.
    pub fn spawn_with(
        model: TransformerModel,
        cfg: FleetConfig,
        inj: Arc<dyn FaultInjector + Send + Sync>,
    ) -> Fleet {
        assert!(cfg.workers > 0, "a fleet needs at least one shard");
        assert!(
            cfg.engine.channel_capacity > 0,
            "a stream needs event capacity"
        );
        let model = Arc::new(model);
        let shared = Arc::new(FleetShared::new(cfg.workers));
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let sweep_workers = (cores / cfg.workers).max(1);
        let steal = cfg.steal && cfg.workers > 1;
        let workers = (0..cfg.workers)
            .map(|s| {
                let shard = Shard::new(
                    ShardId(s),
                    Arc::clone(&model),
                    cfg.engine,
                    Arc::clone(&inj),
                    steal,
                );
                let shared = Arc::clone(&shared);
                let worker = thread::Builder::new()
                    .name(format!("ft-serve-{}", ShardId(s)))
                    .spawn(move || {
                        rayon::set_thread_workers(sweep_workers);
                        pump(shard, &shared)
                    })
                    .expect("spawn shard worker thread");
                Some(worker)
            })
            .collect();
        Fleet {
            workers,
            shared,
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            engine: cfg.engine,
            bytes_per_token: (4 * model.config.hidden * model.config.layers) as u64,
            window_slack: model.blocks.first().map_or(0, |b| b.mha.cache_block),
            max_seq: model.config.max_seq,
            default_window: model.window(),
        }
    }

    /// Shards in the fleet.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submit a request and get the stream's event handle. The router
    /// allocates a fleet-unique [`StreamId`], projects the request's
    /// cache footprint, and forwards to the chosen shard. Panics on a
    /// request [`try_submit`](Fleet::try_submit) refuses.
    pub fn submit(&self, req: GenerationRequest) -> StreamHandle {
        self.try_submit(req)
            .unwrap_or_else(|e| panic!("Fleet::submit: {e}"))
    }

    /// [`submit`](Fleet::submit), refusing — here, on the caller's thread —
    /// a request no shard could serve ([`GenerationRequest::check`]): the
    /// session panics on the same check, which would take down the shard
    /// and strand every stream it owns.
    pub fn try_submit(&self, req: GenerationRequest) -> Result<StreamHandle, SubmitError> {
        req.check(self.max_seq)?;
        let id = StreamId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, events) = mpsc::sync_channel(self.engine.channel_capacity);
        let handle = StreamHandle::attach(id, req.priority, events);
        let bound = Outbox::bound(&req, self.max_seq, self.engine.scheduler.prefill_chunk);
        let outbox = Outbox::new(tx, bound, self.project(&req));
        let mut board = self.shared.board();
        // With every shard gone the submission drops here, and its handle
        // ends without `Finished` instead of waiting forever.
        if let Some(s) = board.least_loaded() {
            board.route(s, Submission { id, req, outbox });
            drop(board);
            self.shared.wake.notify_all();
        }
        Ok(handle)
    }

    /// Admission projection: the same FP16 K+V payload estimate the
    /// shard schedulers use for memory budgeting, capped by the stream's
    /// sliding window (plus one evictable block of slack) when it has
    /// one.
    fn project(&self, req: &GenerationRequest) -> u64 {
        let prompt = req.prompt.len(); // ≤ max_seq: `try_submit` checked
        let rows = prompt + req.max_new_tokens.min(self.max_seq - prompt);
        let rows = match req.window.or(self.default_window) {
            Some(w) => rows.min(w + self.window_slack),
            None => rows,
        };
        (rows as u64).max(1) * self.bytes_per_token
    }

    /// Snapshot the live per-shard ledgers without stopping the fleet.
    /// Counters are monotone; a snapshot taken mid-sweep lags that sweep.
    pub fn report(&self) -> FleetReport {
        FleetReport {
            shards: self
                .shared
                .live
                .iter()
                .map(|m| m.lock().unwrap().clone())
                .collect(),
            streams_submitted: self.submitted.load(Ordering::Relaxed),
        }
    }

    /// Close the board to submissions and wake every shard: each finishes
    /// the streams it owns and leaves once the board is empty.
    fn close(&self) {
        let mut board = self.shared.board();
        board.open = false;
        self.shared.notify(board);
    }

    /// Close the fleet, wait for every shard to finish the streams it
    /// owns, and fold the final per-shard ledgers into the fleet report.
    /// Re-raises a shard's panic. Only call after draining (or dropping)
    /// all handles — a blocked consumer would leave its shard, and hence
    /// this join, waiting on it.
    pub fn shutdown(mut self) -> FleetReport {
        self.close();
        let shards = self
            .workers
            .iter_mut()
            .map(|w| {
                w.take()
                    .expect("worker joined once")
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect();
        FleetReport {
            shards,
            streams_submitted: self.submitted.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Fleet {
    /// Close the fleet and detach: shards finish their remaining streams
    /// in the background (handles stay valid) and exit.
    fn drop(&mut self) {
        self.close();
    }
}

/// How long an idle shard, woken by a submission, keeps gathering before it
/// sweeps: submissions sent together — a burst, a closed loop's wave — then
/// enter the same first sweep. Without the wait the first one races the
/// caller's next `submit` into a sweep of its own, and the rest of the
/// burst waits that sweep out or not, depending on thread wake-up order.
/// Each arrival restarts the wait, up to [`GATHER_MAX`] in all.
const ARRIVAL_GAP: Duration = Duration::from_micros(200);
/// Upper bound on an idle shard's whole gathering wait, so a steady stream
/// of submissions cannot hold its first sweep back.
const GATHER_MAX: Duration = Duration::from_millis(2);
/// How long an idle shard whose streams all retired waits on consumers
/// that have not absorbed their final events (handles do not notify).
const UNDELIVERED_POLL: Duration = Duration::from_millis(1);
/// How long a shard whose every stream waits on its consumer yields
/// instead of spinning on empty plans.
const BLOCKED_POLL: Duration = Duration::from_micros(200);

/// What a shard's pump does after one [`Shard::step`].
#[derive(Debug, PartialEq)]
enum Next {
    /// Step again at once.
    Again,
    /// Wait for a change on the board, or at most this long.
    Wait(Option<Duration>),
    /// The shard is done: leave.
    Exit,
}

/// One shard's own serving state; everything it shares is on the board.
/// Stepped by its thread's [`pump`], or by hand.
struct Shard {
    me: ShardId,
    session: ServeSession<Arc<TransformerModel>>,
    inj: Arc<dyn FaultInjector + Send + Sync>,
    outboxes: BTreeMap<u64, Outbox>,
    report: ShardReport,
    steal: bool,
    /// [`Board::changes`] when this step took its inbox: the pump waits
    /// only while the board still reads so and nothing new is routed here,
    /// so no wake-up is lost.
    seen: u64,
}

impl Shard {
    fn new(
        me: ShardId,
        model: Arc<TransformerModel>,
        cfg: EngineConfig,
        inj: Arc<dyn FaultInjector + Send + Sync>,
        steal: bool,
    ) -> Shard {
        Shard {
            me,
            session: ServeSession::new(model, cfg.scheduler),
            inj,
            outboxes: BTreeMap::new(),
            report: ShardReport {
                shard: me,
                ..ShardReport::default()
            },
            steal,
            seen: 0,
        }
    }

    /// One turn of the serving loop; never blocks. Submissions in, one
    /// blocked/unblocked fact per stream to the session, sweep, events
    /// out. It decides nothing about any stream's lifecycle. With stealing
    /// on, an idle shard advertises on the board's hungry flags, a loaded
    /// one exports one stream at a time ([`Board::export_wanted`]), and
    /// every idle shard adopts from the board ([`Board::board_step`]). Says
    /// [`Next::Exit`] once the fleet is closed, every owned stream has
    /// finished with its events delivered (or its consumer gone), and the
    /// board is empty.
    fn step(&mut self, shared: &FleetShared) -> Next {
        let arrivals = {
            let mut board = shared.board();
            self.seen = board.changes;
            std::mem::take(
                board.inboxes[self.me.0]
                    .as_mut()
                    .expect("a stepping shard is live"),
            )
        };
        for Submission { id, req, outbox } in arrivals {
            self.session.submit_request_with_id(req, id);
            self.outboxes.insert(id.0, outbox);
        }
        // Retry backlogs, and tell the scheduler which consumers still
        // owe a drain; the next plan acts on it.
        for (id, ob) in self.outboxes.iter_mut() {
            ob.flush();
            self.session.set_blocked(StreamId(*id), ob.blocked());
        }
        // Retired-and-delivered (or abandoned) streams need no routing.
        // An abandoned (dead) outbox stays until its stream retires — it
        // still carries the stream's routing projection.
        self.outboxes
            .retain(|_, ob| !(ob.finished && (ob.dead || ob.buf.is_empty())));
        if self.session.idle() {
            return self.idle_step(shared);
        }
        let inj: &(dyn FaultInjector + Send + Sync) = &*self.inj;
        let events = self.session.sweep_events(&inj);
        let swept = !events.is_empty();
        route(events, &mut self.outboxes, &mut self.report);
        // Fold retirements into the shard ledger and release their
        // routing projections.
        let mut released = 0;
        for f in self.session.take_finished() {
            if let Some(ob) = self.outboxes.get_mut(&f.id.0) {
                released += std::mem::take(&mut ob.projection);
                // A dead outbox never sees its Finished event; mark it
                // done here so the retain above can drop it.
                ob.finished = true;
            }
            self.report.fold_finished(&f);
        }
        // Work export, decided on the state this sweep left (its
        // retirements gone, its arrivals served once where the router put
        // them). Keep at least one stream for ourselves.
        let export = {
            let mut board = shared.board();
            board.loads[self.me.0] -= released;
            self.steal
                && self.session.active_streams() + self.session.pending_streams() >= 2
                && board.export_wanted(self.me)
        };
        if let Some(m) = export.then(|| self.export()).flatten() {
            let mut board = shared.board();
            board.loads[self.me.0] -= m.outbox.projection;
            board.migrants.push_back(m);
            shared.notify(board);
        }
        self.report.peak_cache_bytes = self.session.peak_cache_bytes();
        publish(shared, self.me, &self.report);
        if swept {
            Next::Again
        } else {
            // Every stream is waiting on its consumer.
            Next::Wait(Some(BLOCKED_POLL))
        }
    }

    /// An idle shard's one look at the board: adopt a migrant if the rule
    /// lets it, leave once nothing is left anywhere, else advertise for
    /// work and wait. (Without stealing the board stays empty.)
    fn idle_step(&mut self, shared: &FleetShared) -> Next {
        let mut board = shared.board();
        let routed = board.routed(self.me);
        let done = !board.open && routed == 0 && self.outboxes.is_empty();
        match board.board_step(self.me, done) {
            BoardStep::Adopt(m) => {
                shared.notify(board);
                self.report.migrations_in += 1;
                self.outboxes.insert(m.state.id.0, m.outbox);
                self.session.adopt_stream(m.state);
                publish(shared, self.me, &self.report);
                Next::Again
            }
            BoardStep::Exit => {
                drop(board);
                self.report.peak_cache_bytes = self.session.peak_cache_bytes();
                publish(shared, self.me, &self.report);
                Next::Exit
            }
            // This shard's own export, held back for a hungry peer: wait
            // until the peer takes it or leaves.
            BoardStep::Stay if done => Next::Wait(None),
            BoardStep::Stay if self.outboxes.is_empty() => {
                if self.steal && routed == 0 {
                    board.hungry[self.me.0] = true;
                }
                Next::Wait(None)
            }
            // Every stream retired but some consumers have not absorbed
            // their final events yet: wait on them (and on new work).
            BoardStep::Stay => Next::Wait(Some(UNDELIVERED_POLL)),
        }
    }

    /// Give away the stream the scheduler picks: route its park's
    /// `Preempted` event (if it held a slot) to its own outbox *before*
    /// the move, then pack scheduler state + outbox.
    fn export(&mut self) -> Option<Migrant> {
        let state = self.session.export_stream()?;
        route(
            self.session.drain_events(),
            &mut self.outboxes,
            &mut self.report,
        );
        let Some(outbox) = self.outboxes.remove(&state.id.0) else {
            // Unreachable in practice: every accepted stream has an outbox
            // until it retires. Re-adopt rather than lose the stream.
            self.session.adopt_stream(state);
            return None;
        };
        self.report.migrations_out += 1;
        Some(Migrant {
            state,
            outbox,
            from: self.me,
        })
    }
}

/// Takes a shard off the board when its pump returns or unwinds: drops
/// what is still routed to it, clears its hungry flag, and wakes the rest.
/// Runs before the shard itself drops, so no handle of the shard's ends
/// while the shard can still be routed to.
struct Leave<'a> {
    shard: Shard,
    shared: &'a FleetShared,
}

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let mut board = self.shared.board();
        let routed = board.leave(self.shard.me);
        self.shared.notify(board);
        drop(routed);
    }
}

/// One shard thread: step until [`Next::Exit`]. The only code that waits
/// — on the board, until a change the step has not seen or the step's
/// timeout — and, for an idle shard woken with a submission, on the rest
/// of its burst ([`gather`]).
fn pump(shard: Shard, shared: &FleetShared) -> ShardReport {
    let mut leave = Leave { shard, shared };
    let shard = &mut leave.shard;
    loop {
        let timeout = match shard.step(shared) {
            Next::Again => continue,
            Next::Exit => return std::mem::take(&mut shard.report),
            Next::Wait(timeout) => timeout,
        };
        let seen = shard.seen;
        let (board, _) = shared
            .wake
            .wait_timeout_while(shared.board(), timeout.unwrap_or(Duration::MAX), |b| {
                b.changes == seen && b.routed(shard.me) == 0
            })
            .unwrap_or_else(PoisonError::into_inner);
        if shard.session.idle() && board.routed(shard.me) > 0 {
            gather(shared, board, shard.me);
        }
    }
}

/// Wait for the rest of a burst after an idle shard found its first
/// submission: every one that arrives within [`ARRIVAL_GAP`] of the last,
/// for at most [`GATHER_MAX`]. The shutdown ends the wait; the next step
/// takes them all.
fn gather(shared: &FleetShared, mut board: MutexGuard<'_, Board>, me: ShardId) {
    let deadline = Instant::now() + GATHER_MAX;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        let seen = board.routed(me);
        let (next, wait) = shared
            .wake
            .wait_timeout_while(board, left.min(ARRIVAL_GAP), |b| {
                b.open && b.routed(me) == seen
            })
            .unwrap_or_else(PoisonError::into_inner);
        if wait.timed_out() || !next.open {
            return;
        }
        board = next;
    }
}

/// Route a batch of session events into the per-stream outboxes and count
/// the event-level ledgers (tokens, recoveries, parks) for this shard.
fn route(events: Vec<EngineEvent>, outboxes: &mut BTreeMap<u64, Outbox>, report: &mut ShardReport) {
    for ev in events {
        match ev {
            EngineEvent::TokenEmitted { .. } => report.tokens_emitted += 1,
            EngineEvent::Recovering { .. } => report.recoveries += 1,
            EngineEvent::Preempted { .. } => report.preemptions += 1,
            _ => {}
        }
        if let Some(ob) = outboxes.get_mut(&ev.stream().0) {
            ob.push(ev);
        }
    }
}

/// Refresh this shard's live ledger snapshot (the [`Fleet::report`]
/// source).
fn publish(shared: &FleetShared, me: ShardId, report: &ShardReport) {
    *shared.live[me.0].lock().unwrap() = report.clone();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, FinishReason, ModelConfig, StreamOutcome};
    use ft_core::efta::EftaOptions;
    use ft_num::F16;
    use ft_sim::{FaultSite, OpCoord, SeuInjector};

    #[test]
    fn shard_and_report_display() {
        assert_eq!(format!("{}", ShardId(3)), "shard3");
        let mut fr = FleetReport {
            shards: vec![
                ShardReport {
                    shard: ShardId(0),
                    streams_finished: 2,
                    tokens_emitted: 10,
                    ..ShardReport::default()
                },
                ShardReport {
                    shard: ShardId(1),
                    streams_finished: 1,
                    tokens_emitted: 5,
                    recoveries: 1,
                    ..ShardReport::default()
                },
            ],
            streams_submitted: 3,
        };
        fr.shards[0].finished_streams = vec![StreamId(2), StreamId(0)];
        fr.shards[1].finished_streams = vec![StreamId(1)];
        let total = fr.total();
        assert_eq!(total.shard, ShardId(2), "synthetic total row");
        assert_eq!(total.streams_finished, 3);
        assert_eq!(total.tokens_emitted, 15);
        assert_eq!(total.recoveries, 1);
        assert_eq!(
            total.finished_streams,
            vec![StreamId(0), StreamId(1), StreamId(2)],
            "total concatenates sorted by id"
        );
        let text = format!("{fr}");
        assert!(text.contains("shard0:"), "{text}");
        assert!(text.contains("shard1:"), "{text}");
        assert!(text.contains("3 streams submitted"), "{text}");
        assert!(text.contains("total:"), "{text}");
    }

    /// A submission of `req` as stream `id`, and its handle. Channels hold
    /// every event of the tests' streams, so no shard stepped on the test
    /// thread ever waits on a consumer.
    fn submission(id: u64, req: GenerationRequest) -> (Submission, StreamHandle) {
        let (tx, events) = mpsc::sync_channel(256);
        let handle = StreamHandle::attach(StreamId(id), req.priority, events);
        let bound = Outbox::bound(&req, 64, 16);
        let outbox = Outbox::new(tx, bound, 1 + id);
        (
            Submission {
                id: StreamId(id),
                req,
                outbox,
            },
            handle,
        )
    }

    /// A migrant of one queued stream, exported by shard `from`.
    fn migrant(from: usize) -> Migrant {
        let mut sched = ft_core::serve::DecodeScheduler::new(Default::default());
        sched.submit_request(GenerationRequest::new(vec![1, 2], 1));
        let (tx, _) = mpsc::sync_channel(1);
        Migrant {
            state: sched.export().expect("a queued stream exports"),
            outbox: Outbox::new(tx, 1, 0),
            from: ShardId(from),
        }
    }

    #[test]
    fn export_goes_only_to_a_hungry_peer_and_routing_ends_hunger() {
        // Shard 1 idles and advertises; shard 0 is loaded.
        let mut board = Board::new(2);
        board.hungry[1] = true;
        assert!(board.export_wanted(ShardId(0)));
        assert!(!board.export_wanted(ShardId(1)), "never to itself");
        // Routing a stream to shard 1 clears its flag in the same critical
        // section, so no export heads for a shard with work in flight.
        let (sub, _handle) = submission(0, GenerationRequest::new(vec![1, 2], 1));
        board.route(1, sub);
        assert!(!board.hungry[1]);
        assert_eq!(board.routed(ShardId(1)), 1);
        assert!(!board.export_wanted(ShardId(0)));
        // One migrant at a time.
        board.hungry[1] = true;
        board.migrants.push_back(migrant(0));
        assert!(!board.export_wanted(ShardId(0)));
    }

    #[test]
    fn a_donor_takes_back_its_export_only_when_no_peer_is_hungry() {
        // Shard 0 exported for hungry shard 1, then went idle itself
        // before shard 1 looked at the board: it must leave the migrant.
        assert!(!may_adopt(ShardId(0), ShardId(0), true));
        assert!(may_adopt(ShardId(1), ShardId(0), true));
        // Shard 1 got other work meanwhile and is no longer hungry: the
        // donor takes the stream back, so the board drains.
        assert!(may_adopt(ShardId(0), ShardId(0), false));
        assert!(may_adopt(ShardId(1), ShardId(0), false));
    }

    #[test]
    fn a_leaving_shard_never_strands_a_migrant() {
        // Loaded shard 0 posts a stream for hungry shard 1, and the fleet
        // shuts down with shard 0 done: while shard 1 is hungry the donor
        // may neither take the stream back nor exit over it.
        let mut board = Board::new(2);
        board.hungry[1] = true;
        board.migrants.push_back(migrant(0));
        assert!(matches!(
            board.board_step(ShardId(0), true),
            BoardStep::Stay
        ));
        // Shard 1 leaves without looking at the board (its pump unwound).
        // Leaving clears its flag, so the donor takes its export back
        // instead of waiting for a peer that is gone, then exits.
        assert!(board.leave(ShardId(1)).is_some());
        assert_eq!(board.least_loaded(), Some(0), "out of routing");
        let BoardStep::Adopt(m) = board.board_step(ShardId(0), true) else {
            panic!("the donor must take back an export no live peer wants");
        };
        assert_eq!(m.from, ShardId(0));
        assert!(matches!(
            board.board_step(ShardId(0), true),
            BoardStep::Exit
        ));
    }

    #[test]
    fn a_donor_waits_for_a_hungry_peer_before_leaving() {
        // Shard 0 exported for hungry shard 1 and has nothing else left:
        // it may neither take the stream back nor exit over it.
        let mut board = Board::new(2);
        board.hungry[1] = true;
        board.migrants.push_back(migrant(0));
        assert!(matches!(
            board.board_step(ShardId(0), true),
            BoardStep::Stay
        ));
        // Shard 1 is shut down before its next look; leaving, it still
        // adopts the migrant rather than exit over it.
        let BoardStep::Adopt(m) = board.board_step(ShardId(1), true) else {
            panic!("a leaving shard must adopt a peer's export");
        };
        assert_eq!(m.from, ShardId(0));
        assert!(!board.hungry[1]);
        assert!(matches!(
            board.board_step(ShardId(0), true),
            BoardStep::Exit
        ));
    }

    #[test]
    fn an_idle_shard_gathers_until_a_quiet_gap_or_the_shutdown() {
        let shared = FleetShared::new(1);
        let mut board = shared.board();
        let handles: Vec<_> = (0..3)
            .map(|id| {
                let (sub, h) = submission(id, GenerationRequest::new(vec![1, 2], 1));
                board.route(0, sub);
                h
            })
            .collect();
        // Nothing more arrives: the gather waits out one full gap (no one
        // notifies this board, so the wait cannot end early) and leaves
        // the burst, in order, to the next step.
        let start = Instant::now();
        gather(&shared, board, ShardId(0));
        assert!(start.elapsed() >= ARRIVAL_GAP);
        let ids = |shared: &FleetShared| -> Vec<u64> {
            let board = shared.board();
            let inbox = board.inboxes[0].as_ref().expect("live");
            inbox.iter().map(|s| s.id.0).collect()
        };
        assert_eq!(ids(&shared), [0, 1, 2]);
        // A closed board ends the wait at once.
        shared.board().open = false;
        gather(&shared, shared.board(), ShardId(0));
        assert_eq!(ids(&shared), [0, 1, 2]);
        drop(handles);
    }

    fn tiny_model(seed: u64) -> TransformerModel {
        let cfg = ModelConfig {
            name: "fleet-tiny",
            layers: 2,
            heads: 4,
            hidden: 32,
            ffn_dim: 64,
            vocab: 101,
            max_seq: 64,
        };
        TransformerModel::random(seed, cfg, BackendKind::Efta(EftaOptions::optimized()))
            .with_causal(true)
            .with_cache_block(16)
    }

    fn prompt(len: usize) -> Vec<u32> {
        (0..len).map(|t| (t * 13 % 101) as u32).collect()
    }

    /// Continuation `model.generate` samples after `p`.
    fn generated(model: &TransformerModel, p: &[u32], new_tokens: usize) -> Vec<u32> {
        model.generate(p, new_tokens, &NoFaults).0[p.len()..].to_vec()
    }

    /// Two shards over one board, stepped by hand on the test thread: no
    /// pump and no waits, so each interleaving is the one written down.
    struct Stepped {
        shared: FleetShared,
        shards: Vec<Shard>,
    }

    impl Stepped {
        fn new(model: &TransformerModel, inj: Arc<dyn FaultInjector + Send + Sync>) -> Stepped {
            let model = Arc::new(model.clone());
            Stepped {
                shared: FleetShared::new(2),
                shards: (0..2)
                    .map(|s| {
                        Shard::new(
                            ShardId(s),
                            Arc::clone(&model),
                            EngineConfig::default(),
                            Arc::clone(&inj),
                            true,
                        )
                    })
                    .collect(),
            }
        }

        fn submit(&self, shard: usize, id: u64, req: GenerationRequest) -> StreamHandle {
            let (sub, handle) = submission(id, req);
            self.shared.board().route(shard, sub);
            handle
        }

        fn step(&mut self, shard: usize) -> Next {
            self.shards[shard].step(&self.shared)
        }

        /// Shut the fleet down and step the shards in turn until both
        /// have left; their final ledgers.
        fn shutdown(mut self) -> Vec<ShardReport> {
            self.shared.board().open = false;
            let mut live = [true, true];
            for _ in 0..10_000 {
                for (s, live) in live.iter_mut().enumerate() {
                    *live = *live && self.shards[s].step(&self.shared) != Next::Exit;
                }
                if live == [false, false] {
                    return self.shards.into_iter().map(|s| s.report).collect();
                }
            }
            panic!("the shards did not leave: {live:?}");
        }
    }

    /// Shard 1 finds nothing routed to it and advertises; shard 0 takes two
    /// long streams, prefills both in one sweep, then sees the hungry peer
    /// and exports its newest active stream — parked mid-flight, with one
    /// token emitted — onto the board.
    fn steal_midflight(fleet: &mut Stepped) {
        assert_eq!(fleet.step(1), Next::Wait(None));
        assert!(fleet.shared.board().hungry[1]);
        assert_eq!(fleet.step(0), Next::Again);
        let board = fleet.shared.board();
        assert_eq!(board.migrants.len(), 1, "one stream posted");
        assert_eq!(board.migrants[0].state.id, StreamId(1));
    }

    /// The thief and the donor of the one migration.
    fn thief_and_donor(reports: &[ShardReport]) -> (&ShardReport, &ShardReport) {
        let total = FleetReport {
            shards: reports.to_vec(),
            streams_submitted: 2,
        }
        .total();
        assert_eq!(
            (total.migrations_in, total.migrations_out),
            (1, 1),
            "exactly one migration"
        );
        let thief = reports.iter().find(|s| s.migrations_in == 1).unwrap();
        let donor = reports.iter().find(|s| s.migrations_out == 1).unwrap();
        assert_ne!(thief.shard, donor.shard);
        (thief, donor)
    }

    #[test]
    fn a_midflight_steal_is_bit_identical() {
        let model = tiny_model(63);
        let (long, new) = (prompt(13), 30);
        let want = generated(&model, &long, new);
        let mut fleet = Stepped::new(&model, Arc::new(NoFaults));
        let a1 = fleet.submit(0, 0, GenerationRequest::new(long.clone(), new));
        let a2 = fleet.submit(0, 1, GenerationRequest::new(long.clone(), new));
        steal_midflight(&mut fleet);
        let reports = fleet.shutdown();
        let (thief, donor) = thief_and_donor(&reports);
        assert_eq!(
            thief.finished_streams,
            [StreamId(1)],
            "the victim retires on the thief"
        );
        assert_eq!(donor.finished_streams, [StreamId(0)]);
        assert_eq!(
            (donor.preemptions, thief.preemptions),
            (1, 0),
            "the export park is on the donor's ledger"
        );
        let (a1, a2): (StreamOutcome, StreamOutcome) = (a1.wait(), a2.wait());
        assert_eq!(a1.tokens, want);
        assert_eq!(a2.tokens, want, "the migrated stream diverged");
        assert_eq!(a2.preemptions, 1, "the victim was active when parked");
        assert_eq!(
            (a1.finish, a2.finish),
            (Some(FinishReason::MaxTokens), Some(FinishReason::MaxTokens))
        );
        let tokens = (a1.tokens.len() + a2.tokens.len()) as u64;
        assert_eq!(donor.tokens_emitted + thief.tokens_emitted, tokens);
    }

    /// Two aliased SEUs (rows `base` and `base + 8` of one column — a
    /// shared stride-8 checksum lane) delivered at one exposure step: the
    /// next append's verification detects the damage and cannot locate it.
    struct PairInjector(SeuInjector, SeuInjector);

    impl PairInjector {
        fn aliased_k_rows(step: u64, col: usize, base: u64) -> Self {
            let coord = |row: u64| OpCoord {
                slot: 0,
                i: row,
                j: col as u64,
                k: 2 * step, // `which` = 0: the K payload
            };
            PairInjector(
                SeuInjector::new(FaultSite::KvCache, coord(base), 13),
                SeuInjector::new(FaultSite::KvCache, coord(base + 8), 13),
            )
        }
    }

    impl FaultInjector for PairInjector {
        fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
            self.1
                .corrupt_f32(site, coord, self.0.corrupt_f32(site, coord, value))
        }
        fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
            self.1
                .corrupt_f16(site, coord, self.0.corrupt_f16(site, coord, value))
        }
        fn fired(&self) -> u64 {
            self.0.fired() + self.1.fired()
        }
    }

    #[test]
    fn an_seu_on_a_stolen_streams_rebuilt_cache_recovers_on_the_thief() {
        let model = tiny_model(64);
        let (long, new) = (prompt(13), 40);
        let want = generated(&model, &long, new);
        // Arm the victim's decode sweep at position 47 — token 35 of 40,
        // long after the thief rebuilt its 14-row cache — and flip rows
        // 32/40, the aliased pair inside the ragged block (rows 32–46) that
        // sweep appends into: the append detects, cannot locate, poisons.
        let inj = Arc::new(PairInjector::aliased_k_rows(
            crate::serve_expose_step(StreamId(1), 47, 2, 0),
            3,
            32,
        ));
        let mut fleet = Stepped::new(&model, inj.clone());
        let a1 = fleet.submit(0, 0, GenerationRequest::new(long.clone(), new));
        let a2 = fleet.submit(
            0,
            1,
            GenerationRequest::new(long.clone(), new)
                .with_recovery(RecoveryPolicy::ReprefillBounded { max_attempts: 3 }),
        );
        steal_midflight(&mut fleet);
        let reports = fleet.shutdown();
        let (thief, donor) = thief_and_donor(&reports);
        assert_eq!(inj.fired(), 2, "both aliased flips land");
        assert_eq!(thief.finished_streams, [StreamId(1)]);
        assert_eq!(thief.recoveries, 1, "the recovery ran on the thief");
        assert!(
            thief.faults.cache_uncorrectable >= 1,
            "the uncorrectable detection rides the stream's ledger to the thief"
        );
        assert_eq!(donor.recoveries, 0, "the donor stays clean");
        assert_eq!(donor.faults.cache_uncorrectable, 0);
        let (a1, a2) = (a1.wait(), a2.wait());
        assert_eq!(a2.tokens, want, "recovery on the stolen stream diverged");
        assert_eq!(a2.recoveries, 1);
        assert_eq!(a2.finish, Some(FinishReason::Recovered));
        assert_eq!(a1.tokens, want);
        assert_eq!(a1.recoveries, 0);
    }
}
