//! Load generator: one driver thread over `Fleet::submit` → `StreamHandle`.
//!
//! The driver `try_recv`s every live handle round-robin and sleeps 200 µs
//! when a pass delivers nothing, so timestamps carry ≤ 0.2 ms quantisation
//! against token gaps of ≥ 10 ms. There are no per-stream consumer threads:
//! on a 2-core host they would compete with the shard workers being timed.
//! The default `channel_capacity` (64) plus a draining driver never fills a
//! channel, so the backpressure park path is not provoked.

use ft_transformer::{EngineEvent, FinishReason, Fleet, GenerationRequest, Priority, StreamHandle};
use std::thread;
use std::time::{Duration, Instant};

/// A stream with no event for this long is recorded as failed and the
/// workload is torn down: a livelocked shard must not hang the benchmark.
const STALL_AFTER: Duration = Duration::from_secs(30);
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// How requests are offered to the fleet.
pub enum Load<'a> {
    /// `clients` callers, each sending its next request only after its
    /// previous one finished, until `requests` are used up.
    Closed {
        requests: &'a [GenerationRequest],
        clients: usize,
    },
    /// Request `i` is sent at `due[i]` seconds regardless of progress and
    /// timed from that due time, so a stall's wait lands on later requests.
    Open {
        requests: &'a [GenerationRequest],
        due: &'a [f64],
    },
}

/// Everything observed about one request, timed in seconds from load start.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Index into the load's request list.
    pub idx: usize,
    pub prompt_len: usize,
    pub want_tokens: usize,
    pub priority: Priority,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: f64,
    pub token_times: Vec<f64>,
    pub tokens: Vec<u32>,
    pub finish: Option<FinishReason>,
    pub finished_at: f64,
    /// `Recovering` events seen: re-prefill recoveries of this stream.
    pub recovering: u64,
    pub stalled: bool,
}

impl Outcome {
    /// Typed finish, a clean reason, and exactly the requested token count.
    pub fn ok(&self) -> bool {
        !self.stalled
            && matches!(
                self.finish,
                Some(FinishReason::MaxTokens | FinishReason::Recovered)
            )
            && self.tokens.len() == self.want_tokens
    }

    pub fn ttft_ms(&self) -> Option<f64> {
        self.token_times.first().map(|t| (t - self.due) * 1e3)
    }

    pub fn latency_s(&self) -> f64 {
        self.finished_at - self.due
    }

    /// Mean gap between this request's tokens; `None` with fewer than two.
    pub fn tpot_ms(&self) -> Option<f64> {
        let (first, last) = (self.token_times.first()?, self.token_times.last()?);
        (self.token_times.len() > 1)
            .then(|| (last - first) * 1e3 / (self.token_times.len() - 1) as f64)
    }

    pub fn itl_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_times.windows(2).map(|w| (w[1] - w[0]) * 1e3)
    }
}

pub struct LoadResult {
    /// One per request issued, in issue order.
    pub outcomes: Vec<Outcome>,
    /// Load start → last finish, seconds.
    pub wall: f64,
    /// Worst lateness of an open-loop submission against its due time.
    pub late_ms_max: f64,
    /// The watchdog fired; unfinished streams are marked `stalled`.
    pub stalled: bool,
}

struct Live {
    handle: StreamHandle,
    outcome: Outcome,
    last_event: Instant,
}

/// Drive `load` through `fleet` to completion (or to the stall watchdog).
pub fn run_load(fleet: &Fleet, load: Load<'_>) -> LoadResult {
    let t0 = Instant::now();
    let now_s = |t: Instant| t.duration_since(t0).as_secs_f64();
    let requests = match load {
        Load::Closed { requests, .. } | Load::Open { requests, .. } => requests,
    };
    let mut live: Vec<Live> = Vec::new();
    let mut done: Vec<Outcome> = Vec::new();
    let mut next = 0usize;
    let mut late_ms_max = 0.0f64;
    let mut stalled = false;
    loop {
        let now = Instant::now();
        let t = now_s(now);
        loop {
            let due = match load {
                Load::Closed { clients, .. } => {
                    (live.len() < clients && next < requests.len()).then_some(t)
                }
                Load::Open { due, .. } => due.get(next).copied().filter(|&d| d <= t),
            };
            let Some(due) = due else { break };
            late_ms_max = late_ms_max.max((t - due) * 1e3);
            let req = requests[next].clone();
            let outcome = Outcome {
                idx: next,
                prompt_len: req.prompt.len(),
                want_tokens: req.max_new_tokens,
                priority: req.priority,
                due,
                token_times: Vec::with_capacity(req.max_new_tokens),
                tokens: Vec::with_capacity(req.max_new_tokens),
                finish: None,
                finished_at: 0.0,
                recovering: 0,
                stalled: false,
            };
            live.push(Live {
                handle: fleet.submit(req),
                outcome,
                last_event: now,
            });
            next += 1;
        }
        let mut delivered = false;
        for l in &mut live {
            while let Some(ev) = l.handle.try_recv() {
                let at = Instant::now();
                delivered = true;
                l.last_event = at;
                let o = &mut l.outcome;
                match ev {
                    EngineEvent::TokenEmitted { token, .. } => {
                        o.tokens.push(token);
                        o.token_times.push(now_s(at));
                    }
                    EngineEvent::Recovering { .. } => o.recovering += 1,
                    // Counted by the fleet's own ledger (`FleetReport`).
                    EngineEvent::FaultCorrected { .. }
                    | EngineEvent::CachePoisoned { .. }
                    | EngineEvent::EvictedBlocks { .. }
                    | EngineEvent::Preempted { .. }
                    | EngineEvent::Resumed { .. } => {}
                    EngineEvent::Finished { reason, .. } => {
                        o.finish = Some(reason);
                        o.finished_at = now_s(at);
                    }
                }
            }
        }
        let mut i = 0;
        while i < live.len() {
            if live[i].outcome.finish.is_some() {
                done.push(live.swap_remove(i).outcome);
            } else {
                i += 1;
            }
        }
        if live.is_empty() && next == requests.len() {
            break;
        }
        if live
            .iter()
            .any(|l| now.duration_since(l.last_event) > STALL_AFTER)
        {
            // Dropping the handles abandons the streams; the caller must
            // not join the fleet (a livelocked shard never exits).
            stalled = true;
            let t = now_s(Instant::now());
            for l in live.drain(..) {
                let mut o = l.outcome;
                o.stalled = true;
                o.finished_at = t;
                done.push(o);
            }
            break;
        }
        if !delivered {
            thread::sleep(IDLE_SLEEP);
        }
    }
    done.sort_by_key(|o| o.idx);
    let wall = done.iter().map(|o| o.finished_at).fold(0.0, f64::max);
    LoadResult {
        outcomes: done,
        wall,
        late_ms_max,
        stalled,
    }
}
