//! The abstract out-of-order core.

use std::collections::VecDeque;

use crate::stats::CoreStats;
use crate::trace::{TraceOp, TraceSource};

/// Core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer (instruction window) capacity.
    pub rob: u64,
    /// Dispatch/retire width, instructions per cycle.
    pub width: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig { rob: 128, width: 4 }
    }
}

/// How the memory system answered a just-dispatched access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssue {
    /// Satisfied after `latency` CPU cycles (cache hit, or a posted store).
    Done { latency: u32 },
    /// A DRAM round-trip is in flight; [`Core::complete`] will be called
    /// with the access's load id.
    Pending,
    /// Resources exhausted (MSHRs, controller queue); retry next cycle.
    Retry,
}

/// What the next [`Core::tick`] would do, assuming no completion arrives
/// and no timer fires first: either it can make progress on its own
/// (`Active`), or it is provably stuck until an external event
/// (`Blocked`), reported with the events that could unstick it. Drives
/// the time-skipping core: a `Blocked` core's ticks are no-ops except
/// for stall counters, which [`Core::skip_cycles`] advances in bulk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleState {
    /// The next tick makes progress without external input.
    Active,
    /// Nothing happens until a timer fires, a DRAM completion arrives,
    /// or a repeated memory poll stops returning [`MemIssue::Retry`].
    Blocked {
        /// Lower bound on the earliest `done_at` timer among in-flight
        /// loads, if any: the core must tick at (or before) that cycle.
        /// May be stale-early after a DRAM completion cleared the timer
        /// it tracked — waking early is a no-op tick, never an error.
        timer: Option<u64>,
        /// The memory poll `(vaddr, is_write)` the next tick would
        /// repeat. The caller must prove it keeps returning `Retry`
        /// throughout a skipped window. `None` when the window is full
        /// (the tick polls nothing).
        mem_poll: Option<(u64, bool)>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Load {
    seq: u64,
    id: u64,
    done_at: Option<u64>,
    done: bool,
}

#[derive(Debug, Clone, Copy)]
struct PendingOp {
    seq: u64,
    addr: u64,
    is_write: bool,
}

/// One core: consumes a trace, exposes per-cycle [`Core::tick`].
///
/// Sequence numbers count instructions. `dispatched - retired` is the
/// window occupancy; loads sit in `inflight` until their data arrives and
/// block retirement while at the window head.
pub struct Core {
    cfg: CoreConfig,
    source: Box<dyn TraceSource>,
    /// Seq of the next instruction to dispatch.
    dispatched: u64,
    /// Seq of the next instruction to retire.
    retired: u64,
    /// Stream position: seq the next fetched trace op starts from.
    stream_pos: u64,
    pending: Option<PendingOp>,
    inflight: VecDeque<Load>,
    /// Earliest armed `done_at` among `inflight` (`u64::MAX` when none):
    /// lets `tick` skip the timer sweep until one can actually fire. May
    /// go stale-early when `complete` clears a timer — the sweep then
    /// simply finds nothing and re-derives the true minimum.
    next_timer: u64,
    next_load_id: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cfg", &self.cfg)
            .field("dispatched", &self.dispatched)
            .field("retired", &self.retired)
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl Core {
    /// Build a core reading from `source`.
    pub fn new(cfg: CoreConfig, source: Box<dyn TraceSource>) -> Self {
        assert!(cfg.rob > 0 && cfg.width > 0, "rob and width must be positive");
        Core {
            cfg,
            source,
            dispatched: 0,
            retired: 0,
            stream_pos: 0,
            pending: None,
            inflight: VecDeque::new(),
            next_timer: u64::MAX,
            next_load_id: 0,
            stats: CoreStats::default(),
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Upper bound on instructions retired in one tick (the pipeline
    /// width). Time-skipping uses it to fence a forwarded compute window
    /// off any retired-instruction threshold observed by the run loop.
    pub fn max_retire_per_cycle(&self) -> u64 {
        u64::from(self.cfg.width)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Outstanding (not yet completed) loads — the core's instantaneous
    /// memory-level parallelism.
    pub fn outstanding_loads(&self) -> usize {
        self.inflight.iter().filter(|l| !l.done).count()
    }

    /// Mark the load identified by `load_id` complete (DRAM data arrived).
    pub fn complete(&mut self, load_id: u64) {
        for l in &mut self.inflight {
            if l.id == load_id {
                l.done = true;
                l.done_at = None;
                return;
            }
        }
        debug_assert!(false, "completion for unknown load {load_id}");
    }

    /// Classify what the next tick would do (pure; mirrors the control
    /// flow of [`Core::tick`] without running it).
    pub fn idle_state(&self) -> IdleState {
        if self.dispatched > self.retired {
            match self.inflight.front() {
                Some(front) if front.seq == self.retired => {
                    if front.done {
                        // Width-limited leftover: it retires next tick.
                        return IdleState::Active;
                    }
                    // Head-of-window load outstanding: retire is blocked.
                }
                // A compute gap (or no load at all) retires next tick.
                _ => return IdleState::Active,
            }
        }
        // `next_timer` is a maintained lower bound on the sweep's answer
        // (exact unless a completion cleared the tracked timer), so the
        // O(inflight) sweep is avoided on this per-skip-attempt path.
        let timer = (self.next_timer != u64::MAX).then_some(self.next_timer);
        if self.dispatched - self.retired >= self.cfg.rob {
            return IdleState::Blocked { timer, mem_poll: None };
        }
        match self.pending {
            // Next tick fetches from the trace (mutates the source).
            None => IdleState::Active,
            // Compute instructions before the memory op dispatch freely.
            Some(p) if self.dispatched < p.seq => IdleState::Active,
            Some(p) => IdleState::Blocked { timer, mem_poll: Some((p.addr, p.is_write)) },
        }
    }

    /// Bulk-equivalent of `k` consecutive ticks taken in a
    /// [`IdleState::Blocked`] state whose poll (if any) kept returning
    /// [`MemIssue::Retry`], with no timer firing and no completion
    /// arriving inside the window: exactly the stall counters `k`
    /// stepped ticks would have advanced, and nothing else.
    pub fn skip_cycles(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        debug_assert!(matches!(self.idle_state(), IdleState::Blocked { .. }));
        self.stats.cycles += k;
        if self.dispatched > self.retired {
            // retire() finds the head-of-window load outstanding.
            self.stats.retire_stall_cycles += k;
        }
        if self.dispatched - self.retired >= self.cfg.rob {
            self.stats.window_full_cycles += k;
        } else {
            self.stats.mem_retry_cycles += k;
        }
    }

    /// Number of upcoming ticks guaranteed not to reach a memory
    /// dispatch, assuming no external completion arrives in between (the
    /// caller must ensure none does). Zero means the very next tick might
    /// call `mem`.
    ///
    /// Fetches the next trace op into the one-op lookahead slot when it
    /// is empty (and the window has room, mirroring `dispatch`): the op
    /// is consumed in the same order either way, so core behaviour is
    /// unchanged — only the cycle at which the fetch happens moves, and
    /// that cycle is not observable outside the core.
    pub fn compute_horizon(&mut self) -> u64 {
        if self.pending.is_none() && self.dispatched - self.retired < self.cfg.rob {
            let TraceOp { gap, addr, is_write } = self.source.next_op();
            let seq = self.stream_pos + u64::from(gap);
            self.stream_pos = seq + 1;
            self.pending = Some(PendingOp { seq, addr, is_write });
        }
        match self.pending {
            None => 0,
            // Dispatch advances at most `width` per tick, so the memory
            // op at `p.seq` stays out of reach for this many ticks even
            // if every one of them dispatches at full width.
            Some(p) => (p.seq - self.dispatched) / u64::from(self.cfg.width),
        }
    }

    /// Exactly the effect of `ticks` consecutive ordinary ticks starting
    /// at cycle `start`, none of which may reach a memory dispatch.
    /// Callers bound `ticks` by [`Core::compute_horizon`]; a tick that
    /// would dispatch the pending memory op panics, because the caller
    /// broke that contract.
    ///
    /// With no memory dispatch and no completion arriving, a tick's
    /// effect stays constant between events (a timer sweep, retirement
    /// reaching the first outstanding load, the window filling), so runs
    /// of identical ticks are applied in O(1) and only the transition
    /// ticks between them execute as ordinary [`Core::tick`]s:
    ///
    /// - streaming: retire and dispatch `c` each, occupancy unchanged,
    ///   where `c = width` (occupancy ≥ width) or `c = rob < width`
    ///   (window full after every tick's dispatch);
    /// - head-blocked with room: dispatch `width`, retire stalls;
    /// - head-blocked, window full: retire stalls, dispatch stalls.
    pub fn forward(&mut self, start: u64, ticks: u64) {
        let mut nomem = |_: u64, _: bool, _: u64| -> MemIssue {
            unreachable!("forward() tick reached a memory dispatch")
        };
        let width = u64::from(self.cfg.width);
        let end = start + ticks;
        let mut now = start;
        while now < end {
            let run = match self.pending {
                Some(p) if self.next_timer > now => {
                    // Ticks that provably stop short of the memory op; a
                    // caller overrunning its horizon falls through to
                    // ordinary ticks, which panic where stepping would.
                    let limit =
                        (end.min(self.next_timer) - now).min((p.seq - self.dispatched) / width);
                    self.compute_run(limit)
                }
                // A timer sweep (or a trace fetch) is due: a transition.
                _ => 0,
            };
            if run == 0 {
                self.tick(now, &mut nomem);
                now += 1;
            } else {
                self.stats.cycles += run;
                now += run;
            }
        }
        self.stats.retired = self.retired;
    }

    /// Apply up to `limit` identical memory-free ticks in closed form and
    /// return how many were applied; zero means the next tick is a
    /// transition (its effect differs from the one after it) and must
    /// run as an ordinary tick. The caller guarantees no timer fires and
    /// no dispatch reaches the pending memory op within `limit` ticks,
    /// and charges `stats.cycles`.
    fn compute_run(&mut self, limit: u64) -> u64 {
        let (rob, width) = (self.cfg.rob, u64::from(self.cfg.width));
        let occ = self.dispatched - self.retired;
        // Retirement stops at the first outstanding load; the done loads
        // before it retire like compute instructions.
        let barrier =
            self.inflight.iter().find(|l| !l.done).map_or(u64::MAX, |l| l.seq - self.retired);
        if barrier == 0 {
            // Head-of-window load outstanding: every tick stalls retire.
            let room = rob - occ;
            let run = if room == 0 {
                self.stats.window_full_cycles += limit;
                limit
            } else {
                let run = limit.min(room / width);
                self.dispatched += run * width;
                run
            };
            self.stats.retire_stall_cycles += run;
            return run;
        }
        // Streaming: retire `c`, then dispatch `c` into the freed room.
        let (c, full) = if occ >= width {
            (width, 0)
        } else if occ == rob {
            (rob, 1) // rob < width: the window refills every tick
        } else {
            return 0; // occupancy still ramping up
        };
        let run = limit.min(barrier / c);
        self.retired += run * c;
        self.dispatched += run * c;
        self.stats.window_full_cycles += run * full;
        while self.inflight.front().is_some_and(|l| l.seq < self.retired) {
            debug_assert!(self.inflight[0].done);
            self.inflight.pop_front();
        }
        run
    }

    /// Advance one CPU cycle. `mem` is called for each dispatched memory
    /// access as `mem(vaddr, is_write, load_id)`.
    pub fn tick(&mut self, now: u64, mem: &mut dyn FnMut(u64, bool, u64) -> MemIssue) {
        self.stats.cycles += 1;
        // 1. Timer-based completions (cache hits with latency). The sweep
        // only runs when the earliest armed timer can fire.
        if self.next_timer <= now {
            let mut next = u64::MAX;
            for l in &mut self.inflight {
                if let Some(at) = l.done_at {
                    if at <= now {
                        l.done = true;
                        l.done_at = None;
                    } else {
                        next = next.min(at);
                    }
                }
            }
            self.next_timer = next;
        }
        self.retire();
        self.dispatch(now, mem);
        self.stats.retired = self.retired;
    }

    fn retire(&mut self) {
        let mut budget = u64::from(self.cfg.width);
        let started = self.retired;
        while budget > 0 && self.retired < self.dispatched {
            match self.inflight.front() {
                Some(front) if front.seq == self.retired => {
                    if front.done {
                        self.inflight.pop_front();
                        self.retired += 1;
                        budget -= 1;
                    } else {
                        break; // head-of-window load still outstanding
                    }
                }
                Some(front) => {
                    debug_assert!(front.seq > self.retired);
                    let n =
                        budget.min(front.seq - self.retired).min(self.dispatched - self.retired);
                    self.retired += n;
                    budget -= n;
                }
                None => {
                    let n = budget.min(self.dispatched - self.retired);
                    self.retired += n;
                    budget -= n;
                }
            }
        }
        if self.retired == started && self.dispatched > self.retired {
            self.stats.retire_stall_cycles += 1;
        }
    }

    fn dispatch(&mut self, now: u64, mem: &mut dyn FnMut(u64, bool, u64) -> MemIssue) {
        let mut budget = u64::from(self.cfg.width);
        while budget > 0 {
            if self.dispatched - self.retired >= self.cfg.rob {
                self.stats.window_full_cycles += 1;
                return;
            }
            if self.pending.is_none() {
                let TraceOp { gap, addr, is_write } = self.source.next_op();
                let seq = self.stream_pos + u64::from(gap);
                self.stream_pos = seq + 1;
                self.pending = Some(PendingOp { seq, addr, is_write });
            }
            let p = self.pending.expect("just fetched");
            if self.dispatched < p.seq {
                // Dispatch compute instructions up to the memory op.
                let room = self.cfg.rob - (self.dispatched - self.retired);
                let n = budget.min(p.seq - self.dispatched).min(room);
                self.dispatched += n;
                budget -= n;
                continue;
            }
            debug_assert_eq!(self.dispatched, p.seq);
            let id = self.next_load_id;
            match mem(p.addr, p.is_write, id) {
                MemIssue::Retry => {
                    self.stats.mem_retry_cycles += 1;
                    return;
                }
                MemIssue::Done { latency } => {
                    if p.is_write {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                        self.next_load_id += 1;
                        let at = now + u64::from(latency);
                        self.next_timer = self.next_timer.min(at);
                        self.inflight.push_back(Load {
                            seq: p.seq,
                            id,
                            done_at: Some(at),
                            done: latency == 0,
                        });
                    }
                    self.dispatched += 1;
                    budget -= 1;
                    self.pending = None;
                }
                MemIssue::Pending => {
                    if p.is_write {
                        self.stats.stores += 1;
                        // Posted store: the window slot frees immediately.
                    } else {
                        self.stats.loads += 1;
                        self.inflight.push_back(Load {
                            seq: p.seq,
                            id,
                            done_at: None,
                            done: false,
                        });
                    }
                    self.next_load_id += 1;
                    self.dispatched += 1;
                    budget -= 1;
                    self.pending = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ReplaySource;

    fn compute_only_core(rob: u64, width: u32) -> Core {
        let src = ReplaySource::new(vec![TraceOp { gap: 999, addr: 0, is_write: false }]);
        Core::new(CoreConfig { rob, width }, Box::new(src))
    }

    #[test]
    fn compute_retires_at_width() {
        let mut c = compute_only_core(128, 4);
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 1 };
        for now in 0..100 {
            c.tick(now, &mut mem);
        }
        // Steady state: 4 IPC (minus pipeline fill).
        assert!(c.retired() >= 4 * 98);
    }

    #[test]
    fn hit_latency_is_hidden_by_window() {
        // gap 8, hits of latency 2: the window covers the latency, IPC ~ width.
        let src = ReplaySource::new(vec![TraceOp { gap: 8, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 64, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 2 };
        for now in 0..1000 {
            c.tick(now, &mut mem);
        }
        let ipc = c.retired() as f64 / 1000.0;
        assert!(ipc > 3.0, "ipc {ipc}");
    }

    #[test]
    fn pending_load_blocks_retirement() {
        // Every op is a load that never completes: the core dispatches up
        // to the window limit and stops retiring.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 16, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..100 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.retired(), 0);
        assert_eq!(c.outstanding_loads(), 16); // window full of loads
        assert!(c.stats().window_full_cycles > 0);
    }

    #[test]
    fn completion_unblocks_retirement() {
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 4, width: 4 }, Box::new(src));
        let mut ids = Vec::new();
        let mut mem = |_a: u64, _w: bool, id: u64| {
            ids.push(id);
            MemIssue::Pending
        };
        for now in 0..10 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.retired(), 0);
        for id in ids {
            c.complete(id);
        }
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Retry;
        for now in 10..12 {
            c.tick(now, &mut mem);
        }
        assert!(c.retired() >= 4);
    }

    #[test]
    fn window_bounds_mlp() {
        let src = ReplaySource::new(vec![TraceOp { gap: 3, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 16, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..100 {
            c.tick(now, &mut mem);
        }
        // gap 3 + 1 load per 4 slots -> at most 4 loads in a 16-entry window.
        assert_eq!(c.outstanding_loads(), 4);
    }

    #[test]
    fn stores_do_not_block() {
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: true }]);
        let mut c = Core::new(CoreConfig { rob: 8, width: 2 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..50 {
            c.tick(now, &mut mem);
        }
        assert!(c.retired() > 50, "stores must retire without waiting");
        assert!(c.stats().stores > 0);
    }

    #[test]
    fn retry_stalls_dispatch() {
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 8, width: 2 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Retry;
        for now in 0..20 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.stats().loads, 0);
        assert!(c.stats().mem_retry_cycles > 0);
    }

    #[test]
    fn idle_state_reports_progress_and_blockage() {
        // Retry-blocked on a load: Blocked with the poll exposed.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 8, width: 2 }, Box::new(src));
        assert_eq!(c.idle_state(), IdleState::Active, "fresh core fetches");
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Retry;
        c.tick(0, &mut mem);
        assert_eq!(c.idle_state(), IdleState::Blocked { timer: None, mem_poll: Some((64, false)) });

        // Window full of pending loads: Blocked with no poll.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 4, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..4 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.idle_state(), IdleState::Blocked { timer: None, mem_poll: None });

        // A done_at timer shows up as the wake point.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 1, width: 1 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 50 };
        c.tick(0, &mut mem);
        assert_eq!(c.idle_state(), IdleState::Blocked { timer: Some(50), mem_poll: None });
    }

    #[test]
    fn skip_cycles_matches_stepped_blocked_ticks() {
        let build = |mode: usize| -> Core {
            let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
            let rob = if mode == 0 { 8 } else { 4 };
            let mut c = Core::new(CoreConfig { rob, width: 4 }, Box::new(src));
            // mode 0: park on Retry; mode 1: fill the window with Pending.
            let mut mem = |_a: u64, _w: bool, _id: u64| {
                if mode == 0 {
                    MemIssue::Retry
                } else {
                    MemIssue::Pending
                }
            };
            for now in 0..4 {
                c.tick(now, &mut mem);
            }
            assert!(matches!(c.idle_state(), IdleState::Blocked { .. }));
            c
        };
        for mode in 0..2 {
            let mut stepped = build(mode);
            let mut skipped = build(mode);
            let mut mem = |_a: u64, _w: bool, _id: u64| {
                if mode == 0 {
                    MemIssue::Retry
                } else {
                    MemIssue::Pending
                }
            };
            for now in 4..104 {
                stepped.tick(now, &mut mem);
            }
            skipped.skip_cycles(100);
            assert_eq!(stepped.stats(), skipped.stats(), "mode {mode}");
            assert_eq!(stepped.idle_state(), skipped.idle_state());
        }
    }

    #[test]
    fn forward_matches_stepped_compute() {
        let mk = || {
            let src = ReplaySource::new(vec![TraceOp { gap: 37, addr: 64, is_write: false }]);
            Core::new(CoreConfig { rob: 32, width: 4 }, Box::new(src))
        };
        let mut mem = |_: u64, _: bool, _: u64| MemIssue::Done { latency: 3 };
        let mut stepped = mk();
        for now in 0..400 {
            stepped.tick(now, &mut mem);
        }
        let mut fast = mk();
        let mut now = 0u64;
        while now < 400 {
            let h = fast.compute_horizon().min(400 - now);
            if h == 0 {
                fast.tick(now, &mut mem);
                now += 1;
            } else {
                fast.forward(now, h);
                now += h;
            }
        }
        assert_eq!(stepped.stats(), fast.stats());
        assert_eq!(stepped.retired(), fast.retired());
    }

    #[test]
    #[should_panic(expected = "reached a memory dispatch")]
    fn forward_past_the_horizon_panics() {
        let src = ReplaySource::new(vec![TraceOp { gap: 10, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 32, width: 4 }, Box::new(src));
        assert_eq!(c.compute_horizon(), 2);
        c.forward(0, 4);
    }

    #[test]
    fn ipc_degrades_with_memory_latency() {
        // Same trace, two latencies: higher latency must not raise IPC.
        let run = |lat: u32| {
            let src = ReplaySource::new(vec![TraceOp { gap: 10, addr: 64, is_write: false }]);
            let mut c = Core::new(CoreConfig::default(), Box::new(src));
            let mut mem = move |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: lat };
            for now in 0..2000 {
                c.tick(now, &mut mem);
            }
            c.retired()
        };
        assert!(run(2) >= run(200));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::trace::ReplaySource;
    use dbp_util::prop::{any_bool, check, range, vec_of, CaseResult, Config, Gen};
    use dbp_util::{prop_assert, prop_assert_eq};

    fn arb_trace() -> impl Gen<Value = Vec<TraceOp>> {
        vec_of(
            (range(0u32..50), range(0u64..1_000_000), any_bool())
                .map(|(gap, page, is_write)| TraceOp { gap, addr: page << 6, is_write }),
            1..40,
        )
    }

    /// The window bound holds for any trace and any memory behaviour:
    /// outstanding loads never exceed the ROB, and retired count is
    /// monotone and bounded by dispatch.
    fn window_invariants(
        trace: Vec<TraceOp>,
        rob: u64,
        width: u32,
        latencies: &[u32],
    ) -> CaseResult {
        let mut core = Core::new(CoreConfig { rob, width }, Box::new(ReplaySource::new(trace)));
        let mut k = 0usize;
        let mut pending: Vec<u64> = Vec::new();
        let mut last_retired = 0;
        for now in 0..400u64 {
            let mut issued = Vec::new();
            let mut mem = |_a: u64, is_write: bool, id: u64| {
                k += 1;
                match k % 3 {
                    0 => MemIssue::Retry,
                    1 => MemIssue::Done { latency: latencies[k % latencies.len()] },
                    _ => {
                        if !is_write {
                            // Only loads produce completion callbacks.
                            issued.push(id);
                        }
                        MemIssue::Pending
                    }
                }
            };
            core.tick(now, &mut mem);
            pending.extend(issued);
            // Randomly complete one pending load.
            if now % 7 == 0 {
                if let Some(id) = pending.pop() {
                    core.complete(id);
                }
            }
            prop_assert!(core.outstanding_loads() as u64 <= rob);
            prop_assert!(core.retired() >= last_retired, "retirement is monotone");
            last_retired = core.retired();
        }
        Ok(())
    }

    #[test]
    fn window_invariants_hold() {
        let g = (arb_trace(), range(1u64..64), range(1u32..8), vec_of(range(0u32..400), 8..9));
        check(Config::cases(64), &g, |(trace, rob, width, latencies)| {
            window_invariants(trace, rob, width, &latencies)
        });
    }

    /// Regression: the shrunk counterexample recorded by the old proptest
    /// harness in `proptest-regressions/core_model.txt` — a single
    /// zero-gap store through a minimal (ROB 1, width 1) window with
    /// instant memory.
    #[test]
    fn regression_single_store_minimal_window() {
        window_invariants(vec![TraceOp { gap: 0, addr: 0, is_write: true }], 1, 1, &[0; 8])
            .unwrap();
    }

    /// A scripted memory system: answers cycle through `answers`; loads
    /// answered `Pending` queue up and complete oldest-first when asked.
    struct ScriptedMem<'a> {
        answers: &'a [MemIssue],
        calls: usize,
        outstanding: VecDeque<u64>,
    }

    impl ScriptedMem<'_> {
        fn tick(&mut self, core: &mut Core, now: u64) {
            let mut mem = |_a: u64, is_write: bool, id: u64| {
                let a = self.answers[self.calls % self.answers.len()];
                self.calls += 1;
                if a == MemIssue::Pending && !is_write {
                    self.outstanding.push_back(id);
                }
                a
            };
            core.tick(now, &mut mem);
            if now % 5 == 0 {
                if let Some(id) = self.outstanding.pop_front() {
                    core.complete(id);
                }
            }
        }
    }

    fn same_state(fast: &Core, stepped: &Core, at: &str) -> CaseResult {
        prop_assert_eq!(fast.stats(), stepped.stats(), "stats {at}");
        prop_assert_eq!(fast.retired(), stepped.retired(), "retired {at}");
        prop_assert_eq!(fast.idle_state(), stepped.idle_state(), "idle_state {at}");
        prop_assert_eq!(fast.outstanding_loads(), stepped.outstanding_loads(), "loads {at}");
        Ok(())
    }

    /// `forward(start, k)` is exactly `k` memory-free ticks: after random
    /// pre-window traffic (hit timers and DRAM-outstanding loads live),
    /// windows split at random inside each `compute_horizon` leave both
    /// cores identical — and identical for 200 further memory ticks, so
    /// any drift in `inflight` or `next_timer` would surface.
    fn forward_equals_ticks(
        trace: Vec<TraceOp>,
        (rob, width): (u64, u32),
        answers: &[MemIssue],
        pre: u64,
        splits: &[u64],
    ) -> CaseResult {
        let mk =
            || Core::new(CoreConfig { rob, width }, Box::new(ReplaySource::new(trace.clone())));
        let (mut fast, mut stepped) = (mk(), mk());
        let mem = || ScriptedMem { answers, calls: 0, outstanding: VecDeque::new() };
        let (mut fast_mem, mut stepped_mem) = (mem(), mem());
        let mut nomem = |_: u64, _: bool, _: u64| -> MemIssue { unreachable!() };
        let mut now = 0;
        while now < pre {
            fast_mem.tick(&mut fast, now);
            stepped_mem.tick(&mut stepped, now);
            now += 1;
        }
        for &s in splits {
            let h = fast.compute_horizon();
            prop_assert_eq!(h, stepped.compute_horizon());
            if h == 0 {
                fast_mem.tick(&mut fast, now);
                stepped_mem.tick(&mut stepped, now);
                now += 1;
            } else {
                let k = 1 + s % h;
                fast.forward(now, k);
                for t in now..now + k {
                    stepped.tick(t, &mut nomem);
                }
                now += k;
            }
            same_state(&fast, &stepped, &format!("after window ending at {now}"))?;
        }
        for _ in 0..200 {
            fast_mem.tick(&mut fast, now);
            stepped_mem.tick(&mut stepped, now);
            now += 1;
        }
        same_state(&fast, &stepped, "200 ticks after the windows")
    }

    #[test]
    fn forward_equals_stepped_ticks() {
        let answer = (any_bool(), range(0u32..200)).map(|(dram, latency)| {
            if dram {
                MemIssue::Pending
            } else {
                MemIssue::Done { latency }
            }
        });
        let trace = vec_of(
            (range(0u32..301), range(0u64..1_000_000), any_bool())
                .map(|(gap, page, is_write)| TraceOp { gap, addr: page << 6, is_write }),
            1..40,
        );
        let g = (
            (trace, range(1u64..257), range(1u32..9)),
            vec_of(answer, 1..16),
            range(0u64..300),
            vec_of(range(0u64..1000), 1..60),
        );
        check(Config::cases(256), &g, |((trace, rob, width), answers, pre, splits)| {
            forward_equals_ticks(trace, (rob, width), &answers, pre, &splits)
        });
    }

    /// With every access hitting instantly, IPC approaches the width.
    #[test]
    fn ideal_memory_reaches_peak_ipc() {
        check(Config::cases(64), &range(1u32..6), |width| {
            let trace = vec![TraceOp { gap: 10, addr: 64, is_write: false }];
            let mut core =
                Core::new(CoreConfig { rob: 256, width }, Box::new(ReplaySource::new(trace)));
            let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 0 };
            let cycles = 2000u64;
            for now in 0..cycles {
                core.tick(now, &mut mem);
            }
            let ipc = core.retired() as f64 / cycles as f64;
            prop_assert!(ipc > f64::from(width) * 0.9, "ipc {ipc} width {width}");
            Ok(())
        });
    }
}
