//! The composed system and its cycle loop.

use std::collections::VecDeque;

use dbp_cache::{AccessLevel, Hierarchy, Mshr};
use dbp_core::policy::PartitionPolicy;
use dbp_core::{ColorTopology, ThreadMemProfile};
use dbp_cpu::{Core, MemIssue, TraceSource};
use dbp_dram::DramStats;
use dbp_memctrl::{Completion, MemRequest, MemoryController, ThreadProf};
use dbp_obs::{EpochSample, EventKind, FxHashMap, Prof, Recorder, RecorderConfig, ThreadSample};
use dbp_osmem::{ColorSet, MemoryManager, MigrationJob, OsStats};

use crate::audit::ShadowRack;
use crate::config::{MigrationCost, SimConfig};
use crate::metrics::{RunResult, ThreadResult};

/// System-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SysStats {
    /// Repartitioning epochs executed.
    pub repartitions: u64,
    /// Migration copy requests injected into the controller.
    pub migration_requests: u64,
}

/// One simulated CMP: cores, private caches, OS memory manager, memory
/// controller, DRAM, and a partitioning policy.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    caches: Vec<Hierarchy>,
    mshrs: Vec<Mshr>,
    /// Per core: line address -> load ids waiting on the fill.
    waiting: Vec<FxHashMap<u64, Vec<u64>>>,
    osmem: MemoryManager,
    ctrl: MemoryController,
    policy: Box<dyn PartitionPolicy>,
    topo: ColorTopology,
    last_plan: Option<Vec<ColorSet>>,
    /// Request id -> (core, line) for demand-read completions.
    req_map: FxHashMap<u64, (usize, u64)>,
    next_req_id: u64,
    /// Copy traffic waiting for queue space: (thread, addr, is_write).
    migration_backlog: VecDeque<(usize, u64, bool)>,
    /// Per core: the last full poll evaluation proved "probe miss, no
    /// MSHR merge, MSHR full" — a verdict that cannot change until a
    /// completion is delivered to this core (frees an MSHR slot, fills
    /// the cache) or a repartition (remaps pages, refills migration
    /// budget), so repeat polls can return `Retry` without re-walking
    /// page table, caches and queues. Only consulted when time skipping
    /// is on: the stepped reference path stays a plain interpreter so
    /// the CI cross-check would expose a stale-verdict bug here.
    poll_stuck: Vec<bool>,
    /// Per core, scratch for [`System::maybe_skip`]'s forward plan: the
    /// core is in a compute phase and is forwarded through a jumped
    /// window (`true`) rather than bulk-stalled (`false`).
    forward_plan: Vec<bool>,
    last_fed_instr: Vec<u64>,
    cycle: u64,
    finish_cycle: Vec<Option<u64>>,
    completions: Vec<Completion>,
    stats: SysStats,
    // Measurement window (set when warmup ends).
    measure_start: u64,
    base_retired: Vec<u64>,
    prof_base: Vec<ThreadProf>,
    dram_base: Option<DramStats>,
    os_base: OsStats,
    sys_base: SysStats,
    rec: Recorder,
    /// Decision audit layer (shadow policies + estimator accuracy +
    /// convergence), built only when the recorder asked for it
    /// ([`RecorderConfig::audit`]). Observation-only: the byte-identity
    /// property tests hold attached-vs-detached runs equal.
    audit: Option<ShadowRack>,
    /// Host-side self-profiler (wall-clock spans + work counters); named
    /// `host_prof` because `ctrl.prof()` is the *simulated* per-thread
    /// DRAM profiler — the two measure different worlds.
    host_prof: Prof,
    ctr_cycles: dbp_obs::prof::Counter,
    ctr_skipped: dbp_obs::prof::Counter,
    /// Event-driven time skipping (see [`System::maybe_skip`]). On by
    /// default; disabled by `DBP_NO_SKIP` or [`System::set_time_skip`]
    /// for stepped-reference cross-checks.
    time_skip: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl System {
    /// Build a system with one core per trace.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is invalid.
    pub fn new(cfg: SimConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        // Back-compat: DBP_TRACE_PLAN used to switch on an ad-hoc eprintln
        // dump of each epoch's profiles and plan; it now enables a recorder
        // that pretty-prints the same (structured) events to stderr.
        let rec = if std::env::var_os("DBP_TRACE_PLAN").is_some() {
            Recorder::new(RecorderConfig { stderr_echo: true, ..Default::default() })
        } else {
            Recorder::disabled()
        };
        Self::with_recorder(cfg, traces, rec)
    }

    /// Build a system that emits telemetry into `rec` (see [`dbp_obs`]).
    /// The recorder handle is cloned into every instrumented layer:
    /// policy, OS memory manager, and memory scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is invalid.
    pub fn with_recorder(cfg: SimConfig, traces: Vec<Box<dyn TraceSource>>, rec: Recorder) -> Self {
        Self::with_instrumentation(cfg, traces, rec, Prof::disabled())
    }

    /// Build a system that emits telemetry into `rec` *and* host-side
    /// self-profiling spans/counters into `prof` (see [`dbp_obs::Prof`]).
    /// Profiling only observes wall time: the simulated outcome is
    /// byte-identical with `prof` enabled or disabled.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is invalid.
    pub fn with_instrumentation(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        rec: Recorder,
        prof: Prof,
    ) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert!(!traces.is_empty(), "at least one trace required");
        let n = traces.len();
        let topo = ColorTopology::from_dram(&cfg.dram);
        let mut policy = cfg.policy.build();
        policy.attach_recorder(rec.clone());
        let mut osmem = MemoryManager::new(&cfg.dram, n, cfg.migration_mode);
        osmem.attach_recorder(rec.clone());
        // Install the policy's cold-start plan before any page is touched,
        // so static policies (equal split) are in force from cycle 0.
        let cold = vec![ThreadMemProfile::default(); n];
        let plan = policy.partition(&cold, &topo, None);
        for (t, colors) in plan.iter().enumerate() {
            osmem.set_partition(t, *colors);
        }
        let dram = dbp_dram::Dram::new(cfg.dram.clone());
        let mut ctrl = MemoryController::new(dram, cfg.ctrl, cfg.scheduler.build(n), n);
        ctrl.attach_recorder(rec.clone());
        ctrl.attach_profiler(&prof);
        let ctr_cycles = prof.counter("sim/cycles_stepped");
        let ctr_skipped = prof.counter("sim/cycles_skipped");
        // Any value (even "0") disables skipping: the variable is a CI
        // cross-check switch, not a tristate.
        let time_skip = std::env::var_os("DBP_NO_SKIP").is_none();
        let audit = if rec.audit_requested() {
            Some(ShadowRack::standard(&cfg, &topo, &plan))
        } else {
            None
        };
        System {
            cores: traces.into_iter().map(|t| Core::new(cfg.core, t)).collect(),
            caches: (0..n).map(|_| Hierarchy::new(cfg.hierarchy)).collect(),
            mshrs: (0..n).map(|_| Mshr::new(cfg.mshrs)).collect(),
            waiting: (0..n).map(|_| FxHashMap::default()).collect(),
            last_plan: Some(plan),
            req_map: FxHashMap::default(),
            next_req_id: 0,
            migration_backlog: VecDeque::new(),
            poll_stuck: vec![false; n],
            forward_plan: vec![false; n],
            last_fed_instr: vec![0; n],
            cycle: 0,
            finish_cycle: vec![None; n],
            completions: Vec::new(),
            stats: SysStats::default(),
            measure_start: 0,
            base_retired: vec![0; n],
            prof_base: vec![ThreadProf::default(); n],
            dram_base: None,
            os_base: OsStats::default(),
            sys_base: SysStats::default(),
            osmem,
            ctrl,
            policy,
            topo,
            cfg,
            rec,
            audit,
            host_prof: prof,
            ctr_cycles,
            ctr_skipped,
            time_skip,
        }
    }

    /// Enable or disable event-driven time skipping. Skipping never
    /// changes simulated outcomes (that is the invariant `DBP_NO_SKIP=1`
    /// CI runs exist to police), only wall-clock speed.
    pub fn set_time_skip(&mut self, on: bool) {
        self.time_skip = on;
    }

    /// The telemetry recorder this system emits into (disabled unless
    /// built via [`System::with_recorder`] or `DBP_TRACE_PLAN`).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The host-side self-profiler this system reports into (disabled
    /// unless built via [`System::with_instrumentation`]).
    pub fn profiler(&self) -> &Prof {
        &self.host_prof
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current CPU cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// System counters.
    pub fn stats(&self) -> &SysStats {
        &self.stats
    }

    /// The controller (for inspection).
    pub fn ctrl(&self) -> &MemoryController {
        &self.ctrl
    }

    /// The OS memory manager (for inspection).
    pub fn osmem(&self) -> &MemoryManager {
        &self.osmem
    }

    /// The plan currently in force.
    pub fn current_plan(&self) -> Option<&[ColorSet]> {
        self.last_plan.as_deref()
    }

    /// Run the warmup phase, then measure until every core reaches the
    /// instruction target (or the cycle cap) and return the result.
    pub fn run(&mut self) -> RunResult {
        if self.cfg.warmup_instructions > 0 {
            let _phase = self.host_prof.span("sim/warmup");
            let warm = self.cfg.warmup_instructions;
            // Warmup must also span several repartition epochs (plus one
            // cycle, so no epoch boundary coincides with measurement
            // start): a dynamic policy's plan — smoothed and debounced —
            // needs a few epochs to settle, and its settling migrations
            // belong to warmup, not to the measured steady state.
            let min_cycles = 4 * self.cfg.epoch_cpu_cycles + 1;
            while self.cycle < self.cfg.max_cpu_cycles
                && (self.cycle < min_cycles || self.cores.iter().any(|c| c.retired() < warm))
            {
                self.step();
                // The skip bound is derived from the *post-step* state: a
                // loop exit condition must never be jumped over. While a
                // core is still short of the warmup target only the cycle
                // cap can end the loop; once all cores are warm the jump
                // must land exactly on the min-cycle clamp, because
                // measurement starts there.
                let behind = self.cores.iter().any(|c| c.retired() < warm);
                if self.cycle < self.cfg.max_cpu_cycles && (behind || self.cycle < min_cycles) {
                    let bound = if behind { self.cfg.max_cpu_cycles } else { min_cycles };
                    self.maybe_skip(bound);
                }
            }
            self.begin_measurement();
        }
        {
            let _phase = self.host_prof.span("sim/measure");
            while self.cycle < self.cfg.max_cpu_cycles
                && self.finish_cycle.iter().any(Option::is_none)
            {
                self.step();
                // Same post-step guard: if the step just finished the last
                // core, stepped mode exits here — a jump would inflate the
                // final cycle count.
                if self.finish_cycle.iter().any(Option::is_none) {
                    self.maybe_skip(self.cfg.max_cpu_cycles);
                }
            }
        }
        let _phase = self.host_prof.span("sim/collect");
        self.collect()
    }

    /// Reset the measurement window to start *now* (end of warmup).
    fn begin_measurement(&mut self) {
        self.feed_instructions();
        // Measurement covers the steady state: finish any in-flight
        // partition transition instantly (and costlessly) so it is not
        // charged to an arbitrary slice of the measured window.
        self.osmem.conform_all();
        self.migration_backlog.clear();
        self.poll_stuck.fill(false);
        if let Some(rack) = &mut self.audit {
            rack.note_measurement_start(self.stats.repartitions);
        }
        self.measure_start = self.cycle;
        for i in 0..self.cores.len() {
            self.base_retired[i] = self.cores[i].retired();
            self.prof_base[i] = self.ctrl.prof().cumulative(i);
            self.finish_cycle[i] = None;
        }
        self.dram_base = Some(self.ctrl.dram().stats().clone());
        self.os_base = *self.osmem.stats();
        self.sys_base = self.stats;
        // Latency anatomy measures the steady state only; in-flight
        // requests keep their wait accumulators so breakdowns of reads
        // spanning the warmup boundary stay sum-exact.
        self.ctrl.reset_latency();
    }

    /// Advance exactly one CPU cycle (exposed for tests and tooling).
    ///
    /// Dispatches once on whether the host profiler is live: the
    /// `PROF = false` monomorphisation contains no span or counter code
    /// at all, so a disabled profiler costs one predictable branch per
    /// cycle here (plus one per controller tick) — not a guard pair per
    /// phase.
    pub fn step(&mut self) {
        if self.host_prof.is_enabled() {
            self.step_impl::<true>();
        } else {
            self.step_impl::<false>();
        }
    }

    /// Advance one cycle, then — when time skipping is enabled and every
    /// component is provably idle — jump to the next cycle at which
    /// anything can happen, but never to or past `bound`.
    ///
    /// Counters charged per cycle (core stall anatomy, controller idle
    /// time, bank-level-parallelism sampling) are bulk-advanced over the
    /// jumped window, so outcomes are byte-identical to calling
    /// [`System::step`] `bound - cycle` times; only wall-clock changes.
    pub fn advance(&mut self, bound: u64) {
        self.step();
        self.maybe_skip(bound);
    }

    /// Jump `cycle` forward to the next possibly-interesting cycle, or do
    /// nothing if any component could act (or observe new state) before
    /// it. See DESIGN.md "Event-driven time skipping" for the calendar
    /// and the no-state-change proof obligations.
    fn maybe_skip(&mut self, bound: u64) {
        if !self.time_skip {
            return;
        }
        let cur = self.cycle;
        if cur >= bound {
            return;
        }
        let n = self.cores.len();
        // Gate 1: every core must be either blocked — with any memory
        // poll provably stuck at `Retry` for the whole window — or in a
        // compute phase with a provable memory-free horizon. The blocked
        // re-check mirrors `tick_cores`' pre-flight on *pure* views only:
        // a peek that could allocate/migrate, a probe that would hit, or
        // a free resource all mean the next tick mutates shared state —
        // no skip.
        let channels = self.cfg.dram.channels;
        let write_cap = self.cfg.ctrl.write_q_cap;
        let warm = self.cfg.warmup_instructions;
        let mut target = bound;
        for i in 0..n {
            match self.cores[i].idle_state() {
                dbp_cpu::IdleState::Blocked { timer, mem_poll } => {
                    self.forward_plan[i] = false;
                    if let Some(t) = timer {
                        target = target.min(t);
                    }
                    let Some((vaddr, _)) = mem_poll else { continue };
                    if self.poll_stuck[i] {
                        continue; // memoised stuck verdict, still valid
                    }
                    let Some(pa) = self.osmem.peek(i, vaddr) else {
                        return;
                    };
                    let line = pa & !63;
                    if self.caches[i].probe(pa) || self.mshrs[i].contains(line) {
                        return; // would hit or merge: the poll makes progress
                    }
                    let would_retry = self.mshrs[i].is_full()
                        || !self.ctrl.can_accept(self.ctrl.channel_of(line), false)
                        || (0..channels).any(|ch| self.ctrl.queue_len(ch, true) + 2 > write_cap);
                    if !would_retry {
                        return; // the poll would enqueue next tick
                    }
                }
                dbp_cpu::IdleState::Active => {
                    // Compute phase: `Core::forward` advances the window
                    // exactly as ordinary ticks would, so the core's own
                    // timers fire internally and need no calendar entry —
                    // only its next possible memory dispatch bounds the
                    // jump.
                    let h = self.cores[i].compute_horizon();
                    if h == 0 {
                        return;
                    }
                    self.forward_plan[i] = true;
                    target = target.min(cur + h);
                    // Forwarded ticks retire instructions, but the warmup
                    // exit (`run`) and the finish check (`step`) observe
                    // `retired` on executed cycles only: end the window
                    // before this core could cross either threshold.
                    let retired = self.cores[i].retired();
                    let width = self.cores[i].max_retire_per_cycle();
                    let fence = |threshold: u64, target: &mut u64| {
                        let room = threshold.saturating_sub(retired);
                        *target = (*target).min(cur + room.saturating_sub(1) / width);
                    };
                    if retired < warm {
                        fence(warm, &mut target);
                    }
                    if self.finish_cycle[i].is_none() {
                        let done = self.base_retired[i] + self.cfg.target_instructions;
                        fence(done, &mut target);
                    }
                }
            }
        }
        // Gate 2: pending migration copy traffic that the controller
        // would accept means the next DRAM tick enqueues — no skip. (If
        // the queue is full it stays full for the whole window: nothing
        // issues or completes before the controller's next event.)
        if let Some(&(_, addr, is_write)) = self.migration_backlog.front() {
            if self.ctrl.can_accept(self.ctrl.channel_of(addr), is_write) {
                return;
            }
        }
        // Calendar: the jump lands on the earliest of the controller's
        // next event, a core wake timer, and the next epoch / feed
        // boundary (those run code even with everyone idle).
        let cpd = self.cfg.cpu_per_dram;
        let next_mult = |n: u64, m: u64| if n.is_multiple_of(m) { n } else { (n / m + 1) * m };
        target = target.min(next_mult(cur, self.cfg.epoch_cpu_cycles));
        target = target.min(next_mult(cur, self.cfg.instr_feed_interval));
        // The controller only acts on DRAM-tick cycles: when the window
        // already ends at or before the first one, its calendar cannot
        // lower `target` (`next_event` > `last_dram`, so scaled it is
        // ≥ `from * cpd`) and the query is skipped.
        let from = cur.div_ceil(cpd);
        if target > from * cpd {
            let last_dram = (cur - 1) / cpd;
            target = target.min(self.ctrl.next_event(last_dram).saturating_mul(cpd));
        }
        if target <= cur {
            return;
        }
        // Perform the jump: cycles [cur, target) are skipped, `target`
        // itself executes as a normal step.
        let k = target - cur;
        for (core, &fwd) in self.cores.iter_mut().zip(&self.forward_plan) {
            if fwd {
                core.forward(cur, k);
            } else {
                core.skip_cycles(k);
            }
        }
        let count = target.div_ceil(cpd) - from;
        self.ctrl.skip_ticks(from, count);
        if self.host_prof.is_enabled() {
            self.ctr_skipped.add(k);
        }
        self.cycle = target;
    }

    fn step_impl<const PROF: bool>(&mut self) {
        let cycle = self.cycle;
        self.rec.set_cycle(cycle);
        if PROF {
            self.ctr_cycles.incr();
        }
        if cycle.is_multiple_of(self.cfg.cpu_per_dram) {
            let _s = PROF.then(|| self.host_prof.span("sim/dram_tick"));
            self.dram_tick(cycle / self.cfg.cpu_per_dram);
        }
        if cycle > 0 && cycle.is_multiple_of(self.cfg.epoch_cpu_cycles) {
            let _s = PROF.then(|| self.host_prof.span("sim/policy_epoch"));
            self.repartition();
        } else if cycle > 0 && cycle.is_multiple_of(self.cfg.instr_feed_interval) {
            let _s = PROF.then(|| self.host_prof.span("sim/feed_instructions"));
            self.feed_instructions();
        }
        let _s = PROF.then(|| self.host_prof.span("sim/cores_tick"));
        self.tick_cores(cycle);
        drop(_s);
        for i in 0..self.cores.len() {
            if self.finish_cycle[i].is_none()
                && self.cores[i].retired() - self.base_retired[i] >= self.cfg.target_instructions
            {
                self.finish_cycle[i] = Some(cycle + 1);
            }
        }
        self.cycle += 1;
    }

    fn dram_tick(&mut self, dram_now: u64) {
        // Feed backlog copy traffic gently (up to 4 requests per cycle).
        // The span opens only when there is a backlog: most DRAM ticks
        // have none, and an always-on child would drown the signal (and
        // cost two clock reads per tick) for an empty loop.
        if !self.migration_backlog.is_empty() {
            let _s = self.host_prof.span("sim/migration_feed");
            for _ in 0..4 {
                let Some(&(thread, addr, is_write)) = self.migration_backlog.front() else {
                    break;
                };
                let ch = self.ctrl.channel_of(addr);
                if !self.ctrl.can_accept(ch, is_write) {
                    break;
                }
                self.migration_backlog.pop_front();
                let id = self.next_req_id;
                self.next_req_id += 1;
                self.ctrl.enqueue(MemRequest::migration(id, thread, addr, is_write, dram_now));
                self.stats.migration_requests += 1;
            }
        }
        let mut buf = std::mem::take(&mut self.completions);
        buf.clear();
        self.ctrl.tick(dram_now, &mut buf);
        for c in &buf {
            let (core, line) = self.req_map.remove(&c.id).expect("completion for unknown request");
            self.poll_stuck[core] = false;
            self.mshrs[core].complete(line);
            if let Some(waiters) = self.waiting[core].remove(&line) {
                for load in waiters {
                    self.cores[core].complete(load);
                }
            }
        }
        self.completions = buf;
    }

    fn tick_cores(&mut self, cycle: u64) {
        let dram_now = cycle / self.cfg.cpu_per_dram;
        let channels = self.cfg.dram.channels;
        let write_cap = self.cfg.ctrl.write_q_cap;
        let charge_migration = self.cfg.migration_cost == MigrationCost::Charged;
        let lines_per_page = self.cfg.migration_lines_per_page;
        let page_bytes = u64::from(self.cfg.dram.page_bytes);
        let time_skip = self.time_skip;
        let System {
            cores,
            caches,
            mshrs,
            waiting,
            osmem,
            ctrl,
            req_map,
            next_req_id,
            migration_backlog,
            poll_stuck,
            stats,
            ..
        } = self;
        for (i, core) in cores.iter_mut().enumerate() {
            let cache = &mut caches[i];
            let mshr = &mut mshrs[i];
            let waits = &mut waiting[i];
            let stuck = &mut poll_stuck[i];
            let mut mem = |vaddr: u64, is_write: bool, load_id: u64| -> MemIssue {
                if time_skip && *stuck {
                    // Memoised verdict (see `poll_stuck`): this exact poll
                    // already proved Retry-on-full-MSHR and nothing that
                    // could change it has happened since.
                    return MemIssue::Retry;
                }
                let tr = osmem.translate(i, vaddr);
                if let Some(job) = tr.migration {
                    if charge_migration {
                        queue_migration_traffic(
                            migration_backlog,
                            stats,
                            &job,
                            lines_per_page,
                            page_bytes,
                        );
                    }
                }
                let pa = tr.pa;
                let line = pa & !63;
                // Resource pre-flight (only if this will miss the caches).
                let merged = mshr.contains(line);
                if !cache.probe(pa) && !merged {
                    if mshr.is_full() {
                        *stuck = true;
                        return MemIssue::Retry;
                    }
                    if !ctrl.can_accept(ctrl.channel_of(line), false) {
                        return MemIssue::Retry;
                    }
                    // Leave head-room for the up-to-two write-backs a fill
                    // can trigger.
                    for ch in 0..channels {
                        if ctrl.queue_len(ch, true) + 2 > write_cap {
                            return MemIssue::Retry;
                        }
                    }
                }
                let acc = cache.access(pa, is_write);
                for wb in &acc.writebacks {
                    let id = *next_req_id;
                    *next_req_id += 1;
                    ctrl.enqueue(MemRequest::writeback(id, i, *wb, dram_now));
                }
                match acc.level {
                    AccessLevel::L1Hit | AccessLevel::L2Hit => {
                        MemIssue::Done { latency: acc.latency }
                    }
                    AccessLevel::MemoryMiss => {
                        if !merged {
                            mshr.alloc(line);
                            let id = *next_req_id;
                            *next_req_id += 1;
                            req_map.insert(id, (i, line));
                            ctrl.enqueue(MemRequest::demand_read(id, i, line, dram_now));
                        }
                        if !is_write {
                            waits.entry(line).or_default().push(load_id);
                        }
                        MemIssue::Pending
                    }
                }
            };
            core.tick(cycle, &mut mem);
        }
    }

    fn feed_instructions(&mut self) {
        for i in 0..self.cores.len() {
            let retired = self.cores[i].retired();
            let delta = retired - self.last_fed_instr[i];
            self.last_fed_instr[i] = retired;
            self.ctrl.prof_mut().add_instructions(i, delta);
        }
    }

    fn repartition(&mut self) {
        self.feed_instructions();
        // Refilled budget / remapped pages can unstick any poll.
        self.poll_stuck.fill(false);
        self.osmem.refill_migration_budget(self.cfg.migration_budget_pages);
        let epoch = self.stats.repartitions;
        let snap = self.ctrl.prof_mut().take_epoch();
        if self.rec.is_enabled() {
            self.rec.emit(EventKind::EpochStart { epoch });
            for (t, p) in snap.iter().enumerate() {
                self.rec.emit(EventKind::ThreadProfile {
                    thread: t,
                    mpki: p.mpki(),
                    rbl: p.rbl(),
                    blp: p.blp(),
                });
            }
            let epoch_dram_cycles = self.cfg.epoch_cpu_cycles / self.cfg.cpu_per_dram;
            let (mut hits, mut rows) = (0u64, 0u64);
            for p in &snap {
                hits += p.row_hits;
                rows += p.row_hits + p.row_misses + p.row_conflicts;
            }
            self.rec.sample(EpochSample {
                epoch,
                cycle: self.cycle,
                queue_depth: self.ctrl.in_flight() as u64,
                row_hit_rate: if rows == 0 { 0.0 } else { hits as f64 / rows as f64 },
                bus_utilisation: snap.iter().map(|p| p.bus_cycles).sum::<u64>() as f64
                    / epoch_dram_cycles.max(1) as f64,
                threads: snap
                    .iter()
                    .map(|p| ThreadSample {
                        mpki: p.mpki(),
                        rbl: p.rbl(),
                        blp: p.blp(),
                        reads: p.reads,
                        avg_read_latency: p.avg_read_latency(),
                    })
                    .collect(),
            });
        }
        let profiles: Vec<ThreadMemProfile> = snap
            .iter()
            .map(|p| ThreadMemProfile {
                mpki: p.mpki(),
                rbl: p.rbl(),
                blp: p.blp(),
                reads: p.reads,
                bus_cycles: p.bus_cycles,
            })
            .collect();
        let plan = self.policy.partition(&profiles, &self.topo, self.last_plan.as_deref());
        if let Some(rack) = &mut self.audit {
            rack.observe(epoch, &profiles, &snap, &plan, &self.topo, &self.osmem);
        }
        if self.rec.is_enabled() {
            let changed_threads: Vec<usize> = (0..plan.len())
                .filter(|&t| self.last_plan.as_ref().is_none_or(|lp| lp[t] != plan[t]))
                .collect();
            self.rec.emit(EventKind::RepartitionPlan {
                epoch,
                plan: plan.iter().map(ToString::to_string).collect(),
                changed_threads,
            });
        }
        for (t, colors) in plan.iter().enumerate() {
            let changed = self.last_plan.as_ref().is_none_or(|lp| lp[t] != *colors);
            if changed {
                let mut jobs = self.osmem.set_partition(t, *colors);
                // A grown partition needs its pages spread to be useful.
                jobs.extend(self.osmem.rebalance_thread(t));
                if self.cfg.migration_cost == MigrationCost::Charged {
                    for job in &jobs {
                        queue_migration_traffic(
                            &mut self.migration_backlog,
                            &mut self.stats,
                            job,
                            self.cfg.migration_lines_per_page,
                            u64::from(self.cfg.dram.page_bytes),
                        );
                    }
                }
            }
        }
        self.last_plan = Some(plan);
        self.stats.repartitions += 1;
    }

    fn collect(&mut self) -> RunResult {
        self.feed_instructions();
        if let Some(rep) = self.ctrl.latency_report() {
            self.rec.set_latency(rep.clone());
        }
        if let Some(rack) = &self.audit {
            self.rec.set_audit(rack.report());
        }
        let target = self.cfg.target_instructions;
        let threads: Vec<ThreadResult> = (0..self.cores.len())
            .map(|i| {
                let prof = self.ctrl.prof().cumulative(i).delta(&self.prof_base[i]);
                let cycles = self.finish_cycle[i].unwrap_or(self.cycle) - self.measure_start;
                let retired = (self.cores[i].retired() - self.base_retired[i]).min(target);
                ThreadResult {
                    ipc: retired as f64 / cycles.max(1) as f64,
                    cycles_to_target: cycles,
                    reached_target: self.finish_cycle[i].is_some(),
                    mpki: prof.mpki(),
                    rbl: prof.rbl(),
                    blp: prof.blp(),
                    avg_read_latency: prof.avg_read_latency(),
                    reads: prof.reads,
                }
            })
            .collect();
        let dram_stats = match &self.dram_base {
            Some(base) => self.ctrl.dram().stats().delta(base),
            None => self.ctrl.dram().stats().clone(),
        };
        let elapsed_dram = (self.cycle - self.measure_start) / self.cfg.cpu_per_dram;
        RunResult {
            total_cycles: self.cycle - self.measure_start,
            reached_target: self.finish_cycle.iter().all(Option::is_some),
            row_hit_rate: {
                let mut hits = 0u64;
                let mut total = 0u64;
                for i in 0..self.cores.len() {
                    let p = self.ctrl.prof().cumulative(i).delta(&self.prof_base[i]);
                    hits += p.row_hits;
                    total += p.row_hits + p.row_misses + p.row_conflicts;
                }
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                }
            },
            dram: crate::metrics::DramActivity {
                activates: dram_stats.activates,
                reads: dram_stats.reads,
                writes: dram_stats.writes,
                refreshes: dram_stats.refreshes,
                elapsed: elapsed_dram,
            },
            bus_utilisation: dram_stats.bus_utilisation(elapsed_dram.max(1)),
            accesses_per_activate: dram_stats.accesses_per_activate(),
            bank_imbalance: dram_stats.bank_imbalance(),
            migrated_pages: self.osmem.stats().migrated_pages - self.os_base.migrated_pages,
            migration_requests: self.stats.migration_requests - self.sys_base.migration_requests,
            repartitions: self.stats.repartitions - self.sys_base.repartitions,
            fallback_allocations: self.osmem.stats().fallback_allocations
                - self.os_base.fallback_allocations,
            threads,
        }
    }
}

/// Expand one page migration into line-granularity copy traffic.
fn queue_migration_traffic(
    backlog: &mut VecDeque<(usize, u64, bool)>,
    stats: &mut SysStats,
    job: &MigrationJob,
    lines_per_page: u32,
    page_bytes: u64,
) {
    let half = u64::from(lines_per_page / 2).max(1);
    let stride = (page_bytes / half).max(64);
    for k in 0..half {
        backlog.push_back((job.thread, job.old_frame * page_bytes + k * stride, false));
        backlog.push_back((job.thread, job.new_frame * page_bytes + k * stride, true));
    }
    let _ = stats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use dbp_core::policy::PolicyKind;
    use dbp_cpu::TraceOp;
    use dbp_workloads::{profiles, SyntheticTrace};

    fn stream_trace(stride_pages: u64) -> Box<dyn TraceSource> {
        let mut vpn = 0u64;
        let mut line = 0u64;
        Box::new(move || {
            line += 1;
            if line == 64 {
                line = 0;
                vpn += stride_pages;
            }
            TraceOp { gap: 20, addr: (vpn << 12) | (line << 6), is_write: false }
        })
    }

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test();
        cfg.target_instructions = 30_000;
        cfg
    }

    #[test]
    fn single_core_reaches_target() {
        let mut sys = System::new(small_cfg(), vec![stream_trace(1)]);
        let r = sys.run();
        assert!(r.reached_target);
        assert!(r.threads[0].ipc > 0.0);
        assert!(r.threads[0].reads > 0, "stream must miss to DRAM");
    }

    #[test]
    fn ipc_is_deterministic() {
        let run = || {
            let t = SyntheticTrace::new(profiles::by_name("mcf"), 7);
            let mut sys = System::new(small_cfg(), vec![Box::new(t)]);
            sys.run().threads[0].ipc
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_streams_interfere() {
        let solo = {
            let mut sys = System::new(small_cfg(), vec![stream_trace(1)]);
            sys.run().threads[0].ipc
        };
        let duo = {
            let mut sys = System::new(small_cfg(), vec![stream_trace(1), stream_trace(1)]);
            sys.run().threads[0].ipc
        };
        assert!(duo <= solo * 1.01, "co-runner cannot speed a thread up");
    }

    #[test]
    fn partitioned_threads_use_disjoint_banks() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Equal;
        let mut sys = System::new(cfg, vec![stream_trace(1), stream_trace(1)]);
        sys.run();
        let plan = sys.current_plan().unwrap();
        assert!(plan[0].is_disjoint(&plan[1]));
        // No fallback allocations: partitions were large enough.
        assert_eq!(sys.osmem().stats().fallback_allocations, 0);
    }

    #[test]
    fn dbp_repartitions_during_run() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Dbp(Default::default());
        cfg.epoch_cpu_cycles = 20_000;
        cfg.target_instructions = 100_000;
        cfg.warmup_instructions = 0; // count the settling migrations too
        let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 1);
        let t1 = SyntheticTrace::new(profiles::by_name("libquantum"), 2);
        let mut sys = System::new(cfg, vec![Box::new(t0), Box::new(t1)]);
        let r = sys.run();
        assert!(r.repartitions >= 2, "epochs must fire");
        let plan = sys.current_plan().unwrap();
        assert!(plan[0].is_disjoint(&plan[1]), "both intensive: disjoint banks");
        assert!(r.migrated_pages > 0, "repartitioning must move pages");
    }

    #[test]
    fn tcm_scheduler_runs_end_to_end() {
        let mut cfg = small_cfg();
        cfg.scheduler = SchedulerKind::Tcm(Default::default());
        let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 1);
        let t1 = SyntheticTrace::new(profiles::by_name("povray"), 2);
        let mut sys = System::new(cfg, vec![Box::new(t0), Box::new(t1)]);
        let r = sys.run();
        assert!(r.reached_target);
    }

    #[test]
    fn migration_cost_free_moves_pages_without_traffic() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Dbp(Default::default());
        cfg.migration_cost = MigrationCost::Free;
        cfg.epoch_cpu_cycles = 20_000;
        let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 1);
        let t1 = SyntheticTrace::new(profiles::by_name("lbm"), 2);
        let mut sys = System::new(cfg, vec![Box::new(t0), Box::new(t1)]);
        let r = sys.run();
        assert_eq!(r.migration_requests, 0);
    }

    #[test]
    fn row_hit_rate_reported() {
        let mut sys = System::new(small_cfg(), vec![stream_trace(1)]);
        let r = sys.run();
        assert!(r.row_hit_rate > 0.5, "a pure stream is row-friendly: {}", r.row_hit_rate);
    }

    #[test]
    fn time_skipping_engages_and_matches_stepped_run() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Dbp(Default::default());
        cfg.epoch_cpu_cycles = 10_000;
        cfg.instr_feed_interval = 5_000;
        cfg.target_instructions = 40_000;
        let arm = |skip: bool| {
            let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 11);
            let t1 = SyntheticTrace::new(profiles::by_name("libquantum"), 12);
            let prof = dbp_obs::Prof::enabled();
            let mut sys = System::with_instrumentation(
                cfg.clone(),
                vec![Box::new(t0), Box::new(t1)],
                Recorder::disabled(),
                prof,
            );
            sys.set_time_skip(skip);
            let r = sys.run();
            let skipped = sys.profiler().counter("sim/cycles_skipped").get();
            (r, skipped, sys.cycle())
        };
        let (skipped_run, skipped_cycles, skipped_end) = arm(true);
        let (stepped_run, stepped_skipped, stepped_end) = arm(false);
        assert_eq!(stepped_skipped, 0, "DBP_NO_SKIP semantics: no jumps");
        assert!(skipped_cycles > 0, "memory-bound mix must expose idle windows");
        assert_eq!(skipped_run, stepped_run);
        assert_eq!(skipped_end, stepped_end);
    }

    #[test]
    fn time_skipping_engages_above_64_cores() {
        let mut cfg = small_cfg();
        cfg.target_instructions = 2_000;
        cfg.warmup_instructions = 1_000;
        let arm = |skip: bool| {
            let names = ["povray", "namd", "mcf", "gobmk", "hmmer"];
            let traces: Vec<Box<dyn TraceSource>> = (0..65)
                .map(|i| {
                    let t =
                        SyntheticTrace::new(profiles::by_name(names[i % names.len()]), i as u64);
                    Box::new(t) as Box<dyn TraceSource>
                })
                .collect();
            let prof = dbp_obs::Prof::enabled();
            let mut sys =
                System::with_instrumentation(cfg.clone(), traces, Recorder::disabled(), prof);
            sys.set_time_skip(skip);
            let r = sys.run();
            let skipped = sys.profiler().counter("sim/cycles_skipped").get();
            (format!("{r:?}"), skipped, sys.cycle())
        };
        let (skipped_run, skipped_cycles, skipped_end) = arm(true);
        let (stepped_run, stepped_skipped, stepped_end) = arm(false);
        assert_eq!(stepped_skipped, 0);
        assert!(skipped_cycles > 0, "65 cores must still skip");
        assert_eq!(skipped_run, stepped_run);
        assert_eq!(skipped_end, stepped_end);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::config::SchedulerKind;
    use dbp_core::policy::PolicyKind;
    use dbp_util::prop::{check, range, Config};
    use dbp_util::{prop_assert, prop_assert_eq};
    use dbp_workloads::{profiles, SyntheticTrace};

    /// Skip-on and stepped runs of random mixes must agree on every
    /// reported metric, on final simulated time, and on per-rank refresh
    /// schedules, under every scheduler and both partition policies.
    #[test]
    fn time_skipping_is_bit_exact_end_to_end() {
        let names = ["mcf", "libquantum", "lbm", "povray", "gcc", "omnetpp"];
        let gen = (
            range(0usize..7),           // scheduler
            range(0usize..names.len()), // workload 0
            range(0usize..names.len()), // workload 1
            range(0u64..1000),          // seed base
            range(0usize..2),           // policy: none / dbp
        );
        check(Config::cases(6), &gen, |(s, w0, w1, seed, pol)| {
            let mut cfg = SimConfig::fast_test();
            cfg.epoch_cpu_cycles = 10_000;
            cfg.instr_feed_interval = 5_000;
            cfg.target_instructions = 20_000;
            cfg.scheduler = match s {
                0 => SchedulerKind::Fcfs,
                1 => SchedulerKind::FrFcfs,
                2 => SchedulerKind::FrFcfsCap(Default::default()),
                3 => SchedulerKind::ParBs(Default::default()),
                4 => SchedulerKind::Atlas(Default::default()),
                5 => SchedulerKind::Bliss(Default::default()),
                _ => SchedulerKind::Tcm(Default::default()),
            };
            if pol == 1 {
                cfg.policy = PolicyKind::Dbp(Default::default());
            }
            let arm = |skip: bool| {
                let t0 = SyntheticTrace::new(profiles::by_name(names[w0]), seed + 1);
                let t1 = SyntheticTrace::new(profiles::by_name(names[w1]), seed + 2);
                let mut sys = System::new(cfg.clone(), vec![Box::new(t0), Box::new(t1)]);
                sys.set_time_skip(skip);
                let run = sys.run();
                let dram = sys.ctrl().dram();
                let deadlines: Vec<u64> = (0..cfg.dram.channels)
                    .flat_map(|ch| (0..cfg.dram.ranks_per_channel).map(move |rk| (ch, rk)))
                    .map(|(ch, rk)| dram.refresh_deadline(ch, rk))
                    .collect();
                let s = dram.stats();
                (run, sys.cycle(), deadlines, (s.activates, s.reads, s.writes, s.refreshes))
            };
            let a = arm(true);
            let b = arm(false);
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2, b.2);
            prop_assert_eq!(a.3, b.3);
            prop_assert!(a.3 .3 > 0, "run must span at least one refresh");
            Ok(())
        });
    }

    /// Attaching the decision audit layer (shadow policies + estimator
    /// replica + convergence accounting) must leave the simulation
    /// byte-identical to an unobserved run — every metric, final
    /// simulated time, refresh schedules, DRAM counters — under every
    /// scheduler and both partition policies, and the audited arm must
    /// actually produce a populated report.
    #[test]
    fn audit_layer_is_observation_only_end_to_end() {
        let names = ["mcf", "libquantum", "lbm", "povray", "gcc", "omnetpp"];
        let gen = (
            range(0usize..7),           // scheduler
            range(0usize..names.len()), // workload 0
            range(0usize..names.len()), // workload 1
            range(0u64..1000),          // seed base
            range(0usize..2),           // policy: none / dbp
        );
        check(Config::cases(6), &gen, |(s, w0, w1, seed, pol)| {
            let mut cfg = SimConfig::fast_test();
            cfg.epoch_cpu_cycles = 10_000;
            cfg.instr_feed_interval = 5_000;
            cfg.target_instructions = 20_000;
            cfg.scheduler = match s {
                0 => SchedulerKind::Fcfs,
                1 => SchedulerKind::FrFcfs,
                2 => SchedulerKind::FrFcfsCap(Default::default()),
                3 => SchedulerKind::ParBs(Default::default()),
                4 => SchedulerKind::Atlas(Default::default()),
                5 => SchedulerKind::Bliss(Default::default()),
                _ => SchedulerKind::Tcm(Default::default()),
            };
            if pol == 1 {
                cfg.policy = PolicyKind::Dbp(Default::default());
            }
            let arm = |audit: bool| {
                let t0 = SyntheticTrace::new(profiles::by_name(names[w0]), seed + 1);
                let t1 = SyntheticTrace::new(profiles::by_name(names[w1]), seed + 2);
                let rec = if audit {
                    Recorder::new(RecorderConfig { audit: true, ..Default::default() })
                } else {
                    Recorder::disabled()
                };
                let mut sys = System::with_recorder(
                    cfg.clone(),
                    vec![Box::new(t0), Box::new(t1)],
                    rec.clone(),
                );
                let run = sys.run();
                let dram = sys.ctrl().dram();
                let deadlines: Vec<u64> = (0..cfg.dram.channels)
                    .flat_map(|ch| (0..cfg.dram.ranks_per_channel).map(move |rk| (ch, rk)))
                    .map(|(ch, rk)| dram.refresh_deadline(ch, rk))
                    .collect();
                let s = dram.stats();
                (
                    run,
                    sys.cycle(),
                    deadlines,
                    (s.activates, s.reads, s.writes, s.refreshes),
                    rec.snapshot().audit,
                )
            };
            let a = arm(true);
            let b = arm(false);
            prop_assert_eq!(&a.0, &b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2, b.2);
            prop_assert_eq!(a.3, b.3);
            let report = a.4.expect("audited arm publishes a report");
            prop_assert!(b.4.is_none(), "unobserved arm must not audit");
            prop_assert_eq!(report.threads, 2);
            prop_assert_eq!(report.shadows.len(), 3);
            prop_assert!(
                report.convergence.decisions > 0,
                "run must span at least one repartition decision"
            );
            Ok(())
        });
    }
}
