//! Serial end-to-end and per-layer benchmark of the DBP simulator.
//!
//! One *pass* of a workload runs every `System` the workload needs, one
//! after another on the calling thread: an alone run per benchmark
//! (FR-FCFS, unpartitioned, exactly as [`runner::alone_config`] builds
//! it), the shared run under the reference policy, then the shared run
//! under DBP. A pass is a closed batch: fixed simulated work, then stop.
//!
//! Timed passes run with every instrument off and give the end-to-end
//! metrics. One separate traced pass builds every `System` on an enabled
//! [`Prof`] and opens the benchmark's own spans around its calls into the
//! simulator, so the simulator's existing spans nest under them in one
//! exact-sum tree ([`Ledger`]). Layers that no span isolates are measured
//! by outside replays ([`replay`]).
//!
//! The simulator model is unvalidated: the paper is available as an
//! abstract only, and its percentages are averages over its own mixes.
//! Nothing here states an error against the paper.

use std::time::Instant;

pub mod calibration;

use dbp_cache::{AccessLevel, Hierarchy};
use dbp_core::policy::PolicyKind;
use dbp_cpu::{TraceOp, TraceSource};
use dbp_obs::{Histogram, LatencyReport, Prof, ProfSpan, Profile, Recorder, RecorderConfig};
use dbp_osmem::MemoryManager;
use dbp_sim::{runner, MixMetrics, RunResult, SchedulerKind, SimConfig, System};
use dbp_workloads::{mixes_4core, mixes_8core, Mix, SyntheticTrace};

/// Every workload the benchmark can run.
pub const WORKLOADS: [&str; 3] = ["intensive4", "light4", "tcm8"];

/// The workloads `BENCHMARK.json` gates, in its order. `tcm8` runs by
/// name only: its 6 s DBP-TCM `System` leaves too few repetitions in a
/// run to time it steadily on a noisy host.
pub const GATED_WORKLOADS: [&str; 2] = ["intensive4", "light4"];

/// The workload seed that reproduces [`runner::seed_for`]'s streams, and
/// with them the repository's committed tables.
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics `(name, unit)`, reported from the timed passes.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MiB"),
    ("weighted_speedup", "ratio"),
    ("max_slowdown", "ratio"),
    ("ws_ratio", "ratio"),
    ("ms_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported from the traced pass, the
/// replays and the simulated results.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sim.host_mcycles_per_s", "Mcycles/s"),
    ("sim.cycles_stepped", "count"),
    ("sim.cycles_skipped", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_stepped_cycle", "ns"),
    ("sim.loop_self_s", "s"),
    ("sim.setup_self_s", "s"),
    ("sim.other_self_s", "s"),
    ("sim.alone_run_s", "s"),
    ("sim.shared_run_s", "s"),
    ("cpu.cores_tick_s", "s"),
    ("workloads.ops", "count"),
    ("workloads.ns_per_op", "ns"),
    ("workloads.next_op_s", "s"),
    ("cache.ns_per_access", "ns"),
    ("cache.memory_miss_rate", "ratio"),
    ("osmem.ns_per_translate", "ns"),
    ("osmem.migration_feed_s", "s"),
    ("osmem.migrated_pages", "count"),
    ("osmem.fallback_allocations", "count"),
    ("core.policy_epoch_s", "s"),
    ("core.repartitions", "count"),
    ("memctrl.tick_self_s", "s"),
    ("memctrl.issue_s", "s"),
    ("memctrl.sched_s", "s"),
    ("memctrl.skip_s", "s"),
    ("memctrl.anatomy_s", "s"),
    ("memctrl.requests_enqueued", "count"),
    ("memctrl.commands_issued", "count"),
    ("memctrl.blocked_ticks", "count"),
    ("memctrl.idle_ticks", "count"),
    ("memctrl.avg_read_latency", "cycles"),
    ("memctrl.stall_bank_pct", "%"),
    ("memctrl.stall_bus_pct", "%"),
    ("memctrl.stall_queue_pct", "%"),
    ("memctrl.read_p99_cycles", "cycles"),
    ("dram.timing_queries", "count"),
    ("dram.queries_per_command", "ratio"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bus_utilisation", "ratio"),
    ("dram.accesses_per_activate", "ratio"),
    ("obs.profiler_overhead_pct", "%"),
    ("obs.telemetry_overhead_pct", "%"),
    ("obs.trace_residue_pct", "%"),
    ("obs.residue_s", "s"),
    ("obs.unmapped_s", "s"),
    ("obs.traced_wall_s", "s"),
    ("obs.calibration_ms", "ms"),
];

/// One benchmark workload: a mix, its system configuration, and the two
/// (scheduler, policy) points of its shared runs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    /// System configuration; alone runs use [`runner::alone_config`] of it.
    pub cfg: SimConfig,
    /// The reference shared run: equal-BP, or TCM.
    pub reference: (SchedulerKind, PolicyKind),
    /// The DBP (or DBP-TCM) shared run.
    pub dbp: (SchedulerKind, PolicyKind),
    /// Attach latency anatomy and the decision-audit rack to the DBP run.
    pub record_dbp: bool,
}

fn mix_named(mixes: Vec<Mix>, name: &str) -> Mix {
    mixes.into_iter().find(|m| m.name == name).expect("mix table lists the benchmark's mixes")
}

impl Workload {
    /// The workload called `name`, at the repository's default
    /// `SimConfig` (2 channels x 8 banks, Table 1 instruction counts).
    pub fn by_name(name: &str) -> Option<Workload> {
        let frfcfs = SchedulerKind::FrFcfs;
        let tcm = SchedulerKind::Tcm(Default::default());
        let dbp = PolicyKind::Dbp(Default::default());
        let (name, mix, reference, dbp, record_dbp) = match name {
            "intensive4" => (
                "intensive4",
                mix_named(mixes_4core(), "mix100-1"),
                (frfcfs, PolicyKind::Equal),
                (frfcfs, dbp),
                false,
            ),
            "light4" => (
                "light4",
                mix_named(mixes_4core(), "mix0-1"),
                (frfcfs, PolicyKind::Equal),
                (frfcfs, dbp),
                false,
            ),
            "tcm8" => (
                "tcm8",
                mix_named(mixes_8core(), "mix8-50"),
                (tcm, PolicyKind::Unpartitioned),
                (tcm, dbp),
                true,
            ),
            _ => return None,
        };
        Some(Workload { name, mix, cfg: SimConfig::default(), reference, dbp, record_dbp })
    }

    /// Shrink the simulated work to unit-test size (same mix and policies).
    pub fn shortened(mut self) -> Workload {
        self.cfg.epoch_cpu_cycles = 100_000;
        self.cfg.instr_feed_interval = 20_000;
        self.cfg.warmup_instructions = 10_000;
        self.cfg.target_instructions = 30_000;
        self.cfg.max_cpu_cycles = SimConfig::fast_test().max_cpu_cycles;
        self
    }

    fn config(&self, role: Role) -> SimConfig {
        let (scheduler, policy) = match role {
            Role::Alone(_) => return runner::alone_config(&self.cfg),
            Role::Reference => self.reference,
            Role::Dbp => self.dbp,
        };
        SimConfig { scheduler, policy, ..self.cfg.clone() }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The generator seed of `core`'s stream under workload seed `seed`:
/// [`runner::seed_for`] itself for [`DEFAULT_SEED`], a fresh stream for
/// any other seed.
pub fn stream_seed(mix: &Mix, core: usize, seed: u64) -> u64 {
    let base = runner::seed_for(mix, core);
    if seed == DEFAULT_SEED {
        base
    } else {
        base ^ splitmix64(seed)
    }
}

/// The trace of `core` under workload seed `seed`; for [`DEFAULT_SEED`]
/// the same stream [`runner::trace_for`] gives.
pub fn stream(mix: &Mix, core: usize, seed: u64) -> Box<dyn TraceSource> {
    let profile = dbp_workloads::profiles::by_name(mix.benchmarks[core]);
    Box::new(SyntheticTrace::new(profile, stream_seed(mix, core, seed)))
}

/// A trace wrapper that times every `next_op` in a `workloads/next_op`
/// span, so the generator's host time and op count land in the traced
/// pass's span tree.
struct SpannedTrace {
    inner: Box<dyn TraceSource>,
    prof: Prof,
}

impl TraceSource for SpannedTrace {
    fn next_op(&mut self) -> TraceOp {
        let _s = self.prof.span("workloads/next_op");
        self.inner.next_op()
    }
}

/// Which `System` of a pass a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The alone run of the benchmark on this core.
    Alone(usize),
    Reference,
    Dbp,
}

impl Role {
    fn span(self) -> &'static str {
        match self {
            Role::Alone(_) => "bench/alone",
            Role::Reference => "bench/shared_ref",
            Role::Dbp => "bench/shared_dbp",
        }
    }
}

/// One `System` of a pass: its simulated result and its host times.
#[derive(Debug, Clone)]
pub struct SystemRun {
    pub role: Role,
    /// Simulated CPU cycles, warmup plus measured, executed plus skipped.
    pub cycles: u64,
    /// Host time constructing the `System`, trace generators included.
    pub setup_ns: u64,
    /// Host time inside `System::run`.
    pub run_ns: u64,
    pub result: RunResult,
    /// Latency anatomy, when the run had a recorder attached.
    pub latency: Option<LatencyReport>,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Build and run one `System` of workload `w`. With an enabled `prof`
/// the construction and the run are spanned and every trace is wrapped
/// in a `workloads/next_op` span; `record` attaches a recorder with the
/// decision audit on (latency anatomy comes with any recorder).
pub fn run_system(w: &Workload, seed: u64, role: Role, prof: &Prof, record: bool) -> SystemRun {
    let cores: Vec<usize> = match role {
        Role::Alone(core) => vec![core],
        Role::Reference | Role::Dbp => (0..w.mix.cores()).collect(),
    };
    let rec = if record {
        Recorder::new(RecorderConfig { audit: true, ..Default::default() })
    } else {
        Recorder::disabled()
    };
    let t0 = Instant::now();
    let mut sys = {
        let _s = prof.span("bench/setup");
        let traces = cores
            .iter()
            .map(|&c| {
                let t = stream(&w.mix, c, seed);
                if prof.is_enabled() {
                    Box::new(SpannedTrace { inner: t, prof: prof.clone() })
                } else {
                    t
                }
            })
            .collect();
        System::with_instrumentation(w.config(role), traces, rec.clone(), prof.clone())
    };
    let setup_ns = elapsed_ns(t0);
    let t1 = Instant::now();
    let result = {
        let _s = prof.span(role.span());
        sys.run()
    };
    let run_ns = elapsed_ns(t1);
    let latency = record.then(|| rec.snapshot().latency.unwrap_or_default());
    SystemRun { role, cycles: sys.cycle(), setup_ns, run_ns, result, latency }
}

/// One closed batch of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    pub runs: Vec<SystemRun>,
    pub reference: MixMetrics,
    pub dbp: MixMetrics,
    /// Host time of the whole pass, calibration excluded.
    pub wall_ns: u64,
    /// Host time of the calibration kernel run just before the pass.
    pub calibration_ns: u64,
}

/// Run the calibration kernel, then one pass of `w`: alone runs,
/// reference shared run, DBP shared run. With an enabled `prof` this is
/// the traced pass, rooted at a `bench/pass` span.
pub fn run_pass(w: &Workload, seed: u64, prof: &Prof) -> Pass {
    let calibration_ns = calibration::time_kernel();
    let t0 = Instant::now();
    let _root = prof.span("bench/pass");
    let mut runs: Vec<SystemRun> =
        (0..w.mix.cores()).map(|c| run_system(w, seed, Role::Alone(c), prof, false)).collect();
    runs.push(run_system(w, seed, Role::Reference, prof, false));
    runs.push(run_system(w, seed, Role::Dbp, prof, w.record_dbp));
    let alone: Vec<f64> = runs[..w.mix.cores()].iter().map(|r| r.result.threads[0].ipc).collect();
    let reference = MixMetrics::new(&alone, &runs[w.mix.cores()].result.ipcs());
    let dbp = MixMetrics::new(&alone, &runs[w.mix.cores() + 1].result.ipcs());
    drop(_root);
    Pass { runs, reference, dbp, wall_ns: elapsed_ns(t0), calibration_ns }
}

impl Pass {
    pub fn setup_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.setup_ns).sum()
    }

    pub fn run_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.run_ns).sum()
    }

    pub fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }

    /// Simulated Mcycles per host second inside `System::run`.
    pub fn mcycles_per_s(&self) -> f64 {
        self.cycles() as f64 / self.run_ns() as f64 * 1e3
    }

    pub fn dbp_run(&self) -> &SystemRun {
        self.runs.last().expect("a pass ends with the DBP run")
    }

    /// FNV-1a over every simulated outcome of the pass (`{:?}` of an
    /// `f64` round-trips, so equal digests mean bit-equal results).
    pub fn digest(&self) -> u64 {
        let text = self
            .runs
            .iter()
            .map(|r| format!("{:?}|{}|{:?}|{:?}", r.role, r.cycles, r.result, r.latency))
            .collect::<Vec<_>>()
            .join("\n");
        fnv1a(text.as_bytes())
    }

    /// Every output check the pass fails: a `System` short of its
    /// instruction target, WS outside (0, cores], or MS below 1.
    pub fn check(&self) -> Vec<String> {
        let cores = (self.runs.len() - 2) as f64;
        let mut bad: Vec<String> = self
            .runs
            .iter()
            .filter(|r| !r.result.reached_target)
            .map(|r| format!("{:?} run missed its instruction target", r.role))
            .collect();
        for (label, m) in [("reference", &self.reference), ("DBP", &self.dbp)] {
            if !(m.weighted_speedup > 0.0 && m.weighted_speedup <= cores) {
                bad.push(format!("{label} WS {} outside (0, {cores}]", m.weighted_speedup));
            }
            if m.max_slowdown.is_nan() || m.max_slowdown < 1.0 {
                bad.push(format!("{label} MS {} below 1", m.max_slowdown));
            }
        }
        bad
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Which ledger bucket each span's self time belongs to. A span name
/// not listed here goes to [`UNMAPPED`], so a span added to the
/// simulator later is still counted.
const LEDGER: [(&str, &[&str]); 13] = [
    ("sim.setup_self_s", &["bench/setup"]),
    ("sim.loop_self_s", &["sim/warmup", "sim/measure"]),
    (
        "sim.other_self_s",
        &[
            "sim/collect",
            "sim/dram_tick",
            "sim/feed_instructions",
            "bench/alone",
            "bench/shared_ref",
            "bench/shared_dbp",
        ],
    ),
    ("cpu.cores_tick_s", &["sim/cores_tick"]),
    ("workloads.next_op_s", &["workloads/next_op"]),
    ("osmem.migration_feed_s", &["sim/migration_feed"]),
    ("core.policy_epoch_s", &["sim/policy_epoch"]),
    ("memctrl.tick_self_s", &["memctrl/tick"]),
    ("memctrl.issue_s", &["memctrl/issue"]),
    ("memctrl.sched_s", &["memctrl/sched"]),
    ("memctrl.skip_s", &["memctrl/skip"]),
    ("memctrl.anatomy_s", &["memctrl/anatomy"]),
    ("obs.residue_s", &["bench/pass"]),
];

/// The bucket of spans the ledger has no layer for.
pub const UNMAPPED: &str = "obs.unmapped_s";

/// The traced pass's wall time split into per-layer self times.
///
/// Every span's self time lands in exactly one bucket, and the profile's
/// exact-sum invariant makes the buckets add up to the root spans' total,
/// in whole nanoseconds. The residue (`obs.residue_s`) is the traced wall
/// time no span but the benchmark's root covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// Total of the root spans.
    pub wall_ns: u64,
    /// `(bucket, self ns)`, in [`LEDGER`] order, then [`UNMAPPED`].
    pub buckets: Vec<(&'static str, u64)>,
}

impl Ledger {
    pub fn from_profile(p: &Profile) -> Ledger {
        fn walk(s: &ProfSpan, buckets: &mut [(&'static str, u64)]) {
            let i = LEDGER
                .iter()
                .position(|(_, names)| names.contains(&s.name.as_str()))
                .unwrap_or(LEDGER.len());
            buckets[i].1 += s.self_ns;
            for c in &s.children {
                walk(c, buckets);
            }
        }
        let mut buckets: Vec<(&'static str, u64)> =
            LEDGER.iter().map(|&(name, _)| (name, 0)).chain([(UNMAPPED, 0)]).collect();
        for s in &p.spans {
            walk(s, &mut buckets);
        }
        Ledger { wall_ns: p.total_ns(), buckets }
    }

    pub fn get(&self, bucket: &str) -> u64 {
        self.buckets.iter().find(|(n, _)| *n == bucket).map_or(0, |&(_, v)| v)
    }

    /// Σ bucket self times, which must equal [`Ledger::wall_ns`].
    pub fn sum_ns(&self) -> u64 {
        self.buckets.iter().map(|&(_, v)| v).sum()
    }
}

/// Sum of `total_ns` and `count` over every span called `name`.
fn span_totals(p: &Profile, name: &str) -> (u64, u64) {
    fn walk(s: &ProfSpan, name: &str, acc: &mut (u64, u64)) {
        if s.name == name {
            acc.0 += s.total_ns;
            acc.1 += s.count;
        }
        for c in &s.children {
            walk(c, name, acc);
        }
    }
    let mut acc = (0, 0);
    for s in &p.spans {
        walk(s, name, &mut acc);
    }
    acc
}

fn counter(p: &Profile, name: &str) -> u64 {
    p.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

/// Host cost of the layers no span isolates, from a replay of each
/// core's op stream outside the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replay {
    pub ops: u64,
    /// Median of the repetitions, whole replay.
    pub translate_ns: u64,
    pub access_ns: u64,
    /// Accesses that missed both cache levels (exact).
    pub memory_misses: u64,
}

/// Record `ops_per_core` ops of every core's stream, translate them
/// through a fresh [`MemoryManager`] and access a fresh [`Hierarchy`]
/// per core with the physical addresses; `reps` times, keeping the
/// median host times.
pub fn replay(w: &Workload, seed: u64, ops_per_core: usize, reps: usize) -> Replay {
    let n = w.mix.cores();
    let ops: Vec<Vec<TraceOp>> = (0..n)
        .map(|c| {
            let mut s = stream(&w.mix, c, seed);
            (0..ops_per_core).map(|_| s.next_op()).collect()
        })
        .collect();
    let mut translate = Vec::with_capacity(reps);
    let mut access = Vec::with_capacity(reps);
    let mut misses = 0;
    for _ in 0..reps.max(1) {
        let mut mm = MemoryManager::new(&w.cfg.dram, n, w.cfg.migration_mode);
        let t0 = Instant::now();
        let pas: Vec<Vec<u64>> = ops
            .iter()
            .enumerate()
            .map(|(c, core_ops)| core_ops.iter().map(|op| mm.translate(c, op.addr).pa).collect())
            .collect();
        translate.push(elapsed_ns(t0));
        let t1 = Instant::now();
        misses = 0;
        for (core_ops, core_pas) in ops.iter().zip(&pas) {
            let mut h = Hierarchy::new(w.cfg.hierarchy);
            for (op, &pa) in core_ops.iter().zip(core_pas) {
                let a = h.access(pa, op.is_write);
                misses += u64::from(a.level == AccessLevel::MemoryMiss);
            }
        }
        access.push(elapsed_ns(t1));
        std::hint::black_box(&pas);
    }
    Replay {
        ops: (n * ops_per_core) as u64,
        translate_ns: median_u64(&mut translate),
        access_ns: median_u64(&mut access),
        memory_misses: misses,
    }
}

/// Median (lower middle for an even count); 0 for an empty slice.
pub fn median_u64(v: &mut [u64]) -> u64 {
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metrics_from(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table.iter().zip(values).map(|(&(name, unit), &value)| Metric { name, unit, value }).collect()
}

/// Host time of one pass made of each `System`'s fastest run across
/// `passes`. Every `System` is a fixed unit of work, and a slow host
/// only ever adds time to it, so its fastest repetition is its least
/// disturbed one.
pub fn fastest_run_ns(passes: &[Pass]) -> u64 {
    (0..passes[0].runs.len())
        .map(|i| passes.iter().map(|p| p.runs[i].run_ns).min().unwrap_or(0))
        .sum()
}

/// Simulated Mcycles per host second: a pass's cycles over
/// [`fastest_run_ns`].
pub fn host_mcycles_per_s(passes: &[Pass]) -> f64 {
    passes[0].cycles() as f64 / fastest_run_ns(passes) as f64 * 1e3
}

/// The fastest calibration kernel run across `passes`, nanoseconds.
pub fn fastest_calibration_ns(passes: &[Pass]) -> u64 {
    passes.iter().map(|p| p.calibration_ns).min().unwrap_or(0)
}

/// The end-to-end metrics of a run from its timed passes:
/// `setup_s` is the median pass's set-up time; `sim_mcycles_per_s` is
/// [`host_mcycles_per_s`] scaled to the reference host by the fastest
/// calibration run, so host-wide speed drift cancels. Simulated values
/// repeat bit for bit in every pass, so they come from the first.
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let first = &passes[0];
    let mut setup: Vec<u64> = passes.iter().map(Pass::setup_ns).collect();
    let host_speed = fastest_calibration_ns(passes) as f64 / calibration::REFERENCE_NS as f64;
    metrics_from(
        &END_TO_END,
        &[
            median_u64(&mut setup) as f64 / 1e9,
            host_mcycles_per_s(passes) * host_speed,
            peak_rss_mb,
            first.dbp.weighted_speedup,
            first.dbp.max_slowdown,
            first.dbp.weighted_speedup / first.reference.weighted_speedup,
            first.dbp.max_slowdown / first.reference.max_slowdown,
        ],
    )
}

/// What a traced run measured beyond its timed passes.
#[derive(Debug, Clone)]
pub struct TracedRun {
    pub pass: Pass,
    pub profile: Profile,
    pub replay: Replay,
    /// Host time of the DBP shared run with the recorder toggled
    /// relative to the timed passes (off for `tcm8`, on elsewhere), and
    /// the latency anatomy of whichever of the two runs had it.
    pub toggled_dbp_run_ns: u64,
    pub latency: LatencyReport,
}

/// Run the traced pass, the recorder-toggled DBP run and the replays.
pub fn traced_run(w: &Workload, seed: u64) -> TracedRun {
    let prof = Prof::enabled();
    let pass = run_pass(w, seed, &prof);
    let profile = prof.snapshot();
    let toggled = run_system(w, seed, Role::Dbp, &Prof::disabled(), !w.record_dbp);
    let latency = pass.dbp_run().latency.clone().or(toggled.latency).unwrap_or_default();
    TracedRun {
        pass,
        profile,
        replay: replay(w, seed, 100_000, 3),
        toggled_dbp_run_ns: toggled.run_ns,
        latency,
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a run: host times from the traced pass and
/// the replays, counts from its profiler counters, simulated values from
/// the DBP shared run, overheads against the timed passes' medians.
pub fn per_layer(timed: &[Pass], t: &TracedRun) -> Vec<Metric> {
    let p = &t.profile;
    let ledger = Ledger::from_profile(p);
    let s = |bucket: &str| ledger.get(bucket) as f64 / 1e9;
    let stepped = counter(p, "sim/cycles_stepped");
    let skipped = counter(p, "sim/cycles_skipped");
    let commands = counter(p, "memctrl/commands_issued");
    let queries = counter(p, "dram/timing_queries");
    let (next_op_ns, ops) = span_totals(p, "workloads/next_op");
    let alone_ns = span_totals(p, "bench/alone").0;
    let shared_ns = span_totals(p, "bench/shared_ref").0 + span_totals(p, "bench/shared_dbp").0;
    let run_ns = fastest_run_ns(timed);
    let mut wall_ns: Vec<u64> = timed.iter().map(|x| x.wall_ns).collect();
    let mut dbp_ns: Vec<u64> = timed.iter().map(|x| x.dbp_run().run_ns).collect();
    let (wall_ns, dbp_ns) = (median_u64(&mut wall_ns), median_u64(&mut dbp_ns));
    let (with_rec, without_rec) = if t.pass.dbp_run().latency.is_some() {
        (dbp_ns, t.toggled_dbp_run_ns)
    } else {
        (t.toggled_dbp_run_ns, dbp_ns)
    };
    let dbp = &t.pass.dbp_run().result;
    let reads: u64 = dbp.threads.iter().map(|x| x.reads).sum();
    let read_latency: f64 =
        dbp.threads.iter().map(|x| x.avg_read_latency * x.reads as f64).sum::<f64>();
    let components = t.latency.cores.iter().fold([0u64; 5], |mut acc, c| {
        for (a, v) in acc.iter_mut().zip(c.components) {
            *a += v;
        }
        acc
    });
    let stall_total: u64 = components.iter().sum();
    let mut reads_hist = Histogram::default();
    for c in &t.latency.cores {
        reads_hist.merge(&c.read);
    }
    use dbp_obs::latency::{BANK_BUSY, BUS, QUEUE_OTHER, QUEUE_SAME};
    metrics_from(
        &PER_LAYER,
        &[
            host_mcycles_per_s(timed),
            stepped as f64,
            skipped as f64,
            ratio(skipped as f64, (stepped + skipped) as f64),
            ratio(run_ns as f64, stepped as f64),
            s("sim.loop_self_s"),
            s("sim.setup_self_s"),
            s("sim.other_self_s"),
            alone_ns as f64 / 1e9,
            shared_ns as f64 / 1e9,
            s("cpu.cores_tick_s"),
            ops as f64,
            ratio(next_op_ns as f64, ops as f64),
            s("workloads.next_op_s"),
            ratio(t.replay.access_ns as f64, t.replay.ops as f64),
            ratio(t.replay.memory_misses as f64, t.replay.ops as f64),
            ratio(t.replay.translate_ns as f64, t.replay.ops as f64),
            s("osmem.migration_feed_s"),
            dbp.migrated_pages as f64,
            dbp.fallback_allocations as f64,
            s("core.policy_epoch_s"),
            dbp.repartitions as f64,
            s("memctrl.tick_self_s"),
            s("memctrl.issue_s"),
            s("memctrl.sched_s"),
            s("memctrl.skip_s"),
            s("memctrl.anatomy_s"),
            counter(p, "memctrl/requests_enqueued") as f64,
            commands as f64,
            counter(p, "memctrl/blocked_ticks") as f64,
            counter(p, "memctrl/idle_ticks") as f64,
            ratio(read_latency, reads as f64),
            pct(components[BANK_BUSY], stall_total),
            pct(components[BUS], stall_total),
            pct(components[QUEUE_SAME] + components[QUEUE_OTHER], stall_total),
            reads_hist.value_at_quantile(0.99) as f64,
            queries as f64,
            ratio(queries as f64, commands as f64),
            dbp.row_hit_rate,
            dbp.bus_utilisation,
            dbp.accesses_per_activate,
            100.0 * (ratio(ledger.wall_ns as f64, wall_ns as f64) - 1.0),
            100.0 * (ratio(with_rec as f64, without_rec as f64) - 1.0),
            pct(ledger.get("obs.residue_s"), ledger.wall_ns),
            s("obs.residue_s"),
            s(UNMAPPED),
            ledger.wall_ns as f64 / 1e9,
            fastest_calibration_ns(timed) as f64 / 1e6,
        ],
    )
}
