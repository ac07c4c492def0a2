//! Microbenchmarks: the per-component costs that determine the
//! simulator's cycles-per-second throughput.
//!
//! Runs on the in-tree `dbp_util::bench` runner (no external harness);
//! iteration counts are tunable via `DBP_BENCH_ITERS` / `DBP_BENCH_WARMUP`.
//! The registry lives in the library (rather than the bench target) so
//! `cargo bench -p dbp-bench --bench micro` and any future callers share
//! one definition of what gets measured.
//!
//! The committed perf baseline (`BENCH_baseline.json` at the repo root)
//! is the output of this registry; regenerate it with:
//!
//! ```text
//! DBP_BENCH_JSON=$PWD/BENCH_baseline.json cargo bench -q -p dbp-bench --bench micro
//! ```

use dbp_cache::{Hierarchy, HierarchyConfig};
use dbp_cpu::{Core, CoreConfig, MemIssue, ReplaySource, TraceOp};
use dbp_dram::{Command, Dram, DramConfig};
use dbp_memctrl::scheduler::{FrFcfs, Tcm};
use dbp_memctrl::{CtrlConfig, MemRequest, MemoryController};
use dbp_obs::{Prof, Recorder};
use dbp_osmem::{ColorSet, FrameAllocator};
use dbp_sim::{SimConfig, System};
use dbp_util::bench::Runner;
use dbp_workloads::{profiles, SyntheticTrace};

fn bench_dram_commands(r: &mut Runner) {
    let cfg = DramConfig::fast_test();
    r.bench_batched(
        "dram/act_rd_pre_cycle",
        3, // ACT + RD + PRE
        || Dram::new(cfg.clone()),
        |mut d| {
            let mut now = 0;
            let act = Command::activate(0, 0, 0, 1);
            now = d.earliest_issue(&act, now).unwrap();
            d.issue(&act, now);
            let rd = Command::read(0, 0, 0, 1, 0, false);
            now = d.earliest_issue(&rd, now).unwrap();
            d.issue(&rd, now);
            let pre = Command::precharge(0, 0, 0);
            now = d.earliest_issue(&pre, now).unwrap();
            d.issue(&pre, now);
            d
        },
    );
}

fn filled_controller(sched: Box<dyn dbp_memctrl::Scheduler>) -> MemoryController {
    let mut mc =
        MemoryController::new(Dram::new(DramConfig::fast_test()), CtrlConfig::default(), sched, 4);
    for i in 0..32u64 {
        mc.enqueue(MemRequest::demand_read(i, (i % 4) as usize, i * 4096, 0));
    }
    mc
}

fn bench_controller_tick(r: &mut Runner) {
    r.bench_batched(
        "controller_tick/frfcfs_32deep",
        64,
        || filled_controller(Box::new(FrFcfs)),
        |mut mc| {
            let mut done = Vec::new();
            for now in 0..64 {
                mc.tick(now, &mut done);
            }
            mc
        },
    );
    r.bench_batched(
        "controller_tick/tcm_32deep",
        64,
        || filled_controller(Box::new(Tcm::new(Default::default(), 4))),
        |mut mc| {
            let mut done = Vec::new();
            for now in 0..64 {
                mc.tick(now, &mut done);
            }
            mc
        },
    );
}

fn bench_allocator(r: &mut Runner) {
    let cfg = DramConfig { rows_per_bank: 256, ..DramConfig::default() };
    r.bench_batched(
        "frame_allocator/alloc_free_1k",
        1024,
        || FrameAllocator::new(&cfg),
        |mut a| {
            let allowed = ColorSet::range(0, 8);
            let mut frames = Vec::with_capacity(1024);
            for _ in 0..1024 {
                frames.push(a.alloc(&allowed).unwrap());
            }
            for f in frames {
                a.free(f);
            }
            a
        },
    );
}

fn bench_cache(r: &mut Runner) {
    r.bench_batched(
        "cache/hierarchy_stream_4k",
        4096,
        || Hierarchy::new(HierarchyConfig::default()),
        |mut h| {
            for i in 0..4096u64 {
                h.access(i * 64, i % 5 == 0);
            }
            h
        },
    );
}

fn bench_trace_generation(r: &mut Runner) {
    use dbp_cpu::TraceSource;
    let mut t = SyntheticTrace::new(profiles::by_name("mcf"), 1);
    r.bench("workloads/synthetic_mcf_4k_ops", 4096, || {
        let mut acc = 0u64;
        for _ in 0..4096 {
            acc ^= t.next_op().addr;
        }
        acc
    });
}

/// Simulated cycles of the forwarded compute window.
const FORWARD_CYCLES: u64 = 100_000;

fn bench_core_forward(r: &mut Runner) {
    // One core in a long compute gap, entered with eight cache-hit loads
    // still in flight: the window opens head-blocked on their timers,
    // then streams. This is the window the time-skipping core hands to
    // `Core::forward` on compute-bound mixes; the cost should track the
    // window's events, not its length.
    let hits = (0..8).map(|i| TraceOp { gap: 0, addr: i * 64, is_write: false });
    let gap = TraceOp { gap: 500_000, addr: 1 << 20, is_write: false };
    let ops: Vec<TraceOp> = hits.chain([gap]).collect();
    r.bench_batched(
        "cpu/forward_compute",
        FORWARD_CYCLES, // simulated CPU cycles
        || {
            let mut core =
                Core::new(CoreConfig::default(), Box::new(ReplaySource::new(ops.clone())));
            let mut hit = |_: u64, _: bool, _: u64| MemIssue::Done { latency: 12 };
            let mut now = 0;
            while core.compute_horizon() < FORWARD_CYCLES {
                core.tick(now, &mut hit);
                now += 1;
            }
            (core, now)
        },
        |(mut core, now)| {
            core.forward(now, FORWARD_CYCLES);
            core
        },
    );
}

fn step_system(prof: Prof) -> System {
    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 0;
    let traces: Vec<Box<dyn dbp_cpu::TraceSource>> = ["mcf", "lbm", "libquantum", "milc"]
        .iter()
        .enumerate()
        .map(|(i, n)| {
            Box::new(SyntheticTrace::new(profiles::by_name(n), i as u64))
                as Box<dyn dbp_cpu::TraceSource>
        })
        .collect();
    System::with_instrumentation(cfg, traces, Recorder::disabled(), prof)
}

fn bench_end_to_end(r: &mut Runner) {
    // The headline throughput number — and, versus its `_profiled` twin
    // below, the measured cost of an *enabled* profiler. (A disabled one
    // costs a branch per span site; the perf gate on this entry is what
    // holds that claim to <2% across PRs.)
    //
    // `advance` (event-driven time skipping) is the production path every
    // experiment takes through `System::run`; the elements count stays
    // "simulated CPU cycles", so melems/s is simulated Mcycles per
    // wall-second and is directly comparable with the retired stepped-era
    // baselines.
    r.bench_batched(
        "system/step_100k_cycles_4core",
        100_000, // simulated CPU cycles
        || step_system(Prof::disabled()),
        |mut sys| {
            while sys.cycle() < 100_000 {
                sys.advance(100_000);
            }
            sys
        },
    );
    r.bench_batched(
        "system/step_100k_cycles_4core_profiled",
        100_000,
        || step_system(Prof::enabled()),
        |mut sys| {
            while sys.cycle() < 100_000 {
                sys.advance(100_000);
            }
            sys
        },
    );
}

/// Register every microbenchmark on `r` (the order is the report order).
pub fn register_all(r: &mut Runner) {
    bench_dram_commands(r);
    bench_controller_tick(r);
    bench_allocator(r);
    bench_cache(r);
    bench_core_forward(r);
    bench_trace_generation(r);
    bench_end_to_end(r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_util::bench::BenchConfig;

    #[test]
    fn registry_runs_and_names_are_unique() {
        let mut r = Runner::new(BenchConfig { warmup_iters: 0, iters: 1 });
        register_all(&mut r);
        let names: Vec<&str> = r.results().iter().map(|s| s.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate bench names: {names:?}");
        assert!(names.contains(&"cpu/forward_compute"));
        assert!(names.contains(&"system/step_100k_cycles_4core"));
        assert!(names.contains(&"system/step_100k_cycles_4core_profiled"));
    }
}
