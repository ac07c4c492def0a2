//! The benchmark's own tests, on shortened passes of every workload.

use dbp_obs::Prof;
use dbp_perfbench::{
    end_to_end, per_layer, run_pass, stream, traced_run, Ledger, Pass, Workload, DEFAULT_SEED,
    END_TO_END, GATED_WORKLOADS, PER_LAYER, WORKLOADS,
};

fn short(name: &str) -> Workload {
    Workload::by_name(name).expect("known workload").shortened()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|&(n, _)| n).collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "metric names must be unique");
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = dbp_obs::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("array")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), GATED_WORKLOADS);
    assert_eq!(names("end_to_end"), END_TO_END.map(|(n, _)| n));
    assert_eq!(names("per_layer"), PER_LAYER.map(|(n, _)| n));
}

#[test]
fn default_seed_reproduces_the_runner_streams() {
    let w = short("intensive4");
    for core in 0..w.mix.cores() {
        let mut ours = stream(&w.mix, core, DEFAULT_SEED);
        let mut theirs = dbp_sim::runner::trace_for(&w.mix, core);
        for _ in 0..1000 {
            assert_eq!(ours.next_op(), theirs.next_op());
        }
    }
}

#[test]
fn exact_metrics_repeat_across_two_passes() {
    for name in WORKLOADS {
        let w = short(name);
        let a = run_pass(&w, 7, &Prof::disabled());
        let b = run_pass(&w, 7, &Prof::disabled());
        assert!(a.check().is_empty(), "{name}: {:?}", a.check());
        assert_eq!(a.digest(), b.digest(), "{name}: simulated results differ");
        let simulated = |m: &[dbp_perfbench::Metric]| -> Vec<u64> {
            m[3..].iter().map(|x| x.value.to_bits()).collect()
        };
        assert_eq!(
            simulated(&end_to_end(&[a], 1.0)),
            simulated(&end_to_end(&[b], 1.0)),
            "{name}: simulated end-to-end metrics differ"
        );
    }
}

#[test]
fn traced_pass_ledger_sums_to_the_traced_wall() {
    for name in WORKLOADS {
        let w = short(name);
        let timed = run_pass(&w, 3, &Prof::disabled());
        let t = traced_run(&w, 3);
        assert_eq!(t.pass.digest(), timed.digest(), "{name}: tracing changed the simulation");
        let ledger = Ledger::from_profile(&t.profile);
        assert!(ledger.wall_ns > 0);
        assert_eq!(ledger.sum_ns(), ledger.wall_ns, "{name}: {ledger:?}");
        assert_eq!(ledger.get(dbp_perfbench::UNMAPPED), 0, "{name}: unmapped spans");
        let m = per_layer(&[timed], &t);
        let get = |n: &str| m.iter().find(|x| x.name == n).expect(n).value;
        assert!(get("sim.cycles_stepped") > 0.0 && get("workloads.ops") > 0.0);
        assert!(get("memctrl.commands_issued") > 0.0 && get("dram.timing_queries") > 0.0);
        assert!(get("cache.memory_miss_rate") > 0.0 && get("cache.memory_miss_rate") <= 1.0);
    }
}

#[test]
fn a_fresh_seed_changes_the_streams_but_not_the_metric_names() {
    let w = short("light4");
    let mut a = stream(&w.mix, 0, DEFAULT_SEED);
    let mut b = stream(&w.mix, 0, 12345);
    assert!((0..100).any(|_| a.next_op() != b.next_op()), "seed must change the stream");
    let default = run_pass(&w, DEFAULT_SEED, &Prof::disabled());
    let fresh = run_pass(&w, 12345, &Prof::disabled());
    assert_ne!(default.digest(), fresh.digest());
    let names = |p: &Pass| {
        end_to_end(std::slice::from_ref(p), 1.0).into_iter().map(|m| m.name).collect::<Vec<_>>()
    };
    assert_eq!(names(&default), names(&fresh));
    let t = traced_run(&w, 12345);
    let layer_names: Vec<&str> = per_layer(&[fresh], &t).iter().map(|m| m.name).collect();
    assert_eq!(layer_names, PER_LAYER.map(|(n, _)| n));
}
