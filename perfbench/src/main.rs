//! Benchmark driver: `dbp-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Runs timed passes of the workload, one after another on this thread,
//! until `--seconds` have elapsed; with `--trace 1` it then runs the
//! traced pass, the recorder-toggled DBP run and the replays. Standard
//! output gets one run record (provenance) and, as its last line, the
//! result object: `correct`, `attempted`, `failed`, `metrics`. A summary
//! table goes to standard error.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dbp_obs::Json;
use dbp_perfbench as bench;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: dbp-perfbench --workload <intensive4|light4|tcm8> [--seed <u64>] \
                     [--seconds <u64>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: bench::DEFAULT_SEED, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn load_average() -> String {
    read("/proc/loadavg").split_whitespace().take(3).collect::<Vec<_>>().join(" ")
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The source revision the benchmark was built from: FNV-1a over the
/// simulator's and the benchmark's sources, read from the working
/// directory (a benchmark checkout need not be a git repository).
fn source_revision() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        let Ok(body) = std::fs::read(f) else { continue };
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(body);
    }
    format!("src-fnv64:{:016x} ({} files)", bench::fnv1a(&bytes), files.len())
}

fn metrics_json(metrics: &[bench::Metric]) -> Json {
    Json::obj(
        metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = bench::Workload::by_name(&args.workload) else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let load_before = load_average();

    // Timed passes: every instrument off, until the budget is spent.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(bench::run_pass(&w, args.seed, &dbp_obs::Prof::disabled()));
    }
    let measured_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let traced = args.trace.then(|| bench::traced_run(&w, args.seed));

    // Output checks: every pass passes its own checks and repeats the
    // first pass's simulated results bit for bit, the traced pass too.
    let digest = passes[0].digest();
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0u64;
    for (i, p) in passes.iter().chain(traced.as_ref().map(|t| &t.pass)).enumerate() {
        let mut bad = p.check();
        if p.digest() != digest {
            bad.push("simulated results differ from pass 0".into());
        }
        if !bad.is_empty() {
            failed += 1;
            problems.extend(bad.into_iter().map(|b| format!("pass {i}: {b}")));
        }
    }
    if let Some(t) = &traced {
        let ledger = bench::Ledger::from_profile(&t.profile);
        if ledger.sum_ns() != ledger.wall_ns {
            problems.push(format!(
                "ledger: layers sum to {} ns, traced wall is {} ns",
                ledger.sum_ns(),
                ledger.wall_ns
            ));
        }
    }
    let attempted = passes.len() as u64 + u64::from(traced.is_some());

    let metrics = match &traced {
        Some(t) => bench::per_layer(&passes, t),
        None => bench::end_to_end(&passes, rss),
    };
    let stream_seeds: Vec<Json> = (0..w.mix.cores())
        .map(|c| Json::str(format!("{:016x}", bench::stream_seed(&w.mix, c, args.seed))))
        .collect();
    let record = Json::obj([(
        "run_record",
        Json::obj([
            ("workload", Json::str(w.name)),
            ("mix", Json::str(w.mix.name)),
            ("seed", Json::uint(args.seed)),
            ("stream_seeds", Json::arr(stream_seeds)),
            ("trace", Json::Bool(args.trace)),
            ("passes", Json::uint(passes.len() as u64)),
            ("measured_s", Json::num(measured_s)),
            ("system_cycles", Json::arr(passes[0].runs.iter().map(|r| Json::uint(r.cycles)))),
            (
                "system_run_ns",
                Json::arr(
                    passes.iter().map(|p| Json::arr(p.runs.iter().map(|r| Json::uint(r.run_ns)))),
                ),
            ),
            ("pass_setup_ns", Json::arr(passes.iter().map(|p| Json::uint(p.setup_ns())))),
            ("pass_digest", Json::str(format!("{digest:016x}"))),
            (
                "nproc",
                Json::uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            ("loadavg_before", Json::str(load_before)),
            ("loadavg_after", Json::str(load_average())),
            ("cpu_model", Json::str(cpu_model())),
            ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
            ("source_revision", Json::str(source_revision())),
            ("problems", Json::arr(problems.iter().map(|p| Json::str(p.clone())))),
            ("model", Json::str("unvalidated; simulated values carry no error figure")),
        ]),
    )]);
    println!("{}", record.to_json());

    eprintln!("{} seed {}: {} passes in {measured_s:.1} s", w.name, args.seed, passes.len());
    let rates: Vec<String> = passes.iter().map(|p| format!("{:.2}", p.mcycles_per_s())).collect();
    eprintln!("  per-pass Mcycles/s: {}", rates.join(" "));
    for m in &metrics {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("  FAILED: {p}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
