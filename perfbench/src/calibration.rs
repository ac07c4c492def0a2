//! A fixed calibration kernel that measures how fast the host is right
//! now.
//!
//! Host speed on a shared VM drifts by tens of percent over minutes, and
//! all code slows down together. The kernel runs before every pass, so
//! `sim_mcycles_per_s` can be scaled to a reference host speed (see
//! [`crate::end_to_end`]). The kernel does the same kind of work as the
//! simulator: a set-associative cache model with LRU replacement and a
//! hash table of in-flight lines, over a 4 MiB working set, driven by an
//! xorshift address stream that is part sequential and part random.
//!
//! The kernel is frozen. It uses no simulator crate, so a change to the
//! simulator cannot change its speed. Editing it changes the benchmark.

use std::time::Instant;

/// The kernel time on the reference host: `sim_mcycles_per_s` reports
/// the rate of a host on which [`kernel`] takes this long.
pub const REFERENCE_NS: u64 = 50_000_000;

const SETS: usize = 8192;
const WAYS: usize = 8;
const TABLE: usize = 1 << 14;
const ITERATIONS: u32 = 2_000_000;

/// Run the kernel once. The checksum is fixed; returning it keeps the
/// work from being optimised away.
pub fn kernel() -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut age = vec![0u32; SETS * WAYS];
    let mut table = vec![0u64; TABLE];
    let mut in_flight = 0usize;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hits = 0u64;
    let mut base = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x.is_multiple_of(4) { x % (1 << 22) } else { base + x % 64 };
        if i % 256 == 0 {
            base = (base + 4096) % (1 << 22);
        }
        let set = (line as usize % SETS) * WAYS;
        let (ways, ages) = (&mut tags[set..set + WAYS], &mut age[set..set + WAYS]);
        if let Some(w) = ways.iter().position(|&t| t == line) {
            hits += 1;
            ages[w] = i;
            continue;
        }
        let victim = (0..WAYS).min_by_key(|&w| ages[w]).unwrap_or(0);
        ways[victim] = line;
        ages[victim] = i;
        // Linear probing; the table is cleared before it can fill.
        let mut slot = (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) as usize;
        while table[slot] != 0 && table[slot] != line + 1 {
            slot = (slot + 1) % TABLE;
        }
        if table[slot] == 0 {
            table[slot] = line + 1;
            in_flight += 1;
            if in_flight == TABLE / 4 {
                table.fill(0);
                in_flight = 0;
            }
        }
    }
    hits ^ in_flight as u64
}

/// Host time of one [`kernel`] run, nanoseconds.
pub fn time_kernel() -> u64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
