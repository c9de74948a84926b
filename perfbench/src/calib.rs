//! Host-speed calibration.
//!
//! The benchmark's host is a small VM on a shared machine whose speed
//! drifts by a third over seconds as other tenants come and go; raw
//! per-run times of identical work then spread by 15–25%. A fixed
//! probe of the benchmark's own code — hashing, sorting, a pointer
//! chase and a floating-point chain, none of it from the program under
//! test — is timed before and after every pass, and the pass's times
//! are scaled by `REFERENCE_S` over the probe's mean. The scaled times
//! are host seconds on a reference host where the probe takes
//! `REFERENCE_S`; a change to the program moves them, a change in the
//! neighbours' load mostly does not.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on the reference host (a 2-core 2.1 GHz Xeon
/// VM, unloaded), seconds.
pub const REFERENCE_S: f64 = 0.015;

/// Runs the probe once and returns its host time in seconds.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A fixed-key hasher, so every probe does the same work.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 16, BuildHasherDefault::default());
    for i in 0..60_000 {
        map.insert(rnd() & 0xF_FFFF, i);
    }
    let hits: u64 = (0..200_000)
        .filter_map(|_| map.get(&(rnd() & 0xF_FFFF)))
        .sum();
    let mut sorted: Vec<u64> = (0..100_000).map(|_| rnd()).collect();
    sorted.sort_unstable();
    let n = 1u32 << 20;
    let mut next: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        next.swap(i, (rnd() % (i as u64 + 1)) as usize);
    }
    let mut at = 0u32;
    for _ in 0..200_000 {
        at = next[at as usize];
    }
    let mut f = 0.0f64;
    for i in 0..300_000 {
        f = f.mul_add(1.000_000_1, f64::from(i).sqrt());
    }
    black_box((hits, sorted, at, f));
    t.elapsed().as_secs_f64()
}
