//! Ceiling probes and process memory.
//!
//! Each probe streams one buffer of [`PROBE_BYTES`]: at least four
//! times the last-level cache of the machines this benchmark was sized
//! on (105 MiB L3), so the probes run from memory, as the workloads
//! largely do, not from cache.

use std::hint::black_box;
use std::time::Instant;

pub const PROBE_BYTES: usize = 448 << 20;

pub struct Ceilings {
    pub probe_mib: f64,
    pub memcpy_mbps: f64,
    pub crc32_mbps: f64,
    pub sha256_mbps: f64,
}

fn mbps(bytes: usize, t0: Instant) -> f64 {
    bytes as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// memcpy (lower half onto upper half), `plfs::crc32` and
/// `plfs::sha256` over one seeded buffer.
pub fn ceilings() -> Ceilings {
    let mut buf = vec![0u8; PROBE_BYTES];
    workloads::oplog::fill_payload(7, 0, &mut buf);
    let half = PROBE_BYTES / 2;
    let t0 = Instant::now();
    let (lo, hi) = buf.split_at_mut(half);
    hi.copy_from_slice(black_box(lo));
    black_box(&hi[half - 1]);
    let memcpy_mbps = mbps(half, t0);
    let t0 = Instant::now();
    black_box(plfs::crc32(black_box(&buf)));
    let crc32_mbps = mbps(PROBE_BYTES, t0);
    let t0 = Instant::now();
    black_box(plfs::sha256(black_box(&buf)));
    let sha256_mbps = mbps(PROBE_BYTES, t0);
    Ceilings { probe_mib: (PROBE_BYTES >> 20) as f64, memcpy_mbps, crc32_mbps, sha256_mbps }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process, MiB (`getrusage`, Linux `KiB`).
pub fn peak_rss_mib() -> f64 {
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s) and lives for the
    // call; RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc == 0 {
        ru.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
