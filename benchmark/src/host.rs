//! What the benchmark reads from the host: core count, a fixed
//! reference loop, steal time, peak memory and CPU time.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a kernel CPU mask: 1024 CPUs, what glibc's `cpu_set_t` holds.
const MASK_WORDS: usize = 16;

/// The affinity mask the process started with, and the one core it was
/// narrowed to.
pub struct Pinned {
    pub core: usize,
    original: [u64; MASK_WORDS],
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to the highest-numbered core it may run on (core 0 takes most of
/// a guest's interrupts). `None` where the host refuses. Call before
/// anything spawns a thread.
pub fn pin_to_one_core() -> Option<Pinned> {
    let mut original = [0u64; MASK_WORDS];
    // SAFETY: `original` is a live, writable array of exactly the byte
    // length passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr()) } != 0
    {
        return None;
    }
    let word = original.iter().rposition(|&w| w != 0)?;
    let core = word * 64 + (63 - original[word].leading_zeros() as usize);
    let mut only = [0u64; MASK_WORDS];
    only[word] = 1 << (core % 64);
    // SAFETY: `only` is a live array of exactly the byte length passed.
    let narrowed =
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } == 0;
    narrowed.then_some(Pinned { core, original })
}

impl Pinned {
    /// Gives the calling thread (and threads it spawns from now on) the
    /// original mask back; threads spawned while pinned stay pinned.
    pub fn release(&self) {
        // SAFETY: `original` is a live array of exactly the byte length
        // passed. Restoring a mask the kernel itself reported cannot fail
        // in a way that matters here, so the result is ignored.
        unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of_val(&self.original),
                self.original.as_ptr(),
            )
        };
    }
}

/// Iterations of the reference loop: a dependent xorshift chain that
/// takes about 50 ms on the 2-vCPU host the benchmark was tuned on.
const REFERENCE_ITERATIONS: u64 = 23_500_000;

/// Times one fixed amount of register-only work. It touches no memory
/// and none of evprop, so when two readings of one run differ the host
/// moved, not the code.
pub fn reference_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..REFERENCE_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The first whitespace-separated fields of the line of `text` that
/// starts with `key`, parsed as integers.
fn fields_after(text: &str, key: &str) -> Vec<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| {
            rest.split_whitespace()
                .map_while(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Milliseconds the hypervisor ran something else while a vCPU was
/// runnable, summed over cores since boot (`steal` column of
/// `/proc/stat`, in 10-ms ticks); 0 where the file is unreadable.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    fields_after(&stat, "cpu ")
        .get(7)
        .map_or(0.0, |&t| t as f64 * 10.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    fields_after(&status, "VmHWM:")
        .first()
        .map_or(0.0, |&kb| kb as f64 / 1024.0)
}

/// User + system CPU time of this process in microseconds, all threads
/// (`/proc/self/stat`, 10-ms ticks).
pub fn cpu_time_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from
    // the closing parenthesis: utime and stime are the 12th and 13th
    // after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10_000.0
}
