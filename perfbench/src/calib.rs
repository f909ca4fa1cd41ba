//! The benchmark's clock, and the host-speed calibration its times are
//! scaled by.
//!
//! **Clock.** Every time is CPU time of this process. The benchmark is
//! serial, so on an unshared core CPU time equals wall time; on a shared
//! host it leaves out the time the core ran something else (another
//! process, or another tenant of the host, which the kernel accounts as
//! steal).
//!
//! **Calibration.** The benchmark also shares each physical core's
//! execution ports, caches and memory with other tenants. When they are
//! busy, the codec's kernels take up to 1.75 times as long and the
//! simulator up to 1.4 times, for seconds at a time, and neither shows in
//! CPU time. So every
//! timed operation is bracketed by runs of three fixed reference kernels
//! that live in this package, so no change to the program moves them, and
//! its time is rescaled to what it would have been had the kernels taken
//! their reference times:
//!
//! ```text
//! normalized = measured / slowdown,  slowdown = kernel time / reference time
//! ```
//!
//! - The **core** kernel is a frozen copy of the kind of work the canonical
//!   codec does, on buffers that stay in cache: a prequantization pass
//!   (scale, round half up, convert) and a bit-shuffle of 32-value blocks
//!   into bit planes. It keeps several execution ports busy, as the
//!   codec's kernels do, and codec times are scaled by its slowdown alone.
//! - The **cache** and **memory** kernels are walks of dependent loads over
//!   a 256 KiB table, which stays in L2, and a 16 MiB one, which mostly
//!   does not. Simulator times are scaled by the mean slowdown of all
//!   three kernels, the mix that tracked the simulator's slow phases best
//!   in probes on the benchmark's host.

use std::hint::black_box;
use std::os::raw::{c_int, c_long};

/// Core-kernel CPU seconds on the reference host, about what the kernel
/// takes on a 2-vCPU Xeon VM at 2.1 GHz when its neighbours are quiet.
pub const REFERENCE_CORE_S: f64 = 0.004;
/// Cache-kernel CPU seconds on the reference host.
pub const REFERENCE_CACHE_S: f64 = 0.003;
/// Memory-kernel CPU seconds on the reference host.
pub const REFERENCE_MEMORY_S: f64 = 0.007;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU time of this process, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec, and the process CPU-time
    // clock exists on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on the CPU-time clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(u64);

impl CpuInstant {
    /// Now.
    pub fn now() -> Self {
        Self(cpu_ns())
    }

    /// CPU seconds since `self`.
    pub fn elapsed_s(self) -> f64 {
        (cpu_ns() - self.0) as f64 * 1e-9
    }
}

/// What an operation's time is scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The host codec: the core kernel's slowdown.
    Codec,
    /// The simulator: the mean slowdown of all three kernels.
    Simulator,
}

/// Kernel times measured around an operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Core-kernel CPU seconds.
    pub core_s: f64,
    /// Cache-kernel CPU seconds.
    pub cache_s: f64,
    /// Memory-kernel CPU seconds.
    pub memory_s: f64,
}

impl Speed {
    /// The mean of two measurements, one before and one after an
    /// operation.
    pub fn around(before: Self, after: Self) -> Self {
        Self {
            core_s: (before.core_s + after.core_s) / 2.0,
            cache_s: (before.cache_s + after.cache_s) / 2.0,
            memory_s: (before.memory_s + after.memory_s) / 2.0,
        }
    }

    /// How many times slower than the reference host the host ran, for
    /// `load`.
    pub fn slowdown(self, load: Load) -> f64 {
        let core = self.core_s / REFERENCE_CORE_S;
        match load {
            Load::Codec => core,
            Load::Simulator => {
                (core + self.cache_s / REFERENCE_CACHE_S + self.memory_s / REFERENCE_MEMORY_S) / 3.0
            }
        }
    }
}

/// Values per core-kernel run (512 KiB of f32).
const VALUES: usize = 1 << 17;
/// Bit planes shuffled per block.
const PLANES: usize = 12;
/// Values per block.
const BLOCK: usize = 32;
/// Entries of the cache kernel's table (256 KiB).
const CACHE_TABLE: usize = 1 << 16;
/// Dependent loads per cache-kernel run.
const CACHE_STEPS: usize = 400_000;
/// Entries of the memory kernel's table (16 MiB).
const MEMORY_TABLE: usize = 1 << 22;
/// Dependent loads per memory-kernel run.
const MEMORY_STEPS: usize = 40_000;

/// The reference kernels' fixed inputs and scratch buffers.
pub struct Calibrator {
    values: Vec<f32>,
    quantized: Vec<i64>,
    magnitudes: Vec<u32>,
    planes: Vec<u8>,
    cache: Walk,
    memory: Walk,
}

/// A cycle of dependent loads through a table.
struct Walk {
    /// `next[i]` is the entry after `i`: one cycle through every entry.
    next: Vec<u32>,
    /// Where the walk resumes, so that successive runs visit different
    /// entries.
    at: usize,
}

impl Walk {
    /// A random single cycle through `len` entries (Sattolo's shuffle), so
    /// the walk never settles into a short loop.
    fn new(len: usize, s: &mut u64) -> Self {
        let mut next: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            let j = (lcg(s) % i as u64) as usize;
            next.swap(i, j);
        }
        Self { next, at: 0 }
    }

    fn run(&mut self, steps: usize) -> usize {
        let next = black_box(&self.next);
        let mut i = self.at;
        for _ in 0..steps {
            i = next[i] as usize;
        }
        self.at = i;
        i
    }
}

/// A fixed 64-bit LCG, so the kernels' inputs never depend on the seed.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 16
}

impl Calibrator {
    /// Build the kernels' inputs and run each once to warm it.
    pub fn new() -> Self {
        let mut s = 0x5eed_u64;
        let values = (0..VALUES)
            .map(|i| (i as f32 * 1e-3).sin() * 100.0 + (lcg(&mut s) % 1000) as f32 * 1e-3)
            .collect();
        let magnitudes = (0..VALUES)
            .map(|_| (lcg(&mut s) as u32) & ((1 << PLANES) - 1))
            .collect();
        let cache = Walk::new(CACHE_TABLE, &mut s);
        let memory = Walk::new(MEMORY_TABLE, &mut s);
        let mut c = Self {
            values,
            quantized: vec![0; VALUES],
            magnitudes,
            planes: vec![0; VALUES / 8 * PLANES],
            cache,
            memory,
        };
        c.measure(1);
        c
    }

    /// The median, over `n` runs, of each kernel's CPU time.
    pub fn measure(&mut self, n: usize) -> Speed {
        let mut core = Vec::with_capacity(n);
        let mut cache = Vec::with_capacity(n);
        let mut memory = Vec::with_capacity(n);
        for _ in 0..n.max(1) {
            let t = CpuInstant::now();
            black_box(self.core());
            core.push(t.elapsed_s());
            let t = CpuInstant::now();
            black_box(self.cache.run(CACHE_STEPS));
            cache.push(t.elapsed_s());
            let t = CpuInstant::now();
            black_box(self.memory.run(MEMORY_STEPS));
            memory.push(t.elapsed_s());
        }
        Speed {
            core_s: crate::stats::median(&core),
            cache_s: crate::stats::median(&cache),
            memory_s: crate::stats::median(&memory),
        }
    }

    fn core(&mut self) -> u8 {
        let recip = black_box(1.0 / (2.0 * 1e-3));
        for (q, &v) in self.quantized.iter_mut().zip(black_box(&self.values)) {
            *q = (f64::from(v) * recip + 0.5).floor() as i64;
        }
        let bytes = BLOCK / 8;
        for (m, p) in black_box(&self.magnitudes)
            .chunks(BLOCK)
            .zip(self.planes.chunks_mut(bytes * PLANES))
        {
            p.fill(0);
            for k in 0..PLANES {
                let plane = &mut p[k * bytes..(k + 1) * bytes];
                for (i, &x) in m.iter().enumerate() {
                    plane[i / 8] |= (((x >> k) & 1) as u8) << (i % 8);
                }
            }
        }
        self.planes[VALUES / 16] ^ self.quantized[VALUES / 2] as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: Speed = Speed {
        core_s: REFERENCE_CORE_S,
        cache_s: REFERENCE_CACHE_S,
        memory_s: REFERENCE_MEMORY_S,
    };

    #[test]
    fn the_reference_host_has_no_slowdown() {
        assert_eq!(REFERENCE.slowdown(Load::Codec), 1.0);
        assert_eq!(REFERENCE.slowdown(Load::Simulator), 1.0);
    }

    #[test]
    fn codec_times_follow_the_core_kernel_and_simulator_times_all_three() {
        let core_twice = Speed {
            core_s: 2.0 * REFERENCE_CORE_S,
            ..REFERENCE
        };
        assert_eq!(core_twice.slowdown(Load::Codec), 2.0);
        assert_eq!(core_twice.slowdown(Load::Simulator), 4.0 / 3.0);
        let memory_four_times = Speed {
            memory_s: 4.0 * REFERENCE_MEMORY_S,
            ..REFERENCE
        };
        assert_eq!(memory_four_times.slowdown(Load::Codec), 1.0);
        assert_eq!(memory_four_times.slowdown(Load::Simulator), 2.0);
    }

    #[test]
    fn around_is_the_mean_of_before_and_after() {
        let a = Speed {
            core_s: 1.0,
            cache_s: 2.0,
            memory_s: 4.0,
        };
        let b = Speed {
            core_s: 3.0,
            cache_s: 2.0,
            memory_s: 2.0,
        };
        assert_eq!(
            Speed::around(a, b),
            Speed {
                core_s: 2.0,
                cache_s: 2.0,
                memory_s: 3.0
            }
        );
    }

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let t = CpuInstant::now();
        let mut c = Calibrator::new();
        let speed = c.measure(1);
        assert!(speed.core_s > 0.0 && speed.cache_s > 0.0 && speed.memory_s > 0.0);
        assert!(t.elapsed_s() > 0.0);
    }

    #[test]
    fn a_walk_visits_every_entry_before_it_repeats() {
        let mut s = 1;
        let mut w = Walk::new(1000, &mut s);
        let mut seen = vec![false; 1000];
        for _ in 0..1000 {
            let i = w.run(1);
            assert!(!seen[i]);
            seen[i] = true;
        }
    }
}
