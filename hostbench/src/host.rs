//! Host-speed calibration. The benchmark runs on shared machines whose
//! speed drifts by tens of percent over minutes (an identical pass can take
//! 2.8 s or 4.2 s back to back, with no steal time), which swamps any
//! change worth detecting. Each run therefore times a fixed calibration
//! loop and reports its end-to-end times at a nominal host speed: a drift
//! slows the loop and the workload alike and cancels, while a change to
//! the program under test leaves the loop untouched.
//!
//! The loop is timed in two places. Samples between passes scale the
//! set-up processes timed there. Rates are scaled by samples taken during
//! the pass itself, on the threads that run it: the host's speed moves
//! within a pass (a 13 s fig8 pass took 7.4 s to 15.1 s over ten minutes),
//! and each core's speed moves on its own, so neither samples at the ends
//! of a pass nor a sampler on a spare core follow it.

use std::hint::black_box;
use std::time::Instant;

/// Calibration-loop speed per thread (operations per second) that the normalized
/// figures are expressed at. A fixed scale: the loop runs at 4–7e8 on the
/// 2-core VM the benchmark was written on, so normalized rates read about
/// 1.1–2× the raw ones there.
pub const NOMINAL_OPS_PER_S: f64 = 8.0e8;

/// Operations per calibration sample between passes (about 0.12 s at
/// nominal speed).
const SAMPLE_OPS: u64 = 100_000_000;

/// Operations per sample taken during a pass (a few ms).
const BURST_OPS: u64 = 2_000_000;

/// Table words per thread: 64 KiB, small enough not to move `peak_rss_mb`.
const TABLE: usize = 1 << 13;

/// Calibration samples taken during one run.
pub struct HostClock {
    threads: usize,
    samples: Vec<f64>,
}

impl HostClock {
    /// A clock sampling with `threads` concurrent loops: the number of
    /// threads the workload keeps busy, so that contention for the second
    /// core (which a two-worker campaign feels and a one-thread suite does
    /// not) shows in the calibration too.
    pub fn new(threads: usize) -> HostClock {
        HostClock {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Times one calibration sample: every thread runs the loop once.
    /// Returns this sample's factor, like [`HostClock::factor`].
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..self.threads {
                s.spawn(|| black_box(calibration_loop(&mut vec![0; TABLE], SAMPLE_OPS)));
            }
        });
        let ops = (SAMPLE_OPS * self.threads as u64) as f64;
        let speed = ops / t0.elapsed().as_secs_f64();
        self.samples.push(speed);
        NOMINAL_OPS_PER_S * self.threads as f64 / speed
    }

    /// Median speed over the run's samples, in operations per second.
    pub fn speed(&self) -> f64 {
        crate::median(&mut self.samples.clone())
    }

    /// Factor that scales a rate measured now to nominal host speed
    /// (`rate × factor`); divide a time by it.
    pub fn factor(&self) -> f64 {
        NOMINAL_OPS_PER_S * self.threads as f64 / self.speed()
    }
}

/// Times `pass` while sampling the host's speed on the threads that run
/// it. Returns the pass's result, its host seconds, and the factor of the
/// median sample (as [`HostClock::factor`]); `None` when no sample was
/// taken (a pass shorter than one tick, or no profiling timer).
pub fn time_sampled<R>(pass: impl FnOnce() -> R) -> (R, f64, Option<f64>) {
    let ((r, secs), mut speeds) = tick::sampled(|| {
        let t0 = Instant::now();
        let r = pass();
        (r, t0.elapsed().as_secs_f64())
    });
    let f = (!speeds.is_empty()).then(|| NOMINAL_OPS_PER_S / crate::median(&mut speeds));
    (r, secs, f)
}

/// In-pass sampling through the profiling timer: every 100 ms of process
/// CPU time the kernel sends `SIGPROF` to a thread that is running, and
/// the handler times a short calibration burst right there, on that
/// thread and core. The bursts take about 4% of the pass's CPU time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod tick {
    use super::{calibration_loop, BURST_OPS, TABLE};
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Instant;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SIG_IGN: usize = 1;
    /// Process CPU time between two samples.
    const PERIOD_US: i64 = 100_000;
    /// Samples kept per pass (400 s of CPU time); later ones are dropped.
    const SLOTS: usize = 4096;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    extern "C" {
        fn signal(sig: i32, handler: usize) -> usize;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: AtomicU64 = AtomicU64::new(0);
    /// Nanoseconds of each burst of the current pass.
    static BURST_NS: [AtomicU64; SLOTS] = [EMPTY; SLOTS];
    /// Bursts taken in the current pass.
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// The `SIGPROF` handler. Async-signal-safe: it allocates nothing and
    /// takes no lock (the table lives on the interrupted thread's stack,
    /// the clock read is a vDSO call, and the result goes to atomics).
    extern "C" fn on_tick(_: i32) {
        let mut table = [0u64; TABLE];
        let t0 = Instant::now();
        black_box(calibration_loop(&mut table, BURST_OPS));
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(slot) = BURST_NS.get(TAKEN.fetch_add(1, Ordering::Relaxed)) {
            slot.store(ns, Ordering::Relaxed);
        }
    }

    fn set_timer(period_us: i64) -> bool {
        let tv = || Timeval {
            sec: 0,
            usec: period_us,
        };
        let t = Itimerval {
            interval: tv(),
            value: tv(),
        };
        // SAFETY: `t` is a valid itimerval for the call; the old value is
        // not asked for.
        unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) == 0 }
    }

    /// Disarms the timer and ignores a `SIGPROF` still pending, however
    /// the pass ends.
    struct Disarm;

    impl Drop for Disarm {
        fn drop(&mut self) {
            set_timer(0);
            // SAFETY: SIG_IGN is a valid disposition for SIGPROF.
            unsafe { signal(SIGPROF, SIG_IGN) };
        }
    }

    /// Runs `pass` with the timer armed; returns its result and the speed
    /// of every burst taken meanwhile, in operations per second.
    pub fn sampled<R>(pass: impl FnOnce() -> R) -> (R, Vec<f64>) {
        TAKEN.store(0, Ordering::Relaxed);
        // SAFETY: `on_tick` is async-signal-safe (see there). glibc's
        // `signal` installs it with SA_RESTART, so interrupted system calls
        // in the workload resume.
        unsafe { signal(SIGPROF, on_tick as extern "C" fn(i32) as usize) };
        let disarm = Disarm;
        let armed = set_timer(PERIOD_US);
        let r = pass();
        drop(disarm);
        let taken = if armed {
            TAKEN.load(Ordering::Relaxed).min(SLOTS)
        } else {
            0
        };
        let speeds = BURST_NS[..taken]
            .iter()
            .map(|ns| BURST_OPS as f64 * 1e9 / ns.load(Ordering::Relaxed) as f64)
            .collect();
        (r, speeds)
    }
}

/// Without a profiling timer no pass is sampled: rates keep the run's
/// factor.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod tick {
    pub fn sampled<R>(pass: impl FnOnce() -> R) -> (R, Vec<f64>) {
        (pass(), Vec::new())
    }
}

/// A register-machine loop with branchy dispatch and table loads and
/// stores, the simulator's own mix, over `table` (a power-of-two length).
fn calibration_loop(table: &mut [u64], ops: u64) -> u64 {
    let mut r = [1u64, 2, 3, 4];
    let mut pc = 0u64;
    let mask = table.len() - 1;
    for i in 0..black_box(ops) {
        match (pc ^ i) & 7 {
            0 => r[0] = r[0].wrapping_mul(6364136223846793005).wrapping_add(1),
            1 => r[1] ^= r[0] >> 7,
            2 => r[2] = r[2].wrapping_add(table[(r[0] >> 3) as usize & mask]),
            3 => table[r[1] as usize & mask] = r[2],
            4 => r[3] = r[3].rotate_left(13) ^ r[1],
            5 => {
                if r[3] & 1 == 0 {
                    pc = pc.wrapping_add(3)
                }
            }
            6 => r[2] = r[2].wrapping_sub(r[3]),
            _ => pc = pc.wrapping_add(r[0] & 15),
        }
        pc = pc.wrapping_add(1);
    }
    r.iter().fold(0, |a, x| a ^ x) ^ table[7]
}
