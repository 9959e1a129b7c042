//! Calibrated primitive timings. Every sample is one batch of at least
//! 10 ms, so the clock's own cost (tens of ns per read) disappears into
//! the batch; a one-call-per-sample harness would time the clock instead.

use sgxbounds::tagged;
use sgxs_sim::cache::Cache;
use sgxs_sim::{Machine, MachineConfig, Mode, Preset};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time of one sample batch.
const MIN_BATCH: Duration = Duration::from_millis(10);
/// Samples per primitive; the reported figure is their median.
const SAMPLES: usize = 5;

/// Host nanoseconds per operation: `batch(n)` runs `n` operations and
/// returns a checksum. The batch size doubles until one batch takes at
/// least [`MIN_BATCH`], then [`SAMPLES`] batches of that size are timed.
pub fn per_op_ns(mut batch: impl FnMut(u64) -> u64) -> f64 {
    let mut n = 1024u64;
    loop {
        let t0 = Instant::now();
        black_box(batch(n));
        if t0.elapsed() >= MIN_BATCH {
            break;
        }
        n *= 2;
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(batch(n));
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    crate::median(&mut ns)
}

/// The four primitives: (name, ns per operation).
pub fn measure() -> Vec<(&'static str, f64)> {
    let cache_hit = {
        let mut cache = Cache::new(32 << 10, 8);
        cache.access(0x1000);
        per_op_ns(|n| (0..n).map(|_| cache.access(black_box(0x1000)) as u64).sum())
    };
    let cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
    let l1_hit = {
        let mut m = Machine::new(cfg);
        m.store(0, 0x1000, 8, 7).expect("store to a fresh page");
        per_op_ns(|n| {
            (0..n)
                .map(|_| m.load(0, black_box(0x1000), 8).expect("load").0)
                .sum()
        })
    };
    // Page-strided loads over a range larger than the Tiny preset's EPC:
    // every load misses the cache hierarchy and faults its page in.
    let epc_fault = {
        let mut m = Machine::new(cfg);
        let mut a = 0u64;
        per_op_ns(|n| {
            (0..n)
                .map(|_| {
                    a = (a + 4096) % (8 << 20);
                    m.load(0, black_box(a), 8).expect("load").0
                })
                .sum()
        })
    };
    let tagged_check = per_op_ns(|n| {
        (0..n)
            .map(|i| {
                let t = tagged::make(black_box(0x1000 + (i as u32 & 0xff)), black_box(0x2000));
                let p = tagged::ptr_of(t);
                let ub = tagged::ub_of(t);
                tagged::violates(p, 8, 0x1000, ub) as u64
            })
            .sum()
    });
    vec![
        ("sim.cache_hit_ns", cache_hit),
        ("sim.load_l1_hit_ns", l1_hit),
        ("sim.load_epc_fault_ns", epc_fault),
        ("sgxbounds.tagged_check_ns", tagged_check),
    ]
}
