//! Ablations of SGXBounds design choices (DESIGN.md §5):
//!
//! - `ablate_epc`: EPC-size sensitivity of a thrashing workload under each
//!   scheme — shows where ASan's shadow pushes the working set over the
//!   cliff while SGXBounds stays on the baseline's side.
//! - `ablate_boundless`: fail-stop vs boundless overhead on a clean run
//!   (the LRU cache must cost nothing off the attack path).
//! - `ablate_lb_layout`: full checks vs UB-only checks isolate the cost of
//!   the appended-LB load that the layout makes cache-cheap.

use criterion::{criterion_group, criterion_main, Criterion};
use sgxbounds::SbConfig;
use sgxs_bench::{bench_rc, BENCH_PRESET};
use sgxs_harness::{run_one, RunConfig, Scheme};
use sgxs_workloads::SizeClass;

fn epc_sweep() {
    println!("\nAblation: kmeans cycles by EPC size (scheme x EPC)");
    let w = sgxs_workloads::by_name("kmeans").unwrap();
    for epc_kb in [256u64, 736, 2048, 8192] {
        for scheme in [Scheme::Baseline, Scheme::SgxBounds, Scheme::Asan] {
            let mut rc = RunConfig::new(BENCH_PRESET);
            rc.params.size = SizeClass::M;
            rc.epc_override = Some(epc_kb << 10);
            let m = run_one(w.as_ref(), scheme, &rc);
            println!(
                "  epc={epc_kb}KB {:<10} cycles={} faults={}",
                scheme.label(),
                m.wall_cycles,
                m.stats.epc_faults
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    epc_sweep();
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    // Boundless on/off on a clean (attack-free) run.
    for (label, boundless) in [("failstop", false), ("boundless", true)] {
        g.bench_function(format!("kmeans/{label}"), |b| {
            let w = sgxs_workloads::by_name("kmeans").unwrap();
            let cfg = SbConfig {
                boundless,
                ..SbConfig::default()
            };
            b.iter(|| run_one(w.as_ref(), Scheme::SgxBoundsCustom(cfg), &bench_rc()))
        });
    }
    // LB-load cost: optimizations off (full checks incl. LB load) vs
    // hoisting on (LB checks gone from hot loops).
    for (label, cfg) in [
        ("full_checks", SbConfig::UNOPTIMIZED),
        ("hoisted", SbConfig::default()),
    ] {
        g.bench_function(format!("linear_regression/{label}"), |b| {
            let w = sgxs_workloads::by_name("linear_regression").unwrap();
            b.iter(|| run_one(w.as_ref(), Scheme::SgxBoundsCustom(cfg), &bench_rc()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
