//! Boundless memory in a server (paper §4.2 + §7): a request handler with
//! a stack-buffer overflow keeps serving after the attack because the
//! out-of-bounds writes are redirected into the overlay LRU cache.
//!
//! Also demonstrates the §4.3 metadata API: a double-free guard installed
//! as metadata hooks.
//!
//! Run with `cargo run --example boundless_server`.

use sgxbounds::{DoubleFreeGuard, SbConfig};
use sgxs_baselines::{Protection, Setup};
use sgxs_harness::{run_one, RunConfig, Scheme};
use sgxs_mir::{ModuleBuilder, Operand, Trap, Ty};
use sgxs_rt::Stager;
use sgxs_sim::{ExecTier, Preset};
use sgxs_workloads::apps::nginx::NginxCve2013_2028;
use sgxs_workloads::{Params, SizeClass, Workload};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // Part 1: the CVE-2013-2028 server under boundless memory.
    let rc = RunConfig::new(Preset::Tiny);
    println!("== Nginx CVE-2013-2028 under boundless memory ==");
    let boundless = Scheme::SgxBoundsCustom(SbConfig {
        boundless: true,
        ..SbConfig::default()
    });
    for (label, scheme) in [("fail-stop", Scheme::SgxBounds), ("boundless", boundless)] {
        let m = run_one(&NginxCve2013_2028, scheme, &rc);
        match m.result {
            Ok(n) => println!("{label:<10} attack absorbed; {n} requests served"),
            Err(t) => println!("{label:<10} {t}"),
        }
    }

    // Part 2: the metadata-hook API catching a double free.
    println!("\n== Double-free detection via the metadata API (paper §4.3) ==");
    let mut mb = ModuleBuilder::new("dfree");
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
        fb.intr_void("free", &[p.into()]);
        fb.intr_void("free", &[p.into()]); // The bug.
        fb.ret(Some(0u64.into()));
    });
    let mut module = mb.finish();
    let sgxbounds = Protection::SgxBounds(SbConfig::default());
    let guard = Rc::new(RefCell::new(DoubleFreeGuard::new(0x5AFE_C0DE)));
    let setup = Setup {
        hooks: Some(guard.clone()),
        ..Setup::tiny(ExecTier::Reference)
    };
    let mut run = sgxbounds.launch(&mut module, setup).unwrap();
    match run.vm.run("main", &[]).result {
        Err(Trap::Abort(msg)) => println!("caught: {msg}"),
        other => println!("unexpected: {other:?}"),
    }
    println!(
        "detections recorded by the hook: {}",
        guard.borrow().detections
    );

    // Part 3: a full server run (Nginx analogue) hardened end-to-end.
    println!("\n== Hardened Nginx throughput sanity ==");
    let w = sgxs_workloads::apps::nginx::Nginx::default();
    let p = Params {
        size: SizeClass::XS,
        threads: 1,
        scale: 128,
        seed: 1,
    };
    let mut module = w.build(&p);
    let mut run = sgxbounds
        .launch(&mut module, Setup::tiny(ExecTier::Reference))
        .unwrap();
    let mut st = Stager::new();
    let args = w.stage(&mut run.vm, &mut st, &p);
    let out = run.vm.run("main", &args);
    println!(
        "served {} requests in {} simulated cycles",
        out.expect_ok(),
        out.wall_cycles
    );
}
