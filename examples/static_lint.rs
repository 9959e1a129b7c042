//! Static OOB lint walkthrough: classify every access of a buggy module
//! *without running it*, print the diagnostics, then show the flow tier
//! eliding the checks the lint proved safe.
//!
//! Run with `cargo run --example static_lint`.

use sgxbounds_repro::analyze::{self, Class};
use sgxbounds_repro::prelude::*;

/// A program with one provable bug: an 8-slot loop over a 5-slot array,
/// plus a provably safe scratch store the flow tier can discharge.
fn build() -> Module {
    let mut mb = ModuleBuilder::new("static-lint-demo");
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let arr = fb.intr_ptr("malloc", &[Operand::Imm(40)]);
        fb.count_loop(0u64, 5u64, |fb, i| {
            let a = fb.gep(arr, i, 8, 0);
            fb.store(Ty::I64, a, i);
        });
        // Off-by-one read: slot 5 of a 5-slot array.
        let oob = fb.gep(arr, 5u64, 8, 0);
        let v = fb.load(Ty::I64, oob);
        fb.ret(Some(v.into()));
    });
    mb.finish()
}

fn main() {
    let mut module = build();

    // 1. Classify every access site statically.
    let report = analyze::lint_module(&mut module);
    println!(
        "lint: {} sites — {} proved-safe, {} unknown, {} proved-oob",
        report.sites(),
        report.proved_safe,
        report.unknown,
        report.proved_oob
    );
    for f in &report.findings {
        let off = match f.offset {
            Some((lo, hi)) => format!("{lo}..={hi}"),
            None => "?".to_owned(),
        };
        println!(
            "  {}[b{} i{}]: {} of {}B at offset {} past {} — `{}`",
            f.function, f.block, f.inst, f.kind, f.width, off, f.object, f.ir
        );
    }
    assert_eq!(report.proved_oob, 1, "the demo bug must be diagnosed");

    // 2. The same facts drive check elision: instrument with the flow tier
    //    and count what it removed.
    let mut hardened = build();
    let cfg = SbConfig {
        flow_elide: true,
        ..SbConfig::default()
    };
    let stats = sgxbounds::instrument(&mut hardened, &cfg).expect("instrumentation");
    println!(
        "flow tier: {} accesses flow-marked safe, {} redundant checks elided",
        stats.flow_marked, stats.flow_elided
    );

    // 3. Elision is sound: the surviving checks still catch the bug.
    let mut module = build();
    let mut run = Protection::SgxBounds(cfg)
        .launch(&mut module, Setup::tiny(ExecTier::Reference))
        .expect("launch");
    let out = run.vm.run("main", &[]);
    println!("hardened run: {:?}", out.result.unwrap_err());

    // 4. The raw facts are available too, e.g. for editor tooling.
    let m = build();
    let main = m.func_by_name("main").expect("main exists").0 as usize;
    let unknowns = analyze::access_facts(&m, main)
        .into_iter()
        .filter(|f| f.class == Class::Unknown)
        .count();
    println!("raw facts: {unknowns} access(es) the analysis could not decide");
}
