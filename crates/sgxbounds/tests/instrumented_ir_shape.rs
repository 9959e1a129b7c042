//! Golden-ish checks on the *shape* of instrumented IR: the printed form
//! must contain the paper's Fig. 4d sequence (tag strip, upper-bound
//! extraction, LB load, bounds branch) and the masked pointer arithmetic.

use sgxbounds::SbConfig;
use sgxs_mir::display::print_module;
use sgxs_mir::{ModuleBuilder, Operand, Ty};

fn instrumented(cfg: SbConfig) -> String {
    let mut mb = ModuleBuilder::new("shape");
    mb.func("main", &[Ty::Ptr, Ty::I64], Some(Ty::I64), |fb| {
        let p = fb.param(0);
        let i = fb.param(1);
        let q = fb.gep(p, i, 8, 0);
        let v = fb.load(Ty::I64, q);
        fb.store(Ty::I64, q, v);
        fb.ret(Some(v.into()));
    });
    let mut m = mb.finish();
    sgxbounds::instrument(&mut m, &cfg).unwrap();
    print_module(&m)
}

#[test]
fn full_checks_emit_the_fig4d_sequence() {
    let text = instrumented(SbConfig::UNOPTIMIZED);
    // Tag strip: `And rX, 0xffffffff`.
    assert!(text.contains("And"), "missing mask:\n{text}");
    assert!(text.contains("0xffffffff"), "missing pointer mask:\n{text}");
    // Upper-bound extraction: `LShr rX, 32`.
    assert!(text.contains("LShr"), "missing UB extraction:\n{text}");
    // Lower-bound load is an i32 load.
    assert!(text.contains("load i32"), "missing LB load:\n{text}");
    // The violation handler call and the check branch.
    assert!(
        text.contains("intrinsic"),
        "missing sb_violation call:\n{text}"
    );
    assert!(text.contains("br "), "missing check branch:\n{text}");
    // Gep masking re-tags: `Or` of tag and masked result.
    assert!(text.contains("Or"), "missing re-tagging:\n{text}");
    assert!(
        text.contains("0xffffffff00000000"),
        "missing tag mask:\n{text}"
    );
    assert_eq!(
        text.matches("(hardening: sgxbounds)").count(),
        1,
        "module must be marked hardened"
    );
}

#[test]
fn hoisting_moves_checks_out_of_loops() {
    let build = || {
        let mut mb = ModuleBuilder::new("loop");
        mb.func("main", &[Ty::Ptr, Ty::I64], None, |fb| {
            let p = fb.param(0);
            let n = fb.param(1);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.gep(p, i, 8, 0);
                fb.store(Ty::I64, a, i);
            });
            fb.ret(None);
        });
        mb.finish()
    };
    let mut unopt = build();
    sgxbounds::instrument(&mut unopt, &SbConfig::UNOPTIMIZED).unwrap();
    let mut opt = build();
    sgxbounds::instrument(&mut opt, &SbConfig::default()).unwrap();
    // The optimized form performs fewer LB loads (none in the loop) —
    // count `load i32` occurrences.
    let lb_loads = |m: &sgxs_mir::Module| print_module(m).matches("load i32").count();
    assert!(
        lb_loads(&opt) < lb_loads(&unopt),
        "hoisting must remove in-loop LB loads ({} vs {})",
        lb_loads(&opt),
        lb_loads(&unopt)
    );
}

#[test]
fn instrumentation_reports_are_consistent_with_the_ir() {
    let mut mb = ModuleBuilder::new("report");
    mb.func("main", &[Ty::Ptr], Some(Ty::I64), |fb| {
        let p = fb.param(0);
        let s = fb.slot("buf", 64);
        let sp = fb.slot_addr(s);
        // One safe access (constant slot offset), one full-check access.
        let f = fb.gep_inbounds(sp, 0u64, 1, 8);
        fb.store(Ty::I64, f, 1u64);
        let v = fb.load(Ty::I64, p);
        fb.ret(Some(v.into()));
    });
    let mut m = mb.finish();
    let rep = sgxbounds::instrument(&mut m, &SbConfig::default()).unwrap();
    assert_eq!(rep.safe_elided, 1, "{rep:?}");
    assert_eq!(rep.full_checks, 1, "{rep:?}");
    // The slot-LB-init store the pass inserts is not counted as any check.
    let text = print_module(&m);
    assert!(text.contains("slot0 buf: 64 bytes (padded 68)"));
}

#[test]
fn boundless_lowering_reads_the_redirected_address() {
    let text = instrumented(SbConfig {
        boundless: true,
        ..SbConfig::UNOPTIMIZED
    });
    // The continuation reads a local (the ok/fail paths both write it).
    assert!(
        text.matches("= l").count() >= 1,
        "missing redirected-address local read:\n{text}"
    );
    let intrinsic_with_result = text.lines().any(|l| l.contains("= intrinsic"));
    assert!(
        intrinsic_with_result,
        "sb_violation must produce a redirect value:\n{text}"
    );
}

#[test]
fn addresses_operands_are_rewritten_to_stripped_pointers() {
    // After instrumentation no Load/Store uses the original tagged operand
    // directly: every access goes through a fresh register.
    let mut mb = ModuleBuilder::new("rewrite");
    mb.func("main", &[Ty::Ptr], Some(Ty::I64), |fb| {
        let p = fb.param(0);
        let v = fb.load(Ty::I64, p);
        fb.ret(Some(v.into()));
    });
    let mut m = mb.finish();
    sgxbounds::instrument(&mut m, &SbConfig::default()).unwrap();
    for f in &m.funcs {
        for b in &f.blocks {
            for inst in &b.insts {
                if let sgxs_mir::Inst::Load { addr, attrs, .. } = inst {
                    assert!(attrs.lowered, "unlowered load left behind");
                    // Parameter register 0 must not be used raw as address.
                    assert_ne!(
                        *addr,
                        Operand::Reg(sgxs_mir::Reg(0)),
                        "raw tagged parameter used as address"
                    );
                }
            }
        }
    }
}
