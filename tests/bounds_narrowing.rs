//! The §8 extension: bounds narrowing catches intra-object overflows that
//! whole-object schemes (Table 4's in-struct RIPE rows) cannot see.

use sgxbounds::SbConfig;
use sgxs_baselines::{Protection, Setup};
use sgxs_mir::{Module, ModuleBuilder, Operand, Trap, Ty};
use sgxs_sim::ExecTier;

/// A struct { buf[16]; target u64 } where a loop writes `n` bytes into the
/// buffer *field* (marked with `gep_field`); `main` returns the target.
fn build(n: u64) -> Module {
    let mut mb = ModuleBuilder::new("narrow");
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let s = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
        let target = fb.gep_inbounds(s, 0u64, 1, 16);
        fb.store(Ty::I64, target, 0xC0FFEEu64);
        let buf = fb.gep_field(s, 0, 16);
        fb.count_loop(0u64, n, |fb, i| {
            let a = fb.gep(buf, i, 1, 0);
            fb.store(Ty::I8, a, 0x41u64);
        });
        let v = fb.load(Ty::I64, target);
        fb.ret(Some(v.into()));
    });
    mb.finish()
}

fn run(mut module: Module, narrow: bool) -> Result<u64, Trap> {
    let cfg = SbConfig {
        narrow_bounds: narrow,
        ..SbConfig::default()
    };
    let mut run = Protection::SgxBounds(cfg)
        .launch(&mut module, Setup::tiny(ExecTier::Reference))
        .unwrap();
    run.vm.run("main", &[]).result
}

#[test]
fn in_bounds_field_writes_work_with_and_without_narrowing() {
    assert_eq!(run(build(16), false).unwrap(), 0xC0FFEE);
    assert_eq!(run(build(16), true).unwrap(), 0xC0FFEE);
}

#[test]
fn without_narrowing_the_in_struct_overflow_is_invisible() {
    // 24 bytes stay inside the whole object: target silently clobbered —
    // the Table 4 in-struct blind spot.
    let v = run(build(24), false).unwrap();
    assert_eq!(v, 0x4141_4141_4141_4141);
}

#[test]
fn narrowing_detects_the_in_struct_overflow() {
    let r = run(build(24), true);
    assert!(
        matches!(
            r,
            Err(Trap::SafetyViolation {
                scheme: "sgxbounds",
                ..
            })
        ),
        "narrowed field bounds must catch the overflow, got {r:?}"
    );
}

#[test]
fn narrowing_still_detects_whole_object_overflows() {
    // Past the whole 24-byte object: detected either way.
    assert!(matches!(
        run(build(40), false),
        Err(Trap::SafetyViolation { .. })
    ));
    assert!(matches!(
        run(build(40), true),
        Err(Trap::SafetyViolation { .. })
    ));
}
