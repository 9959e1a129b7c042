#![warn(missing_docs)]

//! **SGXBounds** — memory safety for shielded execution (EuroSys 2017).
//!
//! The paper's contribution, reimplemented for the mini-IR substrate:
//!
//! - [`tagged`] — the 32/32 tagged-pointer representation (§3.1);
//! - [`pass`] — the compile-time instrumentation pass (§3.2, §5.1);
//! - [`opts`] — the safe-access and loop-hoisting optimizations (§4.4);
//! - [`runtime`] — the run-time support library and libc wrappers (§5.1);
//! - [`boundless`] — failure-oblivious boundless memory blocks (§4.2);
//! - [`metadata`] — the `on_create`/`on_access`/`on_delete` hook API (§4.3).
//!
//! # Examples
//!
//! Harden a module and run it:
//!
//! ```
//! use sgxs_mir::{ModuleBuilder, Operand, Ty, Vm, VmConfig};
//! use sgxs_sim::{MachineConfig, Mode, Preset};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! mb.func("main", &[], Some(Ty::I64), |fb| {
//!     let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
//!     fb.store(Ty::I64, p, 41u64);
//!     let v = fb.load(Ty::I64, p);
//!     let r = fb.add(v, 1u64);
//!     fb.intr_void("free", &[p.into()]);
//!     fb.ret(Some(r.into()));
//! });
//! let mut module = mb.finish();
//!
//! let cfg = sgxbounds::SbConfig::default();
//! sgxbounds::instrument(&mut module, &cfg).unwrap();
//!
//! let mut vm = Vm::new(&module, VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)));
//! let heap = sgxs_rt::install_base(&mut vm, sgxs_rt::AllocOpts::default());
//! sgxbounds::install_sgxbounds(&mut vm, heap, &cfg, None);
//! assert_eq!(vm.run("main", &[]).expect_ok(), 42);
//! ```

pub mod boundless;
pub mod metadata;
pub mod narrow;
pub mod opts;
pub mod pass;
pub mod runtime;
pub mod tagged;

pub use boundless::{BoundlessCache, BoundlessStats};
pub use metadata::{DoubleFreeGuard, MetadataHooks, ObjKind};
pub use pass::{instrument, InstrumentReport, PassError};
pub use runtime::{install_sgxbounds, SbRuntime};

/// SGXBounds configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbConfig {
    /// Elide checks on provably in-bounds accesses (paper §4.4).
    pub safe_access_opt: bool,
    /// Hoist loop bounds checks to preheaders (paper §4.4). Only effective
    /// in fail-stop mode.
    pub hoist_opt: bool,
    /// Tolerate out-of-bounds accesses with boundless memory instead of
    /// crashing (paper §4.2).
    pub boundless: bool,
    /// Narrow bounds on `gep_field` projections to catch intra-object
    /// overflows (the paper's §8 extension; experimental there and here).
    pub narrow_bounds: bool,
    /// Emit transparent `site` markers around every inserted check and fill
    /// the module's check-site table, enabling per-site profiling through
    /// the obs layer. Markers never retire instructions or charge cycles,
    /// but they do change the IR shape, so they are off by default.
    pub site_markers: bool,
    /// Run the flow-sensitive dataflow tier (`sgxs-analyze`) before
    /// lowering: cross-block safe-access proofs plus must-availability
    /// redundant-check elision. Strictly subsumes `safe_access_opt`. Only
    /// effective in fail-stop mode (an elided check would skip the
    /// boundless redirection). Off by default.
    pub flow_elide: bool,
}

impl SbConfig {
    /// Every optimization and option off: a full check on every access
    /// (Fig. 10's `none` column and the fuzz campaign's `sb-noopt`).
    pub const UNOPTIMIZED: SbConfig = SbConfig {
        safe_access_opt: false,
        hoist_opt: false,
        boundless: false,
        narrow_bounds: false,
        site_markers: false,
        flow_elide: false,
    };
}

impl Default for SbConfig {
    fn default() -> Self {
        SbConfig {
            safe_access_opt: true,
            hoist_opt: true,
            boundless: false,
            narrow_bounds: false,
            site_markers: false,
            flow_elide: false,
        }
    }
}

#[cfg(test)]
mod e2e {
    use super::*;
    use sgxs_mir::{verify, Module, ModuleBuilder, Operand, RunOutcome, Trap, Ty, Vm, VmConfig};
    use sgxs_rt::{install_base, AllocOpts};
    use sgxs_sim::{MachineConfig, Mode, Preset};

    fn run_hardened(module: &mut Module, cfg: SbConfig, args: &[u64]) -> (RunOutcome, SbRuntime) {
        instrument(module, &cfg).expect("instrumentation");
        verify(module).expect("hardened module verifies");
        let mut vm = Vm::new(
            module,
            VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
        );
        let heap = install_base(&mut vm, AllocOpts::default());
        let rt = install_sgxbounds(&mut vm, heap, &cfg, None);
        (vm.run("main", args), rt)
    }

    /// Heap writer: writes `count` u64s into a 10-element heap array.
    fn heap_writer() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(80)]);
            let n = fb.param(0);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.gep(p, i, 8, 0);
                fb.store(Ty::I64, a, i);
            });
            let last = fb.gep(p, 9u64, 8, 0);
            let v = fb.load(Ty::I64, last);
            fb.ret(Some(v.into()));
        });
        mb.finish()
    }

    #[test]
    fn in_bounds_program_behaves_identically() {
        let (out, rt) = run_hardened(&mut heap_writer(), SbConfig::default(), &[10]);
        assert_eq!(out.expect_ok(), 9);
        assert_eq!(*rt.violations.borrow(), 0);
    }

    #[test]
    fn off_by_one_overflow_detected_fail_stop() {
        let (out, rt) = run_hardened(&mut heap_writer(), SbConfig::default(), &[11]);
        match out.result {
            Err(Trap::SafetyViolation { scheme, .. }) => assert_eq!(scheme, "sgxbounds"),
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(*rt.violations.borrow(), 1);
    }

    #[test]
    fn overflow_detected_without_optimizations_too() {
        let cfg = SbConfig::UNOPTIMIZED;
        let (out, _) = run_hardened(&mut heap_writer(), cfg, &[11]);
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
        // And in-bounds still works.
        let (ok, _) = run_hardened(&mut heap_writer(), cfg, &[10]);
        assert_eq!(ok.expect_ok(), 9);
    }

    #[test]
    fn boundless_mode_survives_overflow_and_protects_neighbours() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            // Two adjacent objects; overflow the first far into the second.
            let a = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let b = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            fb.store(Ty::I64, b, 0xBEEFu64);
            fb.count_loop(0u64, 64u64, |fb, i| {
                let at = fb.gep(a, i, 8, 0);
                fb.store(Ty::I64, at, 7u64); // OOB from i=4 on.
            });
            let v = fb.load(Ty::I64, b); // Neighbour must be intact.
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let cfg = SbConfig {
            boundless: true,
            ..SbConfig::default()
        };
        let (out, rt) = run_hardened(&mut m, cfg, &[]);
        assert_eq!(out.expect_ok(), 0xBEEF, "neighbour object corrupted");
        assert!(*rt.violations.borrow() >= 60);
        let bl = rt.boundless.as_ref().unwrap().borrow();
        assert!(bl.stats.stores >= 60);
    }

    #[test]
    fn boundless_reads_of_unwritten_oob_return_zero() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let a = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            fb.store(Ty::I64, a, 0xAAu64);
            let oob = fb.gep(a, 5u64, 8, 0);
            let v = fb.load(Ty::I64, oob);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let cfg = SbConfig {
            boundless: true,
            ..SbConfig::default()
        };
        let (out, _) = run_hardened(&mut m, cfg, &[]);
        assert_eq!(out.expect_ok(), 0, "failure-oblivious reads are zero");
    }

    #[test]
    fn underflow_detected_via_lower_bound() {
        let build = || {
            let mut mb = ModuleBuilder::new("t");
            mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
                let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
                // Access p[idx - 2]: for idx < 2 this is below the object.
                let idx = fb.param(0);
                let a = fb.gep(p, idx, 8, -16);
                let v = fb.load(Ty::I64, a);
                fb.ret(Some(v.into()));
            });
            mb.finish()
        };
        let (out, _) = run_hardened(&mut build(), SbConfig::default(), &[0]);
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
        let (ok, _) = run_hardened(&mut build(), SbConfig::default(), &[2]);
        assert_eq!(ok.expect_ok(), 0);
    }

    #[test]
    fn pointer_arithmetic_cannot_corrupt_the_tag() {
        // A "malicious" 64-bit index whose value would flip tag bits if
        // pointer arithmetic were not masked (paper §3.2).
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
            let evil = fb.param(0);
            let q = fb.gep(p, evil, 1, 0);
            fb.store(Ty::I64, q, 1u64);
            fb.ret(Some(0u64.into()));
        });
        let mut m = mb.finish();
        // evil = 2^40 + 100: raw addition would overflow into the tag,
        // forging an upper bound. With masking, the pointer half moves by
        // 100 (out of the 64-byte object) while the tag stays intact, so
        // the store is detected as out of bounds.
        let (out, _) = run_hardened(&mut m, SbConfig::default(), &[(1u64 << 40) + 100]);
        assert!(
            matches!(out.result, Err(Trap::SafetyViolation { .. })),
            "tag forgery must be impossible: {:?}",
            out.result
        );
    }

    #[test]
    fn int_ptr_casts_survive() {
        // Pointer -> integer -> pointer roundtrip keeps protection (§3.2).
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let as_int = fb.cast(sgxs_mir::CastKind::Bitcast, p);
            let xored = fb.xor(as_int, 0u64);
            let back = fb.cast(sgxs_mir::CastKind::Bitcast, xored);
            fb.store(Ty::I64, back, 5u64);
            let v = fb.load(Ty::I64, back);
            // And an OOB through the cast chain is still caught.
            let oob = fb.gep(back, 4u64, 8, 0);
            fb.store(Ty::I64, oob, 1u64);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let (out, _) = run_hardened(&mut m, SbConfig::default(), &[]);
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
    }

    #[test]
    fn stack_and_global_objects_protected() {
        let build = || {
            let mut mb = ModuleBuilder::new("t");
            let g = mb.global_zeroed("garr", 32);
            mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
                let gp = fb.global_addr(g);
                let idx = fb.param(0);
                let a = fb.gep(gp, idx, 8, 0);
                fb.store(Ty::I64, a, 1u64);
                let s = fb.slot("sarr", 32);
                let sp = fb.slot_addr(s);
                let b = fb.gep(sp, idx, 8, 0);
                fb.store(Ty::I64, b, 2u64);
                fb.ret(Some(0u64.into()));
            });
            mb.finish()
        };
        let (ok, _) = run_hardened(&mut build(), SbConfig::default(), &[3]);
        ok.expect_ok();
        let (oob, _) = run_hardened(&mut build(), SbConfig::default(), &[4]);
        assert!(matches!(oob.result, Err(Trap::SafetyViolation { .. })));
    }

    #[test]
    fn libc_wrappers_check_bounds() {
        let build = || {
            let mut mb = ModuleBuilder::new("t");
            mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
                let a = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
                let b = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
                let n = fb.param(0);
                fb.intr_void("memcpy", &[a.into(), b.into(), n.into()]);
                fb.ret(Some(0u64.into()));
            });
            mb.finish()
        };
        let (ok, _) = run_hardened(&mut build(), SbConfig::default(), &[32]);
        ok.expect_ok();
        let (bad, rt) = run_hardened(&mut build(), SbConfig::default(), &[33]);
        assert!(matches!(bad.result, Err(Trap::SafetyViolation { .. })));
        assert_eq!(*rt.violations.borrow(), 1);
    }

    #[test]
    fn libc_wrappers_return_error_in_boundless_mode() {
        // Paper §5.1: wrappers return an error code instead of redirecting,
        // letting servers drop offending requests.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let a = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let b = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let r = fb.intr("memcpy", &[a.into(), b.into(), Operand::Imm(64)]);
            fb.ret(Some(r.into()));
        });
        let mut m = mb.finish();
        let cfg = SbConfig {
            boundless: true,
            ..SbConfig::default()
        };
        let (out, rt) = run_hardened(&mut m, cfg, &[]);
        assert_eq!(out.expect_ok(), 0, "wrapper must signal failure");
        assert_eq!(*rt.violations.borrow(), 1);
    }

    #[test]
    fn metadata_hooks_catch_double_free() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.intr_void("free", &[p.into()]);
            fb.intr_void("free", &[p.into()]);
            fb.ret(Some(0u64.into()));
        });
        let mut m = mb.finish();
        let cfg = SbConfig::default();
        instrument(&mut m, &cfg).unwrap();
        let mut vm = Vm::new(
            &m,
            VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
        );
        let heap = install_base(&mut vm, AllocOpts::default());
        let guard = Rc::new(RefCell::new(DoubleFreeGuard::new(0x5AFE_C0DE)));
        install_sgxbounds(&mut vm, heap, &cfg, Some(guard.clone()));
        let out = vm.run("main", &[]);
        assert!(matches!(out.result, Err(Trap::Abort(_))));
        assert_eq!(guard.borrow().detections, 1);
    }

    #[test]
    fn multithreaded_hardened_program_is_correct() {
        // §4.1: tagged pointers need no synchronization — a hardened
        // multithreaded program over shared pointers works unchanged.
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.func("worker", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let arr = fb.param(0);
            fb.count_loop(0u64, 64u64, |fb, i| {
                let a = fb.gep(arr, i, 8, 0);
                fb.atomic_rmw(sgxs_mir::BinOp::Add, Ty::I64, a, 1u64);
            });
            fb.ret(Some(0u64.into()));
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let arr = fb.intr_ptr("malloc", &[Operand::Imm(512)]);
            let wf = fb.func_addr(worker);
            let t1 = fb.intr("spawn", &[wf.into(), arr.into()]);
            let t2 = fb.intr("spawn", &[wf.into(), arr.into()]);
            fb.intr("join", &[t1.into()]);
            fb.intr("join", &[t2.into()]);
            let a0 = fb.gep(arr, 63u64, 8, 0);
            let v = fb.load(Ty::I64, a0);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let (out, _) = run_hardened(&mut m, SbConfig::default(), &[]);
        assert_eq!(out.expect_ok(), 2);
    }

    #[test]
    fn hoisting_preserves_detection_at_loop_entry() {
        // With hoisting, the OOB loop is caught before the first iteration.
        let (out, rt) = run_hardened(
            &mut heap_writer(),
            SbConfig {
                safe_access_opt: true,
                hoist_opt: true,
                boundless: false,
                narrow_bounds: false,
                site_markers: false,
                flow_elide: false,
            },
            &[11],
        );
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
        assert_eq!(*rt.violations.borrow(), 1);
    }

    #[test]
    fn flow_elision_preserves_detection_and_results() {
        let cfg = SbConfig {
            flow_elide: true,
            ..SbConfig::default()
        };
        let (ok, rt) = run_hardened(&mut heap_writer(), cfg, &[10]);
        assert_eq!(ok.expect_ok(), 9);
        assert_eq!(*rt.violations.borrow(), 0);
        let (out, rt) = run_hardened(&mut heap_writer(), cfg, &[11]);
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
        assert_eq!(*rt.violations.borrow(), 1);
    }

    #[test]
    fn hardened_run_costs_more_than_native() {
        let native = heap_writer();
        let base = {
            let mut vm = Vm::new(
                &native,
                VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
            );
            install_base(&mut vm, AllocOpts::default());
            let out = vm.run("main", &[10]);
            out.expect_ok();
            out
        };
        let (hardened, _) = run_hardened(&mut heap_writer(), SbConfig::default(), &[10]);
        hardened.expect_ok();
        assert!(hardened.wall_cycles > base.wall_cycles);
        // ... but not catastrophically (same order of magnitude).
        assert!(hardened.wall_cycles < base.wall_cycles * 4);
    }
}
