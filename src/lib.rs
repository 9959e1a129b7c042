#![warn(missing_docs)]

//! # SGXBounds reproduction
//!
//! A from-scratch Rust reproduction of *SGXBOUNDS: Memory Safety for
//! Shielded Execution* (Kuvaiskii et al., EuroSys 2017): the tagged-pointer
//! memory-safety scheme, the AddressSanitizer and Intel MPX baselines it is
//! compared against, the SGX machine model that makes the comparison
//! meaningful, and every benchmark the paper evaluates.
//!
//! This crate is the umbrella: it re-exports the workspace members so
//! examples and downstream users need a single dependency.
//!
//! - [`sim`] — SGX machine model (caches, EPC paging, MEE costs);
//! - [`mir`] — the mini compiler IR, analyses, and interpreter;
//! - [`analyze`] — the flow-sensitive dataflow tier (value-range
//!   provenance, redundant-check elision, static OOB lint);
//! - [`rt`] — base runtime (allocator, libc wrappers);
//! - [`sgxbounds`] — the paper's contribution;
//! - [`baselines`] — ASan- and MPX-style schemes;
//! - [`workloads`] — Phoenix/PARSEC/SPEC/app benchmark analogues;
//! - [`harness`] — experiment runner regenerating each table and figure.
//!
//! # Quickstart
//!
//! ```
//! use sgxbounds_repro::prelude::*;
//!
//! // Build a tiny program with an off-by-one bug.
//! let mut mb = ModuleBuilder::new("demo");
//! mb.func("main", &[], Some(Ty::I64), |fb| {
//!     let p = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
//!     fb.count_loop(0u64, 5u64, |fb, i| {
//!         let a = fb.gep(p, i, 8, 0); // i == 4 is out of bounds.
//!         fb.store(Ty::I64, a, i);
//!     });
//!     fb.ret(Some(0u64.into()));
//! });
//! let mut module = mb.finish();
//!
//! // Harden and run inside the simulated enclave.
//! let cfg = SbConfig::default();
//! sgxbounds::instrument(&mut module, &cfg).unwrap();
//! let mut vm = Vm::new(&module, VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)));
//! let heap = sgxs_rt::install_base(&mut vm, AllocOpts::default());
//! sgxbounds::install_sgxbounds(&mut vm, heap, &cfg, None);
//! assert!(matches!(vm.run("main", &[]).result, Err(Trap::SafetyViolation { .. })));
//! ```

pub use sgxbounds;
pub use sgxs_analyze as analyze;
pub use sgxs_baselines as baselines;
pub use sgxs_harness as harness;
pub use sgxs_mir as mir;
pub use sgxs_rt as rt;
pub use sgxs_sim as sim;
pub use sgxs_workloads as workloads;

/// Everything needed to write programs against the reproduction.
pub mod prelude {
    pub use sgxbounds::{SbConfig, SbRuntime};
    pub use sgxs_baselines::{Protection, Setup};
    pub use sgxs_mir::{
        CmpOp, FuncBuilder, Module, ModuleBuilder, Operand, RunOutcome, Trap, Ty, Vm, VmConfig,
    };
    pub use sgxs_rt::AllocOpts;
    pub use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
}
