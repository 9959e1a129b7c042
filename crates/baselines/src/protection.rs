//! The one protection pipeline: every run of a module under a scheme goes
//! through [`Protection::launch`].
//!
//! The paper builds each benchmark under every scheme with the same
//! toolchain; only the instrumentation pass and the runtime change. This
//! module is that toolchain. [`Protection`] names the scheme, and
//! [`Protection::launch`] owns the fixed order of the steps from a plain
//! module to a VM ready to run:
//!
//! 1. instrument, with or without site markers;
//! 2. verify the instrumented IR;
//! 3. `Vm::new`;
//! 4. attach the recorder and span mode;
//! 5. `install_base`, with the scheme's allocator options under the
//!    caller's reservation cap;
//! 6. install the scheme's runtime (its handles come back in
//!    [`Protected`]);
//! 7. attach the compiled tier (or the perturbed engine) when asked.
//!
//! The values that differ between experiments stay with the caller in
//! [`Setup`]: the machine preset and tier, the instruction budget, the
//! stack size, the reservation cap and the scale the baselines size their
//! runtimes by. What happens after the launch (staging inputs, fault
//! plans, recovery policies, which entry points run) is the caller's too.

use crate::asan::runtime::asan_alloc_opts;
use crate::{install_asan, install_mpx, instrument_asan_with, instrument_mpx_with};
use crate::{AsanConfig, MpxConfig, MpxRuntime};
use sgxbounds::{install_sgxbounds, MetadataHooks, SbConfig, SbRuntime};
use sgxs_mir::{verify, Module, Vm, VmConfig};
use sgxs_rt::{install_base, AllocOpts, HeapAlloc};
use sgxs_sim::obs::Recorder;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use std::cell::RefCell;
use std::rc::Rc;

/// A memory-safety scheme: which pass instruments the module and which
/// runtime serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// No instrumentation (the native baseline).
    None,
    /// SGXBounds tagged pointers. The configuration's `site_markers` field
    /// is ignored: markers are a per-run choice ([`Setup::site_markers`]).
    SgxBounds(SbConfig),
    /// AddressSanitizer-style shadow memory.
    Asan,
    /// Intel MPX-style bounds tables.
    Mpx,
}

/// The per-run values that stay with the caller.
pub struct Setup {
    /// VM configuration: machine preset, mode and execution tier, plus the
    /// instruction budget, stack size and scheduling quantum.
    pub vm: VmConfig,
    /// Machine-scale divisor the baseline runtimes size their shadow and
    /// bounds tables by.
    pub scale: u64,
    /// Reserved-memory cap handed to the allocator (the enclave's usable
    /// address space).
    pub reserve_cap: u64,
    /// Wrap every inserted check in transparent site markers.
    pub site_markers: bool,
    /// Recorder attached to the machine before any runtime is installed.
    pub recorder: Option<Rc<RefCell<dyn Recorder>>>,
    /// Emit span events (effective only with an enabled recorder).
    pub spans: bool,
    /// Attach the compiled tier with its deliberate accounting fault,
    /// whatever the machine's tier (the tier oracle's negative control).
    pub perturb: bool,
    /// Per-object metadata hooks for the SGXBounds runtime (paper §4.3).
    pub hooks: Option<Rc<RefCell<dyn MetadataHooks>>>,
}

impl Setup {
    /// A setup for `vm` at machine scale `scale`: the allocator's default
    /// cap, no markers, no recorder, no hooks.
    pub fn new(vm: VmConfig, scale: u64) -> Self {
        Setup {
            vm,
            scale,
            reserve_cap: AllocOpts::default().reserve_cap,
            site_markers: false,
            recorder: None,
            spans: false,
            perturb: false,
            hooks: None,
        }
    }

    /// The Tiny in-enclave machine on `tier` — the configuration the fuzz,
    /// chaos and forensic runs share.
    pub fn tiny(tier: ExecTier) -> Self {
        let mut machine = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
        machine.tier = tier;
        Setup::new(
            VmConfig::new(machine),
            MachineConfig::scale_of(Preset::Tiny),
        )
    }
}

/// A launched run: the VM ready for staging and `run`, plus the handles
/// of the installed runtimes.
pub struct Protected<'m> {
    /// The VM, with every runtime installed and the tier attached.
    pub vm: Vm<'m>,
    /// The shared base allocator.
    pub heap: Rc<RefCell<HeapAlloc>>,
    /// The SGXBounds runtime (SGXBounds runs only).
    pub sgxbounds: Option<SbRuntime>,
    /// The MPX runtime (MPX runs only).
    pub mpx: Option<MpxRuntime>,
}

impl Protection {
    /// Runs the scheme's instrumentation pass over `module`.
    fn instrument(&self, module: &mut Module, site_markers: bool) -> Result<(), String> {
        match *self {
            Protection::None => Ok(()),
            Protection::SgxBounds(cfg) => {
                let cfg = SbConfig {
                    site_markers,
                    ..cfg
                };
                sgxbounds::instrument(module, &cfg)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }
            Protection::Asan => instrument_asan_with(module, site_markers)
                .map(drop)
                .map_err(str::to_owned),
            Protection::Mpx => instrument_mpx_with(module, site_markers)
                .map(drop)
                .map_err(str::to_owned),
        }
    }

    /// The allocator options this scheme runs with under `reserve_cap`.
    fn alloc_opts(&self, scale: u64, reserve_cap: u64) -> AllocOpts {
        match self {
            Protection::Asan => asan_alloc_opts(&AsanConfig::for_scale(scale), reserve_cap),
            _ => AllocOpts {
                reserve_cap,
                ..AllocOpts::default()
            },
        }
    }

    /// Instruments `module`, verifies it, and boots a VM with this scheme's
    /// runtime installed (see the module docs for the step order). Fails
    /// when the pass refuses the module or the instrumented IR does not
    /// verify.
    pub fn launch<'m>(
        &self,
        module: &'m mut Module,
        setup: Setup,
    ) -> Result<Protected<'m>, String> {
        self.instrument(module, setup.site_markers)?;
        let module: &'m Module = module;
        verify(module).map_err(|e| format!("ill-formed IR: {e}"))?;

        let compiled = setup.vm.machine.tier == ExecTier::Compiled;
        let mut vm = Vm::new(module, setup.vm);
        vm.machine.set_recorder(setup.recorder);
        if setup.spans {
            vm.machine.set_span_mode(true);
        }
        let heap = install_base(&mut vm, self.alloc_opts(setup.scale, setup.reserve_cap));
        let (mut sgxbounds, mut mpx) = (None, None);
        match *self {
            Protection::None => {}
            Protection::SgxBounds(cfg) => {
                sgxbounds = Some(install_sgxbounds(&mut vm, heap.clone(), &cfg, setup.hooks));
            }
            Protection::Asan => {
                install_asan(&mut vm, heap.clone(), &AsanConfig::for_scale(setup.scale));
            }
            Protection::Mpx => {
                mpx = Some(install_mpx(
                    &mut vm,
                    heap.clone(),
                    MpxConfig::for_scale(setup.scale),
                ));
            }
        }
        if setup.perturb {
            sgxs_exec::attach_perturbed(&mut vm);
        } else if compiled {
            sgxs_exec::attach(&mut vm);
        }
        Ok(Protected {
            vm,
            heap,
            sgxbounds,
            mpx,
        })
    }
}

/// Runs `run` with `rec` shared as a machine recorder, then hands the
/// recorder back. Panics if `run` leaks a handle to it (a VM outliving
/// the closure).
pub fn recorded<R: Recorder + 'static, T>(
    rec: R,
    run: impl FnOnce(Rc<RefCell<dyn Recorder>>) -> T,
) -> (T, R) {
    let rec = Rc::new(RefCell::new(rec));
    let out = run(rec.clone());
    let rec = Rc::try_unwrap(rec)
        .ok()
        .expect("run dropped its recorder handles")
        .into_inner();
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::{ModuleBuilder, Operand, Ty};

    fn heap_store() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            fb.store(Ty::I64, p, 7u64);
            fb.ret(Some(0u64.into()));
        });
        mb.finish()
    }

    #[test]
    fn launch_refuses_a_hardened_module() {
        let mut m = heap_store();
        Protection::Asan.instrument(&mut m, false).unwrap();
        assert!(Protection::Mpx
            .launch(&mut m, Setup::tiny(ExecTier::Reference))
            .is_err());
    }

    #[test]
    fn site_markers_come_from_the_setup() {
        let sgxbounds = Protection::SgxBounds(SbConfig::default());
        for p in [sgxbounds, Protection::Asan, Protection::Mpx] {
            let mut m = heap_store();
            let setup = Setup {
                site_markers: true,
                ..Setup::tiny(ExecTier::Reference)
            };
            drop(p.launch(&mut m, setup).expect("launch"));
            assert!(!m.check_sites.is_empty(), "{p:?} registered no sites");
        }
    }
}
