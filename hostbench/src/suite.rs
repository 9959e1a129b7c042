//! The `fig7` and `fig8` workloads: the paper-suite cells exactly as
//! `repro fig7|fig8 --quick --tiny` runs them.
//!
//! The untraced pass calls `sgxs_harness::cli::run_suite`, the entry point
//! of the user command. The traced pass drives every cell phase by phase
//! (build, instrument, verify, `Vm::new`, install, stage, lower, run, drop)
//! and must reproduce `run_one`'s [`Measured`] bit for bit.

use crate::trace::Tracer;
use crate::{Pass, Row, TIERS};
use sgxbounds::SbConfig;
use sgxs_baselines::asan::runtime::asan_alloc_opts;
use sgxs_baselines::{
    install_asan, install_mpx, instrument_asan_with, instrument_mpx_with, AsanConfig, MpxConfig,
};
use sgxs_harness::cli::run_suite;
use sgxs_harness::exp::{fig08, DEFAULT_SEED};
use sgxs_harness::scheme::set_default_tier;
use sgxs_harness::{run_one, Effort, Measured, RunConfig, Scheme};
use sgxs_mir::{verify, Vm, VmConfig};
use sgxs_obs::json::Json;
use sgxs_rt::{install_base, AllocOpts, Stager};
use sgxs_sim::{ExecTier, MachineConfig, Preset, Stats};
use sgxs_workloads::{SizeClass, Workload};

/// The committed `sgxs-bench-v1` document the suite rows are checked
/// against, relative to the repository root.
pub const COMMITTED: &str = "results/bench.json";

/// Preset and effort of `repro fig7|fig8 --quick --tiny`.
const PRESET: Preset = Preset::Tiny;
const EFFORT: Effort = Effort::Quick;

/// Which suite experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Fig. 7: Phoenix + PARSEC × {sgx, mpx, asan, sgxbounds}, size S.
    Fig7,
    /// Fig. 8 / Table 3: four programs × XS/M/XL × four schemes.
    Fig8,
}

impl Experiment {
    /// The experiment's name in `run_suite` and `results/bench.json`.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
        }
    }
}

/// One (workload, size, scheme) cell.
pub struct Cell {
    /// Index into [`Suite::workloads`].
    pub workload: usize,
    /// Input size class.
    pub size: SizeClass,
    /// Protection scheme.
    pub scheme: Scheme,
}

/// A suite workload ready to run: its cells in `run_suite` order and the
/// committed rows its output is checked against.
pub struct Suite {
    /// The experiment.
    pub exp: Experiment,
    /// Input seed (`Params::seed`).
    pub seed: u64,
    /// The programs the cells run.
    pub workloads: Vec<Box<dyn Workload>>,
    /// Every cell, in the order the experiment module runs them.
    pub cells: Vec<Cell>,
    /// Committed rows: `(key, compact JSON)` per output row.
    pub committed: Vec<(String, String)>,
}

/// Schemes of one Fig. 7 row, in `fig07::run` order.
const FIG7_SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Mpx,
    Scheme::Asan,
    Scheme::SgxBounds,
];
/// Schemes of one Fig. 8 cell, in `fig08::run` order.
const FIG8_SCHEMES: [Scheme; 4] = [
    Scheme::SgxBounds,
    Scheme::Baseline,
    Scheme::Asan,
    Scheme::Mpx,
];
/// The sizes `repro fig8 --quick` sweeps.
const FIG8_SIZES: [SizeClass; 3] = [SizeClass::XS, SizeClass::M, SizeClass::XL];
/// Cells per output row (one row = one program under the four schemes).
const CELLS_PER_ROW: u64 = 4;

impl Suite {
    /// Builds the cell list. The committed rows are left empty (every row
    /// fails the check) until [`Suite::with_committed`] loads them.
    pub fn new(exp: Experiment, seed: u64) -> Result<Suite, String> {
        let (workloads, cells) = match exp {
            Experiment::Fig7 => {
                let ws = sgxs_workloads::phoenix_parsec();
                let cells = (0..ws.len())
                    .flat_map(|w| {
                        FIG7_SCHEMES.map(|scheme| Cell {
                            workload: w,
                            size: EFFORT.size(),
                            scheme,
                        })
                    })
                    .collect();
                (ws, cells)
            }
            Experiment::Fig8 => {
                let ws = fig08::BENCHMARKS
                    .iter()
                    .map(|n| sgxs_workloads::by_name(n).ok_or_else(|| format!("no workload {n}")))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut cells = Vec::new();
                for w in 0..ws.len() {
                    for size in FIG8_SIZES {
                        cells.extend(FIG8_SCHEMES.map(|scheme| Cell {
                            workload: w,
                            size,
                            scheme,
                        }));
                    }
                }
                (ws, cells)
            }
        };
        Ok(Suite {
            exp,
            seed,
            workloads,
            cells,
            committed: Vec::new(),
        })
    }

    /// Loads the committed rows the output is checked against from
    /// `committed` (the text of `results/bench.json`).
    pub fn with_committed(mut self, committed: &str) -> Result<Suite, String> {
        let doc = Json::parse(committed).map_err(|e| format!("{COMMITTED}: {e}"))?;
        for (key, want) in [("preset", "Tiny"), ("effort", "Quick")] {
            if doc.get(key).and_then(Json::as_str) != Some(want) {
                return Err(format!("{COMMITTED}: {key} is not {want}"));
            }
        }
        let name = self.exp.name();
        let section = doc
            .get("experiments")
            .and_then(|e| e.get(name))
            .ok_or_else(|| format!("{COMMITTED}: no {name} section"))?;
        let rows = rows_of(self.exp, section)?;
        if rows.len() as u64 * CELLS_PER_ROW != self.units() {
            return Err(format!(
                "{COMMITTED}: {name} has {} rows, the cell list needs {}",
                rows.len(),
                self.units() / CELLS_PER_ROW
            ));
        }
        self.committed = rows;
        Ok(self)
    }

    /// Units (cells) per tier pass.
    pub fn units(&self) -> u64 {
        self.cells.len() as u64
    }

    /// One untraced pass: `run_suite` for this experiment on `tier`.
    pub fn pass(&self, tier: ExecTier) -> Result<Pass, String> {
        set_default_tier(tier);
        let doc = run_suite(
            PRESET,
            EFFORT,
            &[self.exp.name().to_owned()],
            self.seed,
            false,
        )?;
        set_default_tier(ExecTier::Reference);
        let section = doc
            .get("experiments")
            .and_then(|e| e.get(self.exp.name()))
            .ok_or_else(|| format!("run_suite returned no {} section", self.exp.name()))?;
        Ok(self.check(&rows_of(self.exp, section)?))
    }

    /// Checks output rows against the committed document: the row keys
    /// (program, size) must match at every seed, and at the default seed
    /// the whole row must match byte for byte. A failing row fails its
    /// four cells.
    pub fn check(&self, rows: &[(String, String)]) -> Pass {
        let exact = self.seed == DEFAULT_SEED;
        let rows = rows
            .iter()
            .enumerate()
            .map(|(i, (key, text))| {
                let ok = self
                    .committed
                    .get(i)
                    .is_some_and(|(ck, ct)| ck == key && (!exact || ct == text));
                Row {
                    text: text.clone(),
                    units: CELLS_PER_ROW,
                    failed: if ok { 0 } else { CELLS_PER_ROW },
                }
            })
            .collect();
        Pass::new(rows, self.units())
    }

    /// The run configuration of `cell` on `tier`, as the experiment module
    /// builds it.
    pub fn config(&self, cell: &Cell, tier: ExecTier) -> RunConfig {
        let mut rc = RunConfig::new(PRESET);
        rc.params.size = cell.size;
        rc.params.threads = 8;
        rc.params.seed = self.seed;
        rc.tier = tier;
        rc
    }
}

/// The `(key, compact JSON)` rows of a fig7 or fig8 section.
fn rows_of(exp: Experiment, section: &Json) -> Result<Vec<(String, String)>, String> {
    let bad = || format!("malformed {} section", exp.name());
    match exp {
        Experiment::Fig7 => section
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(bad)?
            .iter()
            .map(|r| {
                let name = r.get("benchmark").and_then(Json::as_str).ok_or_else(bad)?;
                Ok((name.to_owned(), r.to_compact()))
            })
            .collect(),
        Experiment::Fig8 => {
            let mut out = Vec::new();
            for s in section
                .get("sweeps")
                .and_then(Json::as_arr)
                .ok_or_else(bad)?
            {
                let name = s.get("benchmark").and_then(Json::as_str).ok_or_else(bad)?;
                for c in s.get("cells").and_then(Json::as_arr).ok_or_else(bad)? {
                    let size = c.get("size").and_then(Json::as_str).ok_or_else(bad)?;
                    out.push((format!("{name}/{size}"), c.to_compact()));
                }
            }
            Ok(out)
        }
    }
}

/// What the traced driver learns about one cell beyond its [`Measured`].
pub struct CellTrace {
    /// The measurement, field for field what `run_one` reports.
    pub measured: Measured,
    /// Summed per-thread simulated cycles.
    pub cpu_cycles: u64,
    /// Static check counts of an SGXBounds cell: (full + UB-only, elided).
    pub sb_checks: Option<(u64, u64)>,
}

/// Runs one cell phase by phase, each phase in its own span. Mirrors the
/// wiring of `sgxs_harness::scheme::run_one` (observability off); the
/// traced run compares the two results bit for bit, so a change to that
/// wiring that this driver does not follow fails the traced run.
pub fn traced_cell(t: &mut Tracer, w: &dyn Workload, scheme: Scheme, rc: &RunConfig) -> CellTrace {
    let mut module = t.span("workloads.build", w.name(), |_| w.build(&rc.params));
    let sb_cfg = match scheme {
        Scheme::SgxBounds => Some(SbConfig::default()),
        Scheme::SgxBoundsCustom(c) => Some(SbConfig {
            site_markers: false,
            ..c
        }),
        _ => None,
    };
    let mut sb_checks = None;
    match scheme {
        Scheme::Baseline => {}
        Scheme::SgxBounds | Scheme::SgxBoundsCustom(_) => {
            let cfg = sb_cfg.as_ref().expect("set above");
            let rep = t.span("sgxbounds.instrument", w.name(), |_| {
                sgxbounds::instrument(&mut module, cfg).expect("sgxbounds instrumentation")
            });
            sb_checks = Some((
                (rep.full_checks + rep.ub_only_checks) as u64,
                rep.safe_elided as u64,
            ));
        }
        Scheme::Asan => {
            t.span("baselines.asan_instrument", w.name(), |_| {
                instrument_asan_with(&mut module, false).expect("asan instrumentation")
            });
        }
        Scheme::Mpx => {
            t.span("baselines.mpx_instrument", w.name(), |_| {
                instrument_mpx_with(&mut module, false).expect("mpx instrumentation")
            });
        }
    }
    t.span("mir.verify", w.name(), |_| verify(&module))
        .unwrap_or_else(|e| panic!("{} under {}: ill-formed IR: {e}", w.name(), scheme.label()));

    let mut machine_cfg = MachineConfig::preset(rc.preset, rc.mode);
    if let Some(epc) = rc.epc_override {
        machine_cfg.epc_bytes = epc;
    }
    machine_cfg.tier = rc.tier;
    let mut cfg = VmConfig::new(machine_cfg);
    cfg.max_instructions = rc.max_instructions;
    cfg.stack_size = ((2u64 << 20) / rc.scale()).max(32 << 10) as u32;
    let mut vm = t.span("mir.vm_new", w.name(), |_| Vm::new(&module, cfg));
    vm.machine.set_recorder(None);
    let cap = rc.enclave_cap();
    let asan_cfg = AsanConfig::for_scale(rc.scale());
    let mpx_rt = t.span("rt.install", scheme.label(), |_| {
        let heap = match scheme {
            Scheme::Asan => install_base(&mut vm, asan_alloc_opts(&asan_cfg, cap)),
            _ => install_base(
                &mut vm,
                AllocOpts {
                    reserve_cap: cap,
                    ..AllocOpts::default()
                },
            ),
        };
        match scheme {
            Scheme::SgxBounds | Scheme::SgxBoundsCustom(_) => {
                sgxbounds::install_sgxbounds(&mut vm, heap, sb_cfg.as_ref().expect("set"), None);
                None
            }
            Scheme::Asan => {
                install_asan(&mut vm, heap, &asan_cfg);
                None
            }
            Scheme::Mpx => Some(install_mpx(&mut vm, heap, MpxConfig::for_scale(rc.scale()))),
            Scheme::Baseline => None,
        }
    });
    let mut st = Stager::new();
    let args = t.span("workloads.stage", w.name(), |_| {
        w.stage(&mut vm, &mut st, &rc.params)
    });
    if rc.tier == ExecTier::Compiled {
        t.span("exec.lower", w.name(), |_| sgxs_exec::attach(&mut vm));
    }
    let out = t.span("vm.run", w.name(), |_| vm.run("main", &args));
    let measured = Measured {
        workload: w.name().to_owned(),
        scheme: scheme.label(),
        result: out.result,
        wall_cycles: out.wall_cycles,
        peak_reserved: out.peak_reserved,
        peak_committed: out.peak_committed,
        stats: out.stats,
        mpx_bts: mpx_rt
            .as_ref()
            .map(|r| r.tables.borrow().bt_count())
            .unwrap_or(0),
    };
    t.span("vm.drop", w.name(), |_| drop(vm));
    CellTrace {
        measured,
        cpu_cycles: out.cpu_cycles,
        sb_checks,
    }
}

/// Bit-for-bit identity of two measurements. `Measured` has no
/// `PartialEq`; its `Debug` form prints every field, floats included, in
/// shortest round-trip form.
pub fn same_measured(a: &Measured, b: &Measured) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The traced pass over every cell: per tier, the untraced `run_one`
/// (timed) and the phase driver (traced), in alternating order.
pub struct SuiteTrace {
    /// Units attempted and failed (traced ≠ untraced, or tiers differ).
    pub attempted: u64,
    /// Failed units.
    pub failed: u64,
    /// Untraced `run_one` seconds per cell, per tier (`TIERS` order).
    pub cell_secs: [Vec<f64>; 2],
    /// Summed untraced seconds per tier.
    pub untraced_secs: [f64; 2],
    /// Summed traced seconds per tier.
    pub traced_secs: [f64; 2],
    /// Simulated counters summed over the reference pass.
    pub sim: SimTotals,
    /// Static SGXBounds checks (full + UB-only) and elided accesses.
    pub sb_checks: (u64, u64),
}

/// Runs the traced pass against `run_one`. A cell panic propagates (it
/// is a failed run).
pub fn trace(suite: &Suite, t: &mut Tracer) -> SuiteTrace {
    trace_with(suite, t, run_one)
}

/// [`trace`] with the untraced runner as a parameter, so a test can hand
/// it a deliberately faulty one and watch the check fail.
pub fn trace_with(
    suite: &Suite,
    t: &mut Tracer,
    untraced: fn(&dyn Workload, Scheme, &RunConfig) -> Measured,
) -> SuiteTrace {
    let mut out = SuiteTrace {
        attempted: 0,
        failed: 0,
        cell_secs: [Vec::new(), Vec::new()],
        untraced_secs: [0.0; 2],
        traced_secs: [0.0; 2],
        sim: SimTotals::default(),
        sb_checks: (0, 0),
    };
    for (i, cell) in suite.cells.iter().enumerate() {
        let w = suite.workloads[cell.workload].as_ref();
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut per_tier: [Option<Measured>; 2] = [None, None];
        let mut bad = [false; 2];
        for k in order {
            let (tier, label) = TIERS[k];
            let rc = suite.config(cell, tier);
            let t0 = std::time::Instant::now();
            let plain = untraced(w, cell.scheme, &rc);
            let dt = t0.elapsed().as_secs_f64();
            out.cell_secs[k].push(dt);
            out.untraced_secs[k] += dt;

            t.unit = i as u64;
            t.tier = label;
            let t1 = std::time::Instant::now();
            let traced = t.span("harness.cell", cell.scheme.label(), |t| {
                traced_cell(t, w, cell.scheme, &rc)
            });
            out.traced_secs[k] += t1.elapsed().as_secs_f64();
            if !same_measured(&plain, &traced.measured) {
                eprintln!(
                    "traced {} {} on {label}: phase driver differs from run_one",
                    w.name(),
                    cell.scheme.label()
                );
                bad[k] = true;
            }
            if k == 0 {
                out.sim.add(&traced.measured.stats, traced.cpu_cycles);
                if let Some((c, e)) = traced.sb_checks {
                    out.sb_checks.0 += c;
                    out.sb_checks.1 += e;
                }
            }
            per_tier[k] = Some(plain);
        }
        if let [Some(r), Some(e)] = &per_tier {
            if !same_measured(r, e) {
                eprintln!("{} {}: tiers differ", w.name(), cell.scheme.label());
                bad[1] = true;
            }
        }
        out.attempted += 2;
        out.failed += bad.iter().filter(|b| **b).count() as u64;
    }
    out
}

/// Simulated counters summed over cells (the `sim` layer's work).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    /// Cells summed.
    pub cells: u64,
    /// Simulated instructions.
    pub instructions: u64,
    /// L1 accesses.
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// EPC page faults.
    pub epc_faults: u64,
    /// EPC evictions.
    pub epc_evictions: u64,
    /// Cycles charged to the memory hierarchy.
    pub mem_cycles: u64,
    /// Summed per-thread cycles.
    pub cpu_cycles: u64,
}

impl SimTotals {
    fn add(&mut self, s: &Stats, cpu_cycles: u64) {
        self.cells += 1;
        self.instructions += s.instructions;
        self.l1_accesses += s.l1_accesses;
        self.l1_misses += s.l1_misses;
        self.llc_misses += s.llc_misses;
        self.epc_faults += s.epc_faults;
        self.epc_evictions += s.epc_evictions;
        self.mem_cycles += s.mem_cycles;
        self.cpu_cycles += cpu_cycles;
    }
}
