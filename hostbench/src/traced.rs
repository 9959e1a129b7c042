//! The traced run: per-layer metrics from spans recorded around each call
//! into a crate's public API, plus calibrated primitive timings. Layers
//! are named by crate; a `.ref` / `.exec` suffix names the tier.

use crate::campaign::{Chaos, Fuzz, Outcomes, Traced};
use crate::host::HostClock;
use crate::suite::{self, Suite};
use crate::trace::Tracer;
use crate::{guarded, percentile, prim, Bench, Metrics, Pass, Tally, TIERS};
use sgxs_fuzz::runner::ALL_SCHEMES;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric: (name, unit, better). A layer a workload does
/// not exercise reads 0 on it (e.g. `resil.*` on `fig7`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("vm.run_s.ref", "s", "lower"),
    ("vm.run_s.exec", "s", "lower"),
    ("vm.ns_per_instr.ref", "ns/instr", "lower"),
    ("vm.ns_per_instr.exec", "ns/instr", "lower"),
    ("exec.lower_s", "s", "lower"),
    ("sim.instructions", "instr/unit", "lower"),
    ("sim.l1_per_kinstr", "1/kinstr", "lower"),
    ("sim.l1_miss_ratio", "ratio", "lower"),
    ("sim.llc_miss_per_kinstr", "1/kinstr", "lower"),
    ("sim.epc_fault_per_kinstr", "1/kinstr", "lower"),
    ("sim.epc_evict_per_kinstr", "1/kinstr", "lower"),
    ("sim.mem_cycle_share", "ratio", "lower"),
    ("sim.cache_hit_ns", "ns", "lower"),
    ("sim.load_l1_hit_ns", "ns", "lower"),
    ("sim.load_epc_fault_ns", "ns", "lower"),
    ("sim.est_share.ref", "ratio", "lower"),
    ("sim.est_share.exec", "ratio", "lower"),
    ("sgxbounds.instrument_s", "s", "lower"),
    ("baselines.asan_instrument_s", "s", "lower"),
    ("baselines.mpx_instrument_s", "s", "lower"),
    ("sgxbounds.checks", "count", "lower"),
    ("sgxbounds.safe_elided", "count", "higher"),
    ("sgxbounds.tagged_check_ns", "ns", "lower"),
    ("analyze.flow_instrument_s", "s", "lower"),
    ("analyze.flow_elided", "count", "higher"),
    ("workloads.build_s", "s", "lower"),
    ("workloads.stage_s", "s", "lower"),
    ("mir.verify_s", "s", "lower"),
    ("mir.vm_new_s", "s", "lower"),
    ("rt.install_s", "s", "lower"),
    ("vm.drop_s", "s", "lower"),
    ("harness.cell_ms_p50.ref", "ms", "lower"),
    ("harness.cell_ms_p50.exec", "ms", "lower"),
    ("harness.cell_ms_p90.ref", "ms", "lower"),
    ("harness.cell_ms_p90.exec", "ms", "lower"),
    ("harness.cell_ms_max.ref", "ms", "lower"),
    ("harness.cell_ms_max.exec", "ms", "lower"),
    ("fuzz.gen_s", "s", "lower"),
    ("fuzz.inject_s", "s", "lower"),
    ("fuzz.oracle_s", "s", "lower"),
    ("fuzz.exec_s.native", "s", "lower"),
    ("fuzz.exec_s.sgxbounds", "s", "lower"),
    ("fuzz.exec_s.sb-noopt", "s", "lower"),
    ("fuzz.exec_s.sb-flow", "s", "lower"),
    ("fuzz.exec_s.sb-narrow", "s", "lower"),
    ("fuzz.exec_s.sb-boundless", "s", "lower"),
    ("fuzz.exec_s.asan", "s", "lower"),
    ("fuzz.exec_s.mpx", "s", "lower"),
    ("fuzz.exec_s.ref", "s", "lower"),
    ("fuzz.exec_s.exec", "s", "lower"),
    ("fuzz.seed_ms_p50", "ms", "lower"),
    ("fuzz.seed_ms_p90", "ms", "lower"),
    ("super.busy_share", "ratio", "higher"),
    ("resil.schedule_s", "s", "lower"),
    ("resil.serve_s", "s", "lower"),
    ("resil.run_ms_p50", "ms", "lower"),
    ("resil.run_ms_p90", "ms", "lower"),
    ("resil.served", "count", "higher"),
    ("resil.degraded", "count", "lower"),
    ("resil.aborted", "count", "lower"),
    ("resil.lost", "count", "lower"),
    ("resil.retries", "count", "lower"),
    ("bench.trace_overhead.ref", "ratio", "lower"),
    ("bench.trace_overhead.exec", "ratio", "lower"),
    ("bench.host_mops", "Mops/s", "higher"),
];

/// Where the Chrome trace of a traced run is written, relative to the
/// repository root.
pub const TRACE_DIR: &str = "hostbench/out";

/// Values keyed by metric name, emitted in [`PER_LAYER`] order.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, v);
    }

    fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit, _) in PER_LAYER {
            m.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }
}

/// Summed self time (seconds) of spans named `name` on `tier` (`None`
/// adds every tier).
fn self_secs(t: &Tracer, name: &str, tier: Option<&str>) -> f64 {
    t.self_by_layer()
        .iter()
        .filter(|((n, tr), _)| *n == name && tier.is_none_or(|x| x == *tr))
        .map(|(_, v)| v)
        .sum()
}

/// Result of a traced run.
pub struct TracedRun {
    /// Units attempted and failed (traced ≠ untraced, tiers differ, or
    /// an untraced check failed).
    pub tally: Tally,
    /// The per-layer metrics.
    pub metrics: Metrics,
    /// Every span, for the Chrome trace.
    pub tracer: Tracer,
}

/// Runs the traced pass of `bench` and derives the per-layer metrics.
pub fn run(bench: &Bench) -> TracedRun {
    let epoch = Instant::now();
    let mut layers = Layers::default();
    let mut clock = HostClock::new(bench.threads());
    clock.sample();
    let prims = prim::measure();
    for (name, ns) in &prims {
        layers.set(name, *ns);
    }
    let ns_of = |n: &str| prims.iter().find(|(k, _)| *k == n).map_or(0.0, |p| p.1);
    let (l1_hit_ns, fault_ns) = (ns_of("sim.load_l1_hit_ns"), ns_of("sim.load_epc_fault_ns"));
    let mut tracer = Tracer::new(epoch);
    let tally = match bench {
        Bench::Suite(s) => suite_layers(s, &mut tracer, &mut layers, l1_hit_ns, fault_ns),
        Bench::Fuzz(f) => fuzz_layers(f, &mut tracer, &mut layers),
        Bench::Chaos(c) => chaos_layers(c, &mut tracer, &mut layers),
    };
    clock.sample();
    // Per-layer times stay raw; this lets a reader put two runs on one
    // host speed (see `host`).
    layers.set(
        "bench.host_mops",
        clock.speed() / bench.threads() as f64 / 1e6,
    );
    TracedRun {
        tally,
        metrics: layers.into_metrics(),
        tracer,
    }
}

fn suite_layers(s: &Suite, t: &mut Tracer, l: &mut Layers, l1_hit_ns: f64, fault_ns: f64) -> Tally {
    let st = suite::trace(s, t);
    let sim = st.sim;
    let instr = sim.instructions.max(1) as f64;
    for (k, (_, tier)) in TIERS.iter().enumerate() {
        let run_s = self_secs(t, "vm.run", Some(tier));
        let est = (sim.l1_accesses as f64 * l1_hit_ns + sim.epc_faults as f64 * fault_ns) * 1e-9;
        let ms: Vec<f64> = st.cell_secs[k].iter().map(|s| s * 1e3).collect();
        let pick = |names: [&'static str; 2]| names[k];
        l.set(pick(["vm.run_s.ref", "vm.run_s.exec"]), run_s);
        l.set(
            pick(["vm.ns_per_instr.ref", "vm.ns_per_instr.exec"]),
            run_s * 1e9 / instr,
        );
        l.set(
            pick(["sim.est_share.ref", "sim.est_share.exec"]),
            if run_s > 0.0 { est / run_s } else { 0.0 },
        );
        let cell_ms = [
            (["harness.cell_ms_p50.ref", "harness.cell_ms_p50.exec"], 0.5),
            (["harness.cell_ms_p90.ref", "harness.cell_ms_p90.exec"], 0.9),
            (["harness.cell_ms_max.ref", "harness.cell_ms_max.exec"], 1.0),
        ];
        for (names, q) in cell_ms {
            l.set(pick(names), percentile(&ms, q));
        }
        l.set(
            pick(["bench.trace_overhead.ref", "bench.trace_overhead.exec"]),
            st.traced_secs[k] / st.untraced_secs[k],
        );
    }
    let per_k = |x: u64| x as f64 * 1e3 / instr;
    l.set(
        "sim.instructions",
        sim.instructions as f64 / sim.cells.max(1) as f64,
    );
    l.set("sim.l1_per_kinstr", per_k(sim.l1_accesses));
    l.set(
        "sim.l1_miss_ratio",
        sim.l1_misses as f64 / sim.l1_accesses.max(1) as f64,
    );
    l.set("sim.llc_miss_per_kinstr", per_k(sim.llc_misses));
    l.set("sim.epc_fault_per_kinstr", per_k(sim.epc_faults));
    l.set("sim.epc_evict_per_kinstr", per_k(sim.epc_evictions));
    l.set(
        "sim.mem_cycle_share",
        sim.mem_cycles as f64 / sim.cpu_cycles.max(1) as f64,
    );
    l.set("sgxbounds.checks", st.sb_checks.0 as f64);
    l.set("sgxbounds.safe_elided", st.sb_checks.1 as f64);
    for (metric, span) in [
        ("exec.lower_s", "exec.lower"),
        ("sgxbounds.instrument_s", "sgxbounds.instrument"),
        ("baselines.asan_instrument_s", "baselines.asan_instrument"),
        ("baselines.mpx_instrument_s", "baselines.mpx_instrument"),
        ("workloads.build_s", "workloads.build"),
        ("workloads.stage_s", "workloads.stage"),
        ("mir.verify_s", "mir.verify"),
        ("mir.vm_new_s", "mir.vm_new"),
        ("rt.install_s", "rt.install"),
        ("vm.drop_s", "vm.drop"),
    ] {
        l.set(metric, self_secs(t, span, None));
    }
    Tally {
        attempted: st.attempted,
        failed: st.failed,
    }
}

/// Runs, per tier, the untraced pass (timed) and the traced pass, and
/// checks the traced document against the untraced one and the compiled
/// tier against the reference tier. Returns the tally, the untraced and
/// traced seconds per tier, and the reference tier's traced extra.
fn campaign_passes<X>(
    t: &mut Tracer,
    untraced: impl Fn(usize) -> Pass,
    traced: impl Fn(usize) -> (Traced, X),
) -> (Tally, [f64; 2], [f64; 2], Option<X>) {
    let mut tally = Tally::default();
    let mut plain = [0.0; 2];
    let mut with = [0.0; 2];
    let mut ref_pass: Option<Pass> = None;
    let mut ref_extra = None;
    for k in 0..TIERS.len() {
        let t0 = Instant::now();
        let p = untraced(k);
        plain[k] = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (tr, extra) = traced(k);
        with[k] = t1.elapsed().as_secs_f64();
        t.absorb(tr.tracer);
        let mut failed = match &ref_pass {
            Some(r) => p.failed_against(r),
            None => p.failed_units(),
        };
        let same = matches!(&tr.doc, Ok(d) if p.rows.len() == 1 && *d == p.rows[0].text);
        if !same {
            eprintln!(
                "traced {} document differs from the untraced one: {:?}",
                TIERS[k].1,
                tr.doc.as_ref().err()
            );
            failed = p.units;
        }
        tally.add(p.units, failed);
        if k == 0 {
            ref_pass = Some(p);
            ref_extra = Some(extra);
        }
    }
    (tally, plain, with, ref_extra)
}

fn set_overhead(l: &mut Layers, plain: [f64; 2], with: [f64; 2]) {
    l.set("bench.trace_overhead.ref", with[0] / plain[0]);
    l.set("bench.trace_overhead.exec", with[1] / plain[1]);
}

fn fuzz_layers(f: &Fuzz, t: &mut Tracer, l: &mut Layers) -> Tally {
    let epoch = t.epoch();
    let (tally, plain, with, _) = campaign_passes(
        t,
        |k| guarded(f.opts.seeds, || f.pass(TIERS[k].0)),
        |k| (f.traced(TIERS[k].0, epoch, TIERS[k].1), ()),
    );
    set_overhead(l, plain, with);
    for (metric, span) in [
        ("fuzz.gen_s", "fuzz.gen"),
        ("fuzz.inject_s", "fuzz.inject"),
        ("fuzz.oracle_s", "fuzz.oracle"),
    ] {
        l.set(metric, self_secs(t, span, None));
    }
    let selfs = t.self_secs();
    for scheme in ALL_SCHEMES {
        let secs: f64 = t
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "fuzz.exec" && s.arg == scheme.label())
            .map(|(_, v)| v)
            .sum();
        let name = PER_LAYER
            .iter()
            .find(|(n, _, _)| n.strip_prefix("fuzz.exec_s.") == Some(scheme.label()))
            .expect("every fuzz scheme has a metric")
            .0;
        l.set(name, secs);
    }
    l.set("fuzz.exec_s.ref", self_secs(t, "fuzz.exec", Some("ref")));
    l.set("fuzz.exec_s.exec", self_secs(t, "fuzz.exec", Some("exec")));
    let seeds: Vec<f64> = t.durations("fuzz.seed");
    let ms: Vec<f64> = seeds.iter().map(|s| s * 1e3).collect();
    l.set("fuzz.seed_ms_p50", percentile(&ms, 0.5));
    l.set("fuzz.seed_ms_p90", percentile(&ms, 0.9));
    l.set(
        "super.busy_share",
        seeds.iter().sum::<f64>() / (f.workers() as f64 * (with[0] + with[1])),
    );
    let (checks, elided, flow_elided) = f.probe(t);
    l.set("sgxbounds.checks", checks as f64);
    l.set("sgxbounds.safe_elided", elided as f64);
    l.set("analyze.flow_elided", flow_elided as f64);
    l.set(
        "sgxbounds.instrument_s",
        self_secs(t, "sgxbounds.instrument", None),
    );
    l.set(
        "analyze.flow_instrument_s",
        self_secs(t, "analyze.flow_instrument", None),
    );
    tally
}

fn chaos_layers(c: &Chaos, t: &mut Tracer, l: &mut Layers) -> Tally {
    let epoch = t.epoch();
    let (tally, plain, with, counts) = campaign_passes(
        t,
        |k| guarded(c.opts.seeds, || c.pass(TIERS[k].0)),
        |k| c.traced(TIERS[k].0, epoch, TIERS[k].1),
    );
    set_overhead(l, plain, with);
    l.set("resil.schedule_s", self_secs(t, "resil.schedule", None));
    l.set("resil.serve_s", self_secs(t, "resil.serve", None));
    let ms: Vec<f64> = t.durations("resil.serve").iter().map(|s| s * 1e3).collect();
    l.set("resil.run_ms_p50", percentile(&ms, 0.5));
    l.set("resil.run_ms_p90", percentile(&ms, 0.9));
    let seeds: f64 = t.durations("resil.seed").iter().sum();
    l.set(
        "super.busy_share",
        seeds / (c.workers() as f64 * (with[0] + with[1])),
    );
    let o: Outcomes = counts.unwrap_or_default();
    l.set("resil.served", o.served as f64);
    l.set("resil.degraded", o.degraded as f64);
    l.set("resil.aborted", o.aborted as f64);
    l.set("resil.lost", o.lost as f64);
    l.set("resil.retries", o.retries as f64);
    tally
}
