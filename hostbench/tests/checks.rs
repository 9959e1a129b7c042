//! The benchmark's own tests: the output check must be able to fail
//! (negative controls), the traced phase driver must agree with the
//! untraced pipeline, a busy pass must be sampled for host speed while it
//! runs, and `BENCHMARK.json` must name exactly the metrics the benchmark
//! prints.

use sgxs_harness::scheme::run_one_perturbed;
use sgxs_hostbench::host;
use sgxs_hostbench::suite::{self, Experiment, Suite};
use sgxs_hostbench::trace::Tracer;
use sgxs_hostbench::traced::PER_LAYER;
use sgxs_hostbench::{Tally, TIERS};
use sgxs_obs::json::Json;
use sgxs_sim::ExecTier;
use std::time::Instant;

fn repo_file(rel: &str) -> String {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed document with fig7's first `perf.mpx` value changed.
fn edited_committed() -> String {
    let mut doc = Json::parse(&repo_file(suite::COMMITTED)).unwrap();
    let Json::Obj(top) = &mut doc else {
        panic!("object")
    };
    let exps = &mut top.iter_mut().find(|(k, _)| k == "experiments").unwrap().1;
    let Json::Obj(exps) = exps else {
        panic!("object")
    };
    let fig7 = &mut exps.iter_mut().find(|(k, _)| k == "fig7").unwrap().1;
    let Json::Obj(fig7) = fig7 else {
        panic!("object")
    };
    let Json::Arr(rows) = &mut fig7.iter_mut().find(|(k, _)| k == "rows").unwrap().1 else {
        panic!("array")
    };
    let Json::Obj(row) = &mut rows[0] else {
        panic!("object")
    };
    let Json::Obj(perf) = &mut row.iter_mut().find(|(k, _)| k == "perf").unwrap().1 else {
        panic!("object")
    };
    let v = &mut perf.iter_mut().find(|(k, _)| k == "mpx").unwrap().1;
    let old = v.as_f64().unwrap();
    *v = Json::F64(old * 1.01);
    doc.to_pretty()
}

/// The fig7 suite at the default seed, checked against `committed`.
fn fig7_suite(committed: &str) -> Suite {
    Suite::new(Experiment::Fig7, 42)
        .unwrap()
        .with_committed(committed)
        .unwrap()
}

/// A fig7 suite cut down to its first `n` cells (a quick, real slice of
/// the workload).
fn fig7_cells(n: usize) -> Suite {
    let mut s = fig7_suite(&repo_file(suite::COMMITTED));
    s.cells.truncate(n);
    s
}

#[test]
fn traced_phase_driver_reproduces_run_one_on_both_tiers() {
    let s = fig7_cells(4);
    let st = suite::trace(&s, &mut Tracer::new(Instant::now()));
    assert_eq!(st.attempted, 8, "4 cells x 2 tiers");
    assert_eq!(st.failed, 0, "traced Measured must equal run_one's");
    assert!(st.sim.instructions > 0);
}

#[test]
fn perturbed_engine_fails_the_cell_check() {
    // Negative control: the compiled engine's deliberate one-cycle fault
    // stands in for the untraced pipeline. The check must catch it.
    let s = fig7_cells(1);
    let st = suite::trace_with(&s, &mut Tracer::new(Instant::now()), run_one_perturbed);
    let tally = Tally {
        attempted: st.attempted,
        failed: st.failed,
    };
    assert!(tally.failed > 0, "perturbed runs must fail the check");
    assert!(tally.fail_frac() > 0.0);
}

#[test]
fn edited_committed_value_fails_the_suite_check() {
    let good = fig7_suite(&repo_file(suite::COMMITTED));
    let bad = fig7_suite(&edited_committed());
    let tier = TIERS[1].0;
    assert_eq!(tier, ExecTier::Compiled);

    let mut control = Tally::default();
    let p = good.pass(tier).unwrap();
    control.add(p.units, p.failed_units());
    assert_eq!(control.failed, 0, "HEAD reproduces the committed fig7 rows");

    // Negative control: one committed value changed must fail that row's
    // four cells.
    let mut tally = Tally::default();
    let p = bad.pass(tier).unwrap();
    tally.add(p.units, p.failed_units());
    assert_eq!(tally.failed, 4);
    assert!(tally.fail_frac() > 0.0);
}

#[test]
fn a_busy_pass_is_sampled_while_it_runs() {
    let (spins, secs, f) = host::time_sampled(|| {
        let t0 = Instant::now();
        let mut n = 0u64;
        while t0.elapsed().as_secs_f64() < 0.5 {
            n = std::hint::black_box(n + 1);
        }
        n
    });
    assert!(spins > 0 && secs >= 0.5);
    let f = f.expect("a 0.5 s busy pass takes host-speed samples");
    assert!(f.is_finite() && f > 0.0, "factor {f}");
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let doc = Json::parse(&repo_file("BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    };
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
    assert_eq!(names("per_layer"), per_layer);
    assert_eq!(
        names("end_to_end"),
        [
            "setup_s",
            "ref_units_per_s",
            "exec_units_per_s",
            "peak_rss_mb",
            "pass_frac"
        ]
    );
    for m in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let (_, unit, better) = PER_LAYER.iter().find(|(n, _, _)| *n == name).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(*better),
            "{name}"
        );
    }
}
