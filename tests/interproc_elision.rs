//! The interprocedural flow tier strictly dominates the intraprocedural
//! one on the Fig. 10 workloads, and the extra elisions are sound.
//!
//! * **dominance**: on every Phoenix/PARSEC module, the summary-driven
//!   tier (`mark_safe_flow_with`/`elide_redundant_checks_with`) proves at
//!   least as many safe accesses and elides at least as many redundant
//!   checks as the summary-free tier, and at least one workload gains
//!   strictly (a cross-call win the intraprocedural analysis cannot see);
//! * **soundness**: with the interprocedural tier enabled (the default
//!   `flow_elide` path), every Fig. 10 workload still computes the same
//!   result as the completely unoptimized SGXBounds scheme.

use sgxbounds::SbConfig;
use sgxs_harness::{run_one, RunConfig, Scheme};
use sgxs_sim::Preset;
use sgxs_workloads::SizeClass;

fn params() -> sgxs_workloads::Params {
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    rc.params
}

#[test]
fn interprocedural_tier_dominates_intraprocedural_on_fig10_modules() {
    let params = params();
    let mut strict_wins = Vec::new();
    for w in sgxs_workloads::phoenix_parsec() {
        let base = w.build(&params);

        let mut intra = base.clone();
        let marked_intra = sgxs_analyze::mark_safe_flow(&mut intra);
        let elided_intra = sgxs_analyze::elide_redundant_checks(&mut intra);

        let mut inter = base.clone();
        let summaries = sgxs_analyze::summarize(&inter);
        let marked_inter = sgxs_analyze::mark_safe_flow_with(&mut inter, Some(&summaries));
        let elided_inter = sgxs_analyze::elide_redundant_checks_with(&mut inter, Some(&summaries));

        assert!(
            marked_inter >= marked_intra && elided_inter >= elided_intra,
            "{}: summaries lost facts (marked {marked_intra}->{marked_inter}, \
             elided {elided_intra}->{elided_inter})",
            w.name()
        );
        if marked_inter > marked_intra || elided_inter > elided_intra {
            strict_wins.push(w.name().to_owned());
        }
    }
    // The spawn-aware summaries prove post-join accesses to buffers whose
    // workers are heap-benign; these three rely on it today.
    for expect in ["kmeans", "ferret", "vips"] {
        assert!(
            strict_wins.iter().any(|n| n == expect),
            "{expect} lost its cross-call elision win (wins: {strict_wins:?})"
        );
    }
}

#[test]
fn interprocedural_elision_preserves_fig10_results() {
    let off = SbConfig::UNOPTIMIZED;
    let flow = SbConfig {
        flow_elide: true,
        ..SbConfig::default()
    };
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    for w in sgxs_workloads::phoenix_parsec() {
        let noopt = run_one(w.as_ref(), Scheme::SgxBoundsCustom(off), &rc);
        let elided = run_one(w.as_ref(), Scheme::SgxBoundsCustom(flow), &rc);
        assert_eq!(
            noopt.result,
            elided.result,
            "{}: interprocedural elision changed the result",
            w.name()
        );
    }
}
