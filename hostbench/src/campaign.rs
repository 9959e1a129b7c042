//! The `fuzz` and `chaos` workloads: the supervised campaigns exactly as
//! `repro fuzz` / `repro chaos` run them, with `workers = nproc`.
//!
//! The untraced pass calls `sgxs_fuzz::run_campaign_supervised` /
//! `sgxs_resil::run_chaos_campaign_supervised`. The traced pass rebuilds
//! each seed from the crates' public calls (generate, analyze, inject,
//! execute; schedule, serve), each in a span, on the same worker pool, and
//! must merge into a document byte-identical to the untraced one.

use crate::trace::Tracer;
use crate::{Pass, Row};
use sgxbounds::SbConfig;
use sgxs_fuzz::inject::ALL_KINDS;
use sgxs_fuzz::runner::{
    classify, exec_tier_budget, is_budget_trap, verdict_ok, FScheme, Verdict, ALL_SCHEMES,
};
use sgxs_fuzz::{gen, inject, oracle, run_campaign_supervised, FuzzOpts, Report};
use sgxs_resil::campaign::combos;
use sgxs_resil::{
    run_chaos_campaign_supervised, serve_tier, CampaignOpts, ChaosReport, ChaosSchedule,
    ComboDelta, ComboRow, RScheme, ServerApp,
};
use sgxs_sim::ExecTier;
use sgxs_super::{resolve_workers, run_indexed, ItemState, StopFlag, SuperOpts};
use std::collections::BTreeSet;
use std::time::Instant;

/// Fuzz seeds per tier pass (about 6 s per tier on 2 cores). Per-seed cost
/// is heavy-tailed (the flow analysis), so a pass needs many seeds for one
/// band of seeds to cost about what another does.
pub const FUZZ_SEEDS: u64 = 400;
/// Chaos seeds per tier pass (about 3–6 s per tier on 2 cores). Per-seed
/// cost varies with the server app and the chaos schedule, so this too
/// needs a large band.
pub const CHAOS_SEEDS: u64 = 400;

/// Supervisor options of both campaigns: one worker per host core, as
/// the closed-loop workloads prescribe, and isolated panics kept quiet.
fn super_opts() -> SuperOpts {
    SuperOpts {
        workers: resolve_workers(0),
        quiet_panics: true,
        ..SuperOpts::default()
    }
}

/// The differential fuzz campaign over one seed band.
pub struct Fuzz {
    /// Campaign options (default `FuzzOpts` but for the seed band).
    pub opts: FuzzOpts,
    sup: SuperOpts,
}

impl Fuzz {
    /// The campaign over seeds `seed * FUZZ_SEEDS ..` (disjoint per seed).
    pub fn new(seed: u64) -> Fuzz {
        Fuzz {
            opts: FuzzOpts {
                seeds: FUZZ_SEEDS,
                seed0: seed.wrapping_mul(FUZZ_SEEDS),
                ..FuzzOpts::default()
            },
            sup: super_opts(),
        }
    }

    /// Worker threads of both passes.
    pub fn workers(&self) -> usize {
        self.sup.workers
    }

    /// One untraced pass on `tier`. A seed with a disagreement or a
    /// quarantine fails.
    pub fn pass(&self, tier: ExecTier) -> Result<Pass, String> {
        let opts = FuzzOpts {
            tier,
            ..self.opts.clone()
        };
        let run = run_campaign_supervised(&opts, &self.sup, &StopFlag::new())?;
        let r = &run.report;
        let mut bad: BTreeSet<u64> = r.disagreements.iter().map(|d| d.seed).collect();
        bad.extend(r.quarantine.iter().map(|q| q.seed));
        let mut failed = bad.len() as u64;
        if r.programs + r.quarantine.len() as u64 != opts.seeds || run.stopped {
            failed = opts.seeds;
        }
        let row = Row {
            text: r.to_json().to_compact(),
            units: opts.seeds,
            failed,
        };
        Ok(Pass::new(vec![row], opts.seeds))
    }

    /// The traced pass on `tier`: every seed rebuilt phase by phase on the
    /// same pool size, merged in seed order.
    pub fn traced(&self, tier: ExecTier, epoch: Instant, label: &'static str) -> Traced {
        let opts = FuzzOpts {
            tier,
            ..self.opts.clone()
        };
        let items = run_indexed(
            opts.seeds as usize,
            self.sup.workers,
            &StopFlag::new(),
            |i| {
                let seed = opts.seed0 + i as u64;
                let mut t = Tracer::new(epoch);
                t.unit = seed;
                t.tier = label;
                let r = t.span("fuzz.seed", "", |t| traced_fuzz_seed(&opts, seed, t));
                (r, t)
            },
        );
        let mut merged = Report::seeded();
        let mut doc = Ok(());
        let mut tracer = Tracer::new(epoch);
        for item in items {
            match item {
                ItemState::Done((r, t)) => {
                    tracer.absorb(t);
                    match r {
                        Ok(r) => merged.merge(&r),
                        Err(e) => doc = doc.and(Err(e)),
                    }
                }
                ItemState::Panicked(m) => doc = doc.and(Err(format!("traced seed panicked: {m}"))),
                ItemState::Skipped => doc = doc.and(Err("traced seed skipped".to_owned())),
            }
        }
        Traced {
            doc: doc.map(|()| merged.to_json().to_compact()),
            tracer,
        }
    }

    /// Static instrumentation probes outside the timed passes: for every
    /// seed's program, `sgxbounds::instrument` with the default
    /// configuration and with the flow tier on (`flow_elide`). Returns
    /// (checks kept, accesses proved safe, checks flow-elided).
    pub fn probe(&self, t: &mut Tracer) -> (u64, u64, u64) {
        let mut out = (0, 0, 0);
        t.tier = "";
        for seed in self.opts.seed0..self.opts.seed0 + self.opts.seeds {
            t.unit = seed;
            let prog = gen::generate(seed, self.opts.max_ops);
            let mut m = gen::build(&prog);
            let rep = t.span("sgxbounds.instrument", "fuzz", |_| {
                sgxbounds::instrument(&mut m, &SbConfig::default())
            });
            let mut m = gen::build(&prog);
            let flow = SbConfig {
                flow_elide: true,
                ..SbConfig::default()
            };
            let frep = t.span("analyze.flow_instrument", "fuzz", |_| {
                sgxbounds::instrument(&mut m, &flow)
            });
            if let (Ok(r), Ok(f)) = (rep, frep) {
                out.0 += (r.full_checks + r.ub_only_checks) as u64;
                out.1 += r.safe_elided as u64;
                out.2 += f.flow_elided as u64;
            }
        }
        out
    }
}

/// A traced campaign pass: its merged document and spans.
pub struct Traced {
    /// The merged document (compact JSON), or why it could not be built.
    pub doc: Result<String, String>,
    /// Every seed's spans.
    pub tracer: Tracer,
}

/// One fuzz seed through the public calls `run_seed_report` makes, each
/// in a span. Seeds whose real run would record a disagreement, trip the
/// budget, or panic come back as `Err` (the untraced pass reports those,
/// and the traced document then differs and fails the run).
fn traced_fuzz_seed(opts: &FuzzOpts, seed: u64, t: &mut Tracer) -> Result<Report, String> {
    let budget = opts.budget;
    let over = || Err(format!("fuzz seed {seed}: instruction budget exhausted"));
    let mut report = Report::seeded();
    let prog = t.span("fuzz.gen", "", |_| gen::generate(seed, opts.max_ops));
    if t.span("fuzz.oracle", "", |_| oracle::analyze(&prog))
        .is_some()
    {
        return Err(format!(
            "fuzz seed {seed}: generator emitted an out-of-bounds op"
        ));
    }
    report.programs += 1;
    let exec = |t: &mut Tracer, p: &gen::Prog, s: FScheme| {
        t.span("fuzz.exec", s.label(), |_| {
            exec_tier_budget(p, s, opts.tier, budget)
        })
    };

    let native = exec(t, &prog, FScheme::Native);
    if is_budget_trap(&native) {
        return over();
    }
    report.runs += 1;
    let native_digest = match &native.result {
        Ok(d) => *d,
        Err(e) => return Err(format!("fuzz seed {seed}: native run trapped: {e}")),
    };
    {
        let cell = report.safe.get_mut(&FScheme::Native).expect("seeded");
        cell.total += 1;
        cell.passes += 1;
    }
    for scheme in ALL_SCHEMES.into_iter().skip(1) {
        let e = exec(t, &prog, scheme);
        if is_budget_trap(&e) {
            return over();
        }
        let v = classify(None, native_digest, &e);
        if !verdict_ok(scheme, None, &v) {
            return Err(format!(
                "fuzz seed {seed}: {} disagrees on the safe program",
                scheme.label()
            ));
        }
        report.runs += 1;
        let cell = report.safe.get_mut(&scheme).expect("seeded");
        cell.total += 1;
        match &v {
            Verdict::Pass => cell.passes += 1,
            Verdict::FalsePositive(_) => cell.false_positives += 1,
            Verdict::DigestMismatch { .. } => cell.mismatches += 1,
            _ => cell.crashes += 1,
        }
    }

    let kind = ALL_KINDS[(seed % ALL_KINDS.len() as u64) as usize];
    let (fprog, fault) = t.span("fuzz.inject", "", |_| inject::inject(&prog, kind, seed));
    match t.span("fuzz.oracle", "", |_| oracle::analyze(&fprog)) {
        Some(v) if v.op_index == fault.victim_index() => {}
        _ => {
            return Err(format!(
                "fuzz seed {seed}: oracle disagrees with the injector"
            ))
        }
    }
    for scheme in ALL_SCHEMES {
        let e = exec(t, &fprog, scheme);
        if is_budget_trap(&e) {
            return over();
        }
        let v = classify(Some(&fault), native_digest, &e);
        if !verdict_ok(scheme, Some(kind), &v) {
            return Err(format!(
                "fuzz seed {seed}: {} disagrees on the fault",
                scheme.label()
            ));
        }
        report.runs += 1;
        let cell = report.cells.entry((kind, scheme)).or_default();
        cell.total += 1;
        match v {
            Verdict::Detected => cell.detected += 1,
            Verdict::DetectedWrongSite { .. } => cell.wrong_site += 1,
            Verdict::Missed => cell.missed += 1,
            Verdict::Tolerated => cell.tolerated += 1,
            Verdict::Crash(_) => cell.crashed += 1,
            _ => {}
        }
    }
    Ok(report)
}

/// The chaos availability campaign over one seed band.
pub struct Chaos {
    /// Campaign options (default `CampaignOpts` but for the seed band).
    pub opts: CampaignOpts,
    sup: SuperOpts,
    /// `scheme/policy` label of each combo, `combos()` order.
    labels: Vec<String>,
}

/// Request outcome counts summed over one pass (the `resil` layer's work).
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcomes {
    /// Served cleanly.
    pub served: u64,
    /// Degraded but answered.
    pub degraded: u64,
    /// Aborted individually.
    pub aborted: u64,
    /// Lost to whole-server death.
    pub lost: u64,
    /// Interpreter retry attempts.
    pub retries: u64,
}

impl Chaos {
    /// The campaign over seeds `1 + seed * CHAOS_SEEDS ..` (disjoint per
    /// seed; seed 0 is the default campaign's band start).
    pub fn new(seed: u64) -> Chaos {
        let labels = combos()
            .iter()
            .map(|c| format!("{}/{}", c.scheme.label(), c.policy))
            .collect();
        Chaos {
            opts: CampaignOpts {
                seeds: CHAOS_SEEDS,
                seed0: 1 + seed.wrapping_mul(CHAOS_SEEDS),
                ..CampaignOpts::default()
            },
            sup: super_opts(),
            labels,
        }
    }

    /// Worker threads of both passes.
    pub fn workers(&self) -> usize {
        self.sup.workers
    }

    /// One untraced pass on `tier`. A quarantined seed or a corrupted run
    /// under a protected combo fails; a failed availability gate fails
    /// every seed.
    pub fn pass(&self, tier: ExecTier) -> Result<Pass, String> {
        let opts = CampaignOpts {
            tier,
            ..self.opts.clone()
        };
        let out = run_chaos_campaign_supervised(&opts, &self.sup, &StopFlag::new())?;
        let r = &out.report;
        let corrupted: u64 = combos()
            .iter()
            .zip(&r.rows)
            .filter(|(c, _)| c.gated)
            .map(|(_, row)| row.corrupted_runs)
            .sum();
        let mut failed = (r.quarantine.len() as u64 + corrupted).min(opts.seeds);
        if r.gate_failed() || out.stopped {
            failed = opts.seeds;
        }
        let row = Row {
            text: r.to_json().to_compact(),
            units: opts.seeds,
            failed,
        };
        Ok(Pass::new(vec![row], opts.seeds))
    }

    /// The traced pass on `tier`: each seed's schedule and per-combo
    /// `serve_tier` calls in spans, on the same pool size, finalized into
    /// an `sgxs-chaos-v1` document. Also returns the outcome counts.
    pub fn traced(
        &self,
        tier: ExecTier,
        epoch: Instant,
        label: &'static str,
    ) -> (Traced, Outcomes) {
        let opts = CampaignOpts {
            tier,
            ..self.opts.clone()
        };
        let cs = combos();
        let items = run_indexed(
            opts.seeds as usize,
            self.sup.workers,
            &StopFlag::new(),
            |i| {
                let seed = opts.seed0 + i as u64;
                let mut t = Tracer::new(epoch);
                t.unit = seed;
                t.tier = label;
                let deltas = t.span("resil.seed", "", |t| {
                    let schedule = t.span("resil.schedule", "", |_| {
                        ChaosSchedule::generate(seed, opts.requests)
                    });
                    let app = ServerApp::ALL[(seed % ServerApp::ALL.len() as u64) as usize];
                    cs.iter()
                        .zip(&self.labels)
                        .map(|(c, l)| {
                            let r = t.span("resil.serve", l, |_| {
                                serve_tier(app, c.scheme, &c.policies, &schedule, opts.tier)
                            });
                            ComboDelta {
                                total: r.total as u64,
                                served: r.served as u64,
                                degraded: r.degraded as u64,
                                aborted: r.aborted as u64,
                                lost: r.lost as u64,
                                retries: r.recovery.attempts,
                                corrupted: !r.intact(),
                                corrupted_bytes: r.corrupted_canary_bytes as u64,
                                aex_cycles: r.aex_penalty_cycles,
                                latency: r.latency.clone(),
                            }
                        })
                        .collect::<Vec<_>>()
                });
                (deltas, t)
            },
        );
        let mut rows: Vec<ComboRow> = cs
            .iter()
            .map(|c| ComboRow {
                scheme: c.scheme.label(),
                policy: c.policy,
                ..ComboRow::default()
            })
            .collect();
        let mut counts = Outcomes::default();
        let mut tracer = Tracer::new(epoch);
        let mut doc = Ok(());
        for item in items {
            match item {
                ItemState::Done((deltas, t)) => {
                    tracer.absorb(t);
                    for (row, d) in rows.iter_mut().zip(&deltas) {
                        absorb(row, d);
                        counts.served += d.served;
                        counts.degraded += d.degraded;
                        counts.aborted += d.aborted;
                        counts.lost += d.lost;
                        counts.retries += d.retries;
                    }
                }
                ItemState::Panicked(m) => doc = doc.and(Err(format!("traced seed panicked: {m}"))),
                ItemState::Skipped => doc = doc.and(Err("traced seed skipped".to_owned())),
            }
        }
        let mut failures = Vec::new();
        for (combo, row) in cs.iter().zip(&rows) {
            if combo.gated && row.corrupted_bytes > 0 {
                // The real campaign attaches a forensic incident here; the
                // traced document cannot, so it differs and fails the run.
                doc = doc.and(Err(format!("{}/{}: corrupted", row.scheme, row.policy)));
            }
            if combo.scheme == RScheme::Boundless && row.availability() < opts.threshold {
                failures.push(format!(
                    "{}/{}: availability {:.3} below threshold {:.2}",
                    row.scheme,
                    row.policy,
                    row.availability(),
                    opts.threshold
                ));
            }
        }
        let report = ChaosReport {
            opts,
            rows,
            failures,
            incidents: Vec::new(),
            quarantine: Vec::new(),
            skipped: 0,
        };
        let traced = Traced {
            doc: doc.map(|()| report.to_json().to_compact()),
            tracer,
        };
        (traced, counts)
    }
}

/// `ComboRow::absorb`, which the crate keeps private: pure counter and
/// histogram merges.
fn absorb(row: &mut ComboRow, d: &ComboDelta) {
    row.runs += 1;
    row.total += d.total;
    row.served += d.served;
    row.degraded += d.degraded;
    row.aborted += d.aborted;
    row.lost += d.lost;
    row.retries += d.retries;
    if d.corrupted {
        row.corrupted_runs += 1;
    }
    row.corrupted_bytes += d.corrupted_bytes;
    row.aex_cycles += d.aex_cycles;
    row.latency.merge(&d.latency);
}
