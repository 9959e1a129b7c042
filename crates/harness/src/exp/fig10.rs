//! Figure 10: SGXBounds optimization ablation — no optimizations /
//! safe-access only / hoisting only / both / both + flow-sensitive
//! elision (paper §4.4, §6.5; the `flow` column is this repo's
//! dataflow-tier extension).

use super::Effort;
use crate::report::{fmt_ratio, geomean, json_opt_f64, ratio, Table};
use crate::scheme::{run_one, run_one_obs, RunConfig, Scheme};
use sgxbounds::SbConfig;
use sgxs_obs::json::Json;
use sgxs_sim::obs::TraceRecorder;
use sgxs_sim::Preset;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Number of ablation variants (columns).
pub const NVARIANTS: usize = 5;

/// Ablation configurations in column order.
pub fn variants() -> [(&'static str, SbConfig); NVARIANTS] {
    let off = SbConfig::UNOPTIMIZED;
    [
        ("none", off),
        (
            "safe",
            SbConfig {
                safe_access_opt: true,
                ..off
            },
        ),
        (
            "hoist",
            SbConfig {
                hoist_opt: true,
                ..off
            },
        ),
        ("both", SbConfig::default()),
        (
            "flow",
            SbConfig {
                flow_elide: true,
                ..SbConfig::default()
            },
        ),
    ]
}

/// One benchmark row: overhead vs native SGX and dynamic check count per
/// variant.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Overheads (none, safe, hoist, both, flow).
    pub over: [Option<f64>; NVARIANTS],
    /// Dynamic bounds checks executed (site kinds other than `sb_safe`),
    /// from a separate profiled run so the timing runs stay unperturbed.
    pub checks: [Option<u64>; NVARIANTS],
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Rows.
    pub rows: Vec<Row>,
    /// Geometric means per variant.
    pub gmean: [Option<f64>; NVARIANTS],
}

/// Counts dynamic check executions for one (workload, config): the sum of
/// per-site exec counters over real check sites. `sb_safe` markers wrap a
/// bare tag strip — not a bounds check — and are excluded, so the metric
/// is exactly "checks the optimization tiers failed to remove".
fn count_checks(w: &dyn sgxs_workloads::Workload, cfg: SbConfig, rc: &RunConfig) -> Option<u64> {
    let rec = Rc::new(RefCell::new(TraceRecorder::new(1)));
    let run = run_one_obs(w, Scheme::SgxBoundsCustom(cfg), rc, rec.clone());
    if !run.measured.ok() {
        return None;
    }
    let rec = rec.borrow();
    let mut checks = 0;
    for (i, stat) in rec.sites().iter().enumerate() {
        let real = run.sites.get(i).is_none_or(|s| s.kind != "sb_safe");
        if real {
            checks += stat.execs;
        }
    }
    Some(checks)
}

/// Runs the ablation.
pub fn run(preset: Preset, effort: Effort, seed: u64) -> Fig10 {
    let mut rc = RunConfig::new(preset);
    rc.params.size = effort.size();
    rc.params.threads = 8;
    rc.params.seed = seed;
    let mut rows = Vec::new();
    for w in sgxs_workloads::phoenix_parsec() {
        let base = run_one(w.as_ref(), Scheme::Baseline, &rc);
        assert!(base.ok(), "{} baseline failed", w.name());
        let mut over = [None; NVARIANTS];
        let mut checks = [None; NVARIANTS];
        for (i, (_, cfg)) in variants().into_iter().enumerate() {
            let m = run_one(w.as_ref(), Scheme::SgxBoundsCustom(cfg), &rc);
            if m.ok() {
                over[i] = Some(ratio(m.wall_cycles, base.wall_cycles));
            }
            checks[i] = count_checks(w.as_ref(), cfg, &rc);
        }
        rows.push(Row {
            name: w.name().to_owned(),
            over,
            checks,
        });
    }
    let gmean = [0, 1, 2, 3, 4].map(|i| geomean(rows.iter().filter_map(|r| r.over[i])));
    Fig10 { rows, gmean }
}

fn names() -> [&'static str; NVARIANTS] {
    variants().map(|(n, _)| n)
}

fn variant_obj(vals: [Option<f64>; NVARIANTS]) -> Json {
    Json::obj(
        names()
            .into_iter()
            .zip(vals)
            .map(|(n, v)| (n, json_opt_f64(v)))
            .collect(),
    )
}

fn checks_obj(vals: [Option<u64>; NVARIANTS]) -> Json {
    Json::obj(
        names()
            .into_iter()
            .zip(vals)
            .map(|(n, v)| (n, json_opt_f64(v.map(|c| c as f64))))
            .collect(),
    )
}

impl Fig10 {
    /// Machine-readable form for `results/bench.json`.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("benchmark", r.name.as_str().into()),
                    ("over", variant_obj(r.over)),
                    ("checks", checks_obj(r.checks)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("rows", Json::Arr(rows)),
            ("gmean", variant_obj(self.gmean)),
        ])
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: SGXBounds overhead by optimization level (8 threads)"
        )?;
        let mut header = vec!["benchmark"];
        header.extend(names());
        header.push("checks(both)");
        header.push("checks(flow)");
        let mut t = Table::new(&header);
        let fmt_checks = |c: Option<u64>| c.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
        for r in &self.rows {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.over.iter().map(|o| fmt_ratio(*o)));
            cells.push(fmt_checks(r.checks[3]));
            cells.push(fmt_checks(r.checks[4]));
            t.row(cells);
        }
        let mut cells = vec!["gmean".to_owned()];
        cells.extend(self.gmean.iter().map(|o| fmt_ratio(*o)));
        cells.push("-".into());
        cells.push("-".into());
        t.row(cells);
        write!(f, "{}", t.render())
    }
}
