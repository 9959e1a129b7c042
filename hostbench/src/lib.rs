//! Host wall-time benchmark of the SGXBounds reproduction.
//!
//! Four closed-loop batch workloads — `fig7`, `fig8`, `fuzz`, `chaos` —
//! each run on both execution tiers through the entry points the `repro`
//! commands call. The untraced run reports end-to-end metrics; a separate
//! traced run times every layer from outside and reports per-layer
//! metrics. Simulated results are outputs, not metrics: every pass checks
//! them (tier against tier, and the suite against `results/bench.json` at
//! the default seed).

pub mod campaign;
pub mod host;
pub mod prim;
pub mod suite;
pub mod trace;
pub mod traced;

use host::HostClock;
use sgxs_obs::json::Json;
use sgxs_sim::ExecTier;
use std::time::Instant;

/// The two execution tiers with their metric-name suffixes. The reference
/// interpreter comes first: it is the oracle the compiled tier is judged
/// against.
pub const TIERS: [(ExecTier, &str); 2] =
    [(ExecTier::Reference, "ref"), (ExecTier::Compiled, "exec")];

/// One output row of a pass: its text, how many units it covers, and how
/// many of those failed the pass's own checks.
#[derive(Debug, Clone)]
pub struct Row {
    /// Canonical output (compact JSON).
    pub text: String,
    /// Units the row covers.
    pub units: u64,
    /// Units that failed a check against a committed or intrinsic oracle.
    pub failed: u64,
}

/// The checked output of one tier pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Units the pass attempted.
    pub units: u64,
}

impl Pass {
    /// A pass over `units` units. Rows that do not cover exactly `units`
    /// units leave the difference failed.
    pub fn new(mut rows: Vec<Row>, units: u64) -> Pass {
        let covered: u64 = rows.iter().map(|r| r.units).sum();
        if covered < units {
            rows.push(Row {
                text: "<missing rows>".into(),
                units: units - covered,
                failed: units - covered,
            });
        }
        Pass { rows, units }
    }

    /// A pass that panicked or errored: every unit failed.
    pub fn failed(units: u64, why: String) -> Pass {
        Pass {
            rows: vec![Row {
                text: why,
                units,
                failed: units,
            }],
            units,
        }
    }

    /// Units that failed this pass's own checks.
    pub fn failed_units(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.failed)
            .sum::<u64>()
            .min(self.units)
    }

    /// Failed units of this pass, judged against `oracle`: a row whose
    /// text differs from the oracle's fails all its units, any other row
    /// fails its own failed units.
    pub fn failed_against(&self, oracle: &Pass) -> u64 {
        if self.rows.len() != oracle.rows.len() {
            return self.units;
        }
        let failed: u64 = self
            .rows
            .iter()
            .zip(&oracle.rows)
            .map(|(r, o)| if r.text == o.text { r.failed } else { r.units })
            .sum();
        failed.min(self.units)
    }
}

/// A workload set up and ready to run.
pub enum Bench {
    /// `fig7` or `fig8`.
    Suite(suite::Suite),
    /// `fuzz`.
    Fuzz(campaign::Fuzz),
    /// `chaos`.
    Chaos(campaign::Chaos),
}

impl Bench {
    /// Set-up of the workload named `name` (`fig7`, `fig8`, `fuzz` or
    /// `chaos`): builds the cell or seed list. The suite's oracle is
    /// loaded separately, by [`Bench::with_committed`].
    pub fn setup(name: &str, seed: u64) -> Result<Bench, String> {
        let exp = match name {
            "fig7" => suite::Experiment::Fig7,
            "fig8" => suite::Experiment::Fig8,
            "fuzz" => return Ok(Bench::Fuzz(campaign::Fuzz::new(seed))),
            "chaos" => return Ok(Bench::Chaos(campaign::Chaos::new(seed))),
            other => return Err(format!("unknown workload {other} (fig7|fig8|fuzz|chaos)")),
        };
        Ok(Bench::Suite(suite::Suite::new(exp, seed)?))
    }

    /// Loads the committed rows a suite workload is checked against
    /// (`results/bench.json`, relative to the working directory). This is
    /// the benchmark's oracle, not the program's set-up, so it happens
    /// outside the timed set-up. Campaigns need nothing.
    pub fn with_committed(self) -> Result<Bench, String> {
        match self {
            Bench::Suite(s) => {
                let text = std::fs::read_to_string(suite::COMMITTED)
                    .map_err(|e| format!("cannot read {}: {e}", suite::COMMITTED))?;
                Ok(Bench::Suite(s.with_committed(&text)?))
            }
            other => Ok(other),
        }
    }

    /// Threads a pass keeps busy: one for the suite, the pool size for a
    /// campaign.
    pub fn threads(&self) -> usize {
        match self {
            Bench::Suite(_) => 1,
            Bench::Fuzz(f) => f.workers(),
            Bench::Chaos(c) => c.workers(),
        }
    }

    /// Units one tier pass attempts.
    pub fn units(&self) -> u64 {
        match self {
            Bench::Suite(s) => s.units(),
            Bench::Fuzz(f) => f.opts.seeds,
            Bench::Chaos(c) => c.opts.seeds,
        }
    }

    /// One untraced pass on `tier`, through the user command's entry
    /// point. A panic or error fails every unit of the pass.
    pub fn pass(&self, tier: ExecTier) -> Pass {
        guarded(self.units(), || match self {
            Bench::Suite(s) => s.pass(tier),
            Bench::Fuzz(f) => f.pass(tier),
            Bench::Chaos(c) => c.pass(tier),
        })
    }
}

/// Runs one pass of `units` units; a panic or error fails all of them.
pub fn guarded(units: u64, pass: impl FnOnce() -> Result<Pass, String>) -> Pass {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(pass)) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => Pass::failed(units, e),
        Err(_) => Pass::failed(units, "<panic>".into()),
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Units attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units attempted, both tiers together.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Failed over attempted (0 when nothing ran).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Adds a pass's attempted and failed units.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The benchmark's result line.
    pub fn result_line(&self, tally: Tally) -> String {
        let metrics = self
            .0
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", (tally.failed == 0 && tally.attempted > 0).into()),
            ("attempted", tally.attempted.into()),
            ("failed", tally.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
/// Each benchmark invocation runs one workload in its own process, so the
/// figure is that workload's alone.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of the untraced run.
pub struct Untraced {
    /// Units attempted and failed.
    pub tally: Tally,
    /// Units per host second of each tier pass, `TIERS` order.
    pub rates: [Vec<f64>; 2],
    /// Each pass's host-speed factor from the samples taken during it
    /// (see [`host::time_sampled`]); same layout as `rates`.
    pub factors: [Vec<Option<f64>>; 2],
}

/// The untraced closed loop: rounds of one pass per tier (alternating
/// which goes first) while at least half of another round still fits in
/// `seconds`; at least one round. Every pass is checked: each tier's rows
/// against the committed or intrinsic oracle, the compiled tier against
/// the reference tier of the same round, and each round's reference
/// output against the first round's (the same inputs must give the same
/// outputs).
///
/// Before every pass and after the last, outside the timed passes, the
/// run takes a host-speed sample on `clock` and hands its factor to
/// `between`, which times the set-up processes.
pub fn run_untraced(
    bench: &Bench,
    seconds: f64,
    clock: &mut HostClock,
    between: &mut dyn FnMut(f64),
) -> Untraced {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut rates = [Vec::new(), Vec::new()];
    let mut factors = [Vec::new(), Vec::new()];
    let mut first_ref: Option<Pass> = None;
    for round in 0.. {
        let round_start = Instant::now();
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut passes: [Option<Pass>; 2] = [None, None];
        for k in order {
            between(clock.sample());
            let (p, secs, f) = host::time_sampled(|| bench.pass(TIERS[k].0));
            rates[k].push(p.units as f64 / secs);
            factors[k].push(f);
            passes[k] = Some(p);
        }
        let [Some(r), Some(e)] = passes else {
            unreachable!("both tiers ran")
        };
        let oracle = first_ref.get_or_insert_with(|| r.clone());
        tally.add(r.units, r.failed_against(oracle));
        tally.add(e.units, e.failed_against(&r));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round_start.elapsed().as_secs_f64() / 2.0 > seconds {
            break;
        }
    }
    between(clock.sample());
    Untraced {
        tally,
        rates,
        factors,
    }
}
