//! `hostbench --workload <fig7|fig8|fuzz|chaos> --seed N --seconds S
//! --trace <0|1>` — run from the repository root.
//!
//! `--trace 0` runs the untraced closed loop and prints the end-to-end
//! metrics at nominal host speed (see `host`); `--trace 1` runs the
//! traced pass, prints the per-layer
//! metrics, and writes the spans as a Chrome trace under `hostbench/out/`.
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exit code 0 when the
//! run completed (check `correct`), 2 on bad arguments or set-up errors.

use sgxs_hostbench::host::HostClock;
use sgxs_hostbench::traced::{self, TRACE_DIR};
use sgxs_hostbench::{median, peak_rss_mb, run_untraced, Bench, Metrics, TIERS};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up processes timed at each pass boundary. Spawn times drift over
/// fractions of a second, so samples spread over the whole run give a
/// steadier median than one burst at its start.
const SETUPS_PER_BOUNDARY: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Times `n` fresh set-up processes, each from process start to the end
/// of set-up (building the cell or seed list), i.e. to where the first
/// timed unit would start; appends their host seconds to `secs`.
fn time_setups(a: &Args, n: usize, secs: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for _ in 0..n {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-only", "--workload", &a.workload])
            .args(["--seed", &a.seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawning set-up: {e}"))?;
        secs.push(t0.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up process failed: {status}"));
        }
    }
    Ok(())
}

fn run(a: &Args) -> Result<String, String> {
    let bench = Bench::setup(&a.workload, a.seed)?;
    if a.setup_only {
        return Ok(String::new());
    }
    let bench = bench.with_committed()?;
    if a.trace {
        let run = traced::run(&bench);
        let path = format!("{TRACE_DIR}/trace-{}-{}.json", a.workload, a.seed);
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        std::fs::write(&path, run.tracer.chrome_trace().to_compact())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path}");
        return Ok(run.metrics.result_line(run.tally));
    }
    // Times and rates at nominal host speed (see `host`), raw rates on
    // standard error. Each boundary's set-up times are scaled by the
    // calibration sample taken right before them: spawn time follows the
    // host's speed from moment to moment. The sample comes first because
    // it must follow a busy stretch, as the passes do; after the spawns'
    // short waits the loop ran about 25% fast on a shared 2-core VM.
    let mut clock = HostClock::new(bench.threads());
    let mut setups = Vec::new();
    let mut setup_err = Ok(());
    let u = run_untraced(&bench, a.seconds, &mut clock, &mut |f| {
        let n0 = setups.len();
        if setup_err.is_ok() {
            setup_err = time_setups(a, SETUPS_PER_BOUNDARY, &mut setups);
        }
        setups[n0..].iter_mut().for_each(|s| *s /= f);
    });
    setup_err?;
    let setup_s = median(&mut setups);
    let f = clock.factor();
    eprintln!(
        "host speed {:.4e} calibration ops/s over {} thread(s) (factor {f:.4}); \
         setup_s over {} set-up processes",
        clock.speed(),
        bench.threads(),
        setups.len()
    );
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    for (k, (tier, _)) in TIERS.iter().enumerate() {
        // Each pass is scaled by the samples taken during it; one with
        // none takes the run's factor.
        let mut rates: Vec<f64> = (u.rates[k].iter().zip(&u.factors[k]))
            .map(|(r, pf)| r * pf.unwrap_or(f))
            .collect();
        let name = ["ref_units_per_s", "exec_units_per_s"][k];
        eprintln!(
            "{name}: {} passes on the {} tier, raw median {:.4}, noise floor {:.3}",
            rates.len(),
            tier.label(),
            median(&mut u.rates[k].clone()),
            sgxs_perf::stats::noise_floor(&rates)
        );
        m.push(name, median(&mut rates), "1/s");
    }
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push("pass_frac", 1.0 - u.tally.fail_frac(), "ratio");
    eprintln!(
        "{}: {} of {} units failed the output check (fail_frac {})",
        a.workload,
        u.tally.failed,
        u.tally.attempted,
        u.tally.fail_frac()
    );
    Ok(m.result_line(u.tally))
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            0
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
