//! Security case studies (paper §7 and Table 4): Heartbleed, the Nginx
//! stack overflow, and the 16-configuration RIPE matrix.

use sgxbounds::SbConfig;
use sgxs_baselines::{Protection, Setup};
use sgxs_mir::{Module, Trap};
use sgxs_rt::Stager;
use sgxs_sim::ExecTier;
use sgxs_workloads::apps::apache::Heartbleed;
use sgxs_workloads::apps::nginx::NginxCve2013_2028;
use sgxs_workloads::apps::ripe;
use sgxs_workloads::{Params, SizeClass, Workload};

const SCALE: u64 = 128;

fn params() -> Params {
    Params {
        size: SizeClass::XS,
        threads: 1,
        scale: SCALE,
        seed: 3,
    }
}

/// The hardening schemes, with SGXBounds fail-stop.
fn schemes() -> [Protection; 3] {
    [
        Protection::SgxBounds(SbConfig::default()),
        Protection::Asan,
        Protection::Mpx,
    ]
}

/// SGXBounds in boundless-memory mode (§4.2).
fn boundless() -> Protection {
    Protection::SgxBounds(SbConfig {
        boundless: true,
        ..SbConfig::default()
    })
}

/// Launches `module` under `scheme`, stages the workload's inputs when
/// there is one, and runs `main`.
fn run(
    mut module: Module,
    scheme: Protection,
    workload: Option<&dyn Workload>,
) -> Result<u64, Trap> {
    let mut setup = Setup::tiny(ExecTier::Reference);
    setup.vm.max_instructions = 100_000_000;
    let mut run = scheme.launch(&mut module, setup).unwrap();
    let args = match workload {
        Some(w) => w.stage(&mut run.vm, &mut Stager::new(), &params()),
        None => Vec::new(),
    };
    run.vm.run("main", &args).result
}

/// Runs an already-built module under a scheme.
fn run_module(module: Module, scheme: Protection) -> Result<u64, Trap> {
    run(module, scheme, None)
}

fn run_workload(w: &dyn Workload, scheme: Protection) -> Result<u64, Trap> {
    run(w.build(&params()), scheme, Some(w))
}

// ---- Heartbleed (§7 Apache) ------------------------------------------

#[test]
fn heartbleed_leaks_natively() {
    let r = run_workload(&Heartbleed, Protection::None).unwrap();
    assert_eq!(r, 1, "unprotected server must leak the secret");
}

#[test]
fn heartbleed_detected_by_all_schemes() {
    for scheme in schemes() {
        let r = run_workload(&Heartbleed, scheme);
        assert!(
            matches!(r, Err(Trap::SafetyViolation { .. })),
            "{scheme:?} must detect Heartbleed, got {r:?}"
        );
    }
}

#[test]
fn heartbleed_boundless_prevents_leak_and_continues() {
    // Paper §7: SGXBounds with boundless memory copies zeroes into the
    // reply and Apache keeps running.
    let r = run_workload(&Heartbleed, boundless()).unwrap();
    assert_eq!(r, 0, "no secret bytes may leak under boundless memory");
}

// ---- CVE-2013-2028 (§7 Nginx) ----------------------------------------

#[test]
fn nginx_cve_detected_by_all_schemes() {
    for scheme in schemes() {
        let r = run_workload(&NginxCve2013_2028, scheme);
        assert!(
            matches!(r, Err(Trap::SafetyViolation { .. })),
            "{scheme:?} must detect the stack overflow, got {r:?}"
        );
    }
}

#[test]
fn nginx_cve_boundless_drops_request_and_serves_rest() {
    let r = run_workload(&NginxCve2013_2028, boundless()).unwrap();
    assert_eq!(r, 8, "all requests served after dropping the attack");
}

// ---- RIPE (Table 4) ----------------------------------------------------

fn ripe_prevented(scheme: Protection) -> usize {
    let mut prevented = 0;
    for cfg in ripe::all_attacks() {
        let m = ripe::build_attack(&cfg);
        match run_module(m, scheme) {
            Err(Trap::SafetyViolation { .. }) => prevented += 1,
            Ok(v) => assert_eq!(
                v,
                ripe::SHELL_MAGIC,
                "undetected attack must succeed ({}, {scheme:?})",
                cfg.label()
            ),
            Err(t) => panic!("unexpected trap for {} under {scheme:?}: {t}", cfg.label()),
        }
    }
    prevented
}

#[test]
fn ripe_all_attacks_succeed_natively() {
    for cfg in ripe::all_attacks() {
        let m = ripe::build_attack(&cfg);
        let r = run_module(m, Protection::None).unwrap();
        assert_eq!(
            r,
            ripe::SHELL_MAGIC,
            "native {} must be hijacked",
            cfg.label()
        );
    }
}

#[test]
fn ripe_sgxbounds_prevents_8_of_16() {
    assert_eq!(ripe_prevented(schemes()[0]), 8);
}

#[test]
fn ripe_asan_prevents_8_of_16() {
    assert_eq!(ripe_prevented(Protection::Asan), 8);
}

#[test]
fn ripe_mpx_prevents_2_of_16() {
    assert_eq!(ripe_prevented(Protection::Mpx), 2);
}

#[test]
fn ripe_in_struct_overflows_evade_everyone() {
    // Table 4's discussion: whole-object granularity cannot see in-struct
    // overflows.
    for cfg in ripe::all_attacks() {
        if cfg.target != ripe::Target::InStructFuncPtr {
            continue;
        }
        for scheme in schemes() {
            let m = ripe::build_attack(&cfg);
            let r = run_module(m, scheme);
            assert_eq!(
                r.unwrap(),
                ripe::SHELL_MAGIC,
                "{} must evade {scheme:?}",
                cfg.label()
            );
        }
    }
}

// ---- CVE-2011-4971 (§7 Memcached) --------------------------------------

#[test]
fn memcached_cve_detected_by_all_schemes() {
    use sgxs_workloads::apps::memcached::MemcachedCve2011_4971;
    for scheme in schemes() {
        let r = run_workload(&MemcachedCve2011_4971, scheme);
        assert!(
            matches!(r, Err(Trap::SafetyViolation { .. })),
            "{scheme:?} must detect the CVE overflow, got {r:?}"
        );
    }
}

#[test]
fn memcached_cve_boundless_hangs_like_the_paper() {
    // §7: "SGXBOUNDS with its boundless memory feature discarded the
    // overflowed packet's content but went into an infinite loop due to a
    // subsequent bug in the program's logic" — reproduced as an
    // instruction-budget exhaustion instead of a detection or crash.
    use sgxs_workloads::apps::memcached::MemcachedCve2011_4971;
    let r = run_workload(&MemcachedCve2011_4971, boundless());
    assert!(
        matches!(r, Err(Trap::InstructionLimit)),
        "boundless mode must spin in the retry loop, got {r:?}"
    );
}
