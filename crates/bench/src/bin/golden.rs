//! Golden-atlas differential checker.
//!
//! ```text
//! golden [check|write] [--scale tiny] [--seed N] [--profile NAME|all]
//!        [--dir DIR] [--workers N] [--paranoid]
//! ```
//!
//! For each requested fault profile this runs a clean and a faulted
//! campaign on the same seed, audits both atlases with `cm-audit` (the
//! fault-accounting rules F1/F2 included), renders the clean-vs-faulted
//! diff with [`cm_bench::golden::render_golden`] and either `write`s it to
//! `--dir` or `check`s it against the committed file. `--paranoid` re-runs
//! every faulted campaign at `probe_workers` 1 and 2 and demands
//! summary-identical results — the sharded executor must not let worker
//! count leak into inference.
//!
//! Exit status: 0 clean, 1 on any mismatch or audit finding, 2 on usage
//! errors. Run with `--release`; a full tiny matrix is seconds there.

use cm_bench::build_internet;
use cm_bench::golden::{render_golden, run_study_with, study_config, AtlasSummary};
use cm_dataplane::FaultPlan;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    mode: String,
    scale: String,
    seed: u64,
    profile: String,
    dir: PathBuf,
    workers: usize,
    paranoid: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: golden [check|write] [--scale tiny|small|full] [--seed N] \
         [--profile NAME|all] [--dir DIR] [--workers N] [--paranoid]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        mode: String::from("check"),
        scale: String::from("tiny"),
        seed: 2019,
        profile: String::from("all"),
        dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden")),
        workers: 0,
        paranoid: false,
    };
    let mut args = std::env::args().skip(1);
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        match args.next() {
            Some(v) => v,
            None => {
                eprintln!("error: {flag} needs a value");
                usage();
            }
        }
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "check" | "write" => parsed.mode = a,
            "--scale" => parsed.scale = need(&mut args, "--scale"),
            "--seed" => match need(&mut args, "--seed").parse() {
                Ok(n) => parsed.seed = n,
                Err(_) => usage(),
            },
            "--profile" => parsed.profile = need(&mut args, "--profile"),
            "--dir" => parsed.dir = need(&mut args, "--dir").into(),
            "--workers" => match need(&mut args, "--workers").parse() {
                Ok(n) => parsed.workers = n,
                Err(_) => usage(),
            },
            "--paranoid" => parsed.paranoid = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    parsed
}

/// Runs one campaign, audits it, and summarizes it. Any audit finding is
/// fatal: a golden file asserting `audit: clean` must never be written or
/// accepted over a dirty atlas.
fn audited_summary(
    inet: &cm_topology::Internet,
    plan: FaultPlan,
    workers: usize,
    label: &str,
) -> Result<AtlasSummary, String> {
    let atlas = run_study_with(inet, study_config(plan, workers));
    let report = cm_audit::audit(&atlas);
    if !report.is_clean() {
        return Err(format!("audit findings under profile {label}:\n{report}"));
    }
    Ok(AtlasSummary::of(&atlas))
}

fn main() -> ExitCode {
    let args = parse_args();
    let profiles: Vec<&str> = if args.profile == "all" {
        FaultPlan::PROFILES.to_vec()
    } else if let Some(p) = FaultPlan::PROFILES.iter().find(|p| **p == args.profile) {
        vec![*p]
    } else {
        eprintln!(
            "error: unknown profile {:?}; one of {:?}",
            args.profile,
            FaultPlan::PROFILES
        );
        return ExitCode::from(2);
    };

    eprintln!(
        "# golden {}: scale={} seed={} profiles={:?} dir={}",
        args.mode,
        args.scale,
        args.seed,
        profiles,
        args.dir.display()
    );
    let inet = build_internet(&args.scale, args.seed);

    let clean = match audited_summary(&inet, FaultPlan::default(), args.workers, "clean") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0u32;
    for profile in profiles {
        // cm-lint: allow(L1_UNWRAP, guarded by containment: every profile name comes from the registry)
        let plan = FaultPlan::named(profile).expect("profiles come from the registry");
        let faulted = if plan.is_clean() {
            clean.clone()
        } else {
            match audited_summary(&inet, plan, args.workers, profile) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    failures += 1;
                    continue;
                }
            }
        };

        if args.paranoid && !plan.is_clean() {
            for workers in [1usize, 2] {
                match audited_summary(&inet, plan, workers, profile) {
                    Ok(s) if s == faulted => {}
                    Ok(_) => {
                        eprintln!(
                            "error: profile {profile} summary differs at probe_workers={workers}"
                        );
                        failures += 1;
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        failures += 1;
                    }
                }
            }
        }

        let rendered = render_golden(profile, &args.scale, args.seed, &clean, &faulted);
        let path = args
            .dir
            .join(format!("{}-{}-{profile}.golden", args.scale, args.seed));
        match args.mode.as_str() {
            "write" => {
                if let Err(e) = std::fs::create_dir_all(&args.dir) {
                    eprintln!("error: creating {} failed: {e}", args.dir.display());
                    return ExitCode::FAILURE;
                }
                if let Err(e) = std::fs::write(&path, &rendered) {
                    eprintln!("error: writing {} failed: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("# wrote {}", path.display());
            }
            "check" => match std::fs::read_to_string(&path) {
                Ok(expected) if expected == rendered => {
                    eprintln!("# ok {}", path.display());
                }
                Ok(expected) => {
                    eprintln!("error: golden mismatch for {}", path.display());
                    for (want, got) in expected.lines().zip(rendered.lines()) {
                        if want != got {
                            eprintln!("  - {want}");
                            eprintln!("  + {got}");
                        }
                    }
                    failures += 1;
                }
                Err(e) => {
                    eprintln!(
                        "error: reading {} failed ({e}); run `golden write` to regenerate",
                        path.display()
                    );
                    failures += 1;
                }
            },
            _ => usage(),
        }
    }

    if failures > 0 {
        eprintln!("# golden: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    eprintln!("# golden: all profiles clean");
    ExitCode::SUCCESS
}
