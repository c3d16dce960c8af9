//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [EXPERIMENT] [--scale tiny|small|full] [--seed N] [--dump DIR]
//!             [--bench-json PATH] [--bench-label LABEL] [--faults PROFILE]
//!             [--workers N] [--trace-jsonl PATH] [--flame PATH] [--epochs N]
//!
//! EXPERIMENT: all (default) | table1..table6 | fig4a | fig4b | fig5 | fig6
//!             | fig7 | pinning-eval | icg | hiding-map | bdrmap | scores
//!             | timings | trace | churn
//! ```
//!
//! `churn` is a longitudinal campaign rather than a single run: it replays
//! an era-0 baseline plus `--epochs` (default 4) route-flap churn epochs
//! twice — from scratch with the full pipeline for every era, and
//! incrementally with
//! `cloudmap::delta::DeltaEngine` — verifies the golden digests agree at
//! every era, prints the per-era churn reports, and records the wall-clock
//! win in the `BENCH_pipeline.json` history. If the chosen `--faults`
//! profile has no churning route flap, a default one (flap 10%, 1% of
//! /24s rerolled per era) is injected so there is churn to measure.
//!
//! Every run also appends a machine-readable record of the run's wall
//! clocks and route-memo stats to the `BENCH_pipeline.json` history (path
//! overridable with `--bench-json`, record label with `--bench-label`;
//! the default label is `{scale}-{seed}-{faults}`). The history is a JSON
//! array of run records, newest last — the CI perf gate diffs the two
//! newest entries at the same scale.
//!
//! Run with `cargo run --release -p cm-bench --bin experiments`.

use cloudmap::delta::{era_config, DeltaEngine};
use cm_bench::{build_internet, report, run_study_with, score_summary, study_config, AtlasSummary};
use cm_dataplane::{FaultPlan, RouteFlap};
use cm_topology::Internet;

fn main() {
    let mut experiment = String::from("all");
    let mut scale = String::from("small");
    let mut seed: u64 = 2019;
    let mut dump: Option<std::path::PathBuf> = None;
    let mut bench_json = std::path::PathBuf::from("BENCH_pipeline.json");
    let mut bench_label: Option<String> = None;
    let mut faults = String::from("clean");
    let mut workers: usize = 0;
    let mut trace_jsonl: Option<std::path::PathBuf> = None;
    let mut flame: Option<std::path::PathBuf> = None;
    let mut epochs: u32 = 4;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // cm-lint: allow(L1_UNWRAP, CLI argument parsing in a binary)
            "--scale" => scale = args.next().expect("--scale needs a value"),
            "--seed" => {
                seed = args
                    .next()
                    // cm-lint: allow(L1_UNWRAP, CLI argument parsing in a binary)
                    .expect("--seed needs a value")
                    .parse()
                    // cm-lint: allow(L1_UNWRAP, CLI argument parsing in a binary)
                    .expect("seed must be an integer")
            }
            // cm-lint: allow(L1_UNWRAP, CLI argument parsing in a binary)
            "--dump" => dump = Some(args.next().expect("--dump needs a directory").into()),
            "--bench-json" => match args.next() {
                Some(p) => bench_json = p.into(),
                None => panic!("--bench-json needs a path"),
            },
            "--bench-label" => match args.next() {
                Some(l) => bench_label = Some(l),
                None => panic!("--bench-label needs a value"),
            },
            // cm-lint: allow(L1_UNWRAP, CLI argument parsing in a binary)
            "--faults" => faults = args.next().expect("--faults needs a profile name"),
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => panic!("--workers needs an integer"),
            },
            "--trace-jsonl" => match args.next() {
                Some(p) => trace_jsonl = Some(p.into()),
                None => panic!("--trace-jsonl needs a path"),
            },
            "--flame" => match args.next() {
                Some(p) => flame = Some(p.into()),
                None => panic!("--flame needs a path"),
            },
            "--epochs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 2 => epochs = v,
                _ => panic!("--epochs needs an integer >= 2"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: experiments [EXPERIMENT] [--scale tiny|small|full] [--seed N] \
                     [--dump DIR] [--bench-json PATH] [--bench-label LABEL] \
                     [--faults PROFILE] [--workers N] [--trace-jsonl PATH] \
                     [--flame PATH] [--epochs N]"
                );
                return;
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }

    const EXPERIMENTS: [&str; 20] = [
        "all",
        "timings",
        "trace",
        "churn",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "fig4a",
        "fig4b",
        "fig5",
        "fig6",
        "fig7",
        "pinning-eval",
        "icg",
        "hiding-map",
        "bdrmap",
        "scores",
    ];
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        eprintln!("error: unknown experiment {experiment:?}; one of {EXPERIMENTS:?}");
        std::process::exit(2);
    }
    if !["tiny", "small", "full"].contains(&scale.as_str()) {
        eprintln!("error: unknown scale {scale:?} (tiny|small|full)");
        std::process::exit(2);
    }
    let Some(fault_plan) = FaultPlan::named(&faults) else {
        eprintln!(
            "error: unknown fault profile {faults:?}; one of {:?}",
            FaultPlan::PROFILES
        );
        std::process::exit(2);
    };

    eprintln!("# generating ground truth (scale={scale}, seed={seed}) ...");
    let t0 = std::time::Instant::now();
    let inet = build_internet(&scale, seed);
    let generate_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "#   {} ASes, {} interconnects, {} interfaces [{generate_secs:.1}s]",
        inet.ases.len(),
        inet.interconnects.len(),
        inet.ifaces.len(),
    );
    if !fault_plan.is_clean() {
        eprintln!(
            "# fault profile {faults}: axes {:?}",
            fault_plan.enabled_axes()
        );
    }

    if experiment == "churn" {
        let label = bench_label.unwrap_or_else(|| format!("churn-{scale}-{seed}-{faults}"));
        let record = churn_campaign(&inet, fault_plan, workers, epochs, &scale, seed, &label);
        let existing = std::fs::read_to_string(&bench_json).ok();
        let history = report::append_bench_history(existing.as_deref(), &record);
        if let Err(e) = std::fs::write(&bench_json, history) {
            panic!("writing {} failed: {e}", bench_json.display());
        }
        eprintln!(
            "# churn record \"{label}\" appended to {}",
            bench_json.display()
        );
        return;
    }

    eprintln!("# running the measurement study ...");
    let t1 = std::time::Instant::now();
    let atlas = run_study_with(&inet, study_config(fault_plan, workers));
    let pipeline_secs = t1.elapsed().as_secs_f64();
    eprintln!(
        "#   sweep {} traces ({:.2}% complete), {} CBIs, {} ABIs [{:.1}s]",
        atlas.sweep_stats.launched,
        100.0 * atlas.sweep_stats.completion_rate(),
        atlas.pool.cbis.len(),
        atlas.pool.abis.len(),
        pipeline_secs
    );

    let run = |name: &str| -> Option<String> {
        Some(match name {
            "table1" => report::table1(&atlas),
            "table2" => report::table2(&atlas),
            "table3" => report::table3(&atlas),
            "table4" => report::table4(&atlas),
            "table5" => report::table5(&atlas),
            "table6" => report::table6(&atlas),
            "fig4a" => report::fig4a(&atlas),
            "fig4b" => report::fig4b(&atlas),
            "fig5" => report::fig5(&atlas),
            "fig6" => report::fig6(&atlas),
            "fig7" => report::fig7(&atlas),
            "pinning-eval" => report::pinning_eval(&atlas),
            "icg" => report::icg(&atlas),
            "hiding-map" => report::hiding_map(&atlas),
            "bdrmap" => report::bdrmap(&atlas),
            "scores" => score_summary(&atlas),
            "timings" => report::timings(&atlas),
            "trace" => {
                // Fold the audit's rule tallies into the live registry
                // before rendering, so the exposition carries them.
                let audit_report = cm_audit::audit(&atlas);
                audit_report.export_obs(&atlas.obs.registry);
                atlas
                    .obs
                    .note(format!("audit: {} finding(s)", audit_report.findings.len()));
                report::trace(&atlas)
            }
            _ => return None,
        })
    };

    if experiment == "all" {
        for name in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig4a",
            "fig4b",
            "fig5",
            "fig6",
            "fig7",
            "pinning-eval",
            "icg",
            "hiding-map",
            "bdrmap",
            "scores",
            // "timings" and "trace" stay out of `all`: wall clocks vary
            // run to run, and `all`'s stdout is byte-stable for a fixed
            // (scale, seed).
        ] {
            // cm-lint: allow(L1_UNWRAP, binary entry point: a failure aborts the run with its message)
            println!("{}", run(name).unwrap());
        }
    } else {
        match run(&experiment) {
            Some(s) => println!("{s}"),
            None => panic!("unknown experiment {experiment:?}"),
        }
    }

    if let Some(dir) = dump {
        // cm-lint: allow(L1_UNWRAP, binary entry point: a failure aborts the run with its message)
        report::dump_tsv(&atlas, &dir).expect("TSV dump failed");
        eprintln!("# figure series written to {}", dir.display());
    }

    let label = bench_label.unwrap_or_else(|| format!("{scale}-{seed}-{faults}"));
    let record =
        report::bench_pipeline_json(&atlas, &label, &scale, seed, generate_secs, pipeline_secs);
    let existing = std::fs::read_to_string(&bench_json).ok();
    let history = report::append_bench_history(existing.as_deref(), &record);
    if let Err(e) = std::fs::write(&bench_json, history) {
        panic!("writing {} failed: {e}", bench_json.display());
    }
    eprintln!(
        "# run record \"{label}\" appended to {}",
        bench_json.display()
    );

    if let Some(path) = trace_jsonl {
        let jsonl = cm_obs::render_jsonl(&atlas.obs.recorder.events(), true);
        if let Err(e) = std::fs::write(&path, jsonl) {
            panic!("writing {} failed: {e}", path.display());
        }
        eprintln!("# flight-recorder JSONL written to {}", path.display());
    }
    if let Some(path) = flame {
        // Collapsed flamegraph stacks (inferno / flamegraph.pl input):
        // self wall in microseconds per span path. Deterministic cost
        // flamegraphs come from `trace-diff flame --counter`.
        let collapsed = cm_obs::collapsed_stacks(&atlas.obs.recorder.events(), None);
        if let Err(e) = std::fs::write(&path, collapsed) {
            panic!("writing {} failed: {e}", path.display());
        }
        eprintln!(
            "# collapsed flamegraph stacks written to {}",
            path.display()
        );
    }
}

/// The `churn` experiment: replays the era-0 baseline plus `epochs`
/// route-flap evolution steps with both strategies — from-scratch
/// recompute of every era versus the incremental delta engine —
/// cross-checks the golden digest at every era, prints the per-era
/// comparison and churn reports, and returns the `BENCH_pipeline.json`
/// record. Both sides pay for all `epochs + 1` atlases, so the headline
/// speedup is the end-to-end campaign wall-clock ratio, not a
/// steady-state cherry-pick.
fn churn_campaign(
    inet: &Internet,
    mut plan: FaultPlan,
    workers: usize,
    epochs: u32,
    scale: &str,
    seed: u64,
    label: &str,
) -> String {
    let flap = match plan.route_flap {
        Some(fl) if fl.churn_rate > 0.0 => fl,
        Some(fl) => RouteFlap {
            churn_rate: 0.01,
            ..fl
        },
        None => RouteFlap {
            flap_rate: 0.1,
            era: 0,
            churn_rate: 0.01,
        },
    };
    plan.route_flap = Some(flap);
    let cfg = study_config(plan, workers);
    eprintln!("# churn campaign: era-0 baseline + {epochs} churn epochs, route flap {flap:?}");

    eprintln!("# scratch recompute baseline ...");
    let mut scratch_secs = Vec::with_capacity(epochs as usize + 1);
    let mut scratch_digests = Vec::with_capacity(epochs as usize + 1);
    for era in 0..=epochs {
        let t = std::time::Instant::now();
        let atlas = run_study_with(inet, era_config(cfg, era));
        let secs = t.elapsed().as_secs_f64();
        scratch_digests.push(AtlasSummary::of(&atlas).digest());
        eprintln!("#   era {era}: {secs:.2}s");
        scratch_secs.push(secs);
    }

    eprintln!("# incremental delta engine ...");
    let t = std::time::Instant::now();
    let mut engine =
        DeltaEngine::new(inet, cfg).unwrap_or_else(|e| panic!("delta engine setup failed: {e}"));
    let setup_secs = t.elapsed().as_secs_f64();
    eprintln!("#   setup: {setup_secs:.2}s");
    let mut eras = Vec::with_capacity(epochs as usize + 1);
    let mut delta_total = setup_secs;
    for era in 0..=epochs {
        let t = std::time::Instant::now();
        let epoch = engine
            .run_era(era)
            .unwrap_or_else(|e| panic!("delta era {era} failed: {e}"));
        let secs = t.elapsed().as_secs_f64();
        delta_total += secs;
        let digest = AtlasSummary::of(&epoch.atlas).digest();
        assert_eq!(
            digest, scratch_digests[era as usize],
            "delta era {era} diverged from the scratch digest"
        );
        let s = &epoch.stats;
        eprintln!(
            "#   era {era}: {secs:.2}s, re-probed {}/{} groups, digest ok",
            s.sweep_synthesized + s.expansion_synthesized,
            s.sweep_groups + s.expansion_groups,
        );
        eras.push(report::ChurnEraRecord {
            era,
            scratch_seconds: scratch_secs[era as usize],
            delta_seconds: secs,
            groups: (s.sweep_groups + s.expansion_groups) as u64,
            synthesized: (s.sweep_synthesized + s.expansion_synthesized) as u64,
            churn_json: epoch.churn.map(|r| r.to_jsonl()),
        });
    }

    let scratch_total: f64 = scratch_secs.iter().sum();
    let groups: u64 = eras.iter().map(|e| e.groups).sum();
    let synthesized: u64 = eras.iter().map(|e| e.synthesized).sum();
    let hit_rate = if groups == 0 {
        0.0
    } else {
        1.0 - synthesized as f64 / groups as f64
    };

    println!("Churn campaign — incremental delta vs. scratch recompute");
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>9}",
        "era", "scratch(s)", "delta(s)", "re-probed", "speedup"
    );
    for e in &eras {
        println!(
            "{:<6} {:>10.2} {:>10.2} {:>7}/{:<6} {:>8.1}x",
            e.era,
            e.scratch_seconds,
            e.delta_seconds,
            e.synthesized,
            e.groups,
            e.scratch_seconds / e.delta_seconds
        );
    }
    println!(
        "total  {scratch_total:>10.2} {delta_total:>10.2} (incl. {setup_secs:.2}s setup) \
         {:>8.1}x",
        scratch_total / delta_total
    );
    println!("group cache hit rate: {:.1}%", 100.0 * hit_rate);
    for e in &eras {
        if let Some(churn) = &e.churn_json {
            println!("era {} churn: {churn}", e.era);
        }
    }

    report::bench_churn_json(
        label,
        scale,
        seed,
        cfg.probe_workers,
        &cfg.dataplane.faults.enabled_axes(),
        scratch_total,
        delta_total,
        hit_rate,
        &eras,
    )
}
