//! The cloudmap benchmark binary. `run.py` builds it and drives it; see
//! the README for the workloads, metrics and checks.
//!
//! ```text
//! perfbench run     --workload W --seed S --seconds N [--world-seed X] [--fixture F]
//! perfbench probe   --workload W --seed S [--world-seed X]
//! perfbench trace   --seed S [--world-seed X] [--spans F]
//! perfbench fixture --out F [--world-seed X]
//! perfbench refs    --scale tiny|small [--world-seed X] [--eras N] [--query-seeds A,B]
//! ```
//!
//! `run`, `probe` and `trace` print notes on stderr and one JSON result as
//! the last line of stdout; they exit 1 when an output check failed and 2
//! when the run could not be set up.

mod load;
mod refs;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use workloads::{Budget, Outcome};

/// World seed and query seed when not given.
const DEFAULT_SEED: u64 = 2019;

/// Set-ups per run, whose median is `setup_s`.
const PIPELINE_SETUPS: usize = 15;
const CHURN_SETUPS: usize = 3;
const SERVE_SETUPS: usize = 15;

/// Fixed work of the tiny cross-check probe.
const PROBE_STUDIES: usize = 11;
const PROBE_ERAS: usize = 96;
const PROBE_ROUNDS: usize = 100;

/// The benchmark's workloads.
const WORKLOADS: [&str; 3] = ["pipeline-small", "churn-small", "serve-small"];

/// The end-to-end metrics each workload measures on its own loop at small
/// scale. Every other end-to-end metric (except `peak_rss_mib`, which
/// `run.py` takes from the workload process) comes from the tiny probe.
fn native(workload: &str) -> &'static [&'static str] {
    match workload {
        "pipeline-small" => &["setup_s", "study_s"],
        "churn-small" => &["setup_s", "era_s"],
        _ => &["setup_s", "query_p50_ns", "query_p99_ns", "queries_per_s"],
    }
}

const PROBED: [&str; 5] = [
    "study_s",
    "era_s",
    "query_p50_ns",
    "query_p99_ns",
    "queries_per_s",
];

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        let w = self.str("workload")?;
        if WORKLOADS.contains(&w) {
            Ok(w)
        } else {
            Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"))
        }
    }
}

fn refs_for(scale: &str, world_seed: u64) -> Result<&'static refs::Refs, String> {
    refs::lookup(scale, world_seed).ok_or_else(|| {
        format!("no committed references for {scale} world seed {world_seed}; see `perfbench refs`")
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn dispatch(cmd: &str, args: &Args) -> Result<Option<Outcome>, String> {
    let world_seed = args.num("world-seed", Some(DEFAULT_SEED))?;
    let seed = || args.num("seed", Some(DEFAULT_SEED));
    match cmd {
        "run" => {
            let workload = args.workload()?;
            let refs = refs_for("small", world_seed)?;
            let budget = Budget::Seconds(args.num("seconds", None)?);
            let out = match workload {
                "pipeline-small" => workloads::pipeline("small", refs, PIPELINE_SETUPS, budget),
                "churn-small" => workloads::churn("small", refs, CHURN_SETUPS, budget)?,
                _ => {
                    let path = PathBuf::from(args.str("fixture")?);
                    workloads::serve(&path, refs, seed()?, SERVE_SETUPS, budget)?
                }
            };
            Ok(Some(out))
        }
        "probe" => {
            let own = native(args.workload()?);
            let keep: Vec<&str> = PROBED
                .iter()
                .copied()
                .filter(|m| !own.contains(m))
                .collect();
            let refs = refs_for("tiny", world_seed)?;
            let mut out = Outcome::new();
            if keep.contains(&"study_s") {
                out.absorb(
                    workloads::pipeline("tiny", refs, 1, Budget::Count(PROBE_STUDIES)),
                    &keep,
                );
            }
            if keep.contains(&"era_s") {
                out.absorb(
                    workloads::churn("tiny", refs, 1, Budget::Count(PROBE_ERAS))?,
                    &keep,
                );
            }
            if keep.contains(&"queries_per_s") {
                let snap = cm_serve::AtlasSnapshot::decode(&workloads::fixture("tiny", world_seed))
                    .map_err(|e| e.to_string())?;
                let engine = cm_serve::Engine::build(&snap, load::CLIENTS);
                out.absorb(
                    workloads::serve_rounds(
                        &engine,
                        &snap,
                        refs,
                        seed()?,
                        Budget::Count(PROBE_ROUNDS),
                    ),
                    &keep,
                );
            }
            for n in &mut out.notes {
                n.insert_str(0, "tiny probe: ");
            }
            Ok(Some(out))
        }
        "trace" => {
            let refs = refs_for("small", world_seed)?;
            let spans = args.0.get("spans").map(PathBuf::from);
            traced::run(refs, seed()?, spans.as_deref()).map(Some)
        }
        "fixture" => {
            let out = PathBuf::from(args.str("out")?);
            let bytes = workloads::fixture("small", world_seed);
            if let Some(dir) = out.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&out, bytes).map_err(|e| format!("{}: {e}", out.display()))?;
            Ok(None)
        }
        "refs" => {
            let scale = args.str("scale")?;
            let eras = args.num("eras", Some(64))?;
            let seeds: Vec<u64> = args
                .0
                .get("query-seeds")
                .map_or("2019,7", String::as_str)
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("bad query seed {s:?}")))
                .collect::<Result<_, _>>()?;
            println!("{}", refs::reference_row(scale, world_seed, eras, &seeds));
            Ok(None)
        }
        other => Err(format!(
            "unknown command {other:?} (run|probe|trace|fixture|refs)"
        )),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench run|probe|trace|fixture|refs --key value ...");
        std::process::exit(2);
    };
    match Args::parse(rest).and_then(|args| dispatch(cmd, &args)) {
        Ok(Some(out)) => {
            for note in &out.notes {
                eprintln!("{note}");
            }
            println!("{}", result_json(&out));
            if !out.correct() {
                std::process::exit(1);
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Metric;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            checks_ok: true,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    value: 0.25,
                    unit: "s",
                },
                Metric {
                    name: "study_s",
                    value: 7.125,
                    unit: "s",
                },
            ],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"study_s\": {\"value\": 7.125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_missing_measurement_is_not_correct() {
        let out = Outcome {
            attempted: 1,
            checks_ok: true,
            metrics: vec![Metric {
                name: "era_s",
                value: f64::NAN,
                unit: "s",
            }],
            ..Outcome::default()
        };
        assert!(result_json(&out).starts_with("{\"correct\": false"));
    }
}
