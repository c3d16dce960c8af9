//! The measured workloads. Each runs closed loop with one caller (the
//! serve load: two client threads) and checks every operation's output.

use crate::load::{self, Oracle, CLIENTS, QUERIES_PER_CLIENT};
use crate::refs::Refs;
use crate::stats::{median, quantile};
use cloudmap::delta::{DeltaEngine, DeltaEpoch};
use cloudmap::pipeline::{PipelineConfig, PipelineError};
use cm_bench::{build_internet, run_study_with, study_config, AtlasSummary, SUMMARY_VERSION};
use cm_dataplane::{FaultPlan, RouteFlap};
use cm_serve::{AtlasSnapshot, Engine};
use cm_topology::Internet;
use std::time::Instant;

/// Probe workers for every study and era. One worker runs the executor's
/// serial path (one busy thread); the delta engine adds its folding
/// coordinator, so no workload exceeds the machine's two cores except for
/// `RttCampaign`'s thread-per-region burst (see the README).
pub const PROBE_WORKERS: usize = 1;

/// How long a workload's measured loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Start operations until this many seconds have passed.
    Seconds(f64),
    /// Run exactly this many operations.
    Count(usize),
}

impl Budget {
    /// Whether another operation may start, `done` having run since
    /// `started`. The first always may.
    pub fn more(self, done: usize, started: Instant) -> bool {
        done == 0
            || match self {
                Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
                Budget::Count(n) => done < n,
            }
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run (studies, eras, query batches).
    pub attempted: u64,
    /// Operations whose output differed from the reference.
    pub failed: u64,
    /// Checks that are not per operation (snapshot header, committed
    /// stream checksum) all passed.
    pub checks_ok: bool,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable notes: sample counts and check results.
    pub notes: Vec<String>,
}

impl Outcome {
    pub(crate) fn new() -> Outcome {
        Outcome {
            checks_ok: true,
            ..Outcome::default()
        }
    }

    /// True when every operation and every check passed and every metric
    /// was measured.
    pub fn correct(&self) -> bool {
        self.checks_ok
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub(crate) fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub(crate) fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn check(&mut self, ok: bool, what: String) {
        self.checks_ok &= ok;
        self.notes
            .push(format!("{} {what}", if ok { "ok:" } else { "FAILED:" }));
    }

    /// Folds another outcome's counts, checks and notes into this one,
    /// keeping only its metrics named in `keep`.
    pub fn absorb(&mut self, other: Outcome, keep: &[&str]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks_ok &= other.checks_ok;
        self.notes.extend(other.notes);
        self.metrics
            .extend(other.metrics.into_iter().filter(|m| keep.contains(&m.name)));
    }
}

/// Runs `f` `reps` times (at least once) and returns each wall time in
/// seconds with the last result.
fn repeat_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let v = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (secs, last.expect("at least one repetition"))
}

/// The clean study at [`PROBE_WORKERS`].
pub fn clean_config() -> PipelineConfig {
    study_config(FaultPlan::default(), PROBE_WORKERS)
}

/// The `churn` experiment's default longitudinal plan: clean, plus a
/// route flap on 10% of (/24, epoch) pairs, 1% of them re-rolled per era.
pub fn churn_config() -> PipelineConfig {
    let faults = FaultPlan {
        route_flap: Some(RouteFlap {
            flap_rate: 0.1,
            era: 0,
            churn_rate: 0.01,
        }),
        ..FaultPlan::default()
    };
    study_config(faults, PROBE_WORKERS)
}

pub(crate) fn digest_check(out: &mut Outcome, what: &str, got: u64, want: Option<u64>) -> bool {
    let ok = want == Some(got);
    if !ok {
        out.notes.push(format!(
            "FAILED: {what} digest {got:#018x}, reference {}",
            want.map_or("missing".to_string(), |w| format!("{w:#018x}"))
        ));
    }
    ok
}

/// `pipeline-small`: `Pipeline::run` back to back on one Internet.
///
/// Set-up is `Internet::generate`, repeated `setup_reps` times.
pub fn pipeline(scale: &str, refs: &Refs, setup_reps: usize, budget: Budget) -> Outcome {
    let mut out = Outcome::new();
    let (setup, inet) = repeat_timed(setup_reps, || build_internet(scale, refs.world_seed));
    let cfg = clean_config();
    let mut study = Vec::new();
    let started = Instant::now();
    while budget.more(study.len(), started) {
        let t = Instant::now();
        let atlas = run_study_with(&inet, cfg);
        study.push(t.elapsed().as_secs_f64());
        let digest = AtlasSummary::of(&atlas).digest();
        let ok = digest_check(&mut out, "study", digest, Some(refs.study));
        out.op(ok);
    }
    out.notes.push(format!(
        "{} studies (median of {}), {} set-ups; study digest {:#018x} checked each time",
        study.len(),
        study.len(),
        setup.len(),
        refs.study
    ));
    out.metric("setup_s", median(&setup), "s");
    out.metric("study_s", median(&study), "s");
    out
}

pub(crate) fn cold_start(
    inet: &Internet,
    cfg: PipelineConfig,
) -> Result<(DeltaEngine<'_>, DeltaEpoch<'_>), PipelineError> {
    let mut engine = DeltaEngine::new(inet, cfg)?;
    let era0 = engine.run_era(0)?;
    Ok((engine, era0))
}

/// `churn-small`: one `DeltaEngine` running eras 1, 2, … after era 0.
///
/// Set-up is generate, `DeltaEngine::new` and the cold `run_era(0)`,
/// repeated `setup_reps` times; the last engine runs the measured eras.
/// Every era's digest is checked against a from-scratch reference, so a
/// run stops at the last committed era even if time remains.
pub fn churn(
    scale: &str,
    refs: &Refs,
    setup_reps: usize,
    budget: Budget,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let cfg = churn_config();
    let want = |era: usize| refs.eras.get(era).copied();
    let reps = setup_reps.max(1);
    let mut setup = Vec::with_capacity(reps);
    let mut era_s = Vec::new();
    let mut resynth = Vec::new();
    let mut started = Instant::now();
    for rep in 0..reps {
        let t = Instant::now();
        let inet = build_internet(scale, refs.world_seed);
        let (mut engine, era0) = cold_start(&inet, cfg).map_err(|e| e.to_string())?;
        setup.push(t.elapsed().as_secs_f64());
        let digest = AtlasSummary::of(&era0.atlas).digest();
        let ok = digest_check(&mut out, "era 0", digest, want(0));
        out.op(ok);
        drop(era0);
        if rep + 1 < reps {
            continue;
        }
        // The last set-up's engine runs the measured eras.
        started = Instant::now();
        while budget.more(era_s.len(), started) && era_s.len() + 1 < refs.eras.len() {
            let era = era_s.len() + 1;
            let t = Instant::now();
            let epoch = engine.run_era(era as u32).map_err(|e| e.to_string())?;
            era_s.push(t.elapsed().as_secs_f64());
            let s = epoch.stats;
            resynth.push((s.sweep_synthesized + s.expansion_synthesized) as f64);
            let digest = AtlasSummary::of(&epoch.atlas).digest();
            let ok = digest_check(&mut out, &format!("era {era}"), digest, want(era));
            out.op(ok);
        }
    }
    if let Budget::Seconds(s) = budget {
        if started.elapsed().as_secs_f64() < s {
            out.notes.push(format!(
                "note: stopped at era {}, the last committed reference, before {s} s",
                era_s.len()
            ));
        }
    }
    out.notes.push(format!(
        "{} eras after era 0 (median of {}), median {} groups re-probed per era; {} set-ups",
        era_s.len(),
        era_s.len(),
        median(&resynth),
        setup.len()
    ));
    out.metric("setup_s", median(&setup), "s");
    out.metric("era_s", median(&era_s), "s");
    Ok(out)
}

/// The serve rounds against an engine built from `snap`: checks the
/// snapshot header and the stream against the oracle and the committed
/// checksum, then measures rounds while `budget` allows.
pub fn serve_rounds(
    engine: &Engine,
    snap: &AtlasSnapshot,
    refs: &Refs,
    seed: u64,
    budget: Budget,
) -> Outcome {
    let mut out = Outcome::new();
    out.check(
        snap.golden_digest == refs.study && snap.summary_version == SUMMARY_VERSION,
        format!(
            "snapshot header: golden digest {:#018x}, summary version {}",
            snap.golden_digest, snap.summary_version
        ),
    );
    let (streams, checksum) = Oracle::new(snap).streams(engine.records(), seed);
    match refs.serve.iter().find(|&&(s, _)| s == seed) {
        Some(&(_, want)) => out.check(
            checksum == want,
            format!("stream checksum {checksum:#018x} for query seed {seed} matches the committed value"),
        ),
        None => out.notes.push(format!(
            "note: no committed checksum for query seed {seed}; batches are checked against the oracle only"
        )),
    }
    let report = load::run_rounds(engine, &streams, |done, started| budget.more(done, started));
    out.attempted += report.batches;
    out.failed += report.failed_batches;
    out.notes.push(format!(
        "{} rounds of {} clients x {} queries; per round p50/p99 over {} batch means ({} beyond p99); medians over rounds",
        report.rounds,
        CLIENTS,
        QUERIES_PER_CLIENT,
        report.samples_per_round,
        report.beyond_p99
    ));
    let (p50, p99, qps) = report.medians();
    let iqr = |v: &[f64]| format!("{:.2}-{:.2}", quantile(v, 0.25), quantile(v, 0.75));
    out.notes.push(format!(
        "within the run, quartiles over rounds: p50 {} ns, p99 {} ns",
        iqr(&report.p50_ns),
        iqr(&report.p99_ns)
    ));
    out.metric("query_p50_ns", p50, "ns");
    out.metric("query_p99_ns", p99, "ns");
    out.metric("queries_per_s", qps, "1/s");
    out
}

/// `serve-small`: two clients against an `Engine` loaded from the
/// snapshot file at `path`.
///
/// Set-up is reading the file, `AtlasSnapshot::decode` and
/// `Engine::build`, repeated `setup_reps` times.
pub fn serve(
    path: &std::path::Path,
    refs: &Refs,
    seed: u64,
    setup_reps: usize,
    budget: Budget,
) -> Result<Outcome, String> {
    let (setup, loaded) = repeat_timed(setup_reps, || -> Result<_, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let snap = AtlasSnapshot::decode(&bytes).map_err(|e| e.to_string())?;
        let engine = Engine::build(&snap, CLIENTS);
        Ok((bytes.len(), snap, engine))
    });
    let (bytes, snap, engine) = loaded?;
    let mut out = serve_rounds(&engine, &snap, refs, seed, budget);
    out.notes.push(format!(
        "snapshot {bytes} bytes: {} interfaces, {} prefixes, {} segments",
        snap.interfaces.len(),
        snap.prefixes.len(),
        snap.segments.len()
    ));
    out.notes.push(format!("{} set-ups", setup.len()));
    out.metrics.insert(
        0,
        Metric {
            name: "setup_s",
            value: median(&setup),
            unit: "s",
        },
    );
    Ok(out)
}

/// Cuts the serve fixture: the clean study's snapshot, encoded.
pub fn fixture(scale: &str, world_seed: u64) -> Vec<u8> {
    let inet = build_internet(scale, world_seed);
    let atlas = run_study_with(&inet, clean_config());
    cm_bench::serve::snapshot_of(&atlas).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> &'static Refs {
        crate::refs::lookup("tiny", 2019).expect("committed tiny references")
    }

    #[test]
    fn a_forged_study_digest_fails_the_run() {
        let real = pipeline("tiny", tiny(), 1, Budget::Count(1));
        assert!(real.correct(), "{:?}", real.notes);
        let forged = Refs {
            study: tiny().study ^ 1,
            ..*tiny()
        };
        let out = pipeline("tiny", &forged, 1, Budget::Count(2));
        assert_eq!((out.attempted, out.failed), (2, 2));
        assert!(!out.correct());
    }

    #[test]
    fn a_forged_era_digest_fails_only_that_era() {
        let mut eras = tiny().eras.to_vec();
        eras[2] ^= 1;
        let forged = Refs {
            eras: Box::leak(eras.into_boxed_slice()),
            ..*tiny()
        };
        let out = churn("tiny", &forged, 1, Budget::Count(3)).expect("tiny churn runs");
        assert_eq!((out.attempted, out.failed), (4, 1), "{:?}", out.notes);
        assert!(!out.correct());
    }

    #[test]
    fn churn_stops_at_the_last_committed_era() {
        let short = Refs {
            eras: &tiny().eras[..3],
            ..*tiny()
        };
        let out = churn("tiny", &short, 1, Budget::Seconds(60.0)).expect("tiny churn runs");
        assert_eq!((out.attempted, out.failed), (3, 0));
        assert!(out.correct());
    }

    fn tiny_snapshot() -> AtlasSnapshot {
        AtlasSnapshot::decode(&fixture("tiny", 2019)).expect("a fresh snapshot decodes")
    }

    #[test]
    fn forged_serve_references_fail_the_run() {
        let snap = tiny_snapshot();
        let engine = Engine::build(&snap, CLIENTS);
        let real = serve_rounds(&engine, &snap, tiny(), 2019, Budget::Count(1));
        assert!(real.correct(), "{:?}", real.notes);
        assert_eq!(real.attempted, (CLIENTS * load::BATCHES_PER_ROUND) as u64);

        let forged = Refs {
            serve: &[(2019, 0xBAD)],
            ..*tiny()
        };
        assert!(!serve_rounds(&engine, &snap, &forged, 2019, Budget::Count(1)).correct());

        let mut header = snap.clone();
        header.golden_digest ^= 1;
        assert!(!serve_rounds(&engine, &header, tiny(), 2019, Budget::Count(1)).correct());
    }

    #[test]
    fn wrong_engine_answers_fail_their_batches() {
        let snap = tiny_snapshot();
        let mut wrong = snap.clone();
        for r in &mut wrong.interfaces {
            r.owner.0 ^= 1;
        }
        let engine = Engine::build(&wrong, CLIENTS);
        let out = serve_rounds(&engine, &snap, tiny(), 2019, Budget::Count(1));
        assert!(out.failed > 0 && !out.correct());
    }
}
