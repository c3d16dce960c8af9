//! The sharded campaign executor.
//!
//! A campaign is a triple loop — `for region { for epoch { for target } }`
//! — whose iterations are completely independent: the dataplane is
//! immutable and every traceroute is a pure function of
//! `(cloud, region, target, epoch)`. The old executor parallelised only
//! the outer loop (one thread per region, ≤ 15 on the default topology),
//! so machines with more cores idled and a single slow region bounded the
//! round.
//!
//! This executor shards the full iteration space into `(region, epoch,
//! target-chunk)` work items, pulled off a single atomic counter by
//! `available_parallelism()` workers. Workers only *execute* probes; the
//! caller's fold runs on the coordinating thread, which consumes finished
//! chunks strictly in work-item order (buffering any chunk that finishes
//! early). The channel between them is bounded, so workers block rather
//! than run unboundedly ahead when the fold is the slower side. Because
//! work items enumerate the exact serial iteration order
//! and the fold is applied in that order, the resulting per-region states
//! and stats are byte-identical to a serial run for *any* worker count —
//! the determinism the audit digest depends on.

use crate::{Campaign, CampaignStats, ProbeTally};
use cm_dataplane::{TraceBatch, Traceroute};
use cm_net::Ipv4;
use cm_topology::RegionId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Targets per work item. Small enough to load-balance tail regions,
/// large enough that queue traffic is negligible next to probe cost.
const TARGET_CHUNK: usize = 256;

/// One work item of the `(region, epoch, target-chunk)` space.
struct WorkItem<'t> {
    region: RegionId,
    epoch: u32,
    targets: &'t [Ipv4],
}

/// Decomposes a linear work index. Item order is region-major, then epoch,
/// then chunk — exactly the serial campaign order.
fn item<'t>(
    w: usize,
    regions: &[RegionId],
    targets: &'t [Ipv4],
    epochs: u32,
    chunks_per_pass: usize,
) -> WorkItem<'t> {
    let per_region = epochs as usize * chunks_per_pass;
    let region = regions[w / per_region];
    let rem = w % per_region;
    let epoch = (rem / chunks_per_pass) as u32;
    let chunk = rem % chunks_per_pass;
    let lo = chunk * TARGET_CHUNK;
    let hi = targets.len().min(lo + TARGET_CHUNK);
    WorkItem {
        region,
        epoch,
        targets: &targets[lo..hi],
    }
}

/// Runs the campaign over `workers` threads (0 = `available_parallelism`),
/// folding per-region states in serial order. See the module docs for the
/// determinism argument.
pub(crate) fn run_sharded<T, I, F>(
    campaign: &Campaign<'_, '_>,
    targets: &[Ipv4],
    epochs: u32,
    workers: usize,
    obs: Option<&cm_obs::ObsSink>,
    init: I,
    fold: F,
) -> (Vec<T>, CampaignStats)
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, &Traceroute) + Sync,
{
    assert!(epochs >= 1, "at least one campaign epoch");
    let (plane, cloud) = (campaign.plane, campaign.cloud);
    let regions = campaign.regions();
    let workers = if workers == 0 {
        // cm-lint: allow(D2_PARALLELISM, worker count only sizes the thread pool; the coordinator folds results in submission order, so output is byte-identical at any count)
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        workers
    };
    let chunks_per_pass = targets.len().div_ceil(TARGET_CHUNK).max(1);
    let per_region = epochs as usize * chunks_per_pass;
    let n_work = regions.len() * per_region;

    let mut states = Vec::with_capacity(regions.len());
    // The round's registry contribution is tallied on the coordinator,
    // alongside the fold, and flushed once when the round ends: a
    // per-traceroute registry call would take the registry lock ~3M times
    // per small study.
    let mut tally = ProbeTally::default();

    // One flight-recorder span per region, nested under whatever stage
    // span is open. Both execution paths emit the identical sequence —
    // spans open/close on the coordinator in region order, and the probe
    // count is a pure function of the target list — so the deterministic
    // event stream stays byte-identical at any worker count. No wall
    // clock: per-region wall on the coordinator would measure merge
    // latency, not probe cost, so the span carries only the cost counter.
    let span_open = |idx: usize| {
        if let Some(sink) = obs {
            sink.span_start(&format!("region-{idx}"));
        }
    };
    let span_close = |idx: usize, probes: u64| {
        if let Some(sink) = obs {
            sink.span_end(&format!("region-{idx}"), None, vec![("probes", probes)]);
        }
    };

    if workers <= 1 || n_work <= 1 {
        // Serial reference path — also the shape every sharded run must
        // reproduce byte for byte. One probe cursor per (region, epoch),
        // rendering every trace of the round into one reused buffer (each
        // render overwrites the buffer's region too).
        let mut tr = Traceroute::empty(cloud, RegionId(0));
        for (idx, &region) in regions.iter().enumerate() {
            span_open(idx);
            let mut probes = 0u64;
            let mut state = init();
            for epoch in 0..epochs {
                let mut prober = plane.prober(cloud, region, epoch);
                for &t in targets {
                    prober.trace_into(t, &mut tr);
                    tally.absorb(&tr);
                    fold(&mut state, &tr);
                    probes += 1;
                }
            }
            span_close(idx, probes);
            states.push(state);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Bounded: a worker that gets `2 × workers` chunks ahead of the
            // fold blocks on `send` instead of piling finished traceroutes
            // up in memory. The channel lives inside the scope so that a
            // panicking fold drops the receiver before the scope joins the
            // workers, turning their blocked sends into errors, not a hang.
            let (tx, rx) = mpsc::sync_channel::<(usize, TraceBatch)>(2 * workers);
            for _ in 0..workers.min(n_work) {
                let tx = tx.clone(); // cm-lint: allow(P2_CLONE, one sender clone per worker thread at spawn)
                let next = &next;
                scope.spawn(move || {
                    let mut tr = Traceroute::empty(cloud, RegionId(0));
                    loop {
                        let w = next.fetch_add(1, Ordering::Relaxed);
                        if w >= n_work {
                            break;
                        }
                        let it = item(w, regions, targets, epochs, chunks_per_pass);
                        // One cursor and one flat batch per work item; the
                        // batch is sent to the coordinator, so it cannot
                        // be reused.
                        let mut prober = plane.prober(cloud, it.region, it.epoch);
                        let mut batch =
                            TraceBatch::with_capacity(cloud, it.region, it.targets.len());
                        for &t in it.targets {
                            prober.trace_into(t, &mut tr);
                            batch.push(&tr);
                        }
                        // A send error means the coordinator bailed; just stop.
                        if tx.send((w, batch)).is_err() {
                            break;
                        }
                    }
                });
            }
            // Workers hold the only remaining senders: recv() errors out
            // (and the merge loop exits) once they are all done or one
            // panicked — scope exit then re-raises any worker panic.
            drop(tx);

            // In-order merge: fold chunk `w` only after chunks `0..w`.
            // Chunks arriving early wait in `pending`; with homogeneous
            // chunk costs the buffer stays around the worker count.
            let mut pending: HashMap<usize, TraceBatch> = HashMap::new();
            let mut recv_chunk = |w: usize| -> Option<TraceBatch> {
                loop {
                    if let Some(batch) = pending.remove(&w) {
                        return Some(batch);
                    }
                    match rx.recv() {
                        Ok((got, batch)) if got == w => return Some(batch),
                        Ok((got, batch)) => {
                            pending.insert(got, batch);
                        }
                        Err(_) => return None,
                    }
                }
            };
            let mut w = 0usize;
            let mut tr = Traceroute::empty(cloud, RegionId(0));
            'merge: for (idx, _) in regions.iter().enumerate() {
                span_open(idx);
                let mut probes = 0u64;
                let mut state = init();
                for _ in 0..per_region {
                    let Some(batch) = recv_chunk(w) else {
                        break 'merge;
                    };
                    batch.replay(&mut tr, |tr| {
                        tally.absorb(tr);
                        fold(&mut state, tr);
                    });
                    probes += batch.len() as u64;
                    w += 1;
                }
                span_close(idx, probes);
                states.push(state);
            }
        });
        debug_assert!(
            states.len() == regions.len(),
            "merge loop ended early without a worker panic"
        );
    }
    if let Some(sink) = obs {
        tally.flush(&sink.registry);
    }
    (states, tally.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_dataplane::{DataPlane, DataPlaneConfig};
    use cm_topology::{CloudId, Internet, TopologyConfig};
    use std::time::{Duration, Instant};

    #[test]
    fn slow_fold_holds_the_workers_back() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let cloud = CloudId(0);
        // Keep targets whose traceroute makes exactly one route-memo
        // lookup (a property of the destination alone), so the memo's
        // lookup count is the number of traceroutes produced so far.
        let scout = DataPlane::new(&inet, DataPlaneConfig::default());
        let region = inet.primary_cloud().regions[0];
        let targets: Vec<Ipv4> = Campaign::new(&scout, cloud)
            .sweep_targets()
            .into_iter()
            .filter(|&t| {
                let before = scout.route_memo_stats();
                scout.traceroute(cloud, region, t);
                let d = scout.route_memo_stats().since(before);
                d.hits + d.misses == 1
            })
            .take(3 * TARGET_CHUNK)
            .collect();
        assert_eq!(targets.len(), 3 * TARGET_CHUNK);

        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let workers = 2;
        // Traceroutes the run may hold produced but not yet folded:
        // `3 × workers + 1` chunks in flight (`2 × workers` in the
        // channel, one in each worker's hands, the one being folded), and
        // as much again for chunks received out of order and waiting in
        // `pending`. Unbounded, a run whose fold is the slow side holds
        // most of its traceroutes at once.
        let bound = 2 * (3 * workers + 1) * TARGET_CHUNK;
        let folded = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let epochs = 4;
        let (_, stats) = Campaign::new(&plane, cloud).run_sharded(
            &targets,
            epochs,
            workers,
            || (),
            |_, _| {
                let produced = || {
                    let memo = plane.route_memo_stats();
                    (memo.hits + memo.misses) as usize
                };
                let n = folded.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    // Hold the first fold until the workers have produced
                    // past the bound, or for a second: unbounded, they get
                    // there at once; bounded, they block in `send` first.
                    let start = Instant::now();
                    while produced() <= bound && start.elapsed() < Duration::from_secs(1) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let unfolded = produced() - n;
                peak.fetch_max(unfolded, Ordering::Relaxed);
                assert!(
                    unfolded <= bound,
                    "{unfolded} traceroutes produced but not folded (bound {bound})"
                );
                // The fold stays the slow side: probing a traceroute takes
                // a fraction of this.
                std::thread::sleep(Duration::from_micros(50));
            },
        );
        let regions = inet.primary_cloud().regions.len();
        assert_eq!(stats.launched, regions * epochs as usize * targets.len());
        assert_eq!(folded.load(Ordering::Relaxed), stats.launched);
        assert!(
            stats.launched > 3 * bound,
            "the run must be long enough to exceed the bound"
        );
        assert!(
            peak.load(Ordering::Relaxed) >= TARGET_CHUNK,
            "workers never got ahead"
        );
    }

    #[test]
    #[should_panic(expected = "fold failed")]
    fn a_panicking_fold_propagates_instead_of_hanging() {
        let inet = Internet::generate(TopologyConfig::tiny(), 19);
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let c = Campaign::new(&plane, CloudId(0));
        let targets = c.sweep_targets();
        // Workers would fill the bounded channel and block on `send`; the
        // coordinator's panic must release them rather than wait forever.
        c.run_sharded(&targets, 4, 2, || (), |_, _| panic!("fold failed"));
    }
}
