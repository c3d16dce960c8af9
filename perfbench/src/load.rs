//! The serve load: the seeded `serve-spammer` query stream, timed in
//! batches by closed-loop client threads, and a naive oracle that checks
//! every batch's answers.

use crate::stats::{median, BatchQuantiles};
use cm_net::{stablehash, Asn, Ipv4, Prefix};
use cm_serve::{AtlasSnapshot, Engine, IfaceRecord, QueryKind};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Queries per timed batch: one pair of clock reads per batch.
pub const BATCH: usize = 64;
/// Client threads: the machine's two cores, one per thread.
pub const CLIENTS: usize = 2;
/// Queries each client issues per round.
pub const QUERIES_PER_CLIENT: usize = 1 << 19;
/// Batches each client issues per round.
pub const BATCHES_PER_ROUND: usize = QUERIES_PER_CLIENT / BATCH;

/// One query of the stream.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Query family.
    pub kind: QueryKind,
    /// Target address.
    pub addr: Ipv4,
}

/// Query `i` of client `worker`'s stream — the stream `serve-spammer`
/// issues: ≈50% point, 40% longest-prefix and 10% neighbors queries, ¾ of
/// them at an interface of the snapshot and the rest at a random address.
/// `family` forces one query family on the same targets. Also returns the
/// stream hash the query was drawn from, which the checksum folds.
pub fn query(
    records: &[IfaceRecord],
    seed: u64,
    worker: usize,
    i: usize,
    family: Option<QueryKind>,
) -> (Query, u64) {
    let h = stablehash::mix(seed, &[0x5BA7, worker as u64, i as u64]);
    let n = records.len();
    let addr = if n > 0 && !h.is_multiple_of(4) {
        records[stablehash::pick(h, &[1], n)].addr
    } else {
        Ipv4((h >> 32) as u32)
    };
    let kind = family.unwrap_or(match h % 10 {
        0..=4 => QueryKind::Point,
        5..=8 => QueryKind::LongestPrefix,
        _ => QueryKind::Neighbors,
    });
    (Query { kind, addr }, h)
}

/// One client's round: its queries and the oracle's answer to each.
pub struct ClientStream {
    /// The queries, in issue order.
    pub queries: Vec<Query>,
    /// The oracle's folded answer to each query.
    pub expected: Vec<u64>,
}

/// The engine's answer to `q`, folded to a word, and whether it found
/// anything (the same fold `serve-spammer` checksums).
#[inline]
pub fn answer(engine: &Engine, q: Query) -> (u64, bool) {
    match q.kind {
        QueryKind::Point => match engine.point(q.addr) {
            Some(r) => (u64::from(r.owner.0) | (u64::from(r.groups) << 32), true),
            None => (0, false),
        },
        QueryKind::LongestPrefix => match engine.longest_prefix(q.addr) {
            Some((p, asn)) => (
                u64::from(p.base().to_u32()) | (u64::from(asn.0) << 32),
                true,
            ),
            None => (0, false),
        },
        QueryKind::Neighbors => {
            let nbrs = engine.neighbors(q.addr);
            (
                nbrs.iter().map(|n| u64::from(n.to_u32())).sum(),
                !nbrs.is_empty(),
            )
        }
    }
}

/// Answers from the snapshot's tables by plain maps and a scan over
/// prefix lengths, sharing no code with the engine's indexes.
pub struct Oracle {
    points: HashMap<Ipv4, u64>,
    prefixes: HashMap<(u8, u32), (Prefix, Asn)>,
    neighbors: HashMap<Ipv4, BTreeSet<Ipv4>>,
}

impl Oracle {
    /// Builds the oracle from a decoded snapshot.
    pub fn new(snap: &AtlasSnapshot) -> Oracle {
        let points: HashMap<Ipv4, u64> = snap
            .interfaces
            .iter()
            .map(|r| (r.addr, u64::from(r.owner.0) | (u64::from(r.groups) << 32)))
            .collect();
        let prefixes = snap
            .prefixes
            .iter()
            .map(|&(p, asn)| ((p.len(), p.base().to_u32()), (p, asn)))
            .collect();
        let mut neighbors: HashMap<Ipv4, BTreeSet<Ipv4>> = HashMap::new();
        for &(abi, cbi) in &snap.segments {
            if points.contains_key(&abi) {
                neighbors.entry(abi).or_default().insert(cbi);
            }
            if points.contains_key(&cbi) {
                neighbors.entry(cbi).or_default().insert(abi);
            }
        }
        Oracle {
            points,
            prefixes,
            neighbors,
        }
    }

    /// The expected answer to `q`, folded as [`answer`] folds the engine's.
    pub fn answer(&self, q: Query) -> u64 {
        match q.kind {
            QueryKind::Point => self.points.get(&q.addr).copied().unwrap_or(0),
            QueryKind::LongestPrefix => (0..=32u8)
                .rev()
                .find_map(|len| {
                    let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
                    self.prefixes.get(&(len, q.addr.to_u32() & mask))
                })
                .map_or(0, |&(p, asn)| {
                    u64::from(p.base().to_u32()) | (u64::from(asn.0) << 32)
                }),
            QueryKind::Neighbors => self
                .neighbors
                .get(&q.addr)
                .map_or(0, |s| s.iter().map(|n| u64::from(n.to_u32())).sum()),
        }
    }

    /// Every client's round of queries with the oracle's answers, and the
    /// round checksum: the sum over all queries of the answer folded with
    /// the query's stream hash, as `serve-spammer` computes it.
    pub fn streams(&self, records: &[IfaceRecord], seed: u64) -> (Vec<ClientStream>, u64) {
        let mut checksum = 0u64;
        let streams = (0..CLIENTS)
            .map(|w| {
                let mut s = ClientStream {
                    queries: Vec::with_capacity(QUERIES_PER_CLIENT),
                    expected: Vec::with_capacity(QUERIES_PER_CLIENT),
                };
                for i in 0..QUERIES_PER_CLIENT {
                    let (q, h) = query(records, seed, w, i, None);
                    let answer = self.answer(q);
                    checksum = checksum.wrapping_add(stablehash::mix(answer, &[h]));
                    s.queries.push(q);
                    s.expected.push(answer);
                }
                s
            })
            .collect();
        (streams, checksum)
    }
}

/// What the measured rounds of one run saw.
#[derive(Debug, Default)]
pub struct RoundsReport {
    /// Rounds run.
    pub rounds: usize,
    /// Batches issued across clients and rounds.
    pub batches: u64,
    /// Batches whose answers differed from the oracle's.
    pub failed_batches: u64,
    /// Per-round p50 and p99 of batch means, ns per query.
    pub p50_ns: Vec<f64>,
    /// Per-round p99 of batch means.
    pub p99_ns: Vec<f64>,
    /// Per-round queries answered by all clients per second of round wall.
    pub qps: Vec<f64>,
    /// Batch means each round's quantiles rest on.
    pub samples_per_round: usize,
    /// Samples beyond each round's p99.
    pub beyond_p99: usize,
}

impl RoundsReport {
    /// `(p50, p99, queries/s)` medians over rounds.
    pub fn medians(&self) -> (f64, f64, f64) {
        (
            median(&self.p50_ns),
            median(&self.p99_ns),
            median(&self.qps),
        )
    }
}

/// Runs closed-loop rounds of [`CLIENTS`] threads against `engine` while
/// `more(rounds_done, started)` holds (at least one round). Each client
/// issues its stream back to back, timing each batch with one clock read
/// pair; answers are compared with the oracle's after each batch, outside
/// the timed region.
pub fn run_rounds(
    engine: &Engine,
    streams: &[ClientStream],
    more: impl Fn(usize, Instant) -> bool,
) -> RoundsReport {
    let start_line = Barrier::new(CLIENTS + 1);
    let finish_line = Barrier::new(CLIENTS + 1);
    let stop = AtomicBool::new(false);
    let failed = AtomicU64::new(0);
    let slots: Vec<Mutex<Vec<f64>>> = (0..CLIENTS)
        .map(|_| Mutex::new(Vec::with_capacity(BATCHES_PER_ROUND)))
        .collect();
    let mut report = RoundsReport::default();
    std::thread::scope(|scope| {
        for (stream, slot) in streams.iter().zip(&slots) {
            let (start_line, finish_line, stop, failed) =
                (&start_line, &finish_line, &stop, &failed);
            scope.spawn(move || {
                let mut answers = [0u64; BATCH];
                let mut lat = Vec::with_capacity(BATCHES_PER_ROUND);
                loop {
                    start_line.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    lat.clear();
                    for (batch, want) in stream
                        .queries
                        .chunks(BATCH)
                        .zip(stream.expected.chunks(BATCH))
                    {
                        let t = Instant::now();
                        for (q, a) in batch.iter().zip(answers.iter_mut()) {
                            *a = answer(engine, black_box(*q)).0;
                        }
                        lat.push(t.elapsed().as_nanos() as f64);
                        if black_box(&answers[..batch.len()]) != want {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    slot.lock().expect("a client panicked").clone_from(&lat);
                    finish_line.wait();
                }
            });
        }
        let started = Instant::now();
        let mut pooled = Vec::with_capacity(CLIENTS * BATCHES_PER_ROUND);
        loop {
            if report.rounds > 0 && !more(report.rounds, started) {
                stop.store(true, Ordering::SeqCst);
                start_line.wait();
                break;
            }
            let t = Instant::now();
            start_line.wait();
            finish_line.wait();
            let wall = t.elapsed().as_secs_f64();
            pooled.clear();
            for slot in &slots {
                pooled.extend_from_slice(&slot.lock().expect("a client panicked"));
            }
            let q = BatchQuantiles::of(&pooled, BATCH);
            report.p50_ns.push(q.p50_ns);
            report.p99_ns.push(q.p99_ns);
            report
                .qps
                .push((CLIENTS * QUERIES_PER_CLIENT) as f64 / wall);
            report.samples_per_round = q.samples;
            report.beyond_p99 = q.beyond_p99();
            report.rounds += 1;
        }
    });
    report.batches = (report.rounds * CLIENTS * BATCHES_PER_ROUND) as u64;
    report.failed_batches = failed.into_inner();
    report
}

/// Single-thread batched latency of one query family: the median batch
/// mean (ns per query) and the share of queries that found an answer.
pub fn family_latency(engine: &Engine, seed: u64, kind: QueryKind, batches: usize) -> (f64, f64) {
    let records = engine.records();
    let mut lat = Vec::with_capacity(batches);
    let mut hits = 0usize;
    let mut batch = Vec::with_capacity(BATCH);
    let mut found = [false; BATCH];
    for b in 0..batches {
        batch.clear();
        batch.extend((0..BATCH).map(|j| query(records, seed, 0, b * BATCH + j, Some(kind)).0));
        let t = Instant::now();
        for (q, f) in batch.iter().zip(found.iter_mut()) {
            *f = black_box(answer(engine, black_box(*q))).1;
        }
        lat.push(t.elapsed().as_nanos() as f64);
        hits += found.iter().filter(|&&f| f).count();
    }
    (
        BatchQuantiles::of(&lat, BATCH).p50_ns,
        hits as f64 / (batches * BATCH) as f64,
    )
}
