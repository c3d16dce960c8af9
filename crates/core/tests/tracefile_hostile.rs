//! Hostile-input suite for `cm_probe::tracefile::read_traces`, the parser
//! for externally collected traceroutes: every prefix of a real
//! tiny-campaign archive, and a set of corrupted variants, must either
//! parse or return a `ParseError` — and whatever parses must go through
//! the §4.1 border walk (`BorderCollector::observe`) without panicking.
//! Debug builds check integer overflow, so run this suite without
//! `--release`.

use cloudmap::annotate::Annotator;
use cloudmap::borders::BorderCollector;
use cm_bgp::{bgp_snapshot, BgpView};
use cm_dataplane::{DataPlane, DataPlaneConfig};
use cm_datasets::{DatasetConfig, PublicDatasets};
use cm_probe::{tracefile, Campaign};
use cm_topology::{CloudId, Internet, TopologyConfig};

const SEED: u64 = 33;

/// Parses every input and walks whatever parses through one collector.
/// Returns (parsed, rejected) counts.
fn walk_all(inputs: impl IntoIterator<Item = String>) -> (usize, usize) {
    let inet = Internet::generate(TopologyConfig::tiny(), SEED);
    let snapshot = bgp_snapshot(&inet);
    let view = BgpView::compute(&inet, CloudId(0), 64, SEED);
    let visible = view
        .visible_peers
        .iter()
        .map(|&p| inet.as_node(p).asn)
        .collect();
    let datasets = PublicDatasets::derive(&inet, DatasetConfig::default(), &visible, SEED);
    let annotator = Annotator::new(&snapshot, &datasets);
    let cloud_org = datasets
        .as2org
        .org_of(inet.as_node(inet.primary_cloud().ases[0]).asn)
        .expect("the cloud has an org");
    let mut collector = BorderCollector::new(&annotator, cloud_org);
    let (mut parsed, mut rejected) = (0, 0);
    for input in inputs {
        match tracefile::read_traces(&input) {
            Ok(traces) => {
                parsed += 1;
                traces.iter().for_each(|t| collector.observe(t));
            }
            Err(_) => rejected += 1,
        }
    }
    (parsed, rejected)
}

/// A real archive: the first 12 sweep traceroutes of the tiny world.
fn archive() -> String {
    let inet = Internet::generate(TopologyConfig::tiny(), SEED);
    let plane = DataPlane::new(&inet, DataPlaneConfig::default());
    let campaign = Campaign::new(&plane, CloudId(0));
    let targets: Vec<_> = campaign.sweep_targets().into_iter().take(12).collect();
    tracefile::write_traces(&campaign.targeted(&targets).0)
}

#[test]
fn every_prefix_of_a_real_archive_parses_or_errors() {
    let text = archive();
    let (parsed, rejected) = walk_all((0..=text.len()).map(|n| text[..n].to_string()));
    assert!(
        parsed > 0 && rejected > 0,
        "parsed {parsed}, rejected {rejected}"
    );
}

#[test]
fn corrupted_archives_parse_or_error_and_never_panic_the_walk() {
    let text = archive();
    let mut variants: Vec<String> = Vec::new();
    // Byte flips: ASCII stays ASCII under these masks, so every variant is
    // a valid `&str`.
    for (i, b) in text.bytes().enumerate().step_by(7) {
        for mask in [0x01u8, 0x02, 0x08, 0x20] {
            let mut bytes = text.clone().into_bytes();
            bytes[i] = b ^ mask;
            variants.push(String::from_utf8(bytes).expect("ASCII flip"));
        }
    }
    // TTL rewrites: each hop in turn claims TTL 255 (the largest a `u8`
    // holds), and each hop in turn repeats the previous hop's line.
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("H ") else {
            continue;
        };
        let mut forged = lines.clone();
        let ttl255 = format!("H 255 {}", rest.split_once(' ').map_or("", |(_, r)| r));
        forged[i] = &ttl255;
        variants.push(forged.join("\n"));
        let mut doubled = lines.clone();
        doubled.insert(i, line);
        variants.push(doubled.join("\n"));
    }
    let (parsed, rejected) = walk_all(variants);
    assert!(
        parsed > 0 && rejected > 0,
        "parsed {parsed}, rejected {rejected}"
    );
}
