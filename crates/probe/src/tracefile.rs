//! Plain-text traceroute serialization.
//!
//! The inference pipeline only needs hop addresses, RTTs and destinations —
//! exactly what third-party measurement produces. This module defines a
//! small line format so campaigns can be archived and, more importantly, so
//! traceroutes collected *outside* the simulator (e.g. converted from
//! Scamper's warts output) can be fed to `cloudmap`'s border inference:
//!
//! ```text
//! # cloudmap tracefile v1
//! T <cloud> <region> <dst> <C|G|M>
//! H <ttl> <addr|*> <rtt_ms|->
//! ```
//!
//! `T` opens a traceroute (status `C`ompleted / `G`ap-limited / `M`ax-TTL);
//! each following `H` line is one hop, and a trace's hop TTLs rise
//! strictly. Ground-truth interface ids are never serialized — a parsed
//! trace carries exactly what a real measurement would.

use cm_dataplane::{TraceHop, TraceStatus, Traceroute};
use cm_net::Ipv4;
use cm_topology::{CloudId, RegionId};
use std::fmt::Write as _;

/// Magic first line.
pub const HEADER: &str = "# cloudmap tracefile v1";

/// Serializes traceroutes to the tracefile format.
pub fn write_traces<'a>(traces: impl IntoIterator<Item = &'a Traceroute>) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for t in traces {
        let status = match t.status {
            TraceStatus::Completed => 'C',
            TraceStatus::GapLimit => 'G',
            TraceStatus::MaxTtl => 'M',
        };
        // Writing into a String is infallible; ignore the fmt::Result.
        let _ = writeln!(
            out,
            "T {} {} {} {}",
            t.cloud.0, t.src_region.0, t.dst, status
        );
        for h in &t.hops {
            let addr = h.addr.map(|a| a.to_string()).unwrap_or_else(|| "*".into());
            let rtt = h
                .rtt_ms
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(out, "H {} {} {}", h.ttl, addr, rtt);
        }
    }
    out
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tracefile line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a tracefile back into traceroutes.
///
/// A [`TraceHop`] holds only the observables a tracefile records (TTL,
/// address, RTT), so a parsed trace is the same view a real measurement
/// provides. A hop whose TTL does not exceed the previous hop's is rejected: the §4.1
/// walk reads `ttl + 1` as "the next hop", which strictly rising TTLs keep
/// in range (a TTL of 255 can only be a trace's last hop).
pub fn read_traces(input: &str) -> Result<Vec<Traceroute>, ParseError> {
    let mut lines = input.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => return Err(err(1, format!("missing header {HEADER:?}"))),
    }
    let mut out: Vec<Traceroute> = Vec::new();
    for (i, line) in lines {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("T") => {
                let cloud: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad cloud id"))?;
                let region: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad region id"))?;
                let dst: Ipv4 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad destination"))?;
                let status = match parts.next() {
                    Some("C") => TraceStatus::Completed,
                    Some("G") => TraceStatus::GapLimit,
                    Some("M") => TraceStatus::MaxTtl,
                    other => return Err(err(lineno, format!("bad status {other:?}"))),
                };
                out.push(Traceroute {
                    cloud: CloudId(cloud),
                    src_region: RegionId(region),
                    dst,
                    hops: Vec::new(),
                    status,
                });
            }
            Some("H") => {
                let t = out
                    .last_mut()
                    .ok_or_else(|| err(lineno, "hop before any trace"))?;
                let ttl: u8 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad ttl"))?;
                if t.hops.last().is_some_and(|prev| ttl <= prev.ttl) {
                    return Err(err(lineno, "ttl does not rise past the previous hop"));
                }
                let addr = match parts.next() {
                    Some("*") => None,
                    Some(a) => Some(
                        a.parse::<Ipv4>()
                            .map_err(|_| err(lineno, format!("bad address {a:?}")))?,
                    ),
                    None => return Err(err(lineno, "missing address")),
                };
                let rtt_ms = match parts.next() {
                    Some("-") => None,
                    Some(r) => Some(
                        r.parse::<f64>()
                            .map_err(|_| err(lineno, format!("bad rtt {r:?}")))?,
                    ),
                    None => return Err(err(lineno, "missing rtt")),
                };
                t.hops.push(TraceHop { ttl, addr, rtt_ms });
            }
            Some(tag) => return Err(err(lineno, format!("unknown record {tag:?}"))),
            None => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_dataplane::{DataPlane, DataPlaneConfig};
    use cm_topology::{Internet, TopologyConfig};

    #[test]
    fn roundtrip_preserves_observables() {
        let inet = Internet::generate(TopologyConfig::tiny(), 27);
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let region = inet.primary_cloud().regions[0];
        let traces: Vec<Traceroute> = inet
            .ases
            .iter()
            .filter(|a| !a.prefixes.is_empty())
            .take(40)
            .map(|a| {
                plane.traceroute(
                    CloudId(0),
                    region,
                    a.prefixes[0].base().slash24_probe_target(),
                )
            })
            .collect();
        let text = write_traces(&traces);
        let parsed = read_traces(&text).unwrap();
        assert_eq!(parsed.len(), traces.len());
        for (a, b) in traces.iter().zip(&parsed) {
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.status, b.status);
            assert_eq!(a.hops.len(), b.hops.len());
            for (x, y) in a.hops.iter().zip(&b.hops) {
                assert_eq!(x.ttl, y.ttl);
                assert_eq!(x.addr, y.addr);
                match (x.rtt_ms, y.rtt_ms) {
                    (Some(p), Some(q)) => assert!((p - q).abs() < 1e-3),
                    (None, None) => {}
                    other => panic!("rtt mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_traces("").is_err());
        assert!(read_traces("junk\n").is_err());
        let hdr = format!("{HEADER}\n");
        assert!(read_traces(&format!("{hdr}H 1 1.2.3.4 0.5\n")).is_err());
        assert!(read_traces(&format!("{hdr}T 0 0 1.2.3.4 X\n")).is_err());
        assert!(read_traces(&format!("{hdr}T 0 0 bogus C\n")).is_err());
        assert!(read_traces(&format!("{hdr}Z what\n")).is_err());
        // Well-formed minimal file.
        let ok = read_traces(&format!(
            "{hdr}T 0 3 1.2.3.4 G\nH 1 * -\nH 2 5.6.7.8 1.25\n"
        ))
        .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].hops.len(), 2);
        assert_eq!(ok[0].hops[1].rtt_ms, Some(1.25));
    }

    #[test]
    fn rejects_ttls_that_do_not_rise() {
        // A TTL of 255 followed by a lower one used to parse, and then
        // overflowed the border walk's `ttl + 1`.
        let hdr = format!("{HEADER}\n");
        let wrapped = read_traces(&format!(
            "{hdr}T 0 0 9.9.9.9 C\nH 255 1.2.3.4 1.0\nH 0 5.6.7.8 1.0\n"
        ));
        assert_eq!(wrapped.err().map(|e| e.line), Some(4));
        let repeated = read_traces(&format!("{hdr}T 0 0 9.9.9.9 C\nH 4 1.2.3.4 1.0\nH 4 * -\n"));
        assert_eq!(repeated.err().map(|e| e.line), Some(4));
        // Each trace counts on its own: a new `T` may start low again.
        let ok = read_traces(&format!(
            "{hdr}T 0 0 9.9.9.9 C\nH 255 1.2.3.4 1.0\nT 0 0 9.9.9.9 C\nH 1 * -\n"
        ));
        assert_eq!(ok.map(|t| t.len()), Ok(2));
    }

    #[test]
    fn parsed_traces_feed_border_inference() {
        // The full interop path: simulate -> serialize -> parse -> infer.
        let inet = Internet::generate(TopologyConfig::tiny(), 27);
        let plane = DataPlane::new(&inet, DataPlaneConfig::default());
        let campaign = crate::Campaign::new(&plane, CloudId(0));
        let (traces, _) = campaign.targeted(
            &campaign
                .sweep_targets()
                .into_iter()
                .take(2000)
                .collect::<Vec<_>>(),
        );
        let text = write_traces(&traces);
        let parsed = read_traces(&text).unwrap();
        // Walk the parsed traces with the same logic cloudmap uses: at
        // minimum, responding addresses must be identical.
        let orig: Vec<Vec<Ipv4>> = traces
            .iter()
            .map(|t| t.responding_addrs().collect())
            .collect();
        let back: Vec<Vec<Ipv4>> = parsed
            .iter()
            .map(|t| t.responding_addrs().collect())
            .collect();
        assert_eq!(orig, back);
    }
}
