//! # cloudmap — inferring a cloud provider's peering fabric
//!
//! This is the paper's contribution (Yeganeh et al., *How Cloud Traffic Goes
//! Hiding: A Study of Amazon's Peering Fabric*, IMC 2019), implemented as a
//! reusable library over the measurement substrates in this workspace:
//!
//! | Module | Paper section | What it does |
//! |---|---|---|
//! | [`annotate`] | §3 | IP → ASN/ORG/IXP annotation from BGP snapshots, WHOIS and IXP datasets |
//! | [`borders`]  | §4.1–4.2 | candidate ABI/CBI segment extraction from traceroutes, filters, expansion targets |
//! | [`verify`]   | §5 | IXP-client / hybrid / reachability heuristics and alias-set corrections |
//! | [`pinning`]  | §6 | anchor extraction, co-presence propagation, regional fallback, cross-validation |
//! | [`vpi`]      | §7.1 | multi-cloud probing and VPI (virtual interconnect) detection |
//! | [`groups`]   | §7.2–7.3 | the six peering groups, hybrid-peering census, per-group features |
//! | [`icg`]      | §7.4 | the bipartite interface connectivity graph and its statistics |
//! | [`pipeline`] | all | end-to-end orchestration producing an [`pipeline::Atlas`] |
//! | [`score`]    | — | ground-truth scoring of every stage (possible only in simulation) |
//!
//! The library never reads the ground truth during inference: its inputs are
//! traceroutes and pings executed by `cm-dataplane`/`cm-probe` and the public
//! dataset views from `cm-datasets`/`cm-bgp`. Ground truth enters only in
//! [`score`], which quantifies how well each stage did — the validation the
//! paper itself could not perform (§9).
//!
//! ## Quickstart
//!
//! ```no_run
//! use cloudmap::pipeline::{Pipeline, PipelineConfig};
//! use cm_topology::{Internet, TopologyConfig};
//!
//! let inet = Internet::generate(TopologyConfig::tiny(), 42);
//! let atlas = Pipeline::new(&inet, PipelineConfig::default())
//!     .run()
//!     .expect("pipeline run");
//! println!("peer ASes: {}", atlas.groups.per_as.len());
//! println!("VPI share: {:.1}%", 100.0 * atlas.vpi.vpi_share());
//! ```

#![deny(missing_docs)]

pub mod annotate;
pub mod borders;
pub mod compare;
pub mod delta;
pub mod export;
mod fxhash;
pub mod groups;
pub mod icg;
pub mod pinning;
pub mod pipeline;
pub mod score;
pub mod verify;
pub mod vpi;

pub use annotate::{Annotator, HopNote, NoteSource};
pub use borders::{BorderCollector, Segment, SegmentPool};
pub use delta::{era_config, ChurnReport, ChurnView, DeltaEngine, DeltaEpoch, DeltaRunStats};
pub use pipeline::{Atlas, Pipeline, PipelineConfig, PipelineError, StageTimings};
