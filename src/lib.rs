//! # rumor-spreading
//!
//! Facade crate for the `dynamic-rumor` workspace — the Rust reproduction of
//! *Tight Analysis of Asynchronous Rumor Spreading in Dynamic Networks*
//! (Pourmiri & Mans, PODC 2020).
//!
//! Re-exports the public APIs of every workspace crate under stable module
//! names, so downstream users and the root-level `examples/` and `tests/`
//! depend on a single crate:
//!
//! * [`graph`] — CSR graphs, generators, conductance, diligence;
//! * [`dynamics`] — dynamic evolving networks, including the paper's
//!   adversarial constructions;
//! * [`sim`] — asynchronous/synchronous push–pull simulators;
//! * [`bounds`] — the Theorem 1.1 / 1.3 spread-time bound calculators and
//!   closed-form predictions;
//! * [`net`] — the live message-passing runtime (node-group actors over
//!   pluggable local/UDP delivery), cross-validated against [`sim`];
//! * [`serve`] — the simulation-as-a-service daemon: line-delimited JSON
//!   over TCP, a content-addressed result store, warm-state reuse;
//! * [`stats`] — RNG, samplers, summary statistics.
//!
//! # Quickstart
//!
//! ```
//! use rumor_spreading::prelude::*;
//!
//! // A static 4-regular expander as a (trivially) dynamic network.
//! let mut rng = SimRng::seed_from_u64(7);
//! let g = generators::random_connected_regular(64, 4, &mut rng).unwrap();
//! let mut net = StaticNetwork::new(g);
//! let outcome = Simulation::new(CutRateAsync::new(), RunConfig::default())
//!     .run(&mut net, 0, &mut rng)
//!     .unwrap();
//! assert!(outcome.complete());
//! ```

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gossip_core as bounds;
pub use gossip_dynamics as dynamics;
pub use gossip_graph as graph;
pub use gossip_net as net;
pub use gossip_serve as serve;
pub use gossip_sim as sim;
pub use gossip_stats as stats;

/// The declarative scenario registry (families, protocols, sweeps).
pub use gossip_core::scenario;

/// Commonly used items in one import.
pub mod prelude {
    pub use gossip_core::bounds::{corollary_1_6, giakkoupis_bound, theorem_1_1, theorem_1_3};
    pub use gossip_core::profile::StepProfile;
    pub use gossip_core::scenario::{
        build_any_protocol, run_scenario, FamilySpec, ProtocolSpec, ScenarioPlan, ScenarioReport,
        ScenarioSpec, SweepPlan, SweepSpec, TopologyCache,
    };
    pub use gossip_dynamics::{
        AbsoluteDiligentNetwork, AlternatingRegular, CliquePendant, DiligentNetwork,
        DynamicNetwork, DynamicStar, EdgeDelta, EdgeMarkovian, MobileAgents, SequenceNetwork,
        StaticNetwork,
    };
    pub use gossip_graph::{conductance, diligence, generators, Graph, GraphBuilder, NodeSet};
    pub use gossip_net::{DeliveryKind, NetConfig, NetPlan, NetProtocol, NetSweep};
    pub use gossip_sim::{
        AnyProtocol, AsyncPushPull, CutRateAsync, Engine, EventSimulation, Flooding,
        IncrementalProtocol, JsonlSink, LossyAsync, Protocol, RunConfig, RunPlan, RunReport,
        Simulation, SpreadOutcome, SummarySink, SyncPushPull, TrajectorySink, TrialObserver,
        TrialRecord, TrialSummary, WorkspacePool,
    };
    pub use gossip_stats::{Quantiles, RunningMoments, SimRng, SortedSample};
}
