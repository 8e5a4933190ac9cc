//! Workspace reuse vs per-trial allocation equivalence.
//!
//! The [`gossip_sim::SimWorkspace`] hot path is a pure memory
//! optimization: every structure a trial checks out of the workspace is
//! reset to exactly the state a newly allocated one would have, so the RNG
//! stream is consumed identically and results are **bit-identical** to
//! the per-trial reference: a test-side loop running one
//! `EventSimulation::run` / `Simulation::run` per trial on
//! `base.derive(i)`, with a new network, protocol and workspace each
//! time ([`fresh_reference`]). The driver's dirty, recycled workspaces
//! must be indistinguishable from those fresh ones.
//!
//! Enforced here per engine (event + window) × topology backend
//! (implicit, sampled, materialized) × thread count (1 inline, 4 with
//! the batched channel path), on static and dynamic (delta-repairing)
//! families, for the closed-form, Fenwick, and stateless protocol
//! paths — plus a KS distribution check and byte-identical observer
//! streams.

use gossip_dynamics::{DynamicNetwork, SequenceNetwork, StaticNetwork};
use gossip_graph::{generators, Topology};
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, EventSimulation, JsonlSink, LossyAsync, RunConfig, RunPlan,
    SimError, Simulation, SummarySink, TrajectorySink, TrialObserver, TrialRecord, TrialSummary,
    TwoPush,
};
use gossip_stats::{ks, SimRng};

fn assert_bit_identical(a: &TrialSummary, b: &TrialSummary, label: &str) {
    assert_eq!(a.trials(), b.trials(), "{label}: trial counts");
    assert_eq!(a.completed(), b.completed(), "{label}: completed counts");
    let (ta, tb) = (a.sorted_times(), b.sorted_times());
    assert_eq!(ta.len(), tb.len(), "{label}: sample counts");
    for (i, (x, y)) in ta.iter().zip(tb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: trial time {i} drifted: {x} vs {y}"
        );
    }
    if a.completed() > 0 {
        assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{label}: mean");
        assert_eq!(
            a.std_dev().to_bits(),
            b.std_dev().to_bits(),
            "{label}: std dev"
        );
        assert_eq!(
            a.median().to_bits(),
            b.median().to_bits(),
            "{label}: median"
        );
    }
}

fn config() -> RunConfig {
    RunConfig::with_max_time(1e4)
}

fn summarize<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync,
    make_proto: impl Fn() -> AnyProtocol + Sync,
    engine: Engine,
    threads: usize,
    trials: usize,
    seed: u64,
) -> TrialSummary {
    RunPlan::new(trials, seed)
        .threads(threads)
        .engine(engine)
        .config(config())
        .execute(make_net, make_proto)
        .expect("valid plan")
        .into_summary()
}

/// The per-trial reference: trial `i` is one
/// [`EventSimulation::run`] (vectorized loop; [`Simulation::run`] for
/// [`Engine::Window`]) on the `base.derive(i)` stream, with a new
/// network, protocol and workspace per trial. Records are folded into
/// the summary and sent to `observer`, in trial order, as the driver
/// does; trajectories are recorded only when the observer asks.
fn fresh_reference<N: DynamicNetwork>(
    make_net: impl Fn() -> N,
    make_proto: impl Fn() -> AnyProtocol,
    engine: Engine,
    trials: usize,
    seed: u64,
    mut observer: Option<&mut dyn TrialObserver>,
) -> TrialSummary {
    let mut config = config();
    config.record_trajectory = observer.as_ref().is_some_and(|o| o.wants_trajectory());
    let base = SimRng::seed_from_u64(seed);
    let mut summary = SummarySink::new();
    for i in 0..trials {
        let mut net = make_net();
        let start = net.suggested_start();
        let mut rng = base.derive(i as u64);
        let outcome = match engine {
            Engine::Window => {
                Simulation::new(make_proto().into_window(), config).run(&mut net, start, &mut rng)
            }
            _ => {
                let mut protocol = make_proto().into_event().expect("event-capable protocol");
                protocol.set_vectorized(true); // the driver's default loop
                EventSimulation::new(protocol, config).run(&mut net, start, &mut rng)
            }
        }
        .expect("valid reference trial");
        let record = TrialRecord {
            trial: i,
            seed: rng.base_seed(),
            n: outcome.n(),
            spread_time: outcome.spread_time(),
            windows: outcome.windows(),
            events: outcome.events(),
            informed: outcome.informed_count(),
            outcome: outcome.outcome(),
            trajectory: config.record_trajectory.then(|| outcome.into_trajectory()),
        };
        summary.on_trial(&record).unwrap();
        if let Some(o) = observer.as_mut() {
            o.on_trial(&record).unwrap();
        }
    }
    summary.into_summary()
}

/// One (family, protocol) cell checked across engines and thread counts.
fn check_cell<N: DynamicNetwork>(
    label: &str,
    engines: &[Engine],
    make_net: impl Fn() -> N + Sync + Copy,
    make_proto: impl Fn() -> AnyProtocol + Sync + Copy,
) {
    for &engine in engines {
        let fresh = fresh_reference(make_net, make_proto, engine, 24, 97, None);
        for &threads in &[1usize, 4] {
            let reused = summarize(make_net, make_proto, engine, threads, 24, 97);
            assert_bit_identical(
                &fresh,
                &reused,
                &format!("{label}, engine {}, {threads} thread(s)", engine.name()),
            );
        }
    }
}

const BOTH: &[Engine] = &[Engine::Event, Engine::Window];

#[test]
fn implicit_complete_closed_form_path() {
    // Implicit K_n: the ShrinkPool closed-form state.
    check_cell(
        "implicit complete",
        BOTH,
        || StaticNetwork::from_topology(Topology::complete(64).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn implicit_star_closed_form_path() {
    check_cell(
        "implicit star",
        BOTH,
        || StaticNetwork::from_topology(Topology::star(40, 0).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn sampled_gnp_fenwick_path() {
    // Sampled G(n, p): lazy rows drive the Fenwick state; the workspace
    // recycles the tree across trials via rebuild_into.
    check_cell(
        "sampled gnp",
        BOTH,
        || StaticNetwork::from_topology(Topology::gnp(60, 0.15, 7).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn materialized_circulant_fenwick_path() {
    check_cell(
        "materialized circulant",
        BOTH,
        || StaticNetwork::new(generators::regular_circulant(48, 6).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn dynamic_sequence_delta_repair_path() {
    // Alternating path/cycle reports a delta at every boundary: the
    // apply_delta scratch (workspace `stale` buffer) runs every window.
    check_cell(
        "sequence network",
        BOTH,
        || {
            SequenceNetwork::cycling(vec![
                generators::path(24).unwrap(),
                generators::cycle(24).unwrap(),
            ])
            .unwrap()
        },
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn lossy_downtime_state_reuse() {
    // LossyAsync's begin_in clears the retained down-set in place; the
    // per-window downtime draws must stay aligned.
    check_cell(
        "lossy with downtime",
        BOTH,
        || StaticNetwork::new(generators::cycle(20).unwrap()),
        || AnyProtocol::event(LossyAsync::with_downtime(0.1, 0.3).unwrap()),
    );
}

#[test]
fn stateless_two_push_protocol() {
    check_cell(
        "two-push",
        BOTH,
        || StaticNetwork::new(generators::regular_circulant(30, 4).unwrap()),
        || AnyProtocol::event(TwoPush::new()),
    );
}

#[test]
fn window_only_protocol_on_window_engine() {
    check_cell(
        "sync push-pull (window only)",
        &[Engine::Window],
        || StaticNetwork::from_topology(Topology::complete(32).unwrap()),
        || AnyProtocol::window(gossip_sim::SyncPushPull::new()),
    );
}

#[test]
fn ks_distribution_check_on_complete_family() {
    // Beyond bit-identity under equal seeds: with *different* seeds the
    // two paths must still sample the same spread-time distribution.
    let make_net = || StaticNetwork::from_topology(Topology::complete(48).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let fresh = fresh_reference(make_net, make_proto, Engine::Event, 700, 1000, None);
    let reused = summarize(make_net, make_proto, Engine::Event, 1, 700, 2000);
    assert!(
        ks::same_distribution(fresh.sorted_times(), reused.sorted_times(), 0.01),
        "KS = {}",
        ks::ks_statistic(fresh.sorted_times(), reused.sorted_times())
    );
}

#[test]
fn observer_streams_byte_identical() {
    // The full observer contract: a JSONL sink fed by the batched
    // workspace path must produce byte-for-byte the stream the per-trial
    // fresh reference produces, for 1 and 4 threads.
    let make_net = || StaticNetwork::from_topology(Topology::complete(32).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let mut sink = JsonlSink::new(Vec::new());
    fresh_reference(make_net, make_proto, Engine::Event, 40, 11, Some(&mut sink));
    let reference = sink.into_inner().expect("flush");
    assert!(!reference.is_empty());
    for threads in [1usize, 4] {
        let mut sink = JsonlSink::new(Vec::new());
        RunPlan::new(40, 11)
            .threads(threads)
            .config(config())
            .observer(&mut sink)
            .execute(make_net, make_proto)
            .expect("valid plan");
        assert_eq!(
            sink.into_inner().expect("flush"),
            reference,
            "stream drifted ({threads} thread(s))"
        );
    }
}

#[test]
fn trajectory_recycling_keeps_curves_identical() {
    // Trajectory recording ships the recorded buffer inside the record;
    // the inline path recycles it back into the workspace afterwards.
    // Curves must match the fresh reference exactly either way.
    let make_net = || StaticNetwork::new(generators::cycle(24).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let mut sink = TrajectorySink::new(16);
    fresh_reference(make_net, make_proto, Engine::Event, 12, 5, Some(&mut sink));
    let reference = sink.into_curves();
    assert_eq!(reference.len(), 12);
    for threads in [1usize, 4] {
        let mut sink = TrajectorySink::new(16);
        RunPlan::new(12, 5)
            .threads(threads)
            .config(config())
            .observer(&mut sink)
            .execute(make_net, make_proto)
            .expect("valid plan");
        assert_eq!(
            sink.into_curves(),
            reference,
            "curves drifted ({threads} thread(s))"
        );
    }
}

#[test]
fn errors_propagate_identically_on_both_paths() {
    let make_net = || StaticNetwork::new(generators::path(3).unwrap());
    let fresh = EventSimulation::new(CutRateAsync::new(), config())
        .run(&mut make_net(), 99, &mut SimRng::seed_from_u64(1))
        .unwrap_err();
    let reused = RunPlan::new(8, 1)
        .threads(3)
        .start(99)
        .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap_err();
    for (label, err) in [("fresh", fresh), ("workspace", reused)] {
        assert!(
            matches!(err, SimError::StartOutOfRange { start: 99, n: 3 }),
            "{label}: unexpected error {err:?}"
        );
    }
}

#[test]
fn workspace_survives_heterogeneous_backends_in_one_worker() {
    // One worker's workspace must hand storage back and forth between
    // the closed-form (ShrinkPool) and Fenwick rate states without
    // corrupting either: a schedule alternating the *implicit* complete
    // backend with a materialized circulant forces the state switch at
    // every window boundary, so pools and the tree are parked in and
    // checked out of the same workspace repeatedly within one trial.
    let make_net = || {
        SequenceNetwork::cycling_topologies(vec![
            Topology::complete(18).unwrap(),
            Topology::materialized(generators::regular_circulant(18, 4).unwrap()),
        ])
        .unwrap()
    };
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let fresh = fresh_reference(make_net, make_proto, Engine::Event, 30, 33, None);
    for threads in [1usize, 4] {
        let reused = summarize(make_net, make_proto, Engine::Event, threads, 30, 33);
        assert_bit_identical(&fresh, &reused, &format!("mixed backends, {threads} thr"));
    }
}
