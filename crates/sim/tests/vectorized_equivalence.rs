//! Scalar vs vectorized inner-loop equivalence.
//!
//! The vectorized event loop ([`RunPlan::vectorized`]) replaces the
//! Fenwick sample/update walks with rejection sampling over
//! structure-of-arrays state and batches its uniform draws, so it
//! consumes the per-trial RNG stream in a different *order* than the
//! scalar reference — same distribution, different draws (the documented
//! draw-order change; precedent: PR 4's `erdos_renyi` note). These tests
//! enforce the contract from both sides:
//!
//! * **KS-equivalence** (α = 0.01) between scalar and vectorized
//!   spread-time samples, per engine × backend family;
//! * **bit-identical determinism** within one mode: same plan, any
//!   thread count, same summary — and rerunning the same plan replays it;
//! * **no-op cases** stay bit-identical across the flag: the window
//!   engine and closed-form (non-Fenwick) backends never take the fast
//!   loop.

use gossip_dynamics::{DynamicNetwork, StaticNetwork};
use gossip_graph::{generators, Topology};
use gossip_sim::{AnyProtocol, CutRateAsync, Engine, RunPlan};
use gossip_stats::ks;

const TRIALS: usize = 600;
const ALPHA: f64 = 0.01;

fn times(
    make_net: impl Fn() -> StaticNetwork + Sync,
    engine: Engine,
    vectorized: bool,
    threads: usize,
    seed: u64,
) -> Vec<f64> {
    let mut sink = gossip_sim::JsonlSink::new(Vec::new());
    let report = RunPlan::new(TRIALS, seed)
        .engine(engine)
        .threads(threads)
        .vectorized(vectorized)
        .observer(&mut sink)
        .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(report.trials(), TRIALS);
    report.sorted_times().to_vec()
}

fn assert_modes_ks_equivalent(make_net: impl Fn() -> StaticNetwork + Sync + Copy, seed: u64) {
    let scalar = times(make_net, Engine::Event, false, 1, seed);
    let fast = times(make_net, Engine::Event, true, 1, seed);
    assert_eq!(scalar.len(), fast.len());
    assert!(
        ks::same_distribution(&scalar, &fast, ALPHA),
        "KS distance {} exceeds critical {}",
        ks::ks_statistic(&scalar, &fast),
        ks::ks_critical(scalar.len(), fast.len(), ALPHA)
    );
}

#[test]
fn materialized_backend_scalar_vs_vectorized_ks() {
    // Irregular degrees (barbell) stress the 1/d_u + 1/d_v weights and
    // the rejection sampler's rmax bound.
    let g = generators::barbell(12).unwrap();
    let make = || StaticNetwork::new(generators::barbell(12).unwrap());
    assert_eq!(g.n(), make().n());
    assert_modes_ks_equivalent(make, 11);
    // A long-diameter cycle: Θ(n) spread times with a two-node frontier.
    assert_modes_ks_equivalent(|| StaticNetwork::new(generators::cycle(24).unwrap()), 1000);
}

#[test]
fn sampled_backend_scalar_vs_vectorized_ks() {
    // Lazily realized G(n, p) rows feed the word-level bitset scan via
    // `neighbors_slice`.
    let make = || {
        let n = 150;
        let p = 12.0 / (n as f64 - 1.0);
        StaticNetwork::from_topology(Topology::gnp(n, p, 424_242).unwrap())
    };
    assert_modes_ks_equivalent(make, 13);
}

#[test]
fn implicit_backend_scalar_vs_vectorized_ks() {
    // Implicit circulant lift: Fenwick state but no adjacency slice, so
    // the fast loop exercises its `for_each_neighbor` fallback.
    let make = || StaticNetwork::from_topology(Topology::circulant_lift(120, 4, 99).unwrap());
    assert!(make().n() == 120);
    assert_modes_ks_equivalent(make, 17);
}

#[test]
fn vectorized_summaries_bit_identical_across_threads() {
    for vectorized in [false, true] {
        let make = || {
            let n = 120;
            let p = 10.0 / (n as f64 - 1.0);
            StaticNetwork::from_topology(Topology::gnp(n, p, 777).unwrap())
        };
        let t1 = times(make, Engine::Event, vectorized, 1, 23);
        let tk = times(make, Engine::Event, vectorized, 4, 23);
        let again = times(make, Engine::Event, vectorized, 1, 23);
        assert_eq!(t1.len(), tk.len());
        for (a, b) in t1.iter().zip(&tk) {
            assert_eq!(a.to_bits(), b.to_bits(), "vectorized={vectorized}");
        }
        for (a, b) in t1.iter().zip(&again) {
            assert_eq!(a.to_bits(), b.to_bits(), "vectorized={vectorized}");
        }
    }
}

#[test]
fn window_engine_ignores_the_flag_bit_identically() {
    let make = || {
        let mut gen_rng = gossip_stats::SimRng::seed_from_u64(5);
        StaticNetwork::new(generators::random_connected_regular(80, 4, &mut gen_rng).unwrap())
    };
    let off = times(make, Engine::Window, false, 1, 29);
    let on = times(make, Engine::Window, true, 1, 29);
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn closed_form_backends_ignore_the_flag_bit_identically() {
    // Implicit complete graphs resolve to the closed-form state, never
    // the Fenwick state, so the fast loop must not engage and the RNG
    // stream must be untouched by the flag.
    let make = || StaticNetwork::from_topology(Topology::complete(64).unwrap());
    let off = times(make, Engine::Event, false, 1, 31);
    let on = times(make, Engine::Event, true, 1, 31);
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn vectorized_handles_incomplete_runs() {
    // Disconnected graph: the frontier drains without completing and the
    // cutoff must fire exactly as on the scalar path.
    use gossip_sim::{EventSimulation, IncrementalProtocol, RunConfig};
    let g = gossip_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
    for vectorized in [false, true] {
        let mut proto = CutRateAsync::new();
        proto.set_vectorized(vectorized);
        let mut sim = EventSimulation::new(proto, RunConfig::with_max_time(8.0));
        let mut net = StaticNetwork::new(g.clone());
        let mut rng = gossip_stats::SimRng::seed_from_u64(5);
        let o = sim.run(&mut net, 0, &mut rng).unwrap();
        assert!(!o.complete(), "vectorized={vectorized}");
        // The component of node 0 is {0, 1, 2}; cutoff 8.0 informs it whp.
        assert_eq!(o.informed_count(), 3, "vectorized={vectorized}");
        assert_eq!(o.windows(), 8);
    }
}

#[test]
fn vectorized_events_match_scalar_distributionally() {
    // Event counts: cut-rate resolves only informative events, so every
    // complete trial resolves exactly n - 1 of them in either mode.
    let n = 90;
    let make = move || {
        let p = 10.0 / (n as f64 - 1.0);
        StaticNetwork::from_topology(Topology::gnp(n, p, 31_337).unwrap())
    };
    for vectorized in [false, true] {
        let report = RunPlan::new(50, 41)
            .engine(Engine::Event)
            .vectorized(vectorized)
            .execute(make, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(report.completed(), 50);
        assert_eq!(report.events(), 50 * (n as u64 - 1));
        assert!(report.elapsed() > std::time::Duration::ZERO);
        assert!(report.events_per_sec() > 0.0);
    }
}
