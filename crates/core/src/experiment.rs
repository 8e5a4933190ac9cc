//! The machine-readable experiment index.
//!
//! One entry per theorem/figure of the paper (plus the related-work
//! extensions), mapping the claim to the workspace modules that implement
//! it and the bench binary that regenerates it. `DESIGN.md` §7 and
//! `EXPERIMENTS.md` are the human-readable views of this catalog.

use serde::{Deserialize, Serialize};

/// One reproducible experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Short id (`E1`…`E11`, `X1`…`X5`).
    pub id: &'static str,
    /// The paper item being reproduced.
    pub paper_item: &'static str,
    /// The quantitative claim, in shape form.
    pub claim: &'static str,
    /// Workload description (families, sweeps).
    pub workload: &'static str,
    /// Key implementing modules.
    pub modules: &'static str,
    /// The bench binary (`cargo run -p gossip-bench --release --bin <X>`).
    pub bench_bin: &'static str,
}

/// The full experiment catalog, in paper order.
pub fn catalog() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            id: "E1",
            paper_item: "Theorem 1.1",
            claim: "spread time <= T(G,c) = min{t : sum Phi(G(p))*rho(p) >= C log n}, w.p. 1-n^-c",
            workload: "static expanders, dynamic star, alternating regular; n in {64..1024}",
            modules: "gossip_core::bounds::theorem_1_1, gossip_core::tracking, gossip_sim::CutRateAsync",
            bench_bin: "exp_e1",
        },
        ExperimentSpec {
            id: "E2",
            paper_item: "Theorem 1.2 + Observation 4.1",
            claim: "on G(n,rho): spread = Omega(n rho/k); Theorem 1.1 bound within o(log^2 n)",
            workload: "DiligentNetwork(n, rho), rho sweep at fixed n and n sweep at fixed rho",
            modules: "gossip_dynamics::DiligentNetwork, gossip_graph::generators::h_k_delta",
            bench_bin: "exp_e2",
        },
        ExperimentSpec {
            id: "E3",
            paper_item: "Theorem 1.3",
            claim: "spread time <= T_abs = min{t : sum ceil(Phi)*rho_abs >= 2n}, w.h.p.",
            workload: "same families as E1 plus the Section 5.1 network",
            modules: "gossip_core::bounds::theorem_1_3",
            bench_bin: "exp_e3",
        },
        ExperimentSpec {
            id: "E4",
            paper_item: "Theorem 1.5",
            claim: "on the absolutely rho-diligent family: spread = Omega(n/rho), matching T_abs up to O(1)",
            workload: "AbsoluteDiligentNetwork(n, rho), rho sweep and n sweep",
            modules: "gossip_dynamics::AbsoluteDiligentNetwork",
            bench_bin: "exp_e4",
        },
        ExperimentSpec {
            id: "E5",
            paper_item: "Remark 1.4",
            claim: "connected dynamic networks spread in O(n^2); the rho=Theta(1/n) family achieves Theta(n^2)",
            workload: "AbsoluteDiligentNetwork(n, ~10/n), n in {60..480}",
            modules: "gossip_dynamics::AbsoluteDiligentNetwork, gossip_core::predictions::remark_1_4_worst_case",
            bench_bin: "exp_e5",
        },
        ExperimentSpec {
            id: "E6",
            paper_item: "Theorem 1.7(i) / Figure 1(a)",
            claim: "Ta(G1) = Omega(n) but Ts(G1) = Theta(log n)",
            workload: "CliquePendant(n), sync vs async, n sweep",
            modules: "gossip_dynamics::CliquePendant, gossip_sim::{SyncPushPull, CutRateAsync}",
            bench_bin: "exp_e6",
        },
        ExperimentSpec {
            id: "E7",
            paper_item: "Theorem 1.7(ii) / Figure 1(b)",
            claim: "Ta(G2) = Theta(log n) but Ts(G2) = n exactly",
            workload: "DynamicStar(n), sync vs async, n sweep",
            modules: "gossip_dynamics::DynamicStar",
            bench_bin: "exp_e7",
        },
        ExperimentSpec {
            id: "E8",
            paper_item: "Theorem 1.7(iii)",
            claim: "Pr[T(G2) > 2k] <= e^{-k/2} + e^{-k}",
            workload: "DynamicStar tail over many trials, k sweep",
            modules: "gossip_core::predictions::dynamic_star_tail, gossip_sim::RunPlan",
            bench_bin: "exp_e8",
        },
        ExperimentSpec {
            id: "E9",
            paper_item: "Section 1.2 comparison vs [17]",
            claim: "alternating {d-regular, K_n}: [17] bound Theta(n log n), ours and truth O(log n)",
            workload: "AlternatingRegular(n), n sweep",
            modules: "gossip_core::bounds::giakkoupis_bound, gossip_dynamics::AlternatingRegular",
            bench_bin: "exp_e9",
        },
        ExperimentSpec {
            id: "E10",
            paper_item: "Lemma 5.2",
            claim: "on Delta-regular graphs within one unit: E[I_tau] = Theta(1), Var[I_tau] = Theta(1)",
            workload: "regular_circulant(m, Delta), Delta sweep, single window",
            modules: "gossip_sim::TwoPush, gossip_stats::RunningMoments",
            bench_bin: "exp_e10",
        },
        ExperimentSpec {
            id: "E11",
            paper_item: "Lemma 4.2 / Claim 4.3",
            claim: "P[string crossed in one unit] <= 2^k * Delta / k!",
            workload: "bipartite string S_0..S_k, k sweep, forward 2-push",
            modules: "gossip_sim::ForwardTwoPush, gossip_core::predictions::lemma_4_2_crossing_bound",
            bench_bin: "exp_e11",
        },
        ExperimentSpec {
            id: "X1",
            paper_item: "Related work [7] (extension)",
            claim: "edge-Markovian, p = Omega(1/n), constant q: push spreads in O(log n) rounds",
            workload: "EdgeMarkovian(n, c/n, q), n sweep",
            modules: "gossip_dynamics::EdgeMarkovian, gossip_sim::AsyncPush",
            bench_bin: "exp_x1",
        },
        ExperimentSpec {
            id: "X2",
            paper_item: "Related work [20, 22] (extension)",
            claim: "mobile agents on a torus: spread time scales with grid size / density",
            workload: "MobileAgents(k, grid, radius), density sweep",
            modules: "gossip_dynamics::MobileAgents",
            bench_bin: "exp_x2",
        },
        ExperimentSpec {
            id: "X3",
            paper_item: "Inequality (3) / Equation (1) (validation)",
            claim: "lambda(gamma) >= Phi*rho*min{I,U} and lambda_abs >= ceil(Phi)*rho_abs at every window",
            workload: "small dynamic families, exact profiles, every traversed (graph, informed) pair",
            modules: "gossip_graph::cut::{pushpull_cut_rate, absolute_cut_rate}, gossip_dynamics::profile::exact_profile",
            bench_bin: "exp_x3",
        },
        ExperimentSpec {
            id: "X4",
            paper_item: "Robustness motivation [11, 14] (extension)",
            claim: "i.i.d. loss f rescales time by exactly 1/(1-f); correlated downtime costs strictly more",
            workload: "LossyAsync on a 6-regular expander, loss sweep + downtime comparison",
            modules: "gossip_sim::LossyAsync",
            bench_bin: "exp_x4",
        },
        ExperimentSpec {
            id: "X5",
            paper_item: "Section 1.1 / [16] contrast (extension)",
            claim: "static graphs: Ta = O(Ts + log n) [16]; the dynamic G1 breaks the relation",
            workload: "static topology portfolio + CliquePendant(n), sync vs async",
            modules: "gossip_sim::{SyncPushPull, CutRateAsync}, gossip_dynamics::CliquePendant",
            bench_bin: "exp_x5",
        },
    ]
}

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<ExperimentSpec> {
    catalog().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_theorems() {
        let ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
        for required in [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "X1", "X2", "X3",
            "X4", "X5",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn ids_unique() {
        let mut ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn every_entry_fully_described() {
        for e in catalog() {
            assert!(!e.claim.is_empty());
            assert!(!e.workload.is_empty());
            assert!(!e.modules.is_empty());
            assert!(e.bench_bin.starts_with("exp_"), "{}", e.bench_bin);
        }
    }

    #[test]
    fn find_works() {
        assert_eq!(
            find("E7").unwrap().paper_item,
            "Theorem 1.7(ii) / Figure 1(b)"
        );
        assert!(find("E99").is_none());
    }
}
