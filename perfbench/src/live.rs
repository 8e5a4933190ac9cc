//! `live-bulk`: `NetPlan` on implicit K_n, n = 10⁵, push-pull, one node
//! group, local delivery, every trial run to completion.
//!
//! A request is one single-trial `NetPlan` batch (`gossip net run` of
//! one trial). As on the sweep, requests cycle through a pool of fresh
//! seeds: the first request of each is its miss, later ones are hits,
//! which must reproduce its records.
//! The traced pass adds the epoch-barrier diagnostics on the K_48
//! permanent-crash configuration.

use crate::report::{Gates, Layers, Phase, Report, Slice};
use crate::trace::Tracer;
use crate::{absorb_tap, check_outcomes, closed_loop, fnv, timed, Ctx, Tap, FNV_START};
use rumor_spreading::graph::{NodeId, Topology};
use rumor_spreading::net::{
    build_live_topology, DeliveryKind, NetConfig, NetFaults, NetPlan, NetProtocol, NetSweep,
};
use rumor_spreading::scenario::ScenarioSpec;
use std::collections::HashMap;
use std::time::Instant;

const N: usize = 100_000;

/// Node groups of the timed phase. Two groups meet at a barrier every
/// epoch, and on a 2-vCPU host shared with other tenants that made one
/// 15 s run up to 5× slower than the next; one group keeps actor
/// compute and transport and drops the barrier, which the traced pass
/// then measures at two groups (`net.groups2_s`, `net.sync_overhead`).
const GROUPS: usize = 1;

/// Distinct trial seeds per run. Requests cycle through them, so each
/// runs once as a miss and then again as hits, spread over the run.
const POOL: usize = 10;

/// Traffic counters summed over a pass.
#[derive(Default)]
struct Traffic {
    messages: u64,
    dropped: u64,
    blocked: u64,
    stalled: u64,
    epochs: u64,
    events: u64,
}

#[derive(Default)]
struct Pass {
    phase: Phase,
    traffic: Traffic,
    miss_digest: HashMap<u64, u64>,
    digests: Vec<u64>,
}

struct Net {
    topo: Topology,
    start: NodeId,
    config: NetConfig,
}

/// Set-up as `gossip net run` does it: parse and validate the spec,
/// compile its `[net]` table, build the live topology.
fn setup(ctx: &Ctx, t: &mut Tracer) -> Result<(Net, f64), String> {
    let text = format!(
        "name = \"perfbench-live-bulk\"\n\n[family]\nkind = \"complete\"\nbackend = \"implicit\"\n\n\
         [protocol]\nkind = \"async\"\n\n[sweep]\nsizes = [{N}]\ntrials = 1\nseed = {}\n\n\
         [net]\ngroups = {}\ndelivery = \"local\"\n",
        ctx.derive(3, 0),
        GROUPS
    );
    let (net, secs) = timed(|| {
        t.span("setup", 0, |t| {
            let spec = t
                .span("core.plan", 0, |_| ScenarioSpec::from_toml_str(&text))
                .map_err(|e| e.to_string())?;
            let config = NetSweep::new(&spec).map_err(|e| e.to_string())?.config();
            let (topo, start) = t
                .span("net.topology", 0, |_| build_live_topology(&spec.family, N))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(Net {
                topo,
                start,
                config,
            })
        })
    });
    Ok((net?, secs))
}

/// Runs one batch and returns its closed tap, stall count and wall time.
fn batch(
    plan: NetPlan,
    topo: &Topology,
    start: NodeId,
    t: &mut Tracer,
    id: u64,
    traffic: &mut Traffic,
) -> Result<(Tap, u64, f64), String> {
    let mut tap = Tap::new(false);
    let (report, secs) = timed(|| {
        t.span("net.execute", id, |_| {
            plan.execute_observed(topo, NetProtocol::PushPull, start, &mut [&mut tap])
        })
    });
    let report = report.map_err(|e| e.to_string())?;
    tap.close();
    let stalled = report.stalled().len() as u64;
    traffic.messages += report.messages();
    traffic.dropped += report.dropped();
    traffic.blocked += report.blocked();
    traffic.stalled += stalled;
    traffic.epochs += tap.windows;
    traffic.events += tap.events;
    Ok((tap, stalled, secs))
}

fn one_request(
    ctx: &Ctx,
    net: &Net,
    i: usize,
    t: &mut Tracer,
    pass: &mut Pass,
    gates: &mut Gates,
) -> Result<(), String> {
    let k = (i % POOL) as u64;
    let plan = NetPlan::new(1, ctx.derive(3, k)).config(net.config.clone());
    let (tap, stalled, secs) = t.span("request", i as u64, |t| {
        batch(plan, &net.topo, net.start, t, i as u64, &mut pass.traffic)
    })?;
    let slice = Slice {
        class: k,
        requests: 1,
        trials: tap.trials(),
        events: tap.events,
        secs,
    };
    absorb_tap(&mut pass.phase, &tap, 1, [slice]);
    pass.phase.failures.stalled += stalled;
    check_outcomes(gates, &tap, 1, stalled, true);
    let digest = fnv(FNV_START, tap.bytes());
    pass.digests.push(digest);
    if i >= POOL {
        pass.phase.hit_ms.push((k, secs * 1e3));
        gates.check(
            "a repeated request reproduces its first output byte for byte",
            pass.miss_digest.get(&k) == Some(&digest),
        );
    } else {
        pass.phase.miss_ms.push((k, secs * 1e3));
        pass.miss_digest.insert(k, digest);
    }
    Ok(())
}

/// Runs the workload: untraced timed phase, or the traced pass.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut gates = Gates::default();
    let mut net = None;
    let setup_s = crate::repeat_setup(|_| {
        let (n, secs) = setup(ctx, &mut Tracer::off())?;
        net = Some(n);
        Ok(secs)
    })?;
    let net = net.expect("at least one set-up");
    if !ctx.trace {
        let mut pass = Pass::default();
        let mut t = Tracer::off();
        closed_loop(ctx.seconds, 2 * POOL, |i| {
            one_request(ctx, &net, i, &mut t, &mut pass, &mut gates)
        })?;
        return Ok(Report {
            setup_s,
            digest: pass.digests[0],
            phase: pass.phase,
            layers: None,
            gates,
        });
    }

    // Each request runs untraced, then traced, under the same conditions.
    let mut reference = Pass::default();
    let mut pass = Pass::default();
    let mut off = Tracer::off();
    let mut t = Tracer::new(true, Instant::now());
    let (net, _) = setup(ctx, &mut t)?;
    closed_loop(ctx.seconds, 2, |i| {
        one_request(ctx, &net, i, &mut off, &mut reference, &mut gates)?;
        one_request(ctx, &net, i, &mut t, &mut pass, &mut gates)
    })?;
    gates.check(
        "tracing changes no result bit",
        pass.digests == reference.digests,
    );

    let mut layers = Layers::default();
    layers.set(
        "bench.trace_overhead",
        pass.phase.secs() / reference.phase.secs() - 1.0,
    );
    let traffic = &pass.traffic;
    layers.set("net.events", traffic.events as f64);
    layers.set("net.epochs", traffic.epochs as f64);
    layers.set("net.messages", traffic.messages as f64);
    layers.set(
        "net.delivered_ratio",
        (traffic.messages - traffic.dropped - traffic.blocked) as f64 / traffic.messages as f64,
    );
    layers.set("net.stalled", traffic.stalled as f64);

    // The first request again at two node groups: same records, plus
    // an epoch barrier.
    let plan = NetPlan::new(1, ctx.derive(3, 0)).config(NetConfig {
        groups: ctx.threads,
        ..net.config.clone()
    });
    let (tap, _, t2) = batch(
        plan,
        &net.topo,
        net.start,
        &mut Tracer::off(),
        0,
        &mut Traffic::default(),
    )?;
    gates.check(
        "live records are identical at groups = 1 and groups = 2",
        fnv(FNV_START, tap.bytes()) == reference.digests[0],
    );
    let t1 = reference.phase.miss_ms[0].1 / 1e3;
    layers.set("net.groups1_s", t1);
    layers.set("net.groups2_s", t2);
    layers.set("net.sync_overhead", t2 / t1);
    barrier(ctx, &mut layers, &mut gates)?;
    crate::trace_layers(&t, &mut layers, &pass.phase, ctx)?;
    Ok(Report {
        setup_s,
        digest: pass.digests[0],
        phase: pass.phase,
        layers: Some(layers),
        gates,
    })
}

/// Trials of the barrier-bound configuration (K_48 with permanent
/// crashes). Between a third and a half of its trials die, so all 16
/// ending alike has a probability below 0.2 %.
const BARRIER_TRIALS: usize = 16;

/// Trials of that configuration re-run over UDP.
const BARRIER_UDP_TRIALS: usize = 2;

/// The K_48 permanent-crash configuration of the live fault
/// cross-validation suite: ≈ 1 event per epoch, so the epoch barrier
/// dominates, at 2 groups against 1, and over UDP.
fn barrier(ctx: &Ctx, layers: &mut Layers, gates: &mut Gates) -> Result<(), String> {
    let topo = Topology::complete(48).map_err(|e| e.to_string())?;
    let config = |groups: usize| NetConfig {
        groups,
        horizon: 1e4,
        faults: NetFaults {
            crash_rate: 0.004,
            seed: 37,
            ..NetFaults::default()
        },
        ..NetConfig::default()
    };
    let seed = ctx.derive(4, 0);
    let mut traffic = Traffic::default();
    let mut off = Tracer::off();
    let plan = |groups: usize, trials: usize| NetPlan::new(trials, seed).config(config(groups));
    let (two, stalled, t2) = batch(
        plan(ctx.threads, BARRIER_TRIALS),
        &topo,
        0,
        &mut off,
        0,
        &mut traffic,
    )?;
    let (one, _, t1) = batch(
        plan(1, BARRIER_TRIALS),
        &topo,
        0,
        &mut off,
        0,
        &mut Traffic::default(),
    )?;
    check_outcomes(gates, &two, BARRIER_TRIALS as u64, stalled, false);
    gates.check(
        "barrier trials end in a mix: 0 < Died < trials",
        two.died > 0 && two.died < BARRIER_TRIALS as u64,
    );
    gates.check(
        "barrier records are identical at groups = 1 and groups = 2",
        one.bytes() == two.bytes(),
    );
    let local = plan(ctx.threads, BARRIER_UDP_TRIALS);
    let (_, _, local_s) = batch(local, &topo, 0, &mut off, 0, &mut Traffic::default())?;
    let udp = plan(ctx.threads, BARRIER_UDP_TRIALS).delivery(DeliveryKind::Udp);
    let (udp_tap, _, udp_s) = batch(udp, &topo, 0, &mut off, 0, &mut Traffic::default())?;
    gates.check(
        "barrier records are identical over UDP",
        two.bytes().starts_with(udp_tap.bytes()),
    );
    layers.set("net.barrier.execute_s", t2);
    layers.set("net.barrier.us_per_epoch", t2 / traffic.epochs as f64 * 1e6);
    layers.set("net.barrier.groups1_s", t1);
    layers.set("net.barrier.sync_overhead", t2 / t1);
    layers.set("net.barrier.udp_over_local", udp_s / local_s);
    layers.set("net.barrier.spread", two.spread as f64);
    layers.set("net.barrier.died", two.died as f64);
    Ok(())
}
