//! `sweep-static`: `SweepPlan` on sampled G(n, p), event engine.
//!
//! A request compiles one spec and runs its sweep with a `JsonlSink`
//! attached, cold, as `gossip scenario run` does. Requests cycle through
//! a pool of specs with fresh seeds: the first request of each spec is
//! its miss, later ones are hits. Nothing on this path caches results,
//! so a hit re-executes and must reproduce its miss's JSONL byte for
//! byte. The traced pass adds the alternating-family diagnostics.

use crate::report::{Gates, Layers, Phase, Report, Slice};
use crate::stats::class_best;
use crate::trace::Tracer;
use crate::{absorb_tap, check_outcomes, closed_loop, fnv, timed, Ctx, Tap, FNV_START};
use rumor_spreading::bounds::journal::{JournalCell, JournalHeader, JournalWriter};
use rumor_spreading::graph::NodeSet;
use rumor_spreading::scenario::{
    build_family, ScenarioPlan, ScenarioRow, ScenarioSpec, TopologyCache,
};
use rumor_spreading::stats::SimRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Network size of the static sweep (the `gnp-sparse.toml` shape).
const N: usize = 100_000;

/// Trials per request: the `gnp-sparse.toml` cell.
const TRIALS: usize = 20;

/// Distinct specs per run. Requests cycle through them, so each runs
/// once as a miss and then again as hits, spread over the run.
const POOL: usize = 8;

/// Network size of the alternating-family diagnostic.
const DYNAMIC_N: usize = 512;

/// Trials of the alternating-family diagnostic, ≈ 0.5–1.5 s each.
const DYNAMIC_TRIALS: usize = 2;

/// The spec of distinct request `k`, as TOML text: sampled G(n, p) with
/// np = 20, or, when `dynamic`, the Section 1.2 alternating
/// {3-regular, K_n} network.
fn spec_text(ctx: &Ctx, k: u64, dynamic: bool) -> String {
    let (name, family, n, trials) = if dynamic {
        (
            "alternating",
            "kind = \"alternating\"",
            DYNAMIC_N,
            DYNAMIC_TRIALS,
        )
    } else {
        (
            "sweep-static",
            "kind = \"er\"\np = 2e-4\nbackend = \"sampled\"",
            N,
            TRIALS,
        )
    };
    let stream = if dynamic { 10 } else { 0 };
    format!(
        "name = \"perfbench-{name}\"\n\n[family]\n{family}\nbuild_seed = {}\n\n\
         [protocol]\nkind = \"async\"\n\n[sweep]\nsizes = [{n}]\ntrials = {trials}\nseed = {}\n\
         max_time = 1e4\nengine = \"event\"\nthreads = {}\n",
        ctx.derive(stream + 2, k),
        ctx.derive(stream + 1, k),
        crate::TIMED_THREADS,
    )
}

fn compile(text: &str) -> Result<ScenarioPlan, String> {
    ScenarioSpec::from_toml_str(text)
        .and_then(ScenarioPlan::new)
        .map_err(|e| e.to_string())
}

/// Per-pass bookkeeping.
#[derive(Default)]
struct Pass {
    phase: Phase,
    miss_digest: HashMap<u64, u64>,
    digests: Vec<u64>,
    /// Each traced request's plan, output and report row.
    traced: Vec<(ScenarioPlan, Tap, ScenarioRow)>,
}

fn one_request(
    ctx: &Ctx,
    i: usize,
    t: &mut Tracer,
    pass: &mut Pass,
    gates: &mut Gates,
) -> Result<(), String> {
    let k = (i % POOL) as u64;
    let hit = i >= POOL;
    let text = spec_text(ctx, k, false);
    let start = Instant::now();
    let (result, secs) = timed(|| {
        t.span("request", i as u64, |t| {
            let plan = t.span("core.plan", i as u64, |_| compile(&text))?;
            let mut tap = Tap::new(t.is_on());
            let report = t
                .span("sim.execute", i as u64, |_| {
                    plan.execution().run_with(&mut tap)
                })
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((plan, tap, report))
        })
    });
    let (plan, mut tap, report) = result?;
    tap.close();
    let planned = TRIALS as u64;
    absorb_tap(
        &mut pass.phase,
        &tap,
        planned,
        trial_slices(k, start, secs, &tap),
    );
    check_outcomes(gates, &tap, planned, 0, true);
    let digest = fnv(FNV_START, tap.bytes());
    pass.digests.push(digest);
    if hit {
        pass.phase.hit_ms.push((k, secs * 1e3));
        gates.check(
            "a repeated request reproduces its first output byte for byte",
            pass.miss_digest.get(&k) == Some(&digest),
        );
    } else {
        pass.phase.miss_ms.push((k, secs * 1e3));
        pass.miss_digest.insert(k, digest);
    }
    if t.is_on() {
        let row = report
            .rows
            .into_iter()
            .next()
            .ok_or("a sweep without rows")?;
        pass.traced.push((plan, tap, row));
    }
    Ok(())
}

/// Cuts a request that started at `start` and took `secs` into one
/// slice per trial, at the times its records arrived; the last slice
/// runs to the end of the request. Slice `j` of spec `k` has class
/// `k · 2¹⁶ + j`, so each trial is counted at its fastest run.
fn trial_slices(k: u64, start: Instant, secs: f64, tap: &Tap) -> Vec<Slice> {
    let end = start + Duration::from_secs_f64(secs);
    let last = tap.arrivals.len().saturating_sub(1);
    let mut from = start;
    let mut slices = Vec::new();
    for (j, &(at, events)) in tap.arrivals.iter().enumerate() {
        let to = if j == last { end } else { at };
        slices.push(Slice {
            class: k << 16 | j as u64,
            requests: u64::from(j == last),
            trials: 1,
            events,
            secs: to.duration_since(from).as_secs_f64(),
        });
        from = to;
    }
    slices
}

/// Replaces each request latency by the sum, over the request's trials,
/// of each trial's fastest slice in the run.
fn trial_best_latencies(phase: &mut Phase) {
    let timed: Vec<(u64, f64)> = phase.slices.iter().map(|s| (s.class, s.secs)).collect();
    let mut request: HashMap<u64, f64> = HashMap::new();
    let mut seen = HashSet::new();
    for ((class, _), best) in timed.iter().zip(class_best(&timed)) {
        if seen.insert(*class) {
            *request.entry(class >> 16).or_default() += best * 1e3;
        }
    }
    for (k, ms) in phase.hit_ms.iter_mut().chain(phase.miss_ms.iter_mut()) {
        if let Some(&best) = request.get(k) {
            *ms = best;
        }
    }
}

/// Runs the workload: untraced timed phase, or the traced pass.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut gates = Gates::default();
    // Set-up: plan compile plus network construction for the first spec.
    let setup = |t: &mut Tracer| -> Result<f64, String> {
        let (r, secs) = timed(|| {
            t.span("setup", 0, |t| {
                let plan = t.span("core.plan", 0, |_| compile(&spec_text(ctx, 0, false)))?;
                let net = t
                    .span("graph.build", 0, |_| build_family(&plan.spec().family, N))
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(net.n())
            })
        });
        r?;
        Ok(secs)
    };
    let setup_s = crate::repeat_setup(|_| setup(&mut Tracer::off()))?;
    if !ctx.trace {
        let mut pass = Pass::default();
        let mut t = Tracer::off();
        closed_loop(ctx.seconds, 2 * POOL, |i| {
            one_request(ctx, i, &mut t, &mut pass, &mut gates)
        })?;
        trial_best_latencies(&mut pass.phase);
        return Ok(Report {
            setup_s,
            digest: pass.digests[0],
            phase: pass.phase,
            layers: None,
            gates,
        });
    }

    // Traced pass: each request runs untraced, then traced, so the two
    // sides see the same conditions; then the single-layer diagnostics.
    let mut reference = Pass::default();
    let mut pass = Pass::default();
    let mut off = Tracer::off();
    let mut t = Tracer::new(true, Instant::now());
    setup(&mut t)?;
    closed_loop(ctx.seconds, 2, |i| {
        one_request(ctx, i, &mut off, &mut reference, &mut gates)?;
        one_request(ctx, i, &mut t, &mut pass, &mut gates)
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
    per_request_layers(ctx, &mut t, &pass, &mut layers)?;
    diagnostics(ctx, &pass, &mut layers, &mut gates)?;
    dynamic_layers(ctx, &mut t, &mut layers, &mut gates)?;
    crate::trace_layers(&t, &mut layers, &pass.phase, ctx)?;
    Ok(Report {
        setup_s,
        digest: pass.digests[0],
        phase: pass.phase,
        layers: Some(layers),
        gates,
    })
}

/// Observer costs, outcomes and journal writes over each traced request.
fn per_request_layers(
    ctx: &Ctx,
    t: &mut Tracer,
    pass: &Pass,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut sim_events = 0;
    let mut sim_windows = 0;
    for (i, (plan, tap, row)) in pass.traced.iter().enumerate() {
        let id = i as u64;
        sim_events += tap.events;
        sim_windows += tap.windows;
        layers.add("sim.observe_ms", tap.observe_s * 1e3);
        layers.add("sim.observe_bytes", tap.bytes().len() as f64);
        layers.add("sim.spread", tap.spread as f64);
        layers.add("sim.died", tap.died as f64);
        layers.add("sim.budget", tap.budget as f64);
        layers.add("sim.trial_errors", tap.trial_errors as f64);
        let path = ctx.workdir.join(format!("journal-{i}.jsonl"));
        t.span("core.journal_write", id, |_| {
            let header = JournalHeader {
                scenario: plan.spec().name.clone(),
                spec_hash: plan.spec_hash(),
                spec: plan.spec().clone(),
            };
            let mut w = JournalWriter::create(&path, &header).map_err(|e| e.to_string())?;
            w.append_cell(&JournalCell {
                index: 0,
                n: N,
                row: row.clone(),
                records: tap.records.clone(),
            })
            .map_err(|e| e.to_string())
        })?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        layers.add(
            "core.journal_bytes",
            bytes as f64 / pass.traced.len() as f64,
        );
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    }
    layers.set("sim.events", sim_events as f64);
    layers.set("sim.windows", sim_windows as f64);
    Ok(())
}

/// Runs `spec` as a sweep, on a shared topology cache if given; returns
/// its closed tap, which keeps the records when `keep`, and wall time.
fn run_spec(
    spec: &ScenarioSpec,
    cache: Option<&Arc<TopologyCache>>,
    keep: bool,
) -> Result<(Tap, f64), String> {
    let plan = ScenarioPlan::new(spec.clone()).map_err(|e| e.to_string())?;
    let mut tap = Tap::new(keep);
    let (r, secs) = timed(|| {
        let mut sweep = plan.execution();
        if let Some(c) = cache {
            sweep = sweep.topologies(c.clone());
        }
        sweep.run_with(&mut tap)
    });
    r.map_err(|e| e.to_string())?;
    tap.close();
    Ok((tap, secs))
}

/// Cold vs warm topology, one thread vs the thread budget.
fn diagnostics(
    ctx: &Ctx,
    pass: &Pass,
    layers: &mut Layers,
    gates: &mut Gates,
) -> Result<(), String> {
    let first = pass.traced[0].1.bytes();
    // The first request's cell, on the whole thread budget and on one
    // thread.
    let mut spec = compile(&spec_text(ctx, 0, false))?.spec().clone();
    spec.sweep.threads = Some(ctx.threads);
    let (parallel, tp) = run_spec(&spec, None, false)?;
    let cache = Arc::new(TopologyCache::new());
    let (miss, _) = run_spec(&spec, Some(&cache), false)?;
    let (warm, tw) = run_spec(&spec, Some(&cache), false)?;
    layers.set("graph.realize_s", tp - tw);
    layers.set("graph.cache_hits", cache.hits() as f64);
    layers.set("graph.cache_misses", cache.misses() as f64);
    gates.check(
        "a warm topology cache changes no result bit",
        miss.bytes() == parallel.bytes() && warm.bytes() == parallel.bytes(),
    );
    spec.sweep.threads = Some(1);
    let (one, t1) = run_spec(&spec, None, false)?;
    layers.set("sim.threads1_s", t1);
    layers.set("sim.parallel_eff", t1 / (ctx.threads as f64 * tp));
    gates.check(
        "thread count changes no result bit",
        one.bytes() == parallel.bytes() && parallel.bytes() == first,
    );
    Ok(())
}

/// The Section 1.2 alternating {3-regular, K_n} family at n = 512 on
/// the event engine, which swaps Θ(n²) edges every window: network
/// construction, stepping a fresh network through as many windows as
/// the trials reported, and the same trials on `Engine::Window`.
fn dynamic_layers(
    ctx: &Ctx,
    t: &mut Tracer,
    layers: &mut Layers,
    gates: &mut Gates,
) -> Result<(), String> {
    let mut spec = compile(&spec_text(ctx, 0, true))?.spec().clone();
    let (event, event_s) = run_spec(&spec, None, true)?;
    check_outcomes(gates, &event, DYNAMIC_TRIALS as u64, 0, true);
    layers.set("sim.dynamic_execute_s", event_s);
    let mut net = t
        .span("dynamics.build", 0, |_| {
            build_family(&spec.family, DYNAMIC_N)
        })
        .map_err(|e| e.to_string())?;
    let informed = NodeSet::new(DYNAMIC_N);
    let (windows, delta_edges) = t.span("dynamics.advance", 0, |_| {
        let (mut windows, mut edges) = (0u64, 0u64);
        for record in &event.records {
            net.reset();
            let mut rng = SimRng::seed_from_u64(record.seed);
            net.topology(0, &informed, &mut rng);
            for w in 1..=record.windows {
                match net.edges_changed(w, &informed, &mut rng) {
                    Some(delta) => edges += delta.len() as u64,
                    // No diff: the engine rebuilds from the full topology.
                    None => edges += net.topology(w, &informed, &mut rng).m() as u64,
                }
                windows += 1;
            }
        }
        (windows, edges)
    });
    layers.set("dynamics.windows", windows as f64);
    layers.set("dynamics.delta_edges", delta_edges as f64);
    spec.sweep.engine = Some("window".into());
    let (_, window_s) = run_spec(&spec, None, false)?;
    layers.set("sim.window_engine_s", window_s);
    Ok(())
}
