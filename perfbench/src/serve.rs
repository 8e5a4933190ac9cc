//! `serve-replay`: an in-process `Server` on loopback with a fresh store,
//! driven by closed-loop clients.
//!
//! The timed phase runs in rounds of a fixed request mix. A round opens
//! with two clients sending one simultaneous identical pair; then one
//! client sends the rest of the mix in a seeded order, each request only
//! after the previous response ends. A round holds:
//!
//! * hits on a seeded catalogue of implicit-complete sweeps whose
//!   journals range from ≈ 4 KB to ≈ 160 KB, ≈ 24 KB entries most often;
//! * misses on fresh seeds, from ≈ 4 KB to ≈ 650 KB;
//! * one simultaneous identical pair (a miss plus a join);
//! * one resume of a journal cut back to its first cell.
//!
//! Every hit, join and resume body must equal that spec's miss body.

use crate::report::{Gates, Layers, Phase, Report, Slice};
use crate::trace::Tracer;
use crate::{fnv, timed, Ctx, FNV_START};
use rumor_spreading::bounds::journal::{Journal, JournalCell, JournalHeader, JournalWriter};
use rumor_spreading::scenario::{
    FamilySpec, ProtocolSpec, ScenarioPlan, ScenarioReport, ScenarioSpec, SweepSpec,
};
use rumor_spreading::serve::{plan_for, ResultStore, Server, ServerHandle};
use rumor_spreading::sim::TrialRecord;
use rumor_spreading::stats::SimRng;
use serde::Deserialize;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Network size of every catalogue sweep (implicit K_n: cheap trials,
/// so journal size, not simulation, sets the cost of a hit).
const N: usize = 64;

/// Catalogue entries: `(trials, hits per round)`, ≈ 160 journal bytes
/// per trial. The counts put the median hit in the middle of the
/// 150-trial class and the 90th percentile in the middle of the
/// 400-trial class, away from class boundaries, where a percentile
/// would jump from run to run.
const HIT_MIX: &[(usize, usize)] = &[(25, 3), (60, 4), (150, 15), (400, 7), (1000, 1)];

/// Catalogue entries per trial count.
const ENTRIES: usize = 2;

/// Fresh-seed misses per round, by trial count.
const MISS_MIX: &[usize] = &[25, 400, 1000, 1000, 1000, 4000];

/// Trials of the simultaneous identical pair.
const JOIN_TRIALS: usize = 1000;

/// Trials per cell of the two-cell resume shape.
const RESUME_TRIALS: usize = 25;

fn spec(name: &str, trials: usize, sizes: Vec<usize>, seed: u64) -> ScenarioSpec {
    let mut family = FamilySpec::new("complete");
    family.backend = Some("implicit".into());
    let mut sweep = SweepSpec::over(sizes);
    sweep.trials = Some(trials);
    sweep.seed = Some(seed);
    sweep.engine = Some("event".into());
    sweep.threads = Some(1);
    ScenarioSpec {
        name: format!("perfbench-{name}-{trials}"),
        description: None,
        family,
        protocol: ProtocolSpec::new("async"),
        sweep,
        faults: None,
        net: None,
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
enum Item {
    /// Catalogue entry `index`.
    Hit(usize),
    /// A fresh spec.
    Miss(ScenarioSpec),
    /// A fresh two-cell spec whose journal is then cut back to one cell
    /// for the next round's resume.
    MissForResume(ScenarioSpec),
    /// The spec whose journal the previous round cut back.
    Resume(ScenarioSpec),
    /// One half of the simultaneous identical pair.
    Pair(ScenarioSpec),
}

/// A response as the client saw it.
#[derive(Debug)]
struct Response {
    cache: String,
    body: Vec<u8>,
    secs: f64,
}

/// What the clients report back per request.
#[derive(Debug)]
struct Done {
    id: u64,
    item: Item,
    /// When the request was sent.
    sent: Instant,
    response: Option<Response>,
}

impl Item {
    fn spec<'d>(&'d self, daemon: &'d Daemon) -> &'d ScenarioSpec {
        match self {
            Item::Hit(i) => &daemon.catalogue[*i],
            Item::Miss(s) | Item::MissForResume(s) | Item::Resume(s) | Item::Pair(s) => s,
        }
    }
}

struct Daemon {
    handle: ServerHandle,
    store: ResultStore,
    dir: PathBuf,
    catalogue: Vec<ScenarioSpec>,
    catalogue_hash: Vec<u64>,
    /// Miss bodies by spec hash: what every later body must equal.
    reference: HashMap<u64, Vec<u8>>,
    /// Spec of the journal cut back to its first cell.
    partial: ScenarioSpec,
    digest: u64,
}

fn request_line(spec: &ScenarioSpec) -> String {
    let mut line = serde_json::to_string(spec);
    line.push('\n');
    line
}

fn hash_of(spec: &ScenarioSpec) -> Result<u64, String> {
    plan_for(spec.clone())
        .map(|p| p.spec_hash())
        .map_err(|e| e.to_string())
}

/// Sends one request and reads the whole response, timing the header
/// (`serve.ttfb`) and the body (`serve.body`).
fn exchange(addr: SocketAddr, line: &str, t: &mut Tracer, id: u64) -> std::io::Result<Response> {
    let clock = Instant::now();
    let mut header = Vec::new();
    let mut reader = t.span("serve.ttfb", id, |_| {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(line.as_bytes())?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        reader.read_until(b'\n', &mut header)?;
        Ok::<_, std::io::Error>(reader)
    })?;
    let mut body = Vec::new();
    t.span("serve.body", id, |_| reader.read_to_end(&mut body))?;
    let header = String::from_utf8_lossy(&header);
    let cache = header
        .split("\"cache\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("error")
        .to_string();
    Ok(Response {
        cache,
        body,
        secs: clock.elapsed().as_secs_f64(),
    })
}

/// Cuts a journal back to its header and first cell, as a daemon killed
/// mid-sweep leaves it.
fn cut_to_first_cell(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut newlines = text.iter().enumerate().filter(|(_, &b)| b == b'\n');
    let end = newlines
        .nth(1)
        .map(|(i, _)| i + 1)
        .ok_or("journal has fewer than two lines")?;
    std::fs::write(path, &text[..end]).map_err(|e| e.to_string())
}

fn start(ctx: &Ctx, rep: usize, t: &mut Tracer) -> Result<Daemon, String> {
    let dir = ctx.workdir.join(format!("store-{rep}"));
    let handle = t
        .span("serve.start", 0, |_| {
            Server::bind("127.0.0.1:0", &dir).and_then(Server::spawn)
        })
        .map_err(|e| e.to_string())?;
    let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let mut daemon = Daemon {
        handle,
        store,
        dir,
        catalogue: Vec::new(),
        catalogue_hash: Vec::new(),
        reference: HashMap::new(),
        partial: spec("resume", RESUME_TRIALS, vec![N, N / 2], ctx.derive(6, 0)),
        digest: FNV_START,
    };
    let mut seeding = Vec::new();
    for (shape, &(trials, _)) in HIT_MIX.iter().enumerate() {
        for e in 0..ENTRIES {
            let s = spec(
                "hit",
                trials,
                vec![N],
                ctx.derive(5, (shape * ENTRIES + e) as u64),
            );
            daemon.catalogue_hash.push(hash_of(&s)?);
            daemon.catalogue.push(s.clone());
            seeding.push(s);
        }
    }
    seeding.push(daemon.partial.clone());
    t.span("serve.seed", 0, |_| {
        for (i, s) in seeding.iter().enumerate() {
            let r = exchange(
                daemon.handle.addr(),
                &request_line(s),
                &mut Tracer::off(),
                i as u64,
            )
            .map_err(|e| format!("seeding the store: {e}"))?;
            if r.cache != "miss" || error_line(&r.body) {
                return Err(format!(
                    "seeding the store: `{}` answered {}",
                    s.name, r.cache
                ));
            }
            daemon.digest = fnv(daemon.digest, &r.body);
            daemon.reference.insert(hash_of(s)?, r.body);
        }
        let hash = hash_of(&daemon.partial)?;
        cut_to_first_cell(&daemon.store.entry_path(hash))
    })?;
    Ok(daemon)
}

fn stop(daemon: Daemon) -> Result<(), String> {
    daemon.handle.shutdown().map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&daemon.dir).map_err(|e| e.to_string())
}

fn error_line(body: &[u8]) -> bool {
    body.windows(16).any(|w| w == b"{\"kind\":\"error\"")
}

/// Trial records in a body and the events they report.
fn count_records(body: &[u8]) -> (u64, u64) {
    let (mut trials, mut events) = (0, 0);
    for line in body.split(|&b| b == b'\n') {
        if !line.starts_with(b"{\"trial\":") {
            continue;
        }
        trials += 1;
        let text = String::from_utf8_lossy(line);
        if let Some(rest) = text.split("\"events\":").nth(1) {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            events += digits.parse::<u64>().unwrap_or(0);
        }
    }
    (trials, events)
}

/// The round-`r` queue: the fixed mix in a seeded order.
fn round_items(ctx: &Ctx, daemon: &Daemon, r: u64) -> (Vec<Item>, ScenarioSpec) {
    let mut items = Vec::new();
    let mut entry = 0;
    for &(_, per_round) in HIT_MIX {
        for j in 0..per_round {
            items.push(Item::Hit(entry + (j + r as usize) % ENTRIES));
        }
        entry += ENTRIES;
    }
    for (j, &trials) in MISS_MIX.iter().enumerate() {
        let seed = ctx.derive(7, r * 64 + j as u64);
        items.push(Item::Miss(spec("miss", trials, vec![N], seed)));
    }
    let next = spec(
        "resume",
        RESUME_TRIALS,
        vec![N, N / 2],
        ctx.derive(6, r + 1),
    );
    items.push(Item::MissForResume(next));
    items.push(Item::Resume(daemon.partial.clone()));
    SimRng::seed_from_u64(ctx.derive(8, r)).shuffle(&mut items);
    let pair = spec("pair", JOIN_TRIALS, vec![N], ctx.derive(9, r));
    (items, pair)
}

/// One client: the pair half, sent with the other client's, then, if
/// `drains`, queue items until the queue is empty. Request ids come from
/// `ids`, shared by both clients.
fn client(
    daemon: &Daemon,
    pair: &ScenarioSpec,
    queue: &Mutex<VecDeque<Item>>,
    drains: bool,
    barrier: &Barrier,
    ids: &AtomicU64,
    t: &mut Tracer,
) -> Vec<Done> {
    let addr = daemon.handle.addr();
    let mut done = Vec::new();
    let mut send = |item: Item, t: &mut Tracer| {
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let line = request_line(item.spec(daemon));
        let sent = Instant::now();
        let response = t.span("request", id, |t| exchange(addr, &line, t, id)).ok();
        if let (Item::MissForResume(s), Some(r)) = (&item, &response) {
            if r.cache == "miss" {
                if let Ok(hash) = hash_of(s) {
                    // A failed cut shows up as a non-resume next round.
                    let _ = cut_to_first_cell(&daemon.store.entry_path(hash));
                }
            }
        }
        done.push(Done {
            id,
            item,
            sent,
            response,
        });
    };
    barrier.wait();
    send(Item::Pair(pair.clone()), t);
    // Both halves end before the rest of the mix starts.
    barrier.wait();
    if drains {
        loop {
            let next = queue.lock().expect("queue lock poisoned").pop_front();
            let Some(item) = next else { break };
            send(item, t);
        }
    }
    done
}

/// Repeats, one request at a time after the traced rounds, the calls
/// the daemon makes per request, so each layer is timed on its own:
/// spec parse and plan compile, `plan_for`, and for hits the store
/// lookup and journal load, for misses the journal write. Returns the
/// journals written and their bytes.
fn probe_layers(daemon: &Daemon, served: &[Done], t: &mut Tracer) -> (u64, u64) {
    let (mut journals, mut bytes) = (0, 0);
    for d in served {
        let (id, spec) = (d.id, d.item.spec(daemon));
        let line = request_line(spec);
        let Ok(plan) = t.span("core.plan", id, |_| {
            ScenarioSpec::from_json_str(&line).and_then(ScenarioPlan::new)
        }) else {
            continue;
        };
        let Ok(plan) = t.span("serve.plan", id, |_| plan_for(plan.spec().clone())) else {
            continue;
        };
        let Some(r) = &d.response else { continue };
        match r.cache.as_str() {
            "hit" => {
                t.span("serve.lookup", id, |_| daemon.store.classify(&plan));
                let path = daemon.store.entry_path(plan.spec_hash());
                let _ = t.span("core.journal_load", id, |_| Journal::load(&path));
            }
            "miss" => {
                if let Some(b) = journal_write(daemon, spec, r, t, id) {
                    journals += 1;
                    bytes += b;
                }
            }
            _ => {}
        }
    }
    (journals, bytes)
}

/// Re-journals a fresh response's cells with `JournalWriter`, as the
/// daemon does for a miss; returns the journal's size.
fn journal_write(
    daemon: &Daemon,
    spec: &ScenarioSpec,
    r: &Response,
    t: &mut Tracer,
    id: u64,
) -> Option<u64> {
    let mut records = Vec::new();
    let mut report = None;
    for line in r.body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let text = String::from_utf8_lossy(line);
        if line.starts_with(b"{\"trial\":") {
            records.push(serde_json::from_str::<TrialRecord>(&text).ok()?);
        } else if let Ok(value) = serde_json::parse_value(&text) {
            report = value
                .get("report")
                .and_then(|v| ScenarioReport::from_value(v).ok());
        }
    }
    let report = report?;
    let hash = hash_of(spec).ok()?;
    let path = daemon.dir.with_extension(format!("rewrite-{id}"));
    let written = t.span("core.journal_write", id, |_| {
        let header = JournalHeader {
            scenario: spec.name.clone(),
            spec_hash: hash,
            spec: spec.clone(),
        };
        let mut w = JournalWriter::create(&path, &header)?;
        for (index, (&n, row)) in spec.sweep.sizes.iter().zip(&report.rows).enumerate() {
            w.append_cell(&JournalCell {
                index,
                n,
                row: row.clone(),
                records: records.iter().filter(|rec| rec.n == n).cloned().collect(),
            })?;
        }
        Ok::<_, rumor_spreading::scenario::ScenarioError>(())
    });
    let bytes = written
        .ok()
        .and_then(|()| std::fs::metadata(&path).ok())
        .map(|m| m.len());
    let _ = std::fs::remove_file(&path);
    bytes
}

/// The class of a request: its kind and its catalogue entry (hits) or
/// trial count (the rest). Requests of one class do the same work.
fn class_of(item: &Item) -> u64 {
    let (kind, index) = match item {
        Item::Hit(i) => (0, *i),
        Item::Miss(s) => (1, s.sweep.trials_or_default()),
        Item::MissForResume(s) => (2, s.sweep.trials_or_default()),
        Item::Resume(s) => (3, s.sweep.trials_or_default()),
        Item::Pair(s) => (4, s.sweep.trials_or_default()),
    };
    kind << 32 | index as u64
}

/// Cuts a round into slices: the simultaneous pair, from the start of
/// the round to the draining client's next send, then each drained
/// request up to the send after it (the last up to `end`).
fn round_slices(dones: &[Done], pair: &ScenarioSpec, start: Instant, end: Instant) -> Vec<Slice> {
    let work = |d: &Done| {
        d.response
            .as_ref()
            .map_or((0, 0), |r| count_records(&r.body))
    };
    let drained = dones.len().saturating_sub(2);
    let sent = |j: usize| if j <= drained { dones[j].sent } else { end };
    let mut slices = Vec::with_capacity(drained + 1);
    let halves = [dones.first(), dones.last()];
    let (trials, events) = halves
        .into_iter()
        .flatten()
        .map(work)
        .fold((0, 0), |(t, e), (dt, de)| (t + dt, e + de));
    slices.push(Slice {
        class: class_of(&Item::Pair(pair.clone())),
        requests: 2,
        trials,
        events,
        secs: sent(1).duration_since(start).as_secs_f64(),
    });
    for (j, d) in dones.iter().enumerate().take(drained + 1).skip(1) {
        let (trials, events) = work(d);
        slices.push(Slice {
            class: class_of(&d.item),
            requests: 1,
            trials,
            events,
            secs: sent(j + 1).duration_since(d.sent).as_secs_f64(),
        });
    }
    slices
}

/// Totals by header class.
#[derive(Debug, Default)]
struct Classes {
    hit: u64,
    miss: u64,
    join: u64,
    resume: u64,
    body_bytes: u64,
    executions: u64,
}

/// The result of a run of rounds.
struct Rounds {
    phase: Phase,
    classes: Classes,
    tracer: Tracer,
    count: u64,
    /// Every request with its response.
    served: Vec<Done>,
}

/// Runs rounds until `seconds` pass (or `limit` rounds ran), recording
/// spans when `traced`, and checks every response.
fn rounds(
    ctx: &Ctx,
    daemon: &mut Daemon,
    seconds: f64,
    limit: Option<u64>,
    tracer: Tracer,
    gates: &mut Gates,
) -> Result<Rounds, String> {
    let mut out = Rounds {
        phase: Phase::default(),
        classes: Classes::default(),
        tracer,
        count: 0,
        served: Vec::new(),
    };
    let (phase, classes) = (&mut out.phase, &mut out.classes);
    let executions_before = daemon.handle.state().executions();
    let ids = AtomicU64::new(0);
    let clock = Instant::now();
    loop {
        let r = out.count;
        let finished = match limit {
            Some(limit) => r >= limit,
            None => r >= 1 && clock.elapsed().as_secs_f64() >= seconds,
        };
        if finished {
            break;
        }
        let (items, pair) = round_items(ctx, daemon, r);
        let round_clock = Instant::now();
        let queue = Mutex::new(VecDeque::from(items));
        let barrier = Barrier::new(2);
        let daemon_ref = &*daemon;
        let run = |drains| {
            let mut t = out.tracer.fork();
            let done = client(daemon_ref, &pair, &queue, drains, &barrier, &ids, &mut t);
            (done, t)
        };
        let clients = std::thread::scope(|scope| {
            let run = &run;
            let a = scope.spawn(move || run(true));
            let b = scope.spawn(move || run(false));
            [a.join(), b.join()]
        });
        let round_end = Instant::now();
        // The draining client's requests in order, its pair half first,
        // then the other client's pair half.
        let mut dones = Vec::new();
        for client in clients {
            let (done, t) = client.map_err(|_| "client thread panicked".to_string())?;
            out.tracer.absorb(t);
            dones.extend(done);
        }
        phase
            .slices
            .extend(round_slices(&dones, &pair, round_clock, round_end));
        let mut pair_bodies = Vec::new();
        for d in dones {
            phase.attempted += 1;
            let Some(resp) = &d.response else {
                phase.failures.refused += 1;
                continue;
            };
            if error_line(&resp.body) {
                phase.failures.error_lines += 1;
            }
            classes.body_bytes += resp.body.len() as u64;
            match resp.cache.as_str() {
                "hit" => classes.hit += 1,
                "miss" => classes.miss += 1,
                "join" => classes.join += 1,
                "resume" => classes.resume += 1,
                _ => {}
            }
            let ms = resp.secs * 1e3;
            match &d.item {
                Item::Hit(i) => {
                    gates.check(
                        "a catalogue request is served as a hit",
                        resp.cache == "hit",
                    );
                    gates.check(
                        "every hit body is byte-identical to its miss body",
                        daemon.reference.get(&daemon.catalogue_hash[*i]) == Some(&resp.body),
                    );
                    phase.hit_ms.push((class_of(&d.item), ms));
                }
                Item::Miss(_) => {
                    gates.check("a fresh request is served as a miss", resp.cache == "miss");
                    phase.miss_ms.push((class_of(&d.item), ms));
                }
                Item::MissForResume(s) => {
                    gates.check("a fresh request is served as a miss", resp.cache == "miss");
                    phase.miss_ms.push((class_of(&d.item), ms));
                    daemon.reference.insert(hash_of(s)?, resp.body.clone());
                }
                Item::Resume(s) => {
                    gates.check("a cut-back journal is resumed", resp.cache == "resume");
                    gates.check(
                        "every resume body is byte-identical to its miss body",
                        daemon.reference.get(&hash_of(s)?) == Some(&resp.body),
                    );
                }
                Item::Pair(_) => {
                    if resp.cache == "miss" {
                        phase.miss_ms.push((class_of(&d.item), ms));
                    }
                    pair_bodies.push((resp.cache.clone(), resp.body.clone()));
                }
            }
            if out.tracer.is_on() {
                out.served.push(d);
            }
        }
        gates.check(
            "a simultaneous pair runs once: one miss, one join (or late hit)",
            pair_bodies.len() == 2
                && pair_bodies.iter().filter(|(c, _)| c == "miss").count() == 1
                && pair_bodies
                    .iter()
                    .all(|(c, _)| ["miss", "join", "hit"].contains(&c.as_str())),
        );
        gates.check(
            "every join body is byte-identical to its miss body",
            pair_bodies.windows(2).all(|w| w[0].1 == w[1].1),
        );
        daemon.partial = spec(
            "resume",
            RESUME_TRIALS,
            vec![N, N / 2],
            ctx.derive(6, r + 1),
        );
        out.count += 1;
    }
    classes.executions = (daemon.handle.state().executions() - executions_before) as u64;
    gates.check(
        "serve.executions equals misses plus resumes",
        classes.executions == classes.miss + classes.resume,
    );
    Ok(out)
}

/// Runs the workload: untraced timed phase, or the traced pass.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut gates = Gates::default();
    let mut daemon = None;
    let setup_s = crate::repeat_setup(|rep| {
        if let Some(d) = daemon.take() {
            stop(d)?;
        }
        let (d, secs) = timed(|| start(ctx, rep, &mut Tracer::off()));
        daemon = Some(d?);
        Ok(secs)
    })?;
    let mut daemon = daemon.expect("at least one set-up");
    if !ctx.trace {
        let done = rounds(
            ctx,
            &mut daemon,
            ctx.seconds,
            None,
            Tracer::off(),
            &mut gates,
        )?;
        let digest = daemon.digest;
        stop(daemon)?;
        return Ok(Report {
            setup_s,
            phase: done.phase,
            layers: None,
            gates,
            digest,
        });
    }

    // Traced pass: untraced rounds for half the run, then as many traced
    // rounds on a fresh daemon, then the per-layer probes.
    let reference = rounds(
        ctx,
        &mut daemon,
        ctx.seconds / 2.0,
        None,
        Tracer::off(),
        &mut gates,
    )?;
    let reference_digest = daemon.digest;
    stop(daemon)?;
    let mut t = Tracer::new(true, Instant::now());
    let mut daemon = start(ctx, setup_s.len(), &mut t)?;
    gates.check(
        "tracing changes no result bit",
        daemon.digest == reference_digest,
    );
    let traced = rounds(ctx, &mut daemon, 0.0, Some(reference.count), t, &mut gates)?;
    let mut t = traced.tracer;
    let (journals, journal_bytes) = probe_layers(&daemon, &traced.served, &mut t);
    let (phase, classes) = (traced.phase, traced.classes);
    let mut layers = Layers::default();
    layers.set(
        "bench.trace_overhead",
        phase.secs() / reference.phase.secs() - 1.0,
    );
    layers.set("serve.hit", classes.hit as f64);
    layers.set("serve.miss", classes.miss as f64);
    layers.set("serve.join", classes.join as f64);
    layers.set("serve.resume", classes.resume as f64);
    layers.set("serve.executions", classes.executions as f64);
    layers.set(
        "serve.body_bytes",
        classes.body_bytes as f64 / phase.requests() as f64,
    );
    if journals > 0 {
        layers.set("core.journal_bytes", journal_bytes as f64 / journals as f64);
    }
    let digest = daemon.digest;
    stop(daemon)?;
    crate::trace_layers(&t, &mut layers, &phase, ctx)?;
    Ok(Report {
        setup_s,
        phase,
        layers: Some(layers),
        gates,
        digest,
    })
}
