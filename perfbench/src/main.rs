//! End-to-end and per-layer benchmark of the dynamic-rumor workspace.
//!
//! ```text
//! perfbench --workload sweep-static --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root, built as `perfbench/README.md` shows. `--trace 0` prints the end-to-end
//! metrics of an untraced timed phase; `--trace 1` runs the traced pass
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); the process
//! exits 1 when a correctness gate fails and 2 on a usage error. See
//! `perfbench/README.md` for the metric table and the workloads.

mod env;
mod live;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::{Gates, Phase};
use rumor_spreading::sim::JsonlSink;
use rumor_spreading::sim::{SimError, TrialError, TrialObserver, TrialOutcome, TrialRecord};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sweep-static", "live-bulk", "serve-replay"];

/// Sweep threads of the timed phases. On a 2-vCPU host shared with
/// other tenants the two vCPUs deliver about one core's worth of work
/// while the host is busy, so a second thread mostly measures that
/// contention; the traced pass times two threads as a diagnostic.
pub const TIMED_THREADS: usize = 1;

/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Set-up repeats until this much time has passed, so that a set-up of
/// microseconds runs often enough for its median to settle.
pub const SETUP_SECONDS: f64 = 0.5;

/// Set-up repetitions per run, at most.
pub const SETUP_MAX_REPS: usize = 10_000;

/// Runs set-up `one(rep)`, which returns its own duration, for
/// [`SETUP_REPS`] to [`SETUP_MAX_REPS`] repetitions until
/// [`SETUP_SECONDS`] have passed; returns the durations.
pub fn repeat_setup(mut one: impl FnMut(usize) -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let clock = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_REPS
        || (secs.len() < SETUP_MAX_REPS && clock.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        secs.push(one(secs.len())?);
    }
    Ok(secs)
}

/// Parsed command line plus the derived run context.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every spec seed derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced pass instead of the untraced timed phase.
    pub trace: bool,
    /// Sweep threads and node groups: at most 2, at most the host's.
    pub threads: usize,
    /// Scratch directory inside the checkout for stores and journals,
    /// removed when the run ends.
    pub workdir: PathBuf,
    /// Where a traced pass writes its spans (JSON lines).
    pub trace_path: PathBuf,
}

impl Ctx {
    /// A seed derived from the workload seed and a `(stream, index)` pair;
    /// 53 bits, so spec files and JSON carry it exactly.
    pub fn derive(&self, stream: u64, index: u64) -> u64 {
        splitmix(splitmix(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ index) >> 11
    }
}

/// SplitMix64 finalizer.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_START`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs `one(i)` for `i = 0, 1, …`, each call after the previous one
/// returns, until `seconds` have passed and at least `min` calls ran.
pub fn closed_loop(
    seconds: f64,
    min: usize,
    mut one: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let clock = Instant::now();
    let mut i = 0;
    while i < min || clock.elapsed().as_secs_f64() < seconds {
        one(i)?;
        i += 1;
    }
    Ok(())
}

/// Times `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The observer every engine and live request streams into: a
/// [`JsonlSink`] over memory (its bytes are the request's output) plus
/// outcome and work counters, and, when timing, the sink's own cost.
#[derive(Debug)]
pub struct Tap {
    sink: Option<JsonlSink<Vec<u8>>>,
    bytes: Vec<u8>,
    timing: bool,
    /// Records kept for journal re-writes (traced passes only).
    pub records: Vec<TrialRecord>,
    /// Outcome counts.
    pub spread: u64,
    /// Trials that ended Died.
    pub died: u64,
    /// Trials stopped by a budget.
    pub budget: u64,
    /// Isolated trial panics.
    pub trial_errors: u64,
    /// Events over delivered records.
    pub events: u64,
    /// Windows (epochs on the live path) over delivered records.
    pub windows: u64,
    /// Seconds spent inside the JSONL sink (when timing).
    pub observe_s: f64,
    /// When each record arrived, with its events. On one thread records
    /// arrive as trials finish, so these cut a request into its trials.
    pub arrivals: Vec<(Instant, u64)>,
}

impl Tap {
    /// A fresh tap; `timing` also times the sink and keeps records.
    pub fn new(timing: bool) -> Tap {
        Tap {
            sink: Some(JsonlSink::new(Vec::new())),
            bytes: Vec::new(),
            timing,
            records: Vec::new(),
            spread: 0,
            died: 0,
            budget: 0,
            trial_errors: 0,
            events: 0,
            windows: 0,
            observe_s: 0.0,
            arrivals: Vec::new(),
        }
    }

    /// Records delivered (trial errors excluded).
    pub fn trials(&self) -> u64 {
        self.spread + self.died + self.budget
    }

    /// Closes the sink after a run; [`Tap::bytes`] then holds its output.
    pub fn close(&mut self) {
        if let Some(sink) = self.sink.take() {
            self.bytes = sink.into_inner().expect("writes to memory cannot fail");
        }
    }

    /// The JSONL output of a closed tap.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn sink(&mut self) -> &mut JsonlSink<Vec<u8>> {
        self.sink.as_mut().expect("tap used after close")
    }
}

impl TrialObserver for Tap {
    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        self.arrivals.push((Instant::now(), record.events));
        match record.outcome {
            TrialOutcome::Spread => self.spread += 1,
            TrialOutcome::Died => self.died += 1,
            TrialOutcome::Budget => self.budget += 1,
        }
        self.events += record.events;
        self.windows += record.windows;
        if self.timing {
            let (r, s) = timed(|| self.sink().on_trial(record));
            self.observe_s += s;
            self.records.push(record.clone());
            r
        } else {
            self.sink().on_trial(record)
        }
    }

    fn on_trial_error(&mut self, error: &TrialError) -> Result<(), SimError> {
        self.trial_errors += 1;
        self.sink().on_trial_error(error)
    }

    fn finish(&mut self) -> Result<(), SimError> {
        self.sink().finish()
    }
}

/// Adds a finished request to `phase`: `slices` covering its wall time,
/// its planned trials as attempts, and its failures.
pub fn absorb_tap(
    phase: &mut Phase,
    tap: &Tap,
    planned_trials: u64,
    slices: impl IntoIterator<Item = report::Slice>,
) {
    phase.slices.extend(slices);
    phase.attempted += planned_trials;
    phase.failures.trial_errors += tap.trial_errors;
}

/// Checks the outcome counts of a tap against the planned trial count.
pub fn check_outcomes(gates: &mut Gates, tap: &Tap, planned: u64, stalled: u64, all_spread: bool) {
    gates.check(
        "outcome counts sum to the trial count",
        tap.trials() + tap.trial_errors + stalled == planned,
    );
    if all_spread {
        gates.check("every trial spread", tap.spread == planned);
    }
}

/// Fills the span-derived per-layer metrics from a traced pass and
/// writes its spans next to the work directory.
pub fn trace_layers(
    t: &trace::Tracer,
    layers: &mut report::Layers,
    phase: &Phase,
    ctx: &Ctx,
) -> Result<(), String> {
    let times = t.self_times();
    let total = |name: &str| times.get(name).map_or(0.0, |&(s, _)| s);
    let mean = |name: &str| times.get(name).map_or(0.0, |&(s, n)| s / n as f64);
    layers.set("core.plan_ms", mean("core.plan") * 1e3);
    layers.set("core.journal_write_ms", mean("core.journal_write") * 1e3);
    layers.set("core.journal_load_ms", mean("core.journal_load") * 1e3);
    layers.set("dynamics.build_s", mean("dynamics.build"));
    layers.set("dynamics.advance_s", total("dynamics.advance"));
    let per = |secs: f64, count: f64, scale: f64| {
        if count > 0.0 {
            secs / count * scale
        } else {
            0.0
        }
    };
    let sim = total("sim.execute");
    layers.set("sim.execute_s", sim);
    layers.set("sim.ns_per_event", per(sim, layers.get("sim.events"), 1e9));
    let net = total("net.execute");
    layers.set("net.execute_s", net);
    layers.set("net.ns_per_event", per(net, layers.get("net.events"), 1e9));
    layers.set("net.us_per_epoch", per(net, layers.get("net.epochs"), 1e6));
    layers.set("serve.plan_ms", mean("serve.plan") * 1e3);
    layers.set("serve.lookup_ms", mean("serve.lookup") * 1e3);
    layers.set("serve.ttfb_ms", mean("serve.ttfb") * 1e3);
    layers.set("serve.body_ms", mean("serve.body") * 1e3);
    layers.set("bench.failed_frac", phase.failures.frac(phase.attempted));
    layers.set("bench.hit_samples", phase.hit_ms.len() as f64);
    layers.set("bench.miss_samples", phase.miss_ms.len() as f64);
    layers.set("bench.spans", t.spans().len() as f64);
    t.write_jsonl(&ctx.trace_path)
        .map_err(|e| format!("{}: {e}", ctx.trace_path.display()))
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <f64> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let seed = seed.unwrap_or(1);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(2);
    let base = PathBuf::from(".bench_build").join("perfbench-work");
    let tag = format!("{workload}-{seed}-{}", std::process::id());
    Ok(Ctx {
        workdir: base.join(&tag),
        trace_path: base.join(format!("trace-{tag}.jsonl")),
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        threads,
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.workdir.display());
        return ExitCode::FAILURE;
    }
    let provenance = env::Provenance::collect(ctx.seed);
    let result = match ctx.workload.as_str() {
        "sweep-static" => sweep::run(&ctx),
        "live-bulk" => live::run(&ctx),
        "serve-replay" => serve::run(&ctx),
        _ => unreachable!("validated in parse_args"),
    };
    if let Err(e) = std::fs::remove_dir_all(&ctx.workdir) {
        eprintln!("perfbench: cannot remove {}: {e}", ctx.workdir.display());
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{} provenance {}", ctx.workload, provenance.to_json());
    for line in report.describe(&ctx.workload, ctx.trace) {
        println!("{line}");
    }
    if ctx.trace {
        println!(
            "{} spans written to {}",
            ctx.workload,
            ctx.trace_path.display()
        );
    }
    println!("{}", report.result_line(ctx.trace));
    if report.gates.all_pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
