//! The `RunPlan` replay contract.
//!
//! The acceptance bar for the trial driver is strict: on fixed seeds,
//! `RunPlan::execute` must reproduce pinned golden summaries
//! **bit-for-bit** — per-trial times, mean and standard deviation — per
//! engine, for 1 thread and k threads. The goldens were recorded from the
//! legacy multi-trial runner the driver replaced (the scalar event loop),
//! so a change that moves any RNG draw or float summation fails here. On top of that,
//! the streaming sinks must reproduce the summary exactly: a JSONL file
//! parsed back line by line rebuilds the bit-identical statistics.

use gossip_dynamics::{DynamicStar, StaticNetwork};
use gossip_graph::{generators, Topology};
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, JsonlSink, RunConfig, RunPlan, SummarySink, SyncPushPull,
    TrajectorySink, TrialObserver, TrialRecord, TrialSummary,
};

fn assert_bit_identical(a: &TrialSummary, b: &TrialSummary) {
    assert_eq!(a.trials(), b.trials());
    assert_eq!(a.completed(), b.completed());
    let (ta, tb) = (a.sorted_times(), b.sorted_times());
    assert_eq!(ta.len(), tb.len());
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.to_bits(), y.to_bits(), "per-trial time drifted");
    }
    assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "mean drifted");
    assert_eq!(a.std_dev().to_bits(), b.std_dev().to_bits(), "std drifted");
    if a.completed() > 0 {
        assert_eq!(a.median().to_bits(), b.median().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
    }
}

/// A pinned summary: every trial completed, sorted spread-time bits,
/// and the bits of the trial-order mean and standard deviation.
struct Golden {
    times: &'static [u64],
    mean: u64,
    std_dev: u64,
}

fn assert_matches_golden(s: &TrialSummary, golden: &Golden, label: &str) {
    assert_eq!(s.trials(), golden.times.len(), "{label}: trial count");
    assert_eq!(
        s.completed(),
        golden.times.len(),
        "{label}: completed count"
    );
    let bits: Vec<u64> = s.sorted_times().iter().map(|t| t.to_bits()).collect();
    assert_eq!(bits, golden.times, "{label}: per-trial times drifted");
    assert_eq!(s.mean().to_bits(), golden.mean, "{label}: mean drifted");
    assert_eq!(
        s.std_dev().to_bits(),
        golden.std_dev,
        "{label}: std drifted"
    );
}

const WINDOW_CUT_RATE_K20: Golden = Golden {
    times: &[
        0x3fff252694d34a5e,
        0x400039c00aac038f,
        0x4000c7ca9863f4d2,
        0x400226418cf32d06,
        0x4004300475fd4d6a,
        0x40047db16e07a4ac,
        0x40048ce78983eb1e,
        0x4004d877d9501aa4,
        0x4004dbc866a6d01a,
        0x4004f34725fc5a1e,
        0x4005186405e2e724,
        0x400586a56f2e707c,
        0x4005d1105971cddf,
        0x4006310f0978f4e5,
        0x4006bb346d99ccee,
        0x4006f94482d0d872,
        0x40070995201e0af8,
        0x40078d5017b852ca,
        0x4007b586d91712cd,
        0x4007b7aa1c48b5e7,
        0x4007f61618909c78,
        0x400807309f21f83e,
        0x40081adcebeb05ea,
        0x400851bb4855aa1e,
        0x40087f1ad1b76e38,
        0x40088a2e58b028c2,
        0x40096e215f28b3bb,
        0x40098f1b5f2c7174,
        0x4009a4ebfa8a925f,
        0x400a7c2ee30c97a7,
        0x400aa87a606dff88,
        0x400beb662d99ac9c,
        0x400d17a3b20ddd16,
        0x400e44e30e85891e,
        0x400e49ad44faa12e,
        0x401048c5ccc8d8ee,
        0x4011f180082bbed7,
        0x40125e04f7c98e7f,
        0x4012901c5ea82fe4,
        0x401301a8a71b094c,
    ],
    mean: 0x4008c08c678f5601,
    std_dev: 0x3fe5f7dca67bb219,
};

const WINDOW_SYNC_K20: Golden = Golden {
    times: &[
        0x4008000000000000,
        0x4008000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4010000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4014000000000000,
        0x4018000000000000,
    ],
    mean: 0x4011aaaaaaaaaaaa,
    std_dev: 0x3fe6f3f85654bd1b,
};

const EVENT_IMPLICIT_K64: Golden = Golden {
    times: &[
        0x400b136bd9f29ecf,
        0x400b2f76ba45f0ba,
        0x400cf49f1c0a5361,
        0x400d83295986d06f,
        0x400f0467decb9b4d,
        0x400f11cfee328628,
        0x401008c841be0b98,
        0x401020fd781c3233,
        0x4010604f67deab0d,
        0x401066f148b98728,
        0x4010b1bebbdbf58f,
        0x4010b581805c7c5c,
        0x4010bd854bf68776,
        0x401132b23e2b44de,
        0x4011341a0cda6320,
        0x401162ed042ea25e,
        0x4011a25e0183206f,
        0x4011dcbe372dae16,
        0x4011fb81c3a19cbe,
        0x40122688b6235c41,
        0x401274f40dc4292a,
        0x40136484628ef408,
        0x4013e5c45325035e,
        0x401406c9b6c810ef,
        0x40141812b29a98b9,
        0x40141df23f38a5e6,
        0x40149228530f37e4,
        0x4015c6aae93da6de,
        0x40167647b050dec1,
        0x4016951b75ce4166,
        0x4019f7cdf319d3cd,
        0x401b197ee71b3306,
        0x401caf25b6d9ce98,
    ],
    mean: 0x401293b105cb90cc,
    std_dev: 0x3fed1d7f82a2d621,
};

const EVENT_DYNAMIC_STAR_31: Golden = Golden {
    times: &[
        0x4000513219410798,
        0x4004d2e65f4c5bf2,
        0x4006622b8c6e38f8,
        0x4006fc80e0800a9e,
        0x4007824c8350037d,
        0x40083fa3eac6dfa7,
        0x4008d43af42c77d7,
        0x40096d388560d6ac,
        0x400df4d42f336cbe,
        0x400e3977de5c3027,
        0x400eae4ffb958347,
        0x40100926d981e830,
        0x40100bc057061a16,
        0x401015275777fcdb,
        0x401017f7ae11f6d5,
        0x4010283fd57dec6f,
        0x4010334482b54fbc,
        0x40104e4c0278cad6,
        0x40106f54ad95651b,
        0x40107ce5de7dc611,
        0x40117a41b6515584,
        0x4012ea29af2e26bc,
        0x40140a92d2873342,
        0x4014357800d3ba14,
        0x402402efa54dde56,
    ],
    mean: 0x400fdb2ecdb68b1d,
    std_dev: 0x3ff75814b53f5fcf,
};

/// `Engine::Window` replays the legacy runner's pinned window-engine
/// streams bit-for-bit, on 1 thread and on k threads.
#[test]
fn window_engine_bit_identical_to_legacy_runner() {
    let make = || StaticNetwork::new(generators::complete(20).unwrap());
    for threads in [1usize, 4] {
        let plan = RunPlan::new(40, 11)
            .threads(threads)
            .engine(Engine::Window)
            .execute(make, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(plan.engine(), Engine::Window);
        assert_matches_golden(
            plan.summary(),
            &WINDOW_CUT_RATE_K20,
            &format!("cut-rate on K20, {threads} thread(s)"),
        );
    }
    // Window-only protocols ride the same contract.
    for threads in [1usize, 3] {
        let plan = RunPlan::new(24, 3)
            .threads(threads)
            .execute(make, || AnyProtocol::window(SyncPushPull::new()))
            .unwrap();
        assert_eq!(plan.engine(), Engine::Window, "Auto must fall back");
        assert_matches_golden(
            plan.summary(),
            &WINDOW_SYNC_K20,
            &format!("sync on K20, {threads} thread(s)"),
        );
    }
}

/// `Engine::Auto` (resolving to the event engine) replays the legacy
/// runner's pinned event-engine streams bit-for-bit, on 1 thread and on k threads —
/// including on an adaptive dynamic family and an implicit backend.
#[test]
fn event_engine_bit_identical_to_legacy_runner() {
    let make_implicit = || StaticNetwork::from_topology(Topology::complete(64).unwrap());
    for threads in [1usize, 8] {
        let plan = RunPlan::new(33, 99)
            .threads(threads)
            .execute(make_implicit, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(plan.engine(), Engine::Event);
        assert_matches_golden(
            plan.summary(),
            &EVENT_IMPLICIT_K64,
            &format!("implicit K64, {threads} thread(s)"),
        );
    }

    let make_star = || DynamicStar::new(31).unwrap();
    for threads in [1usize, 5] {
        let plan = RunPlan::new(25, 7)
            .threads(threads)
            .engine(Engine::Event)
            .execute(make_star, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_matches_golden(
            plan.summary(),
            &EVENT_DYNAMIC_STAR_31,
            &format!("dynamic star 31, {threads} thread(s)"),
        );
    }
}

/// JSONL round trip: serialize every record, parse each line back, refold
/// through a `SummarySink` — the rebuilt summary matches the run's own
/// summary bit-for-bit.
#[test]
fn jsonl_round_trip_rebuilds_summary_bit_for_bit() {
    let make = || StaticNetwork::new(generators::complete(16).unwrap());
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(50, 77)
        .threads(4)
        .observer(&mut sink)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(sink.records(), 50);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();

    let mut rebuilt = SummarySink::new();
    for (i, line) in text.lines().enumerate() {
        let record: TrialRecord = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {i} failed to parse: {e}\n{line}"));
        assert_eq!(record.trial, i, "records must stream in trial order");
        rebuilt.on_trial(&record).unwrap();
    }
    assert_bit_identical(report.summary(), &rebuilt.into_summary());
}

/// The trajectory sink rides the plan: recording flips on automatically,
/// curves come back down-sampled, in trial order, ending at full
/// informedness.
#[test]
fn trajectory_sink_collects_downsampled_curves() {
    let mut sink = TrajectorySink::new(8);
    let report = RunPlan::new(6, 5)
        .threads(2)
        .observer(&mut sink)
        .execute(
            || StaticNetwork::new(generators::cycle(32).unwrap()),
            || AnyProtocol::event(CutRateAsync::new()),
        )
        .unwrap();
    assert_eq!(report.completed(), 6);
    assert_eq!(sink.curves().len(), 6);
    for (i, curve) in sink.curves().iter().enumerate() {
        assert_eq!(curve.trial, i);
        assert!(
            curve.points.len() <= 8,
            "not down-sampled: {}",
            curve.points.len()
        );
        assert!(curve.points.len() >= 2);
        assert_eq!(
            curve.points.last().unwrap().1,
            32,
            "must end fully informed"
        );
        for w in curve.points.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1, "curve not monotone");
        }
    }
}

/// Auto-enabled trajectory recording stays scoped: a JsonlSink
/// co-attached with a TrajectorySink must not receive curves (its
/// output shape cannot depend on unrelated observers), while explicit
/// plan-level recording reaches every observer.
#[test]
fn trajectory_stays_scoped_to_requesting_observers() {
    let make = || StaticNetwork::new(generators::complete(10).unwrap());
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut curves = TrajectorySink::new(8);
    RunPlan::new(4, 1)
        .observer(&mut jsonl)
        .observer(&mut curves)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert!(curves.curves().iter().all(|c| c.points.len() >= 2));
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    assert!(
        text.lines().all(|l| l.contains("\"trajectory\":null")),
        "{text}"
    );

    let mut jsonl = JsonlSink::new(Vec::new());
    RunPlan::new(2, 1)
        .config(RunConfig::default().recording())
        .observer(&mut jsonl)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    assert!(
        text.lines().all(|l| l.contains("\"trajectory\":[[")),
        "{text}"
    );
}

/// Plans are observers-last: a summary-equivalent run with zero
/// observers and one with multiple observers report identical summaries
/// (observation must never perturb the sampled process).
#[test]
fn observers_do_not_perturb_results() {
    struct Counter(usize);
    impl TrialObserver for Counter {
        fn on_trial(&mut self, _: &TrialRecord) -> Result<(), gossip_sim::SimError> {
            self.0 += 1;
            Ok(())
        }
    }
    let make = || StaticNetwork::new(generators::complete(12).unwrap());
    let bare = RunPlan::new(20, 13)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    let mut a = Counter(0);
    let mut b = JsonlSink::new(Vec::new());
    let observed = RunPlan::new(20, 13)
        .observer(&mut a)
        .observer(&mut b)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(a.0, 20);
    assert_bit_identical(bare.summary(), observed.summary());
}
