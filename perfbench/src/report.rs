//! Metric catalogue, correctness gates and the result line.

use crate::stats::{class_best, percentile, Failures, Latency};
use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("events_per_s", "events/s"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("requests_per_s", "requests/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run; a
/// layer a workload does not touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.plan_ms", "ms"),
    ("core.journal_write_ms", "ms"),
    ("core.journal_bytes", "bytes"),
    ("core.journal_load_ms", "ms"),
    ("graph.realize_s", "s"),
    ("graph.cache_hits", "count"),
    ("graph.cache_misses", "count"),
    ("dynamics.build_s", "s"),
    ("dynamics.advance_s", "s"),
    ("dynamics.windows", "count"),
    ("dynamics.delta_edges", "count"),
    ("sim.execute_s", "s"),
    ("sim.events", "count"),
    ("sim.windows", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.threads1_s", "s"),
    ("sim.parallel_eff", "ratio"),
    ("sim.dynamic_execute_s", "s"),
    ("sim.window_engine_s", "s"),
    ("sim.observe_ms", "ms"),
    ("sim.observe_bytes", "bytes"),
    ("sim.spread", "count"),
    ("sim.died", "count"),
    ("sim.budget", "count"),
    ("sim.trial_errors", "count"),
    ("net.execute_s", "s"),
    ("net.events", "count"),
    ("net.epochs", "count"),
    ("net.messages", "count"),
    ("net.ns_per_event", "ns"),
    ("net.us_per_epoch", "us"),
    ("net.groups1_s", "s"),
    ("net.groups2_s", "s"),
    ("net.sync_overhead", "ratio"),
    ("net.delivered_ratio", "ratio"),
    ("net.stalled", "count"),
    ("net.barrier.execute_s", "s"),
    ("net.barrier.us_per_epoch", "us"),
    ("net.barrier.groups1_s", "s"),
    ("net.barrier.sync_overhead", "ratio"),
    ("net.barrier.udp_over_local", "ratio"),
    ("net.barrier.spread", "count"),
    ("net.barrier.died", "count"),
    ("serve.plan_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.body_ms", "ms"),
    ("serve.body_bytes", "bytes"),
    ("serve.hit", "count"),
    ("serve.miss", "count"),
    ("serve.join", "count"),
    ("serve.resume", "count"),
    ("serve.executions", "count"),
    ("bench.failed_frac", "ratio"),
    ("bench.hit_samples", "count"),
    ("bench.miss_samples", "count"),
    ("bench.spans", "count"),
    ("bench.trace_overhead", "ratio"),
];

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// Per-layer values of one traced pass, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be a [`PER_LAYER`] metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(PER_LAYER, name);
        self.0.insert(name, value);
    }

    /// Adds to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        unit_of(PER_LAYER, name);
        *self.0.entry(name).or_default() += value;
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A named correctness check, evaluated one or more times.
#[derive(Debug)]
pub struct Gate {
    /// What is checked.
    pub name: String,
    /// How often it was evaluated.
    pub checks: u64,
    /// How often it failed.
    pub failures: u64,
}

/// Named correctness checks; the run is correct when all pass.
#[derive(Debug, Default)]
pub struct Gates(Vec<Gate>);

impl Gates {
    /// Evaluates check `name` once more.
    pub fn check(&mut self, name: &str, ok: bool) {
        let index = match self.0.iter().position(|g| g.name == name) {
            Some(i) => i,
            None => {
                self.0.push(Gate {
                    name: name.to_string(),
                    checks: 0,
                    failures: 0,
                });
                self.0.len() - 1
            }
        };
        let gate = &mut self.0[index];
        gate.checks += 1;
        gate.failures += u64::from(!ok);
    }

    /// Whether every check passed.
    pub fn all_pass(&self) -> bool {
        self.0.iter().all(|g| g.failures == 0)
    }

    /// The checks, in first-evaluation order.
    pub fn list(&self) -> &[Gate] {
        &self.0
    }
}

/// A slice of a timed phase — one request, or one round of requests —
/// with the work it completed and its wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Slices of one class do the same work: one spec of a sweep or
    /// live pool, or one round of the serve mix.
    pub class: u64,
    /// Requests completed.
    pub requests: u64,
    /// Trial results produced or delivered.
    pub trials: u64,
    /// Poisson events those trials resolved.
    pub events: u64,
    /// Wall time.
    pub secs: f64,
}

/// One timed phase: a closed loop of requests, cut into slices.
#[derive(Debug, Default)]
pub struct Phase {
    /// The slices, in order. A rate counts each class at its fastest
    /// slice: host interference only ever slows a slice down.
    pub slices: Vec<Slice>,
    /// Latencies of hits (repeat requests) as `(class, ms)`. Requests
    /// of one class do the same work, hit or miss; hit and miss classes
    /// share numbers only where they do.
    pub hit_ms: Vec<(u64, f64)>,
    /// Latencies of misses (first-time requests) as `(class, ms)`.
    pub miss_ms: Vec<(u64, f64)>,
    /// Operations attempted: trials on the engine and live paths,
    /// requests on the daemon.
    pub attempted: u64,
    /// Failed operations by kind.
    pub failures: Failures,
}

/// Latencies need at least this many samples beyond a reported
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Everything a run prints.
#[derive(Debug)]
pub struct Report {
    /// Untraced set-up times, one per repetition.
    pub setup_s: Vec<f64>,
    /// The timed phase (untraced runs), or the traced phase.
    pub phase: Phase,
    /// Per-layer values (traced runs only).
    pub layers: Option<Layers>,
    /// Correctness checks.
    pub gates: Gates,
    /// Digest of the workload's deterministic results.
    pub digest: u64,
}

impl Phase {
    /// `work` per second over all slices, each slice taking the time of
    /// the fastest slice of its class.
    pub fn rate(&self, work: impl Fn(&Slice) -> u64) -> f64 {
        let timed: Vec<(u64, f64)> = self.slices.iter().map(|s| (s.class, s.secs)).collect();
        let secs: f64 = class_best(&timed).iter().sum();
        let done: u64 = self.slices.iter().map(work).sum();
        done as f64 / secs
    }

    /// Hit and miss latencies, each replaced by the fastest latency of
    /// its class among hits and misses together.
    pub fn best_latencies(&self) -> (Vec<f64>, Vec<f64>) {
        let mut all = self.hit_ms.clone();
        all.extend_from_slice(&self.miss_ms);
        let mut best = class_best(&all);
        let miss = best.split_off(self.hit_ms.len());
        (best, miss)
    }

    /// Total requests over all slices.
    pub fn requests(&self) -> u64 {
        self.slices.iter().map(|s| s.requests).sum()
    }

    /// Total wall time over all slices.
    pub fn secs(&self) -> f64 {
        self.slices.iter().map(|s| s.secs).sum()
    }
}

impl Report {
    /// The end-to-end metrics as `(name, value)`, in catalogue order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let p = &self.phase;
        let pct = |values: &[f64], q| percentile(values, q).unwrap_or(f64::NAN);
        let (hit, miss) = p.best_latencies();
        let values = [
            pct(&self.setup_s, 0.5),
            p.rate(|s| s.trials),
            p.rate(|s| s.events),
            pct(&hit, 0.5),
            pct(&hit, 0.9),
            pct(&miss, 0.5),
            p.rate(|s| s.requests),
            crate::env::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, _), v)| (name, v))
            .collect()
    }

    /// Human-readable lines: metrics with units, sample counts, gates.
    pub fn describe(&self, workload: &str, traced: bool) -> Vec<String> {
        let mut out = Vec::new();
        if traced {
            let layers = self.layers.as_ref().expect("traced runs carry layers");
            for &(name, unit) in PER_LAYER {
                out.push(format!(
                    "{workload} {name:<28} {:>16.6} {unit}",
                    layers.get(name)
                ));
            }
        } else {
            for (name, v) in self.end_to_end() {
                out.push(format!(
                    "{workload} {name:<28} {v:>16.6} {}",
                    unit_of(END_TO_END, name)
                ));
            }
            let p = &self.phase;
            let (hit, miss) = p.best_latencies();
            for (label, samples) in [("hit", &hit), ("miss", &miss)] {
                let l = Latency::of(samples, MIN_BEYOND);
                let tail = match l.tail {
                    Some((pct, v)) => format!("p{pct} = {v:.3} ms"),
                    None => "none".to_string(),
                };
                out.push(format!(
                    "{workload} {label} latency: {} samples, p90 {} ≥{MIN_BEYOND} beyond, highest supported percentile {tail}",
                    l.count,
                    if l.supports(90.0, MIN_BEYOND) { "has" } else { "lacks" },
                ));
            }
            out.push(format!(
                "{workload} failed_frac {:.6} ({} of {} attempted; {:?})",
                p.failures.frac(p.attempted),
                p.failures.total(),
                p.attempted,
                p.failures
            ));
        }
        for g in self.gates.list() {
            let verdict = if g.failures == 0 { "pass" } else { "FAIL" };
            out.push(format!(
                "{workload} gate {verdict} {} ({} of {} checks failed)",
                g.name, g.failures, g.checks
            ));
        }
        out.push(format!("{workload} result digest {:016x}", self.digest));
        out
    }

    /// The final JSON line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            let layers = self.layers.as_ref().expect("traced runs carry layers");
            PER_LAYER
                .iter()
                .map(|&(name, unit)| metric_json(name, layers.get(name), unit))
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(name, v)| metric_json(name, v, unit_of(END_TO_END, name)))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gates.all_pass(),
            self.phase.attempted.max(1),
            self.phase.failures.total(),
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a missing figure reads null.
    let value = if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_aggregate_by_name() {
        let mut g = Gates::default();
        g.check("a", true);
        g.check("b", true);
        g.check("a", false);
        assert!(!g.all_pass());
        assert_eq!(g.list().len(), 2);
        assert_eq!((g.list()[0].checks, g.list()[0].failures), (2, 1));
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // benchmark directory copied on its own
        };
        let compact: String = text.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let entries = compact.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let slice = |class, trials, secs| Slice {
            class,
            requests: 2,
            trials,
            events: 50,
            secs,
        };
        let mut phase = Phase {
            slices: vec![slice(0, 4, 1.0), slice(0, 9, 2.0), slice(1, 4, 0.5)],
            attempted: 8,
            ..Phase::default()
        };
        phase.hit_ms = vec![(0, 1.0), (0, 2.0), (1, 6.0)];
        phase.miss_ms = vec![(0, 3.0), (2, 7.0)];
        let report = Report {
            setup_s: vec![0.5, 0.25, 0.75],
            phase,
            layers: None,
            gates: Gates::default(),
            digest: 1,
        };
        let line = report.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 8, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        // Each slice at its class's fastest time: 17 trials and 6
        // requests in 1 + 1 + 0.5 s.
        let (trials, requests) = (17.0 / 2.5, 6.0 / 2.5);
        assert!(line.contains(&format!("\"trials_per_s\": {{\"value\": {trials:?}, ")));
        assert!(line.contains(&format!("\"requests_per_s\": {{\"value\": {requests:?}, ")));
        // Latencies at their class best over hits and misses: hits 1, 1
        // and 6 ms, misses 1 and 7 ms.
        assert!(line.contains("\"hit_p50_ms\": {\"value\": 1.0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"miss_p50_ms\": {\"value\": 4.0, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
