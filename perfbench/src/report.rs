//! The metric catalogue, the shared round loop and the result line.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use nbsp_serve::ServeSinks;
use nbsp_telemetry::{AtomicTotals, Event, Flusher, HistFlusher, EVENT_COUNT};

use crate::hist::Hist;
use crate::trace::{self, Span, SpanBuf};

/// End-to-end metrics, printed by untraced runs: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). A layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p50_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("serve.admit.ns_p50", "ns"),
    ("serve.admit.refills_per_1k", "count/1k"),
    ("serve.admit.shed_frac", "frac"),
    ("serve.ring.push_ns_p50", "ns"),
    ("serve.ring.pop_ns_p50", "ns"),
    ("serve.ring.pop_hit_frac", "frac"),
    ("serve.ring.push_full", "count"),
    ("serve.steal.ns_p50", "ns"),
    ("serve.steal.success_frac", "frac"),
    ("serve.steal.batch_mean", "count"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.metrics.flush_ns_p50", "ns"),
    ("serve.metrics.flush_ns_p99", "ns"),
    ("telemetry.flush_ns_p50", "ns"),
    ("telemetry.flush_ns_p99", "ns"),
    ("structures.ordmap.get_ns_p50", "ns"),
    ("structures.ordmap.get_ns_p99", "ns"),
    ("structures.ordmap.insert_ns_p50", "ns"),
    ("structures.ordmap.insert_ns_p99", "ns"),
    ("structures.ordmap.delete_ns_p50", "ns"),
    ("structures.ordmap.delete_ns_p99", "ns"),
    ("structures.ordmap.range_ns_p50", "ns"),
    ("structures.ordmap.records_per_write", "count"),
    ("llx.help_per_1k_ops", "count/1k"),
    ("llx.scx_abort_per_1k_ops", "count/1k"),
    ("structures.counter.ns_per_call", "ns"),
    ("structures.stack.pair_ns", "ns"),
    ("structures.stack.push_full", "count"),
    ("core.fig4-native.ns_per_call", "ns"),
    ("core.fig4-native.sc_fail_frac", "frac"),
    ("core.fig4-native.ll_restart_per_call", "count/call"),
    ("core.fig4-native.backoff_spin_per_call", "count/call"),
    ("core.fig7-bounded.ns_per_call", "ns"),
    ("core.fig7-bounded.sc_fail_frac", "frac"),
    ("core.fig7-bounded.ll_restart_per_call", "count/call"),
    ("core.fig7-bounded.backoff_spin_per_call", "count/call"),
    ("core.fig7-bounded.tag_alloc_per_call", "count/call"),
    ("core.fig5-rll.ns_per_call", "ns"),
    ("core.fig5-rll.sc_fail_frac", "frac"),
    ("core.fig5-rll.ll_restart_per_call", "count/call"),
    ("core.fig5-rll.backoff_spin_per_call", "count/call"),
    ("memsim.rsc_per_call", "count/call"),
    ("memsim.rsc_fail_frac", "frac"),
    ("trace_overhead_frac", "frac"),
    ("serve.unattributed_frac", "frac"),
    ("trace.dropped_spans", "count"),
];

/// Rounds every run makes, however short its seconds.
pub const MIN_ROUNDS: u64 = 3;

/// Requests or calls between two metric and telemetry flushes: the
/// serving fabric's cadence.
pub const FLUSH_EVERY: u32 = 1024;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: HashMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn violation(&mut self, msg: String) {
        if self.violations.len() < 16 {
            self.violations.push(msg);
        }
    }

    /// Sets latency_p50_us from a histogram of ns (times `scale`), and
    /// notes the tail with the sample count. The tail is not an end-to-end
    /// metric: on a 2-vCPU guest it is set by the host (see README.md).
    pub fn set_latency(&mut self, h: &Hist, scale: f64, what: &str) {
        let us = |q: f64| h.quantile(q) * scale / 1e3;
        self.set("latency_p50_us", us(0.50));
        self.notes.push(format!(
            "latency samples: {} ({what}); p95 {:.4} us, p99 {:.4} us",
            h.len(),
            us(0.95),
            us(0.99)
        ));
    }

    /// Sets setup_s to the median of the rounds' set-up times.
    pub fn set_setup(&mut self, setups: &mut [f64]) {
        setups.sort_by(f64::total_cmp);
        self.set("setup_s", setups[setups.len() / 2]);
        self.notes
            .push(format!("setup samples: {} rounds", setups.len()));
    }

    /// Per-layer counts a provider's LL/SC produced over `calls` calls.
    pub fn set_core(&mut self, provider: &str, delta: &[u64; EVENT_COUNT], calls: u64) {
        let calls = calls.max(1) as f64;
        let ev = |e: Event| delta[e.index()] as f64;
        let sc = ev(Event::ScSuccess) + ev(Event::ScFail);
        let name = |m: &str| -> &'static str {
            PER_LAYER
                .iter()
                .find(|(n, _)| *n == format!("core.{provider}.{m}"))
                .map(|(n, _)| *n)
                .expect("provider metric is catalogued")
        };
        self.set(name("sc_fail_frac"), ev(Event::ScFail) / sc.max(1.0));
        self.set(name("ll_restart_per_call"), ev(Event::LlRestart) / calls);
        self.set(
            name("backoff_spin_per_call"),
            ev(Event::BackoffSpin) / calls,
        );
    }

    /// Percentile metrics of the spans of one layer, in `unit_ns` units.
    pub fn set_span_quantiles(
        &mut self,
        layer: u8,
        p50: &'static str,
        p99: Option<&'static str>,
        unit_ns: f64,
    ) {
        let mut h = Hist::new();
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            h.record(s.dur());
        }
        self.set(p50, h.quantile(0.50) / unit_ns);
        if let Some(p99) = p99 {
            self.set(p99, h.quantile(0.99) / unit_ns);
        }
        self.notes.push(format!(
            "spans {}: {}",
            trace::LAYERS[layer as usize],
            h.len()
        ));
    }
}

/// What both threads share for a whole run: the telemetry sinks every
/// thread flushes into, and each thread's span buffer.
#[derive(Debug)]
pub struct Shared {
    pub sinks: ServeSinks,
    spans: [Mutex<SpanBuf>; 2],
}

impl Shared {
    /// `span_capacity` spans per thread; 0 for an untraced run.
    #[must_use]
    pub fn new(span_capacity: usize) -> Self {
        Shared {
            sinks: ServeSinks::new().expect("telemetry sinks"),
            spans: [0, 1].map(|t| Mutex::new(SpanBuf::new(t, span_capacity))),
        }
    }

    /// Thread `tid`'s span buffer, recording iff `on`.
    pub fn spans(&self, tid: usize, on: bool) -> MutexGuard<'_, SpanBuf> {
        let mut b = self.spans[tid]
            .lock()
            .expect("a span buffer's thread panicked");
        b.on = on;
        b
    }

    /// Span room left in the fuller of the two buffers.
    #[must_use]
    pub fn span_room(&self) -> usize {
        (0..2)
            .map(|t| self.spans(t, false).room())
            .min()
            .unwrap_or(0)
    }

    /// One consistent reading of the event totals (a single WLL).
    #[must_use]
    pub fn totals(&self) -> [u64; EVENT_COUNT] {
        self.sinks.events.totals()
    }

    /// Moves every recorded span into `o`, with the dropped count.
    pub fn take_spans(&self, o: &mut Outcome) {
        let mut dropped = 0;
        for t in 0..2 {
            let b = self.spans(t, false);
            o.spans.extend_from_slice(b.spans());
            dropped += b.dropped;
        }
        o.set("trace.dropped_spans", dropped as f64);
    }
}

/// One thread's telemetry flushers, created on that thread at the start
/// of a timed phase so that only the phase's events are published.
#[derive(Debug)]
pub struct Tele {
    events: Flusher,
    hists: HistFlusher,
}

impl Tele {
    #[must_use]
    pub fn new() -> Self {
        Tele {
            events: Flusher::new(),
            hists: HistFlusher::new(),
        }
    }

    /// Publishes this thread's events and histograms since the last flush.
    pub fn flush(&mut self, shared: &Shared, spans: &mut SpanBuf, epoch: Instant) {
        let t0 = epoch.elapsed().as_nanos() as u64;
        self.events.flush(&shared.sinks.events);
        self.hists.flush(&shared.sinks.hists);
        let t1 = epoch.elapsed().as_nanos() as u64;
        spans.push(trace::TELE_FLUSH, trace::NONE, trace::NO_REQ, t0, t1);
    }
}

/// Element-wise `b - a` of two telemetry totals.
#[must_use]
pub fn delta(a: &[u64; EVENT_COUNT], b: &[u64; EVENT_COUNT]) -> [u64; EVENT_COUNT] {
    std::array::from_fn(|i| b[i] - a[i])
}

/// Runs `round(r, counted)` for r = 0, 1, … until `seconds` have passed
/// since the first round began, and at least [`MIN_ROUNDS`] counted times.
/// Round 0 warms caches, the allocator and the helper thread up: its
/// outputs are checked but `counted` is false, so its times are not.
pub fn for_rounds(seconds: f64, mut round: impl FnMut(u64, bool)) {
    let start = Instant::now();
    let mut r = 0;
    while r <= MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        round(r, r > 0);
        r += 1;
    }
}

/// Whether round `r` of a traced run records spans: every other counted
/// round, so that `trace_overhead_frac` can pair it with the untraced one
/// before it.
#[must_use]
pub fn traced_round(traced: bool, r: u64) -> bool {
    traced && r >= 2 && r.is_multiple_of(2)
}

/// `trace_overhead_frac` from (timed seconds, traced) per round: traced
/// rounds against the untraced round just before each.
#[must_use]
pub fn trace_overhead(rounds: &[(f64, bool)]) -> f64 {
    let (mut on, mut off) = (0.0, 0.0);
    for w in rounds.windows(2) {
        if w[1].1 && !w[0].1 {
            on += w[1].0;
            off += w[0].0;
        }
    }
    if off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}

/// Formats the result line.
#[must_use]
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.violations.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of one top-level array of BENCHMARK.json.
    fn names_in(json: &str, array: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{array}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    fn units_in(json: &str, array: &str) -> Vec<String> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"unit\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted unit").to_owned())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (array, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = cat.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = cat.iter().map(|(_, u)| *u).collect();
            assert_eq!(names_in(&json, array), names, "{array} names");
            assert_eq!(units_in(&json, array), units, "{array} units");
        }
        let workloads = names_in(&json, "workloads");
        assert_eq!(workloads, crate::WORKLOADS, "workloads");
    }

    #[test]
    fn result_line_prints_every_catalogued_metric() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.25);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25"));
    }

    #[test]
    fn overhead_pairs_each_traced_round_with_the_one_before() {
        let rounds = [
            (1.0, false),
            (1.5, true),
            (1.0, false),
            (1.1, true),
            (9.0, false),
        ];
        assert!((trace_overhead(&rounds) - (2.6 / 2.0 - 1.0)).abs() < 1e-12);
    }
}
