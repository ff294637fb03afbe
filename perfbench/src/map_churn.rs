//! `map_churn`: a closed loop of two threads making a write-heavy mix of
//! calls on a freshly prefilled `OrdMap` (on `fig4-native`) every round.
//!
//! About half the calls insert, half delete, and one in fifty takes a
//! `range_snapshot`. SCX, helping and record allocation do the work; the
//! serving layer is bypassed. Thread `t` owns the keys `k ≡ t (mod 2)`,
//! so every call's result can be checked against the owning thread's
//! sequential model. The tree holds about 2 048 of 4 096 keys, so its live
//! records fit in a core's L2; the arena never frees, so each round's
//! arena is sized for every call (`ordmap_capacity`), which makes this
//! the memory workload.

use std::sync::Arc;
use std::time::Instant;

use nbsp_core::provider::Fig4Native;
use nbsp_core::Provider;
use nbsp_memsim::rng::SplitMix64;
use nbsp_structures::{ordmap_capacity, OrdMap};
use nbsp_telemetry::{Event, EVENT_COUNT};

use crate::hist::Hist;
use crate::report::{self, Outcome, Shared, Tele, FLUSH_EVERY};
use crate::team::SpinBarrier;
use crate::trace::{self, NONE, NO_REQ};
use crate::Run;

const KEY_SPACE: u64 = 1 << 12;
/// Calls each thread makes per round.
const CALLS: usize = 4_096;
/// Keys one `range_snapshot` spans.
const RANGE_WIDTH: u64 = 32;

const INSERT: u64 = 0;
const DELETE: u64 = 1;
const RANGE: u64 = 2;

type Map = OrdMap<<Fig4Native as Provider>::Var>;

fn value_of(key: u64) -> u64 {
    2 * key + 1
}

/// A seeded half of `0..key_space`, in seeded order: a fixed count, so
/// that every round's arena has the same size.
pub fn prefill(rng: &mut SplitMix64, key_space: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..key_space).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_index(i + 1));
    }
    keys.truncate(keys.len() / 2);
    keys
}

/// The prefill and each
/// thread's call stream, as `key << 2 | kind`.
pub fn inputs(seed: u64) -> (Vec<u64>, [Vec<u64>; 2]) {
    let mut rng = SplitMix64::new(seed);
    let prefill = prefill(&mut rng, KEY_SPACE);
    let streams = [0u64, 1].map(|t| {
        (0..CALLS)
            .map(|_| {
                let key = 2 * rng.next_below(KEY_SPACE / 2) + t;
                let kind = match rng.next_below(100) {
                    0..=48 => INSERT,
                    49..=97 => DELETE,
                    _ => RANGE,
                };
                key << 2 | kind
            })
            .collect()
    });
    (prefill, streams)
}

struct Round {
    env: <Fig4Native as Provider>::Env,
    map: Map,
    present: Vec<bool>,
    streams: [Vec<u64>; 2],
    barrier: SpinBarrier,
    traced: bool,
}

#[derive(Default)]
struct ThreadOut {
    lat: Hist,
    start_ns: u64,
    end_ns: u64,
    writes: u64,
    full: u64,
    inserted: u64,
    deleted: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
    /// The thread's model after the round: which of its keys are present.
    present: Vec<bool>,
}

impl ThreadOut {
    fn mismatch(&mut self, msg: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(msg());
        }
    }
}

fn setup((prefill, streams): (Vec<u64>, [Vec<u64>; 2]), traced: bool) -> Round {
    let env = Fig4Native::env(2).expect("fig4-native env");
    let mut tc = Fig4Native::thread_ctx(&env, 0);
    let mut ctx = Fig4Native::ctx(&mut tc);
    let map = OrdMap::new(
        2,
        ordmap_capacity(prefill.len() + 2 * CALLS),
        || Fig4Native::var(&env, 0).expect("fig4-native var"),
        &mut ctx,
    );
    let mut present = vec![false; KEY_SPACE as usize];
    for &k in &prefill {
        map.insert(&mut ctx, 0, k, value_of(k))
            .expect("the arena covers the prefill");
        present[k as usize] = true;
    }
    Round {
        env,
        map,
        present,
        streams,
        barrier: SpinBarrier::default(),
        traced,
    }
}

fn churn(r: &Round, shared: &Shared, epoch: Instant, tid: usize) -> ThreadOut {
    let mut spans = shared.spans(tid, r.traced);
    let mut tc = Fig4Native::thread_ctx(&r.env, tid);
    let mut ctx = Fig4Native::ctx(&mut tc);
    let mut out = ThreadOut {
        present: r.present.clone(),
        ..ThreadOut::default()
    };
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut tele = Tele::new();
    r.barrier.wait();
    out.start_ns = now();
    for (i, &op) in r.streams[tid].iter().enumerate() {
        let (key, kind) = (op >> 2, op & 3);
        let had = out.present[key as usize];
        let expect = had.then(|| value_of(key));
        let t0 = now();
        match kind {
            INSERT | DELETE => {
                let (res, layer) = if kind == INSERT {
                    (
                        r.map.insert(&mut ctx, tid, key, value_of(key)),
                        trace::MAP_INSERT,
                    )
                } else {
                    (r.map.delete(&mut ctx, tid, key), trace::MAP_DELETE)
                };
                let t1 = now();
                out.lat.record(t1 - t0);
                spans.push(layer, NONE, NO_REQ, t0, t1);
                out.writes += 1;
                match res {
                    Ok(prev) => {
                        if prev != expect {
                            out.mismatch(|| {
                                format!("thread {tid} key {key}: got {prev:?}, model {expect:?}")
                            });
                        }
                        if kind == INSERT {
                            out.inserted += u64::from(prev.is_none());
                        } else {
                            out.deleted += u64::from(prev.is_some());
                        }
                        out.present[key as usize] = kind == INSERT;
                    }
                    Err(_) => out.full += 1,
                }
            }
            _ => {
                let hi = (key + RANGE_WIDTH - 1).min(KEY_SPACE - 1);
                let got = r.map.range_snapshot(&mut ctx, key, hi);
                let t1 = now();
                out.lat.record(t1 - t0);
                spans.push(trace::MAP_RANGE, NONE, NO_REQ, t0, t1);
                let mine: Vec<(u64, u64)> = got
                    .iter()
                    .copied()
                    .filter(|(k, _)| k % 2 == tid as u64)
                    .collect();
                let model: Vec<(u64, u64)> = (key..=hi)
                    .filter(|k| k % 2 == tid as u64 && out.present[*k as usize])
                    .map(|k| (k, value_of(k)))
                    .collect();
                let sorted = got.windows(2).all(|w| w[0].0 < w[1].0);
                if mine != model || !sorted {
                    out.mismatch(|| {
                        format!("thread {tid} range [{key}, {hi}]: got {mine:?}, model {model:?}")
                    });
                }
            }
        }
        if (i + 1) % FLUSH_EVERY as usize == 0 {
            tele.flush(shared, &mut spans, epoch);
        }
    }
    tele.flush(shared, &mut spans, epoch);
    out.end_ns = now();
    out
}

/// The quiescent checks: the map holds exactly the keys of the two
/// models, its length is prefill + inserts − deletes, and its snapshot is
/// sorted with unique keys.
fn check_quiescent(r: &Round, outs: &[ThreadOut; 2], prefill: usize, o: &mut Outcome) {
    let mut tc = Fig4Native::thread_ctx(&r.env, 0);
    let mut ctx = Fig4Native::ctx(&mut tc);
    let snap = r.map.snapshot(&mut ctx);
    if !snap.windows(2).all(|w| w[0].0 < w[1].0) {
        o.violation("map_churn: snapshot is not sorted with unique keys".into());
    }
    let net = prefill as u64 + outs.iter().map(|t| t.inserted).sum::<u64>()
        - outs.iter().map(|t| t.deleted).sum::<u64>();
    if snap.len() as u64 != net {
        o.violation(format!(
            "map_churn: map holds {} keys, prefill + inserts - deletes = {net}",
            snap.len()
        ));
    }
    let model: Vec<(u64, u64)> = (0..KEY_SPACE)
        .filter(|&k| outs[(k % 2) as usize].present[k as usize])
        .map(|k| (k, value_of(k)))
        .collect();
    if snap != model {
        o.violation("map_churn: final map differs from the threads' models".into());
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut o = Outcome::default();
    // A traced round records one span per call plus the flushes.
    let per_round = CALLS + CALLS / FLUSH_EVERY as usize + 1;
    let shared = Arc::new(Shared::new(if run.traced { 32 * per_round } else { 0 }));
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut lat = Hist::new();
    let (mut calls, mut writes, mut records, mut phase_s) = (0u64, 0u64, 0u64, 0.0);
    // Event totals after the uncounted round 0.
    let mut warm = [0; EVENT_COUNT];
    report::for_rounds(run.seconds, |i, counted| {
        let traced = report::traced_round(run.traced, i) && shared.span_room() >= per_round;
        let inputs = inputs(run.seed.wrapping_mul(0x100_0000).wrapping_add(i));
        let t = Instant::now();
        let round = Arc::new(setup(inputs, traced));
        let setup_s = t.elapsed().as_secs_f64();
        let before = round.map.remaining_capacity();
        let (r2, s2, epoch) = (Arc::clone(&round), Arc::clone(&shared), run.epoch);
        let outs = run
            .team
            .run(Arc::new(move |tid| churn(&r2, &s2, epoch, tid)));
        let prefill = round.present.iter().filter(|&&p| p).count();
        for t in &outs {
            if let Some(m) = &t.first_mismatch {
                o.violation(format!(
                    "map_churn round {i}: {} calls disagree with the model; first: {m}",
                    t.mismatches
                ));
            }
        }
        check_quiescent(&round, &outs, prefill, &mut o);
        if !counted {
            warm = shared.totals();
            return;
        }
        let secs = (outs[0].end_ns.max(outs[1].end_ns) - outs[0].start_ns.min(outs[1].start_ns))
            as f64
            / 1e9;
        setups.push(setup_s);
        phase_s += secs;
        rounds.push((secs, traced));
        records += (before - round.map.remaining_capacity()) as u64;
        for t in &outs {
            lat.merge(&t.lat);
            calls += CALLS as u64;
            writes += t.writes;
            o.failed += t.full;
        }
    });
    o.attempted = calls;
    o.set_setup(&mut setups);
    o.set("throughput_ops_s", calls as f64 / phase_s);
    o.set_latency(&lat, 1.0, "one per call");
    o.notes.push(format!(
        "rounds: {}, calls: {calls}, timed: {phase_s:.3} s",
        rounds.len()
    ));

    let totals = report::delta(&warm, &shared.totals());
    o.set_core("fig4-native", &totals, calls);
    o.set(
        "structures.ordmap.records_per_write",
        records as f64 / writes.max(1) as f64,
    );
    let per_1k = |e: Event| totals[e.index()] as f64 * 1e3 / calls as f64;
    o.set("llx.help_per_1k_ops", per_1k(Event::LlxHelp));
    o.set("llx.scx_abort_per_1k_ops", per_1k(Event::ScxAbort));
    if run.traced {
        shared.take_spans(&mut o);
        o.set("trace_overhead_frac", report::trace_overhead(&rounds));
        o.set_span_quantiles(
            trace::MAP_INSERT,
            "structures.ordmap.insert_ns_p50",
            Some("structures.ordmap.insert_ns_p99"),
            1.0,
        );
        o.set_span_quantiles(
            trace::MAP_DELETE,
            "structures.ordmap.delete_ns_p50",
            Some("structures.ordmap.delete_ns_p99"),
            1.0,
        );
        o.set_span_quantiles(
            trace::MAP_RANGE,
            "structures.ordmap.range_ns_p50",
            None,
            1.0,
        );
        o.set_span_quantiles(
            trace::TELE_FLUSH,
            "telemetry.flush_ns_p50",
            Some("telemetry.flush_ns_p99"),
            1.0,
        );
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream_and_seeds_differ() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7).1, inputs(8).1);
        let (prefill, streams) = inputs(7);
        for (t, s) in streams.iter().enumerate() {
            assert!(
                s.iter().all(|op| (op >> 2) % 2 == t as u64),
                "thread {t} owns its keys"
            );
        }
        let mut sorted = prefill.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), prefill.len());
    }
}
