//! `llsc_hot`: a closed loop of two threads on hot single-word LL/SC.
//!
//! Each thread runs a seeded stream of batches: 16 `Counter::fetch_add`
//! calls on one of four counters, then 8 `Stack` push/pop pairs on one of
//! two stacks, every word and stack on its own cache line. Every round
//! runs the same streams once on each of the paper's three single-word
//! constructions — Figure 4 over native CAS, Figure 7 with bounded tags,
//! and Figure 5 over `nbsp_memsim` RLL/RSC — with equal calls on each, so
//! each provider's share of the run time is its share of the cost.
//! Provider LL/VL/SC does nearly all the work; serving, LLX and the map
//! are bypassed.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nbsp_core::provider::{Fig4Native, Fig5Rll, Fig7Bounded};
use nbsp_core::{CachePadded, LlScVar, Provider};
use nbsp_memsim::rng::SplitMix64;
use nbsp_structures::{Counter, Stack};
use nbsp_telemetry::{Event, EVENT_COUNT};

use crate::hist::Hist;
use crate::report::{self, Outcome, Shared, Tele, FLUSH_EVERY};
use crate::team::SpinBarrier;
use crate::trace::{self, SpanBuf, NONE, NO_REQ};
use crate::Run;

const COUNTERS: usize = 4;
const STACKS: usize = 2;
/// Calls per timed batch: clock reads cost tens of ns, so sub-µs calls
/// are timed 32 at a time. Every batch makes the same mix, `ADDS` counter
/// calls then `PAIRS` stack push/pop pairs, so that the batch times of one
/// provider form one mode and their median is not the edge between two.
const BATCH: usize = 32;
const ADDS: usize = BATCH / 2;
const PAIRS: usize = BATCH / 4;
/// Stream arguments per batch: the counter deltas, then the pushed values.
const ARGS: usize = ADDS + PAIRS;
/// Batches each thread runs per provider per round.
const BATCHES: usize = 4096;
/// Processes per provider environment: the two threads, set-up, checks.
const PROCS: usize = 4;
/// The fabric's stack sizing for two workers.
const STACK_CAPACITY: usize = 2 * 2 + 8;
/// Builds of the three providers' objects per round. One build takes
/// microseconds, too short to time steadily, so set-up times this many
/// builds (each dropped but the last) and reports the time per build.
const SETUP_BUILDS: u32 = 64;

pub const PROVIDERS: [&str; 3] = ["fig4-native", "fig7-bounded", "fig5-rll"];

/// One thread's calls: per batch, `counter << 1 | stack` and [`ARGS`]
/// arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stream {
    batches: Vec<u8>,
    args: Vec<u16>,
}

/// Both threads' streams for one round.
pub fn inputs(seed: u64) -> [Stream; 2] {
    let mut rng = SplitMix64::new(seed);
    [0, 1].map(|_| {
        let batches = (0..BATCHES)
            .map(|_| (rng.next_index(COUNTERS) as u8) << 1 | rng.next_index(STACKS) as u8)
            .collect();
        let args = (0..BATCHES * ARGS)
            .map(|_| 1 + rng.next_below(255) as u16)
            .collect();
        Stream { batches, args }
    })
}

/// One provider's hot objects.
struct Objs<P: Provider> {
    env: P::Env,
    /// Largest value a word holds: counters count modulo `max + 1`.
    max: u64,
    counters: Vec<CachePadded<Counter<P::Var>>>,
    stacks: Vec<CachePadded<Stack<P::Var>>>,
}

impl<P: Provider> Objs<P> {
    fn new() -> Self {
        let env = P::env(PROCS).expect("provider env");
        let var = || P::var(&env, 0).expect("provider var");
        let max = var().max_val();
        let counters = (0..COUNTERS)
            .map(|_| CachePadded::new(Counter::new(var())))
            .collect();
        let mut tc = P::thread_ctx(&env, 2);
        let mut ctx = P::ctx(&mut tc);
        let stacks = (0..STACKS)
            .map(|_| CachePadded::new(Stack::new(STACK_CAPACITY, var(), var(), &mut ctx)))
            .collect();
        drop(ctx);
        Objs {
            env,
            max,
            counters,
            stacks,
        }
    }
}

/// What one thread did on one provider.
#[derive(Clone, Debug, Default)]
struct SegOut {
    batches: Hist,
    start_ns: u64,
    end_ns: u64,
    counter_ns: u64,
    counter_calls: u64,
    stack_ns: u64,
    pairs: u64,
    full: u64,
    empty_pops: u64,
    added: [u64; COUNTERS],
    pushed_sum: [u64; STACKS],
    popped_sum: [u64; STACKS],
    pushes: [u64; STACKS],
    pops: [u64; STACKS],
    rsc: u64,
    rsc_failed: u64,
}

fn segment<P: Provider>(
    objs: &Objs<P>,
    stream: &Stream,
    tid: usize,
    spans: &mut SpanBuf,
    tele: &mut Tele,
    shared: &Shared,
    epoch: Instant,
) -> (SegOut, P::ThreadCtx) {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut out = SegOut::default();
    let mut tc = P::thread_ctx(&objs.env, tid);
    let mut ctx = P::ctx(&mut tc);
    out.start_ns = now();
    for (b, &batch) in stream.batches.iter().enumerate() {
        let (ci, si) = (usize::from(batch >> 1), usize::from(batch & 1));
        let (c, s) = (&objs.counters[ci], &objs.stacks[si]);
        let (adds, values) = stream.args[b * ARGS..(b + 1) * ARGS].split_at(ADDS);
        let t0 = now();
        for &d in adds {
            c.fetch_add(&mut ctx, u64::from(d));
        }
        let t1 = now();
        for &v in values {
            match s.push(&mut ctx, u64::from(v)) {
                Ok(()) => {
                    out.pushes[si] += 1;
                    out.pushed_sum[si] += u64::from(v);
                }
                Err(_) => out.full += 1,
            }
            match s.pop(&mut ctx) {
                Some(x) => {
                    out.pops[si] += 1;
                    out.popped_sum[si] += x;
                }
                None => out.empty_pops += 1,
            }
        }
        let t2 = now();
        out.batches.record(t2 - t0);
        out.counter_ns += t1 - t0;
        out.counter_calls += ADDS as u64;
        out.added[ci] += adds.iter().map(|&d| u64::from(d)).sum::<u64>();
        out.stack_ns += t2 - t1;
        out.pairs += PAIRS as u64;
        spans.push(trace::COUNTER, trace::SEGMENT, NO_REQ, t0, t1);
        spans.push(trace::STACK, trace::SEGMENT, NO_REQ, t1, t2);
        if ((b + 1) * BATCH).is_multiple_of(FLUSH_EVERY as usize) {
            tele.flush(shared, spans, epoch);
        }
    }
    out.end_ns = now();
    spans.push(trace::SEGMENT, NONE, NO_REQ, out.start_ns, out.end_ns);
    drop(ctx);
    (out, tc)
}

struct Round {
    fig4: Objs<Fig4Native>,
    fig7: Objs<Fig7Bounded>,
    fig5: Objs<Fig5Rll>,
    streams: [Stream; 2],
    barrier: SpinBarrier,
    traced: bool,
    /// Event totals before the first segment and after each.
    snaps: Mutex<Vec<[u64; EVENT_COUNT]>>,
}

fn hot(r: &Round, shared: &Shared, epoch: Instant, tid: usize) -> Vec<SegOut> {
    let mut spans = shared.spans(tid, r.traced);
    let stream = &r.streams[tid];
    let mut outs = Vec::with_capacity(PROVIDERS.len());
    if tid == 0 {
        r.snaps.lock().expect("snapshot list").push(shared.totals());
    }
    for p in 0..PROVIDERS.len() {
        r.barrier.wait();
        let mut tele = Tele::new();
        let out = match p {
            0 => segment(&r.fig4, stream, tid, &mut spans, &mut tele, shared, epoch).0,
            1 => segment(&r.fig7, stream, tid, &mut spans, &mut tele, shared, epoch).0,
            _ => {
                let (mut out, proc) =
                    segment(&r.fig5, stream, tid, &mut spans, &mut tele, shared, epoch);
                let stats = proc.stats();
                out.rsc = stats.rsc_attempts;
                out.rsc_failed = stats.rsc_failures();
                out
            }
        };
        tele.flush(shared, &mut spans, epoch);
        outs.push(out);
        r.barrier.wait();
        if tid == 0 {
            r.snaps.lock().expect("snapshot list").push(shared.totals());
        }
    }
    outs
}

/// Each counter holds exactly the increments made, and on each stack
/// pushes − pops equals `len_quiescent`, with every popped value pushed.
fn check<P: Provider>(objs: &Objs<P>, outs: &[&SegOut; 2], name: &str, o: &mut Outcome) {
    let mut tc = P::thread_ctx(&objs.env, 3);
    let mut ctx = P::ctx(&mut tc);
    for (i, c) in objs.counters.iter().enumerate() {
        let added: u64 = outs.iter().map(|t| t.added[i]).sum();
        let got = c.get(&mut ctx);
        let want = added.checked_rem(objs.max.wrapping_add(1)).unwrap_or(added);
        if got != want {
            o.violation(format!(
                "llsc_hot {name}: counter {i} holds {got}, increments made {want}"
            ));
        }
    }
    for (i, s) in objs.stacks.iter().enumerate() {
        let pushes: u64 = outs.iter().map(|t| t.pushes[i]).sum();
        let pops: u64 = outs.iter().map(|t| t.pops[i]).sum();
        let len = s.len_quiescent(&mut ctx) as u64;
        if pushes - pops != len {
            o.violation(format!(
                "llsc_hot {name}: stack {i} pushes - pops = {} but len_quiescent = {len}",
                pushes - pops
            ));
        }
        let pushed: u64 = outs.iter().map(|t| t.pushed_sum[i]).sum();
        let popped: u64 = outs.iter().map(|t| t.popped_sum[i]).sum();
        if len == 0 && pushed != popped {
            o.violation(format!(
                "llsc_hot {name}: stack {i} popped values sum to {popped}, pushed {pushed}"
            ));
        }
    }
    let empty: u64 = outs.iter().map(|t| t.empty_pops).sum();
    if empty > 0 {
        o.violation(format!(
            "llsc_hot {name}: {empty} pops found the stack empty right after the thread's own push"
        ));
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut o = Outcome::default();
    let per_round = PROVIDERS.len() * (2 * BATCHES + 2 + BATCHES * BATCH / FLUSH_EVERY as usize);
    let shared = Arc::new(Shared::new(if run.traced { 16 * per_round } else { 0 }));
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut lat = Hist::new();
    let mut seg_s = [0.0f64; 3];
    let mut totals: Vec<SegOut> = vec![SegOut::default(); PROVIDERS.len()];
    let mut events = [[0u64; EVENT_COUNT]; 3];
    report::for_rounds(run.seconds, |i, counted| {
        let traced = report::traced_round(run.traced, i) && shared.span_room() >= per_round;
        let streams = inputs(run.seed.wrapping_mul(0x100_0000).wrapping_add(i));
        let t = Instant::now();
        for _ in 1..SETUP_BUILDS {
            black_box((
                Objs::<Fig4Native>::new(),
                Objs::<Fig7Bounded>::new(),
                Objs::<Fig5Rll>::new(),
            ));
        }
        let (fig4, fig7, fig5) = (Objs::new(), Objs::new(), Objs::new());
        let setup_s = t.elapsed().as_secs_f64() / f64::from(SETUP_BUILDS);
        let round = Arc::new(Round {
            streams,
            fig4,
            fig7,
            fig5,
            barrier: SpinBarrier::default(),
            traced,
            snaps: Mutex::new(Vec::new()),
        });
        let (r2, s2, epoch) = (Arc::clone(&round), Arc::clone(&shared), run.epoch);
        let [a, b] = run.team.run(Arc::new(move |tid| hot(&r2, &s2, epoch, tid)));
        for p in 0..PROVIDERS.len() {
            let pair = [&a[p], &b[p]];
            match p {
                0 => check(&round.fig4, &pair, PROVIDERS[p], &mut o),
                1 => check(&round.fig7, &pair, PROVIDERS[p], &mut o),
                _ => check(&round.fig5, &pair, PROVIDERS[p], &mut o),
            }
        }
        if !counted {
            return;
        }
        setups.push(setup_s);
        let snaps = round.snaps.lock().expect("snapshot list").clone();
        let mut secs = 0.0;
        for p in 0..PROVIDERS.len() {
            let pair = [&a[p], &b[p]];
            let s = (a[p].end_ns.max(b[p].end_ns) - a[p].start_ns.min(b[p].start_ns)) as f64 / 1e9;
            seg_s[p] += s;
            secs += s;
            let d = report::delta(&snaps[p], &snaps[p + 1]);
            for (e, x) in events[p].iter_mut().zip(d) {
                *e += x;
            }
            for t in pair {
                lat.merge(&t.batches);
                let acc = &mut totals[p];
                acc.counter_ns += t.counter_ns;
                acc.counter_calls += t.counter_calls;
                acc.stack_ns += t.stack_ns;
                acc.pairs += t.pairs;
                acc.full += t.full;
                acc.rsc += t.rsc;
                acc.rsc_failed += t.rsc_failed;
            }
        }
        rounds.push((secs, traced));
    });
    let calls_of = |s: &SegOut| s.counter_calls + 2 * s.pairs;
    let calls: u64 = totals.iter().map(calls_of).sum();
    o.attempted = calls;
    o.failed = totals.iter().map(|s| s.full).sum();
    o.set_setup(&mut setups);
    o.set("throughput_ops_s", calls as f64 / seg_s.iter().sum::<f64>());
    o.set_latency(&lat, 1.0 / BATCH as f64, "one per batch of 32 calls");
    o.notes.push(format!(
        "rounds: {}, calls: {calls} ({} per provider)",
        rounds.len(),
        calls / 3
    ));
    for (p, name) in PROVIDERS.iter().enumerate() {
        o.notes.push(format!(
            "{name}: {:.1} ns per call",
            seg_s[p] * 1e9 / calls_of(&totals[p]) as f64 * 2.0
        ));
    }

    let ns_per_call = |s: &SegOut| (s.counter_ns + s.stack_ns) as f64 / calls_of(s) as f64;
    for (p, name) in [
        "core.fig4-native.ns_per_call",
        "core.fig7-bounded.ns_per_call",
        "core.fig5-rll.ns_per_call",
    ]
    .into_iter()
    .enumerate()
    {
        o.set(name, ns_per_call(&totals[p]));
        o.set_core(PROVIDERS[p], &events[p], calls_of(&totals[p]));
    }
    o.set(
        "core.fig7-bounded.tag_alloc_per_call",
        events[1][Event::TagAlloc.index()] as f64 / calls_of(&totals[1]) as f64,
    );
    let fig5 = &totals[2];
    o.set(
        "memsim.rsc_per_call",
        fig5.rsc as f64 / calls_of(fig5) as f64,
    );
    o.set(
        "memsim.rsc_fail_frac",
        fig5.rsc_failed as f64 / fig5.rsc.max(1) as f64,
    );
    let (cns, ccalls): (u64, u64) = totals
        .iter()
        .fold((0, 0), |a, s| (a.0 + s.counter_ns, a.1 + s.counter_calls));
    let (sns, pairs): (u64, u64) = totals
        .iter()
        .fold((0, 0), |a, s| (a.0 + s.stack_ns, a.1 + s.pairs));
    o.set(
        "structures.counter.ns_per_call",
        cns as f64 / ccalls.max(1) as f64,
    );
    o.set("structures.stack.pair_ns", sns as f64 / pairs.max(1) as f64);
    o.set("structures.stack.push_full", o.failed as f64);
    if run.traced {
        shared.take_spans(&mut o);
        o.set("trace_overhead_frac", report::trace_overhead(&rounds));
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
        assert_eq!(inputs(3), inputs(3));
        assert_ne!(inputs(3), inputs(4));
        let [a, b] = inputs(3);
        assert_ne!(a, b, "the two threads get different streams");
        assert_eq!(a.args.len(), BATCHES * ARGS);
    }
}
