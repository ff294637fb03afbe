//! `serve_kv`: open-loop key-value serving over the fabric's public
//! pieces, on `fig4-native` (`fabric::DEFAULT_PROVIDER`).
//!
//! `LoadGen::new_keyed` makes Poisson arrivals with Zipf(1) keys over
//! 4 096 keys; nine requests in ten are `get`s on an `OrdMap` whose live
//! tree (about 2 048 keys) fits in a core's L2. Thread 0 is the generator
//! and shard 0's worker; thread 1 is shard 1's worker. A request is
//! admitted by `StripedBucket::admit` at real time, routed by
//! `shard_for_key` and pushed with `ShardRing::try_push`; workers take
//! work with `try_pop`, or `steal_into` when their ring is empty. The Zipf
//! skew makes one shard hot, so stealing matters. `CellFlusher` and the
//! telemetry flushers publish every 1 024 requests, the fabric's cadence.
//!
//! Each round has two phases on a freshly built map, rings and bucket:
//! - latency: a fixed offered rate well under capacity; a request's
//!   sojourn runs from its intended arrival to its completion, and a shed
//!   request counts as missing;
//! - throughput: the generator keeps the rings backlogged (admission
//!   still on) and the phase's completion rate is the sustainable rate.
//!
//! The benchmark does no simulated service work: a request's work is its
//! map call, so `Request::service_ns` carries the request's id and call
//! kind through the ring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nbsp_core::provider::Fig4Native;
use nbsp_core::Provider;
use nbsp_memsim::rng::SplitMix64;
use nbsp_serve::{
    shard_for_key, AdmissionConfig, AdmitOutcome, ArrivalProcess, CellFlusher, CellSink, KeyDist,
    LoadGen, Request, ShardRing, StripedBucket,
};
use nbsp_structures::{ordmap_capacity, OrdMap};
use nbsp_telemetry::{Event, EVENT_COUNT};

use crate::hist::{Hist, MISSING};
use crate::map_churn::prefill;
use crate::report::{self, Outcome, Shared, Tele, FLUSH_EVERY};
use crate::team::SpinBarrier;
use crate::trace::{self, Span, SpanBuf, NONE, NO_REQ};
use crate::Run;

const KEY_SPACE: u64 = 1 << 12;
/// Offered rate of the latency phase, about a seventh of capacity.
const LAT_RATE: f64 = 300_000.0;
/// Requests per round in each phase.
const LAT_REQUESTS: usize = 16_384;
const THR_REQUESTS: usize = 32_768;
const WORKERS: usize = 2;
/// The fabric experiments' ring size and refill batch.
const RING_CAPACITY: usize = 1024;
const REFILL_BATCH: u64 = 64;
/// Admission stays on but never binds: its rate is far above capacity.
const ADMIT: AdmissionConfig = AdmissionConfig {
    rate_per_sec: 50e6,
    burst: 256,
};

const GET: u64 = 0;
const INSERT: u64 = 1;
const DELETE: u64 = 2;

type Var = <Fig4Native as Provider>::Var;

fn value_of(key: u64) -> u64 {
    2 * key + 1
}

/// One round's generated inputs: the prefill, then each phase's requests
/// with `service_ns = id << 2 | kind`.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    prefill: Vec<u64>,
    lat: Vec<Request>,
    thr: Vec<Request>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let prefill = prefill(&mut rng, KEY_SPACE);
    let mut gen = LoadGen::new_keyed(
        rng.next_u64(),
        ArrivalProcess::Poisson {
            rate_per_sec: LAT_RATE,
        },
        1.0,
        KeyDist::Zipf { space: KEY_SPACE },
    );
    let mut requests = |first: usize, n: usize| -> Vec<Request> {
        (first..first + n)
            .map(|id| {
                let kind = match rng.next_below(20) {
                    0 => INSERT,
                    1 => DELETE,
                    _ => GET,
                };
                let r = gen.next_request();
                Request {
                    service_ns: (id as u64) << 2 | kind,
                    ..r
                }
            })
            .collect()
    };
    let lat = requests(0, LAT_REQUESTS);
    let thr = requests(LAT_REQUESTS, THR_REQUESTS);
    Inputs { prefill, lat, thr }
}

struct Round {
    env: <Fig4Native as Provider>::Env,
    map: OrdMap<Var>,
    rings: [ShardRing<Var>; WORKERS],
    bucket: StripedBucket<Var>,
    cell: CellSink,
    inputs: Inputs,
    /// Span request id of this round's request 0.
    first_id: u32,
    /// Run-clock time the latency phase's arrivals count from.
    base_ns: AtomicU64,
    done: [AtomicBool; 2],
    barrier: SpinBarrier,
    traced: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Latency = 0,
    Throughput = 1,
}

#[derive(Debug, Default)]
struct ThreadOut {
    sojourn: Hist,
    start_ns: u64,
    end_ns: u64,
    admitted: u64,
    shed: u64,
    refills: u64,
    push_full: u64,
    pops: u64,
    pop_hits: u64,
    steals: u64,
    steal_hits: u64,
    stolen: u64,
    executed: u64,
    writes: u64,
    full: u64,
    inserted: u64,
    deleted: u64,
    /// Ids this thread executed, and ids it shed: per-thread logs, so that
    /// the exactly-once check shares no cache line between the threads.
    ran: Vec<u32>,
    shed_ids: Vec<u32>,
}

fn setup(inputs: Inputs, first_id: u32, traced: bool) -> Round {
    let writes = inputs
        .lat
        .iter()
        .chain(&inputs.thr)
        .filter(|r| r.service_ns & 3 != GET)
        .count();
    let env = Fig4Native::env(WORKERS).expect("fig4-native env");
    let var = || Fig4Native::var(&env, 0).expect("fig4-native var");
    let mut tc = Fig4Native::thread_ctx(&env, 0);
    let mut ctx = Fig4Native::ctx(&mut tc);
    let map = OrdMap::new(
        WORKERS,
        ordmap_capacity(inputs.prefill.len() + writes),
        var,
        &mut ctx,
    );
    for &k in &inputs.prefill {
        map.insert(&mut ctx, 0, k, value_of(k))
            .expect("the arena covers the prefill");
    }
    Round {
        rings: [0, 1].map(|_| ShardRing::new(RING_CAPACITY, var(), var())),
        bucket: StripedBucket::new(ADMIT, REFILL_BATCH, vec![var(), var()]),
        cell: CellSink::new(WORKERS).expect("cell sink"),
        map,
        env,
        inputs,
        first_id,
        base_ns: AtomicU64::new(0),
        done: [AtomicBool::new(false), AtomicBool::new(false)],
        barrier: SpinBarrier::default(),
        traced,
    }
}

/// One thread's side of one phase.
struct Worker<'a> {
    r: &'a Round,
    shared: &'a Shared,
    tid: usize,
    phase: Phase,
    epoch: Instant,
    ctx: nbsp_core::Native,
    spans: std::sync::MutexGuard<'a, SpanBuf>,
    cell: CellFlusher,
    tele: Tele,
    unflushed: u32,
    stash: [Request; nbsp_serve::fabric::STEAL_MAX],
    out: ThreadOut,
}

impl<'a> Worker<'a> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The clock, read only when spans are recorded.
    fn span_now(&self) -> u64 {
        if self.spans.on {
            self.now()
        } else {
            0
        }
    }

    fn rid(&self, req: &Request) -> u32 {
        self.r.first_id + (req.service_ns >> 2) as u32
    }

    fn tick(&mut self) {
        self.unflushed += 1;
        if self.unflushed >= FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let t0 = self.span_now();
        self.cell.flush(&self.r.cell);
        let t1 = self.span_now();
        self.spans.push(trace::CELL_FLUSH, NONE, NO_REQ, t0, t1);
        self.tele.flush(self.shared, &mut self.spans, self.epoch);
        self.unflushed = 0;
    }

    /// Admits a generated request at `now`; `false` if it was shed.
    fn admit(&mut self, req: &Request, shard: usize, now: u64) -> bool {
        let rid = self.rid(req);
        let outcome = self.r.bucket.admit(&mut self.ctx, shard, now);
        let t1 = self.span_now();
        self.spans.push(trace::ADMIT, trace::DISPATCH, rid, now, t1);
        self.tick();
        match outcome {
            AdmitOutcome::Admitted { refilled } => {
                self.cell.record_admit();
                self.out.admitted += 1;
                if refilled {
                    self.cell.record_refill();
                    self.out.refills += 1;
                }
                true
            }
            AdmitOutcome::Shed => {
                self.cell.record_shed();
                self.out.shed += 1;
                self.out.shed_ids.push((req.service_ns >> 2) as u32);
                if self.phase == Phase::Latency {
                    self.out.sojourn.record(MISSING);
                }
                false
            }
        }
    }

    /// One `try_push`; records its span and a full ring.
    fn push(&mut self, req: &Request, shard: usize) -> bool {
        let t0 = self.span_now();
        let ok = self.r.rings[shard].try_push(&mut self.ctx, *req);
        let t1 = self.span_now();
        if ok {
            let rid = self.rid(req);
            self.spans.push(trace::PUSH, trace::DISPATCH, rid, t0, t1);
        } else {
            self.out.push_full += 1;
        }
        ok
    }

    /// Pops from the own ring, or steals from the other when it is empty,
    /// and executes what it got. `false` if both were empty.
    fn work(&mut self) -> bool {
        let t0 = self.span_now();
        self.out.pops += 1;
        if let Some(req) = self.r.rings[self.tid].try_pop(&mut self.ctx) {
            let t1 = self.span_now();
            self.out.pop_hits += 1;
            let rid = self.rid(&req);
            self.spans.push(trace::POP, trace::REQUEST, rid, t0, t1);
            self.execute(&req);
            return true;
        }
        let t1 = self.span_now();
        self.out.steals += 1;
        let k = self.r.rings[1 - self.tid].steal_into(&mut self.ctx, &mut self.stash);
        if k == 0 {
            return false;
        }
        let t2 = self.span_now();
        self.out.steal_hits += 1;
        self.out.stolen += k as u64;
        self.spans.push(trace::STEAL, NONE, NO_REQ, t1, t2);
        for j in 0..k {
            let req = self.stash[j];
            let e0 = self.span_now();
            let rid = self.rid(&req);
            self.spans.push(trace::STASH, trace::REQUEST, rid, t1, e0);
            self.execute(&req);
        }
        true
    }

    fn execute(&mut self, req: &Request) {
        let (id, kind, key) = ((req.service_ns >> 2) as usize, req.service_ns & 3, req.key);
        let rid = self.rid(req);
        let (map, tid) = (&self.r.map, self.tid);
        let e0 = self.span_now();
        let (layer, result) = match kind {
            GET => (trace::MAP_GET, Ok(map.get(&mut self.ctx, key))),
            INSERT => (
                trace::MAP_INSERT,
                map.insert(&mut self.ctx, tid, key, value_of(key)),
            ),
            _ => (trace::MAP_DELETE, map.delete(&mut self.ctx, tid, key)),
        };
        let e1 = self.span_now();
        self.spans.push(layer, trace::EXECUTE, rid, e0, e1);
        match result {
            Ok(prev) if kind == INSERT => self.out.inserted += u64::from(prev.is_none()),
            Ok(prev) if kind == DELETE => self.out.deleted += u64::from(prev.is_some()),
            Ok(_) => {}
            Err(_) => self.out.full += 1,
        }
        self.out.writes += u64::from(kind != GET);
        self.out.ran.push(id as u32);
        self.cell.record_completed(1);
        self.out.executed += 1;
        if self.phase == Phase::Latency {
            let done = self.now();
            let due = self.r.base_ns.load(Ordering::Acquire) + req.arrival_ns;
            self.out.sojourn.record(done - due);
            self.cell.record_sojourn(done - due);
            self.spans
                .push(trace::EXECUTE, trace::REQUEST, rid, e0, done);
            self.spans.push(trace::REQUEST, NONE, rid, due, done);
        } else {
            let e2 = self.span_now();
            self.spans.push(trace::EXECUTE, trace::REQUEST, rid, e0, e2);
        }
        self.tick();
    }

    /// Whether both rings were seen empty.
    fn drained(&mut self) -> bool {
        self.r.rings.iter().all(|ring| ring.is_empty(&mut self.ctx))
    }

    /// Thread 0's latency phase: release each request at its intended
    /// arrival, and serve shard 0 in between.
    fn generate_paced(&mut self) {
        let r = self.r;
        let base = r.base_ns.load(Ordering::Acquire);
        let mut next = 0;
        loop {
            while next < r.inputs.lat.len() {
                let req = r.inputs.lat[next];
                let due = base + req.arrival_ns;
                let now = self.now();
                if now < due {
                    break;
                }
                next += 1;
                let rid = self.rid(&req);
                self.spans.push(trace::LAG, trace::REQUEST, rid, due, now);
                let shard = shard_for_key(req.key, WORKERS);
                if self.admit(&req, shard, now) {
                    while !self.push(&req, shard) {
                        std::hint::spin_loop();
                    }
                    let t = self.span_now();
                    self.spans
                        .push(trace::DISPATCH, trace::REQUEST, rid, now, t);
                }
                if next == r.inputs.lat.len() {
                    r.done[0].store(true, Ordering::Release);
                }
            }
            if !self.work() {
                if next == r.inputs.lat.len() && self.drained() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Thread 0's throughput phase: push until the next request's ring is
    /// full, serve one request from shard 0, repeat.
    fn generate_backlogged(&mut self) {
        let r = self.r;
        let mut pending: Option<(Request, usize, u64)> = None;
        let mut next = 0;
        loop {
            loop {
                let (req, shard, t) = match pending.take() {
                    Some(p) => p,
                    None if next < r.inputs.thr.len() => {
                        let req = r.inputs.thr[next];
                        next += 1;
                        let shard = shard_for_key(req.key, WORKERS);
                        let now = self.now();
                        if !self.admit(&req, shard, now) {
                            continue;
                        }
                        (req, shard, now)
                    }
                    None => break,
                };
                if !self.push(&req, shard) {
                    pending = Some((req, shard, t));
                    break;
                }
                let t1 = self.span_now();
                let rid = self.rid(&req);
                self.spans.push(trace::DISPATCH, trace::REQUEST, rid, t, t1);
            }
            if next == r.inputs.thr.len() && pending.is_none() {
                r.done[1].store(true, Ordering::Release);
            }
            if !self.work() {
                if r.done[1].load(Ordering::Relaxed) && self.drained() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Thread 1: serve shard 1, steal from shard 0 when idle, until the
    /// generator is done and both rings are empty.
    fn serve(&mut self) {
        let done = &self.r.done[self.phase as usize];
        loop {
            if !self.work() {
                // `done` is stored after the final push (release), so a
                // drained view after seeing it means every request is
                // claimed; a stolen one is executed before this check.
                if done.load(Ordering::Acquire) && self.drained() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// An empty vector whose capacity is already paged in.
fn touched(n: usize) -> Vec<u32> {
    let mut v = vec![u32::MAX; n];
    v.clear();
    v
}

fn serve(r: &Round, shared: &Shared, epoch: Instant, tid: usize, phase: Phase) -> ThreadOut {
    let mut tc = Fig4Native::thread_ctx(&r.env, tid);
    let mut w = Worker {
        r,
        shared,
        tid,
        phase,
        epoch,
        ctx: Fig4Native::ctx(&mut tc),
        spans: shared.spans(tid, r.traced),
        cell: CellFlusher::new(tid),
        tele: Tele::new(),
        unflushed: 0,
        stash: [Request {
            arrival_ns: 0,
            service_ns: 0,
            key: 0,
        }; nbsp_serve::fabric::STEAL_MAX],
        out: ThreadOut {
            ran: touched(r.inputs.lat.len() + r.inputs.thr.len()),
            shed_ids: touched(r.inputs.lat.len() + r.inputs.thr.len()),
            ..ThreadOut::default()
        },
    };
    r.barrier.wait();
    w.out.start_ns = w.now();
    if tid == 0 && phase == Phase::Latency {
        // Arrivals count from here. Thread 1 reads this only for requests
        // pushed after the store.
        r.base_ns.store(w.out.start_ns, Ordering::Release);
    }
    match (tid, phase) {
        (0, Phase::Latency) => w.generate_paced(),
        (0, Phase::Throughput) => w.generate_backlogged(),
        _ => w.serve(),
    }
    w.flush();
    w.out.end_ns = w.now();
    w.out
}

/// Every admitted request ran exactly once, whether popped or stolen, and
/// no shed request ran; the cell's own counts and the map agree.
fn check(r: &Round, outs: &[ThreadOut], prefill: usize, o: &mut Outcome) {
    let mut runs = vec![0u8; r.inputs.lat.len() + r.inputs.thr.len()];
    let mut shed = vec![false; runs.len()];
    for t in outs {
        for &id in &t.ran {
            runs[id as usize] = runs[id as usize].saturating_add(1);
        }
        for &id in &t.shed_ids {
            shed[id as usize] = true;
        }
    }
    let bad: Vec<usize> = (0..runs.len())
        .filter(|&id| runs[id] != u8::from(!shed[id]))
        .collect();
    if let Some(&id) = bad.first() {
        o.violation(format!(
            "serve_kv: {} requests did not run exactly once (or ran after a shed); first: id {id} ran {} times, shed {}",
            bad.len(),
            runs[id],
            shed[id]
        ));
    }
    let snap = r.cell.snapshot();
    let generated = (r.inputs.lat.len() + r.inputs.thr.len()) as u64;
    if snap.completed != snap.admitted || snap.generated() != generated {
        o.violation(format!(
            "serve_kv: cell counted {} admitted, {} completed, {} generated of {generated}",
            snap.admitted,
            snap.completed,
            snap.generated()
        ));
    }
    let mut tc = Fig4Native::thread_ctx(&r.env, 0);
    let mut ctx = Fig4Native::ctx(&mut tc);
    let net = prefill as u64 + outs.iter().map(|t| t.inserted).sum::<u64>()
        - outs.iter().map(|t| t.deleted).sum::<u64>();
    let len = r.map.len(&mut ctx) as u64;
    if len != net {
        o.violation(format!(
            "serve_kv: map holds {len} keys, prefill + inserts - deletes = {net}"
        ));
    }
}

/// Queue spans (push end to claim), then the share of sojourn no span
/// covers.
fn analyse(o: &mut Outcome) {
    let mut pushed: HashMap<u32, u64> = HashMap::new();
    let mut claimed: HashMap<u32, u64> = HashMap::new();
    let mut roots = Vec::new();
    for s in &o.spans {
        match s.layer {
            trace::PUSH => {
                pushed.insert(s.req, s.end);
            }
            trace::POP | trace::STASH => {
                claimed.insert(s.req, s.start);
            }
            trace::REQUEST => roots.push(s.req),
            _ => {}
        }
    }
    for rid in roots {
        if let (Some(&start), Some(&end)) = (pushed.get(&rid), claimed.get(&rid)) {
            o.spans.push(Span {
                start,
                end: end.max(start),
                req: rid,
                layer: trace::QUEUE,
                parent: trace::REQUEST,
                tid: 0,
            });
        }
    }
    let self_ns = trace::self_times(&o.spans);
    let (mut unattributed, mut sojourn) = (0u64, 0u64);
    for (s, own) in o.spans.iter().zip(self_ns) {
        if s.layer == trace::REQUEST {
            unattributed += own;
            sojourn += s.dur();
        }
    }
    o.set(
        "serve.unattributed_frac",
        unattributed as f64 / sojourn.max(1) as f64,
    );
}

pub fn run(run: &Run) -> Outcome {
    let mut o = Outcome::default();
    let requests = LAT_REQUESTS + THR_REQUESTS;
    // Spans one thread records in a traced round, at most.
    let per_round = 8 * LAT_REQUESTS + 7 * THR_REQUESTS + 2 * (requests / FLUSH_EVERY as usize + 2);
    let shared = Arc::new(Shared::new(if run.traced { per_round } else { 0 }));
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut sojourn = Hist::new();
    let mut totals = ThreadOut::default();
    let (mut thr_s, mut records) = (0.0, 0u64);
    // Event totals after the uncounted round 0.
    let mut warm = [0; EVENT_COUNT];
    report::for_rounds(run.seconds, |i, counted| {
        let traced = report::traced_round(run.traced, i) && shared.span_room() >= per_round;
        let inputs = inputs(run.seed.wrapping_mul(0x100_0000).wrapping_add(i));
        let t = Instant::now();
        let round = Arc::new(setup(inputs, (i as usize * requests) as u32, traced));
        let setup_s = t.elapsed().as_secs_f64();
        let before = round.map.remaining_capacity();
        let mut outs = Vec::new();
        let mut secs = 0.0;
        for phase in [Phase::Latency, Phase::Throughput] {
            let (r2, s2, epoch) = (Arc::clone(&round), Arc::clone(&shared), run.epoch);
            let pair = run
                .team
                .run(Arc::new(move |tid| serve(&r2, &s2, epoch, tid, phase)));
            secs = (pair[0].end_ns.max(pair[1].end_ns) - pair[0].start_ns.min(pair[1].start_ns))
                as f64
                / 1e9;
            outs.extend(pair);
        }
        check(&round, &outs, round.inputs.prefill.len(), &mut o);
        if !counted {
            warm = shared.totals();
            return;
        }
        setups.push(setup_s);
        thr_s += secs;
        rounds.push((secs, traced));
        records += (before - round.map.remaining_capacity()) as u64;
        for t in &outs {
            sojourn.merge(&t.sojourn);
            let acc = &mut totals;
            for (a, b) in [
                (&mut acc.admitted, t.admitted),
                (&mut acc.shed, t.shed),
                (&mut acc.refills, t.refills),
                (&mut acc.push_full, t.push_full),
                (&mut acc.pops, t.pops),
                (&mut acc.pop_hits, t.pop_hits),
                (&mut acc.steals, t.steals),
                (&mut acc.steal_hits, t.steal_hits),
                (&mut acc.stolen, t.stolen),
                (&mut acc.executed, t.executed),
                (&mut acc.writes, t.writes),
                (&mut acc.full, t.full),
            ] {
                *a += b;
            }
        }
    });
    let n_rounds = rounds.len() as u64;
    let generated = n_rounds * requests as u64;
    o.attempted = generated;
    o.failed = totals.shed + totals.full;
    o.set_setup(&mut setups);
    o.set(
        "throughput_ops_s",
        (n_rounds * THR_REQUESTS as u64) as f64 / thr_s,
    );
    o.set_latency(
        &sojourn,
        1.0,
        "one per generated request of the latency phase",
    );
    o.notes.push(format!(
        "rounds: {n_rounds}, requests: {generated}, throughput phases: {thr_s:.3} s, steals: {} of {} attempts",
        totals.steal_hits, totals.steals
    ));

    let ev = report::delta(&warm, &shared.totals());
    o.set_core("fig4-native", &ev, totals.executed);
    let per_1k = |n: u64| n as f64 * 1e3 / totals.executed.max(1) as f64;
    o.set("llx.help_per_1k_ops", per_1k(ev[Event::LlxHelp.index()]));
    o.set(
        "llx.scx_abort_per_1k_ops",
        per_1k(ev[Event::ScxAbort.index()]),
    );
    o.set(
        "structures.ordmap.records_per_write",
        records as f64 / totals.writes.max(1) as f64,
    );
    o.set(
        "serve.admit.refills_per_1k",
        totals.refills as f64 * 1e3 / totals.admitted.max(1) as f64,
    );
    o.set(
        "serve.admit.shed_frac",
        totals.shed as f64 / generated as f64,
    );
    o.set(
        "serve.ring.pop_hit_frac",
        totals.pop_hits as f64 / totals.pops.max(1) as f64,
    );
    o.set("serve.ring.push_full", totals.push_full as f64);
    o.set(
        "serve.steal.success_frac",
        totals.steal_hits as f64 / totals.steals.max(1) as f64,
    );
    o.set(
        "serve.steal.batch_mean",
        totals.stolen as f64 / totals.steal_hits.max(1) as f64,
    );
    if run.traced {
        shared.take_spans(&mut o);
        analyse(&mut o);
        o.set("trace_overhead_frac", report::trace_overhead(&rounds));
        let us = Some;
        o.set_span_quantiles(
            trace::LAG,
            "loadgen.lag_p50_us",
            us("loadgen.lag_p99_us"),
            1e3,
        );
        o.set_span_quantiles(
            trace::QUEUE,
            "serve.queue_wait_us_p50",
            us("serve.queue_wait_us_p99"),
            1e3,
        );
        o.set_span_quantiles(trace::ADMIT, "serve.admit.ns_p50", None, 1.0);
        o.set_span_quantiles(trace::PUSH, "serve.ring.push_ns_p50", None, 1.0);
        o.set_span_quantiles(trace::POP, "serve.ring.pop_ns_p50", None, 1.0);
        o.set_span_quantiles(trace::STEAL, "serve.steal.ns_p50", None, 1.0);
        o.set_span_quantiles(
            trace::CELL_FLUSH,
            "serve.metrics.flush_ns_p50",
            Some("serve.metrics.flush_ns_p99"),
            1.0,
        );
        o.set_span_quantiles(
            trace::TELE_FLUSH,
            "telemetry.flush_ns_p50",
            Some("telemetry.flush_ns_p99"),
            1.0,
        );
        o.set_span_quantiles(
            trace::MAP_GET,
            "structures.ordmap.get_ns_p50",
            Some("structures.ordmap.get_ns_p99"),
            1.0,
        );
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
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream_and_seeds_differ() {
        let a = inputs(11);
        assert_eq!(a, inputs(11));
        assert_ne!(a.lat, inputs(12).lat);
        let ids: Vec<u64> = a
            .lat
            .iter()
            .chain(&a.thr)
            .map(|r| r.service_ns >> 2)
            .collect();
        assert!(
            ids.iter().enumerate().all(|(i, &id)| id == i as u64),
            "ids number the requests"
        );
        let gets = a.lat.iter().filter(|r| r.service_ns & 3 == GET).count();
        assert!(gets * 10 > a.lat.len() * 8, "read-mostly: {gets} gets");
    }
}
