//! `serve_mix`: an open loop of Poisson arrivals through `Router`, with
//! SeqLSTM and TreeLSTM at h=256 on one default shard each.
//!
//! Latency runs from each request's *due* time, so a harness that falls
//! behind its own schedule shows up as latency (and as `gen.lag_ms`)
//! instead of silently lowering the offered load.

use cortex_core::ilir::IlirProgram;
use cortex_ds::linearizer::Linearizer;
use cortex_ds::RecStructure;
use cortex_models::Model;
use cortex_serve::{BatcherOptions, ModelId, Router, RouterOptions, RouterTicket};

use crate::arrivals::{self, Rung};
use crate::clock::BenchClock;
use crate::layers::{EndToEnd, LayerReport, SetupSample, Traced};
use crate::ledger::{Layer, Ledger};
use crate::pool::{self, Request, Spec};
use crate::report::Metrics;
use crate::stats::{self, median, P50, P99};
use crate::Outcome;

/// Models served: requests with model index 0 are sequences, 1 trees.
const SPECS: [Spec; 2] = [pool::SEQ_LSTM, pool::TREE_LSTM];
/// Hidden size of both models.
const HIDDEN: usize = 256;
/// Distinct requests (each checked against its reference).
const POOL: usize = 96;
/// Share of `--seconds` the fixed-rate phase lasts; the rate ladder
/// takes about as long again.
const FIXED_SHARE: f64 = 0.5;
/// Throwaway setups after the fixed phase of a traced run (untraced runs
/// rebuild between ladder probes).
const TRACE_REBUILDS: usize = 4;
/// Offered rate of the fixed-rate phase that `latency_p50_ms` and
/// `latency_p99_ms` come from; also the ladder's first rung.
pub const FIXED_RATE: f64 = 400.0;
/// p99 limit (ms) a ladder rung must meet.
pub const P99_LIMIT_MS: f64 = 25.0;
/// Highest rung of the rate ladder (`FIXED_RATE · 2^(k/8)`).
pub const LADDER_TOP: f64 = 6400.0;
/// Requests per ladder probe above the fixed-rate phase: the fewest for
/// which p99 has ten samples beyond it.
pub const RUNG_REQUESTS: usize = 1000;
/// p99 comes from the quietest half of the fixed phase: contention
/// phases barely move this workload (its 2-ms batching wait dominates),
/// while single host stalls would move the tail of a small share.
const TAIL_SHARE: u64 = 2;
/// Climb probes after the coarse walk of the rate ladder.
pub const CLIMB_PROBES: usize = 12;
/// Backlog growth slack (one default flush depth).
const BACKLOG_SLACK: f64 = 16.0;
/// Responses are grouped into blocks of this length by due time; traced
/// runs alternate untraced and traced blocks.
const BLOCK_NS: u64 = 250_000_000;

struct Built {
    models: Vec<Model>,
    programs: Vec<IlirProgram>,
}

/// One from-scratch build: models, lowering, router, one cold request
/// per model.
fn build<'p>(
    clock: &BenchClock,
    slot: &'p mut Option<Built>,
    reqs: &[Request],
    linearizer: &Linearizer,
) -> (&'p Built, Router<'p>, Vec<ModelId>, SetupSample) {
    let t0 = clock.ns();
    let models: Vec<Model> = SPECS.iter().map(|s| (s.build)(HIDDEN)).collect();
    let t1 = clock.ns();
    let programs = models
        .iter()
        .map(|m| m.lower(&Default::default()).expect("models lower"))
        .collect();
    let t2 = clock.ns();
    let built: &'p Built = slot.insert(Built { models, programs });
    let mut router = Router::new(RouterOptions::default()).with_clock(clock.shared());
    let ids: Vec<ModelId> = SPECS
        .iter()
        .zip(&built.programs)
        .zip(&built.models)
        .map(|((s, p), m)| router.add_model(s.name, p, &m.params, 1, BatcherOptions::default()))
        .collect();
    let t3 = clock.ns();
    for (m, &id) in ids.iter().enumerate() {
        let req = reqs
            .iter()
            .find(|r| r.model == m)
            .expect("a request per model");
        let (children, words) = req.parts();
        let s = RecStructure::from_parts(req.kind, children, words).expect("valid parts");
        let lin = linearizer.linearize(&s).expect("linearizes");
        router.submit(id, lin).expect("cold request admitted");
        for (_, r) in router.drain() {
            r.expect("cold request runs");
        }
    }
    let t4 = clock.ns();
    let sample = SetupSample {
        total_ns: t4 - t0,
        init_ns: t1 - t0,
        lower_ns: t2 - t1,
        build_ns: t3 - t2,
        ..SetupSample::default()
    };
    (built, router, ids, sample)
}

/// An admitted request awaiting its response.
struct Flight {
    ticket: RouterTicket,
    req: usize,
    traced: bool,
    /// Due, handling start, after `from_parts`, after `linearize`,
    /// after `submit` (ns).
    due: u64,
    sent: u64,
    parsed: u64,
    linearized: u64,
    submitted: u64,
    /// Whether the submit call itself flushed.
    submit_flushed: bool,
}

/// Serving-layer observations of a traced phase.
#[derive(Default)]
struct ServeTrace {
    traced: Traced,
    /// `[start, end)` of every router call that ran a flush.
    flush_calls: Vec<(u64, u64)>,
    flushes: u64,
    submit_ns: Vec<u64>,
    queue_delay_ns: Vec<u64>,
    batch_sizes: Vec<f64>,
    superwave_widths: Vec<f64>,
    nodes: u64,
}

/// Requests resolved so far by each shard (a rise means a flush ran).
fn resolved_by_shard(router: &Router<'_>, ids: &[ModelId]) -> Vec<u64> {
    ids.iter()
        .flat_map(|&id| router.health(id))
        .map(|h| h.stats.resolved_ok + h.stats.resolved_err)
        .collect()
}

/// Counts shards whose resolved total rose between two snapshots.
fn shards_flushed(before: &[u64], after: &[u64]) -> u64 {
    before.iter().zip(after).filter(|(b, a)| a > b).count() as u64
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// `(due, done)` of every response.
    spans: Vec<(u64, u64)>,
    traced_lat: Vec<f64>,
    plain_lat: Vec<f64>,
    attempted: u64,
    failed: u64,
    backlog: Vec<u32>,
    /// From the phase's origin to its last resolution.
    wall_ns: u64,
}

impl Phase {
    /// Every response's latency from its due time, ascending.
    fn latencies(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self.spans.iter().map(|&(due, done)| done - due).collect();
        l.sort_unstable();
        l
    }
}

struct Loop<'a, 'p> {
    clock: &'a BenchClock,
    router: &'a mut Router<'p>,
    ids: &'a [ModelId],
    reqs: &'a [Request],
    models: &'a [Model],
    linearizer: &'a Linearizer,
    trace: Option<&'a mut ServeTrace>,
}

impl<'p> Loop<'_, 'p> {
    /// Whether a request due at `due` (ns from phase start) is traced.
    fn traced_at(&self, due: u64) -> bool {
        self.trace.is_some() && (due / BLOCK_NS) % 2 == 1
    }

    /// Runs one router call; when `instrument`, records whether it
    /// flushed and when.
    fn call<T>(&mut self, instrument: bool, f: impl FnOnce(&mut Router<'p>) -> T) -> (T, bool) {
        match (&mut self.trace, instrument) {
            (Some(tr), true) => {
                let before = resolved_by_shard(self.router, self.ids);
                let t0 = self.clock.ns();
                let out = f(self.router);
                let t1 = self.clock.ns();
                let n = shards_flushed(&before, &resolved_by_shard(self.router, self.ids));
                if n > 0 {
                    tr.flushes += n;
                    tr.flush_calls.push((t0, t1));
                }
                (out, n > 0)
            }
            _ => (f(self.router), false),
        }
    }

    /// Drives `order` (indices into the pool) arriving at `due` (ns
    /// from the phase start) through the router.
    fn run(&mut self, order: &[usize], due: &[u64]) -> Phase {
        let mut phase = Phase::default();
        // Raw parts are materialized before the clock starts.
        let mut parts: Vec<Option<pool::Parts>> =
            order.iter().map(|&i| Some(self.reqs[i].parts())).collect();
        let origin = self.clock.ns() + 1_000_000;
        let mut flights: Vec<Flight> = Vec::new();
        let (mut next, mut due_by_now, mut completed) = (0usize, 0usize, 0usize);
        while next < order.len() || !flights.is_empty() {
            let now = self.clock.ns();
            if next < order.len() && origin + due[next] <= now {
                while due_by_now < order.len() && origin + due[due_by_now] <= now {
                    due_by_now += 1;
                }
                phase.backlog.push((due_by_now - completed) as u32);
                let i = order[next];
                let traced = self.traced_at(due[next]);
                let (children, words) = parts[next].take().expect("parts used once");
                let req = &self.reqs[i];
                let sent = self.clock.ns();
                phase.attempted += 1;
                let s = RecStructure::from_parts(req.kind, children, words);
                let parsed = self.clock.ns();
                let lin = s
                    .as_ref()
                    .ok()
                    .and_then(|s| self.linearizer.linearize(s).ok());
                let linearized = self.clock.ns();
                let id = self.ids[req.model];
                match lin {
                    Some(lin) => {
                        let instrument = traced || flights.iter().any(|f| f.traced);
                        let (r, flushed) = self.call(instrument, |rt| rt.submit(id, lin));
                        let submitted = self.clock.ns();
                        match r {
                            Ok(ticket) => flights.push(Flight {
                                ticket,
                                req: i,
                                traced,
                                due: origin + due[next],
                                sent,
                                parsed,
                                linearized,
                                submitted,
                                submit_flushed: flushed,
                            }),
                            Err(_) => phase.failed += 1,
                        }
                    }
                    None => phase.failed += 1,
                }
                if let (Some(tr), true) = (&mut self.trace, traced) {
                    if let Ok(s) = &s {
                        tr.nodes += s.num_nodes() as u64;
                    }
                }
                next += 1;
                continue;
            }
            if flights.is_empty() {
                self.clock.wait_until(origin + due[next]);
                continue;
            }
            // A flush a poll runs may resolve any request in flight, so
            // polls are instrumented while any traced request is.
            let instrument = flights.iter().any(|f| f.traced);
            let mut j = 0;
            while j < flights.len() {
                let ticket = flights[j].ticket;
                let (r, _) = self.call(instrument, |rt| rt.poll(ticket));
                let done = self.clock.ns();
                match r {
                    Ok(None) => j += 1,
                    Ok(Some(resp)) => {
                        let f = flights.swap_remove(j);
                        completed += 1;
                        phase.spans.push((f.due, done));
                        let req = &self.reqs[f.req];
                        let model = &self.models[req.model];
                        let ok = resp
                            .outputs
                            .get(&model.output)
                            .is_some_and(|o| req.check(o));
                        if !ok {
                            phase.failed += 1;
                        }
                        if self.trace.is_some() {
                            if f.traced {
                                phase.traced_lat.push((done - f.due) as f64);
                            } else {
                                phase.plain_lat.push((done - f.due) as f64);
                            }
                        }
                        if let (Some(tr), true) = (&mut self.trace, f.traced) {
                            record_traced(tr, &f, &resp, done);
                        }
                    }
                    Err(_) => {
                        flights.swap_remove(j);
                        completed += 1;
                        phase.failed += 1;
                    }
                }
                // A due arrival goes first: the sweep resumes after it.
                if next < order.len() && origin + due[next] <= self.clock.ns() {
                    break;
                }
            }
        }
        phase.wall_ns = self.clock.ns().saturating_sub(origin);
        phase
    }
}

/// Builds a traced request's ledger: lag, intake, submit, queue wait and
/// the flush that ran it; the rest (retrieval behind other requests'
/// polls) is unaccounted.
fn record_traced(tr: &mut ServeTrace, f: &Flight, resp: &cortex_serve::Response, done: u64) {
    let qd = resp.queue_delay.as_nanos() as u64;
    tr.queue_delay_ns.push(qd);
    tr.batch_sizes.push(resp.batch_size as f64);
    tr.superwave_widths.push(resp.superwave_width);
    let mut l = Ledger::new(f.due, done);
    l.span(Ledger::ROOT, Layer::GenLag, f.due, f.sent);
    l.span(Ledger::ROOT, Layer::FromParts, f.sent, f.parsed);
    l.span(Ledger::ROOT, Layer::Linearize, f.parsed, f.linearized);
    if f.submit_flushed {
        l.span(Ledger::ROOT, Layer::Flush, f.linearized, f.submitted);
    } else {
        tr.submit_ns.push(f.submitted - f.linearized);
        l.span(Ledger::ROOT, Layer::Submit, f.linearized, f.submitted);
        // The batcher stamped admission inside the submit call and
        // started the flush `queue_delay` later: find that call.
        let (lo, hi) = (f.linearized + qd, f.submitted + qd);
        let call = tr
            .flush_calls
            .iter()
            .rev()
            .find(|&&(s, e)| s <= hi && e >= lo && e <= done);
        if let Some(&(s, e)) = call {
            l.span(Ledger::ROOT, Layer::QueueWait, f.submitted, s);
            l.span(Ledger::ROOT, Layer::Flush, s, e);
        }
    }
    tr.traced.add(&l);
}

/// Runs `serve_mix` for about `seconds`: a fixed-rate phase, then
/// (untraced runs) the rate ladder.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let clock = BenchClock::new();
    let reqs = pool::build_requests(&SPECS, HIDDEN, pool::serve_mix_inputs(POOL, seed));
    let linearizer = Linearizer::new();

    let mut slot = None;
    let (built, mut router, ids, sample) = build(&clock, &mut slot, &reqs, &linearizer);
    let models = &built.models[..];
    let mut samples = vec![sample];
    // Throwaway from-scratch setups between phases: `setup_s` is the
    // median of setups spread over the run.
    let rebuild = |samples: &mut Vec<SetupSample>| {
        let mut slot = None;
        let (_, _router, _, sample) = build(&clock, &mut slot, &reqs, &linearizer);
        samples.push(sample);
    };

    // Arrivals cycle through the (seed-shuffled) pool, so every phase
    // offers the same mix of kinds and lengths.
    let mut cursor = 0usize;
    let mut order = |n: usize| -> Vec<usize> {
        let o = (cursor..cursor + n).map(|k| k % POOL).collect();
        cursor += n;
        o
    };
    let fixed_n = (FIXED_RATE * seconds as f64 * FIXED_SHARE) as usize;
    let fixed_order = order(fixed_n);
    let fixed_due = arrivals::poisson_due_times(FIXED_RATE, fixed_n, seed ^ 0xd0e);

    let mut tr = ServeTrace::default();
    let fixed = Loop {
        clock: &clock,
        router: &mut router,
        ids: &ids,
        reqs: &reqs,
        models,
        linearizer: &linearizer,
        trace: trace.then_some(&mut tr),
    }
    .run(&fixed_order, &fixed_due);
    let mut attempted = fixed.attempted;
    let mut failed = fixed.failed;
    let mut notes = vec![format!(
        "{POOL} distinct requests (SeqLSTM and TreeLSTM, h={HIDDEN}), \
         fixed phase {fixed_n} requests at {FIXED_RATE} rps"
    )];
    // Peak memory of setup plus steady serving; the ladder's overload
    // probes queue requests on purpose and are not counted.
    let peak_rss_mb = crate::report::peak_rss_mb();

    let (metrics, printed) = if trace {
        for _ in 0..TRACE_REBUILDS {
            rebuild(&mut samples);
        }
        let mut r = LayerReport::default();
        r.set_setup(&samples);
        // Router shards build their engines internally: read the plan
        // facts from a probe engine per program (outside all timing).
        for p in &built.programs {
            let plan = cortex_backend::exec::Engine::new(p).plan_stats();
            r.plan_ops += plan.plan_ops as f64;
            r.threaded_ops += plan.threaded_ops as f64;
            r.specialize_ms += plan.specialize_ns as f64 / 1e6;
        }
        r.set_self_times(&tr.traced);
        let n = tr.traced.requests.max(1) as f64;
        r.nodes_per_req = tr.nodes as f64 / n;
        r.submit_us =
            stats::mean(&tr.submit_ns.iter().map(|&x| x as f64).collect::<Vec<_>>()) / 1e3;
        r.flush_ms = stats::mean(
            &tr.flush_calls
                .iter()
                .map(|&(s, e)| (e - s) as f64)
                .collect::<Vec<_>>(),
        ) / 1e6;
        tr.queue_delay_ns.sort_unstable();
        if !tr.queue_delay_ns.is_empty() {
            r.queue_wait_p50_ms = stats::percentile_sorted(&tr.queue_delay_ns, P50) as f64 / 1e6;
            r.queue_wait_p99_ms = stats::percentile_sorted(&tr.queue_delay_ns, P99) as f64 / 1e6;
        }
        r.batch_size = stats::mean(&tr.batch_sizes);
        r.superwave_width = stats::mean(&tr.superwave_widths);
        r.flushes = tr.flushes as f64;
        let rs = router.stats();
        r.rejected = rs.rejected as f64;
        r.shed = rs.shed as f64;
        r.deadline_misses = rs.deadline_misses as f64;
        r.retries = rs.retries as f64;
        r.spills = rs.spills as f64;
        r.overhead_pct = (median(&fixed.traced_lat) / median(&fixed.plain_lat) - 1.0) * 100.0;
        notes.extend(tr.traced.identity_lines());
        if !tr.traced.exact() {
            failed += 1;
        }
        (r.metrics(), Metrics::default())
    } else {
        let all = fixed.latencies();
        let origin = fixed.spans.iter().map(|&(due, _)| due).min().unwrap_or(0);
        let mut blocks = stats::Blocks::new(origin, BLOCK_NS, usize::MAX, seed);
        for &(due, done) in &fixed.spans {
            blocks.record(due, done);
        }
        let quiet = blocks.quiet(TAIL_SHARE);
        notes.push(format!(
            "fixed phase, whole: {} responses, p50 {:.6} ms, p99 {:.6} ms; quietest half: {}",
            all.len(),
            stats::percentile_sorted(&all, P50) as f64 / 1e6,
            stats::percentile_sorted(&all, P99) as f64 / 1e6,
            stats::tail_note(&quiet.tail),
        ));
        if !stats::reportable(quiet.tail.len(), P99) {
            notes.push(format!(
                "only {} samples: p99 not reportable",
                quiet.tail.len()
            ));
            failed += 1;
        }
        let p99_ms = stats::percentile_sorted(&quiet.tail, P99) as f64 / 1e6;
        // The fixed phase is the first rung, judged on its quietest
        // stretch like the latencies it reports (a ladder probe is short
        // enough to be re-probed instead).
        let first = Rung {
            rate: FIXED_RATE,
            p99_ms,
            backlog_grew: arrivals::backlog_grows(&fixed.backlog, BACKLOG_SLACK),
        };
        let mut probes_run = 0u64;
        let search =
            arrivals::ladder_search(first, LADDER_TOP, P99_LIMIT_MS, CLIMB_PROBES, |rate| {
                probes_run += 1;
                if probes_run.is_multiple_of(2) {
                    rebuild(&mut samples);
                }
                let probe_seed = seed ^ (probes_run << 40);
                let o = order(RUNG_REQUESTS);
                let due = arrivals::poisson_due_times(rate, RUNG_REQUESTS, probe_seed);
                let ph = Loop {
                    clock: &clock,
                    router: &mut router,
                    ids: &ids,
                    reqs: &reqs,
                    models,
                    linearizer: &linearizer,
                    trace: None,
                }
                .run(&o, &due);
                attempted += ph.attempted;
                failed += ph.failed;
                Rung {
                    rate,
                    p99_ms: stats::percentile_sorted(&ph.latencies(), P99) as f64 / 1e6,
                    backlog_grew: arrivals::backlog_grows(&ph.backlog, BACKLOG_SLACK),
                }
            });
        for r in &search.probes {
            notes.push(format!(
                "probe {:.1} rps: p99 {:.3} ms, backlog {}",
                r.rate,
                r.p99_ms,
                if r.backlog_grew { "grew" } else { "steady" }
            ));
        }
        let max_rate = search.max_rate.unwrap_or_else(|| {
            notes.push("the fixed rate already fails: reporting the rung below".into());
            FIXED_RATE / 2f64.powf(0.125)
        });
        EndToEnd {
            latency_p50_ms: quiet.p50_ns as f64 / 1e6,
            latency_p99_ms: p99_ms,
            throughput_rps: all.len() as f64 / (fixed.wall_ns.max(1) as f64 / 1e9),
            max_rate_rps: max_rate,
            setup_s: median(
                &samples
                    .iter()
                    .map(|s| s.total_ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            ),
            peak_rss_mb,
        }
        .metrics()
    };
    notes.push(format!(
        "setups (ms): {:?}",
        samples
            .iter()
            .map(|s| (s.total_ns / 10_000) as f64 / 100.0)
            .collect::<Vec<_>>()
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        printed,
        notes,
    }
}
