//! Closed-loop workloads (`paper_bs10`, `tiny_mix`): one caller sends
//! the next request as soon as the previous one returns, straight
//! through `Engine::execute`.

use cortex_backend::exec::{Engine, ExecStats};
use cortex_core::ilir::IlirProgram;
use cortex_ds::linearizer::Linearizer;
use cortex_ds::RecStructure;
use cortex_models::Model;
use cortex_tensor::Tensor;

use crate::clock::BenchClock;
use crate::layers::{EndToEnd, LayerReport, SetupSample, Traced};
use crate::ledger::{Layer, Ledger};
use crate::pool::{self, Request, Spec};
use crate::report::Metrics;
use crate::stats::{self, median, P50, P99};
use crate::Outcome;

/// A closed-loop workload's fixed shape.
pub struct Closed {
    /// Models served, in request model-index order.
    pub specs: &'static [Spec],
    /// Hidden size.
    pub hidden: usize,
    /// Builds the distinct request inputs from the seed.
    pub inputs: fn(u64) -> pool::Inputs,
}

/// `paper_bs10`: 10 SST-like trees per request through TreeLSTM h=256.
pub const PAPER_BS10: Closed = Closed {
    specs: std::slice::from_ref(&pool::TREE_LSTM),
    hidden: 256,
    inputs: |seed| pool::paper_bs10_inputs(16, seed),
};

/// `tiny_mix`: 1–8-leaf inputs round-robin over the nine Table 2 models
/// at h=16.
pub const TINY_MIX: Closed = Closed {
    specs: &pool::TABLE2,
    hidden: 16,
    inputs: |seed| pool::tiny_mix_inputs(&pool::TABLE2, 3, seed),
};

/// Requests are grouped into blocks of this length by start time.
const BLOCK_NS: u64 = 250_000_000;
/// Latencies sampled per block.
const BLOCK_SAMPLES: usize = 4096;
/// p99 comes from the quietest tenth of the run: contention phases
/// slow every request here, so a small share keeps them out.
const TAIL_SHARE: u64 = 10;
/// A throwaway from-scratch setup runs every this many blocks.
const REBUILD_EVERY: u64 = 16;

/// Models and their lowered programs (engines borrow the programs).
struct Built {
    models: Vec<Model>,
    programs: Vec<IlirProgram>,
}

/// One from-scratch build: models, lowering, engines, one cold request
/// per model. Returns the engines and the timing sample.
fn build<'p>(
    w: &Closed,
    clock: &BenchClock,
    slot: &'p mut Option<Built>,
    reqs: &[Request],
    linearizer: &Linearizer,
) -> (&'p [Model], Vec<Engine<'p>>, SetupSample) {
    let t0 = clock.ns();
    let models: Vec<Model> = w.specs.iter().map(|s| (s.build)(w.hidden)).collect();
    let t1 = clock.ns();
    let programs = models
        .iter()
        .map(|m| m.lower(&Default::default()).expect("Table 2 models lower"))
        .collect();
    let t2 = clock.ns();
    let built: &'p Built = slot.insert(Built { models, programs });
    let mut engines: Vec<Engine<'p>> = built.programs.iter().map(Engine::new).collect();
    let t3 = clock.ns();
    for (m, engine) in engines.iter_mut().enumerate() {
        let req = reqs
            .iter()
            .find(|r| r.model == m)
            .expect("a request per model");
        let (children, words) = req.parts();
        run_one(engine, &built.models[m], linearizer, req, children, words)
            .expect("cold request runs");
    }
    let t4 = clock.ns();
    let plans: Vec<_> = engines.iter().map(Engine::plan_stats).collect();
    let sample = SetupSample {
        total_ns: t4 - t0,
        init_ns: t1 - t0,
        lower_ns: t2 - t1,
        build_ns: t3 - t2,
        specialize_ns: plans.iter().map(|p| p.specialize_ns).sum(),
        plan_ops: plans.iter().map(|p| p.plan_ops as u64).sum(),
        threaded_ops: plans.iter().map(|p| p.threaded_ops as u64).sum(),
    };
    (&built.models, engines, sample)
}

/// The untraced request path: raw parts to the primary output.
#[inline(never)]
fn run_one(
    engine: &mut Engine<'_>,
    model: &Model,
    linearizer: &Linearizer,
    req: &Request,
    children: Vec<Vec<cortex_ds::NodeId>>,
    words: Vec<u32>,
) -> Result<Tensor, String> {
    let s = RecStructure::from_parts(req.kind, children, words).map_err(|e| e.to_string())?;
    let lin = linearizer.linearize(&s).map_err(|e| e.to_string())?;
    let (mut outs, _) = engine
        .execute(&lin, &model.params, true)
        .map_err(|e| e.to_string())?;
    outs.remove(&model.output)
        .ok_or_else(|| "no primary output".into())
}

/// Per-request executor facts a traced request collects.
#[derive(Default)]
struct ExecTotals {
    execute_ns: u64,
    flops: u64,
    nodes: u64,
    stats: ExecStats,
}

/// The traced request path: the same calls as [`run_one`], with a span
/// around each.
#[allow(clippy::too_many_arguments)]
fn run_one_traced(
    clock: &BenchClock,
    engine: &mut Engine<'_>,
    model: &Model,
    linearizer: &Linearizer,
    req: &Request,
    children: Vec<Vec<cortex_ds::NodeId>>,
    words: Vec<u32>,
    traced: &mut Traced,
    totals: &mut ExecTotals,
) -> Result<Tensor, String> {
    let t0 = clock.ns();
    let s = RecStructure::from_parts(req.kind, children, words).map_err(|e| e.to_string())?;
    let t1 = clock.ns();
    let lin = linearizer.linearize(&s).map_err(|e| e.to_string())?;
    let t2 = clock.ns();
    let (mut outs, profile) = engine
        .execute(&lin, &model.params, true)
        .map_err(|e| e.to_string())?;
    let t3 = clock.ns();
    let out = outs.remove(&model.output).ok_or("no primary output")?;
    let t4 = clock.ns();
    let st = engine.stats();
    let mut ledger = Ledger::new(t0, t4);
    ledger.span(Ledger::ROOT, Layer::FromParts, t0, t1);
    ledger.span(Ledger::ROOT, Layer::Linearize, t1, t2);
    let ex = ledger.span(Ledger::ROOT, Layer::Execute, t2, t3);
    ledger.phases(
        ex,
        &[
            (Layer::Gather, st.gather_ns),
            (Layer::Gemm, st.gemm_ns),
            (Layer::Epilogue, st.epilogue_ns + st.serve_ns),
        ],
    );
    traced.add(&ledger);
    totals.execute_ns += t3 - t2;
    totals.flops += profile.flops;
    totals.nodes += s.num_nodes() as u64;
    totals.stats.wave_gemms += st.wave_gemms;
    totals.stats.gemm_rows += st.gemm_rows;
    totals.stats.fused_waves += st.fused_waves;
    totals.stats.weight_packs += st.weight_packs;
    Ok(out)
}

/// Runs a closed-loop workload for `seconds`.
pub fn run(w: &Closed, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let clock = BenchClock::new();
    // Inputs and reference outputs first: not part of any timing.
    let reqs = pool::build_requests(w.specs, w.hidden, (w.inputs)(seed));
    let linearizer = Linearizer::new();

    let mut slot = None;
    let (models, mut engines, sample) = build(w, &clock, &mut slot, &reqs, &linearizer);
    let mut samples = vec![sample];

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut traced = Traced::default();
    let mut totals = ExecTotals::default();
    let (mut lat_plain, mut lat_traced) = (Vec::new(), Vec::new());

    let start = clock.ns();
    let end = start + seconds * 1_000_000_000;
    let mut blocks = stats::Blocks::new(start, BLOCK_NS, BLOCK_SAMPLES, seed);
    let mut block = 0u64;
    let mut k = 0usize;
    // Peak memory of setup and steady load, read before the first
    // throwaway setup (which briefly holds a second set of models).
    let mut peak_rss_mb = None;
    loop {
        let now = clock.ns();
        if now >= end {
            break;
        }
        let b = (now - start) / BLOCK_NS;
        if b != block {
            block = b;
            // A throwaway from-scratch setup between blocks, outside
            // every block's span: setup samples spread over the run.
            if b.is_multiple_of(REBUILD_EVERY) {
                peak_rss_mb.get_or_insert_with(crate::report::peak_rss_mb);
                let mut slot = None;
                let (_, _engines, sample) = build(w, &clock, &mut slot, &reqs, &linearizer);
                samples.push(sample);
                continue;
            }
        }
        let req = &reqs[k % reqs.len()];
        k += 1;
        let m = req.model;
        let (children, words) = req.parts();
        // Traced runs alternate untraced and traced blocks so the
        // tracing overhead is measured against the same host conditions.
        let traced_block = trace && b % 2 == 1;
        let t0 = clock.ns();
        let out = if traced_block {
            run_one_traced(
                &clock,
                &mut engines[m],
                &models[m],
                &linearizer,
                req,
                children,
                words,
                &mut traced,
                &mut totals,
            )
        } else {
            run_one(
                &mut engines[m],
                &models[m],
                &linearizer,
                req,
                children,
                words,
            )
        };
        let t1 = clock.ns();
        attempted += 1;
        match out {
            Ok(out) if req.check(&out) => {}
            _ => failed += 1,
        }
        blocks.record(t0, t1);
        if trace {
            if traced_block {
                lat_traced.push((t1 - t0) as f64);
            } else {
                lat_plain.push((t1 - t0) as f64);
            }
        }
    }
    let elapsed = clock.ns() - start;

    let mut notes = vec![format!(
        "{} distinct requests over {} model(s), h={}",
        reqs.len(),
        w.specs.len(),
        w.hidden,
    )];
    let (metrics, printed) = if trace {
        let mut r = LayerReport::default();
        r.set_setup(&samples);
        r.set_self_times(&traced);
        let n = traced.requests.max(1) as f64;
        r.nodes_per_req = totals.nodes as f64 / n;
        r.execute_us = totals.execute_ns as f64 / 1e3 / n;
        r.gflop_per_s = totals.flops as f64 / totals.execute_ns.max(1) as f64;
        r.wave_gemms_per_req = totals.stats.wave_gemms as f64 / n;
        r.gemm_rows_per_req = totals.stats.gemm_rows as f64 / n;
        r.fused_waves_per_req = totals.stats.fused_waves as f64 / n;
        r.weight_packs = totals.stats.weight_packs as f64;
        r.overhead_pct = (median(&lat_traced) / median(&lat_plain) - 1.0) * 100.0;
        notes.extend(traced.identity_lines());
        if !traced.exact() {
            failed += 1;
        }
        (r.metrics(), Metrics::default())
    } else {
        let all = blocks.all();
        notes.push(format!(
            "whole run: {} requests, p50 {:.6} ms, p99 {:.6} ms, {:.3} rps",
            blocks.count(),
            stats::percentile_sorted(&all, P50) as f64 / 1e6,
            stats::percentile_sorted(&all, P99) as f64 / 1e6,
            blocks.count() as f64 / (elapsed as f64 / 1e9),
        ));
        let quiet = blocks.quiet(TAIL_SHARE);
        notes.push(format!("quietest tenth: {}", stats::tail_note(&quiet.tail)));
        if !stats::reportable(quiet.tail.len(), P99) {
            notes.push(format!(
                "only {} samples: p99 not reportable",
                quiet.tail.len()
            ));
            failed += 1;
        }
        EndToEnd {
            latency_p50_ms: quiet.p50_ns as f64 / 1e6,
            latency_p99_ms: stats::percentile_sorted(&quiet.tail, P99) as f64 / 1e6,
            throughput_rps: quiet.rate,
            // One caller's highest sustainable rate is its throughput.
            max_rate_rps: quiet.rate,
            setup_s: median(
                &samples
                    .iter()
                    .map(|s| s.total_ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            ),
            peak_rss_mb: peak_rss_mb.unwrap_or_else(crate::report::peak_rss_mb),
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
