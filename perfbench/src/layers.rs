//! What a run reports: the end-to-end metrics (untraced runs) and the
//! per-layer split (traced runs), plus the setup samples both share.

use crate::ledger::{Layer, Ledger, NUM_LAYERS};
use crate::report::Metrics;
use crate::stats::median;

/// One from-scratch setup: model construction through the cold
/// requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSample {
    /// Wall time of the whole setup.
    pub total_ns: u64,
    /// Model and parameter construction.
    pub init_ns: u64,
    /// `Model::lower`.
    pub lower_ns: u64,
    /// `Engine::new` / `Router::add_model`.
    pub build_ns: u64,
    /// Specializer time inside the build (`PlanStats::specialize_ns`).
    pub specialize_ns: u64,
    /// Lowered plan instructions, summed over models.
    pub plan_ops: u64,
    /// Direct-threaded dispatch steps, summed over models.
    pub threaded_ops: u64,
}

/// Median of one field over the setup samples, in milliseconds.
pub fn setup_median_ms(samples: &[SetupSample], f: impl Fn(&SetupSample) -> u64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|s| f(s) as f64 / 1e6).collect();
    median(&v)
}

/// Per-layer self-time totals over traced requests.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    /// Self nanoseconds by [`Layer::index`].
    pub self_ns: [u64; NUM_LAYERS],
    /// Request wall nanoseconds.
    pub wall_ns: u64,
    /// Traced requests.
    pub requests: u64,
}

impl Traced {
    /// Adds one request's ledger.
    pub fn add(&mut self, ledger: &Ledger) {
        ledger.add_self_times(&mut self.self_ns);
        self.wall_ns += ledger.wall();
        self.requests += 1;
    }

    /// Whether self times plus unaccounted sum exactly to wall time.
    pub fn exact(&self) -> bool {
        self.self_ns.iter().sum::<u64>() == self.wall_ns
    }

    /// Mean self time of `layer` per request, in milliseconds.
    pub fn mean_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Mean request wall time, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Lines showing the mean self time per layer and that the split
    /// sums to wall time.
    pub fn identity_lines(&self) -> Vec<String> {
        let split: Vec<String> = Layer::ALL
            .iter()
            .filter(|l| self.self_ns[l.index()] > 0)
            .map(|&l| format!("{} {:.6}", l.name(), self.mean_ms(l)))
            .collect();
        vec![
            format!("self ms/request: {}", split.join(", ")),
            format!(
                "ledger: {} traced requests, sum of layer self times incl. unaccounted = {} ns, \
                 request wall = {} ns ({})",
                self.requests,
                self.self_ns.iter().sum::<u64>(),
                self.wall_ns,
                if self.exact() { "exact" } else { "MISMATCH" }
            ),
        ]
    }
}

/// The end-to-end metrics of an untraced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub throughput_rps: f64,
    pub max_rate_rps: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The `BENCHMARK.json` metrics, in its order, and the printed-only
    /// `max_rate_rps` (too noisy on a shared host to gate a change; see
    /// `STEADINESS.md`).
    pub fn metrics(&self) -> (Metrics, Metrics) {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", self.latency_p50_ms, "ms");
        m.push("latency_p99_ms", self.latency_p99_ms, "ms");
        m.push("throughput_rps", self.throughput_rps, "1/s");
        m.push("setup_s", self.setup_s, "s");
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        let mut printed = Metrics::default();
        printed.push("max_rate_rps", self.max_rate_rps, "1/s");
        (m, printed)
    }
}

/// The per-layer split of a traced run. Layers a workload does not
/// reach read 0 (the closed loops bypass `serve`; under `Router` the
/// executor runs inside `serve.flush`).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerReport {
    pub from_parts_us: f64,
    pub linearize_us: f64,
    pub nodes_per_req: f64,
    pub init_ms: f64,
    pub lower_ms: f64,
    pub build_ms: f64,
    pub plan_ops: f64,
    pub threaded_ops: f64,
    pub specialize_ms: f64,
    pub execute_us: f64,
    pub gather_ms: f64,
    pub epilogue_ms: f64,
    pub other_ms: f64,
    pub gflop_per_s: f64,
    pub wave_gemms_per_req: f64,
    pub gemm_rows_per_req: f64,
    pub fused_waves_per_req: f64,
    pub weight_packs: f64,
    pub gemm_ms: f64,
    pub submit_us: f64,
    pub flush_ms: f64,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub batch_size: f64,
    pub superwave_width: f64,
    pub flushes: f64,
    pub rejected: f64,
    pub shed: f64,
    pub deadline_misses: f64,
    pub retries: f64,
    pub spills: f64,
    pub lag_ms: f64,
    pub unaccounted_ms: f64,
    pub request_ms: f64,
    pub overhead_pct: f64,
}

impl LayerReport {
    /// Fills the setup-phase fields from the setup samples.
    pub fn set_setup(&mut self, samples: &[SetupSample]) {
        self.init_ms = setup_median_ms(samples, |s| s.init_ns);
        self.lower_ms = setup_median_ms(samples, |s| s.lower_ns);
        self.build_ms = setup_median_ms(samples, |s| s.build_ns);
        self.specialize_ms = setup_median_ms(samples, |s| s.specialize_ns);
        let last = samples.last().copied().unwrap_or_default();
        self.plan_ops = last.plan_ops as f64;
        self.threaded_ops = last.threaded_ops as f64;
    }

    /// Fills the self-time fields shared by every workload from a
    /// ledger total.
    pub fn set_self_times(&mut self, t: &Traced) {
        self.from_parts_us = t.mean_ms(Layer::FromParts) * 1e3;
        self.linearize_us = t.mean_ms(Layer::Linearize) * 1e3;
        self.gather_ms = t.mean_ms(Layer::Gather);
        self.gemm_ms = t.mean_ms(Layer::Gemm);
        self.epilogue_ms = t.mean_ms(Layer::Epilogue);
        self.other_ms = t.mean_ms(Layer::Execute);
        self.lag_ms = t.mean_ms(Layer::GenLag);
        self.unaccounted_ms = t.mean_ms(Layer::Unaccounted);
        self.request_ms = t.wall_ms();
    }

    /// In `BENCHMARK.json` order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("ds.from_parts_us", self.from_parts_us, "us");
        m.push("ds.linearize_us", self.linearize_us, "us");
        m.push("ds.nodes_per_req", self.nodes_per_req, "count");
        m.push("models.init_ms", self.init_ms, "ms");
        m.push("core.lower_ms", self.lower_ms, "ms");
        m.push("backend.build_ms", self.build_ms, "ms");
        m.push("backend.plan_ops", self.plan_ops, "count");
        m.push("backend.threaded_ops", self.threaded_ops, "count");
        m.push("backend.specialize_ms", self.specialize_ms, "ms");
        m.push("backend.execute_us", self.execute_us, "us");
        m.push("backend.gather_ms", self.gather_ms, "ms");
        m.push("backend.epilogue_ms", self.epilogue_ms, "ms");
        m.push("backend.other_ms", self.other_ms, "ms");
        m.push("backend.gflop_per_s", self.gflop_per_s, "GFLOP/s");
        m.push(
            "backend.wave_gemms_per_req",
            self.wave_gemms_per_req,
            "count",
        );
        m.push("backend.gemm_rows_per_req", self.gemm_rows_per_req, "count");
        m.push(
            "backend.fused_waves_per_req",
            self.fused_waves_per_req,
            "count",
        );
        m.push("backend.weight_packs", self.weight_packs, "count");
        m.push("tensor.gemm_ms", self.gemm_ms, "ms");
        m.push("serve.submit_us", self.submit_us, "us");
        m.push("serve.flush_ms", self.flush_ms, "ms");
        m.push("serve.queue_wait_p50_ms", self.queue_wait_p50_ms, "ms");
        m.push("serve.queue_wait_p99_ms", self.queue_wait_p99_ms, "ms");
        m.push("serve.batch_size", self.batch_size, "count");
        m.push("serve.superwave_width", self.superwave_width, "count");
        m.push("serve.flushes", self.flushes, "count");
        m.push("serve.rejected", self.rejected, "count");
        m.push("serve.shed", self.shed, "count");
        m.push("serve.deadline_misses", self.deadline_misses, "count");
        m.push("serve.retries", self.retries, "count");
        m.push("serve.spills", self.spills, "count");
        m.push("gen.lag_ms", self.lag_ms, "ms");
        m.push("unaccounted_ms", self.unaccounted_ms, "ms");
        m.push("trace.request_ms", self.request_ms, "ms");
        m.push("trace.overhead_pct", self.overhead_pct, "%");
        m
    }
}
