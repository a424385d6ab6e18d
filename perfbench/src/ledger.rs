//! Per-request span ledger: splits one request's wall time into the
//! exclusive (self) time of each layer it passed through, plus an
//! `unaccounted` remainder, with no double counting.
//!
//! A request is a tree of spans on one clock (integer nanoseconds). The
//! root is the request itself; its children are the calls into each
//! layer's public functions, and those may have children of their own
//! (the executor's timed phases inside `Engine::execute`).
//!
//! Self time subtracts only what a child actually covers of its parent:
//! every span is first clipped to its parent's effective interval and to
//! the end of its previous sibling, so a child that sticks out of its
//! parent, or overlaps a sibling, is counted once. The effective
//! intervals of a span's children are therefore disjoint and inside it,
//! and the self times of all spans (the root's self time is the
//! `unaccounted` row) sum **exactly** to the root's wall time.

/// The layers a span can be attributed to. `Unaccounted` is the root:
/// request wall time no layer span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The request itself; its self time is the unaccounted remainder.
    Unaccounted,
    /// Open loop: how late the request's submission ran behind its due
    /// time.
    GenLag,
    /// `RecStructure::from_parts`.
    FromParts,
    /// `Linearizer::linearize`.
    Linearize,
    /// `Engine::execute`; its self time is dispatch and residue
    /// (`backend.other_ms`).
    Execute,
    /// Wave gather phase (`ExecStats::gather_ns`).
    Gather,
    /// Wave GEMM kernels (`ExecStats::gemm_ns`).
    Gemm,
    /// Post-GEMM epilogue, fused and unfused
    /// (`ExecStats::epilogue_ns + serve_ns`).
    Epilogue,
    /// `Router::submit` calls that did not flush.
    Submit,
    /// Open loop: from submission until the flush that ran the request.
    QueueWait,
    /// The `Router` call (submit or poll) whose flush ran the request.
    Flush,
}

/// Number of [`Layer`]s.
pub const NUM_LAYERS: usize = 11;

impl Layer {
    /// Every layer, in [`Layer::index`] order.
    pub const ALL: [Layer; NUM_LAYERS] = [
        Layer::Unaccounted,
        Layer::GenLag,
        Layer::FromParts,
        Layer::Linearize,
        Layer::Execute,
        Layer::Gather,
        Layer::Gemm,
        Layer::Epilogue,
        Layer::Submit,
        Layer::QueueWait,
        Layer::Flush,
    ];

    /// Dense index for per-layer accumulators.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The per-layer metric family the layer's self time reports under.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unaccounted => "unaccounted",
            Layer::GenLag => "gen.lag",
            Layer::FromParts => "ds.from_parts",
            Layer::Linearize => "ds.linearize",
            Layer::Execute => "backend.other",
            Layer::Gather => "backend.gather",
            Layer::Gemm => "tensor.gemm",
            Layer::Epilogue => "backend.epilogue",
            Layer::Submit => "serve.submit",
            Layer::QueueWait => "serve.queue_wait",
            Layer::Flush => "serve.flush",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: usize,
}

/// The spans of one request. Span 0 is the root.
#[derive(Debug, Clone)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Ledger {
    /// A ledger whose root covers `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        Ledger {
            spans: vec![Span {
                layer: Layer::Unaccounted,
                start,
                end: end.max(start),
                parent: 0,
            }],
        }
    }

    /// The root span's index.
    pub const ROOT: usize = 0;

    /// Records a span `[start, end)` under `parent` and returns its
    /// index. Siblings must be recorded in start order.
    pub fn span(&mut self, parent: usize, layer: Layer, start: u64, end: u64) -> usize {
        assert!(parent < self.spans.len(), "unknown parent span");
        self.spans.push(Span {
            layer,
            start,
            end: end.max(start),
            parent,
        });
        self.spans.len() - 1
    }

    /// Records `durations` as consecutive child spans of `parent`, laid
    /// end to end from the parent's start — for phases an inner layer
    /// reports only as totals. Returns nothing; clipping applies as for
    /// any span.
    pub fn phases(&mut self, parent: usize, durations: &[(Layer, u64)]) {
        let mut at = self.spans[parent].start;
        for &(layer, d) in durations {
            self.span(parent, layer, at, at + d);
            at += d;
        }
    }

    /// Wall time of the request.
    pub fn wall(&self) -> u64 {
        self.spans[0].end - self.spans[0].start
    }

    /// Adds each span's self time to `out[layer]`.
    pub fn add_self_times(&self, out: &mut [u64; NUM_LAYERS]) {
        let n = self.spans.len();
        // Effective (clipped) intervals; spans are stored parent-first.
        let mut eff = vec![(0u64, 0u64); n];
        let mut last_child_end: Vec<Option<u64>> = vec![None; n];
        let mut covered = vec![0u64; n];
        eff[0] = (self.spans[0].start, self.spans[0].end);
        for i in 1..n {
            let s = self.spans[i];
            let (ps, pe) = eff[s.parent];
            let lo = s.start.max(ps).max(last_child_end[s.parent].unwrap_or(ps));
            let hi = s.end.min(pe).max(lo);
            eff[i] = (lo, hi);
            last_child_end[s.parent] = Some(hi);
            covered[s.parent] += hi - lo;
        }
        for i in 0..n {
            let (lo, hi) = eff[i];
            out[self.spans[i].layer.index()] += (hi - lo) - covered[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_times(l: &Ledger) -> [u64; NUM_LAYERS] {
        let mut out = [0u64; NUM_LAYERS];
        l.add_self_times(&mut out);
        out
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall() {
        let mut l = Ledger::new(100, 200);
        l.span(Ledger::ROOT, Layer::FromParts, 100, 110);
        l.span(Ledger::ROOT, Layer::Linearize, 110, 125);
        let ex = l.span(Ledger::ROOT, Layer::Execute, 125, 195);
        l.phases(
            ex,
            &[(Layer::Gather, 20), (Layer::Gemm, 30), (Layer::Epilogue, 5)],
        );
        let t = self_times(&l);
        assert_eq!(t[Layer::FromParts.index()], 10);
        assert_eq!(t[Layer::Linearize.index()], 15);
        assert_eq!(t[Layer::Gather.index()], 20);
        assert_eq!(t[Layer::Gemm.index()], 30);
        assert_eq!(t[Layer::Epilogue.index()], 5);
        assert_eq!(t[Layer::Execute.index()], 70 - 55);
        assert_eq!(t[Layer::Unaccounted.index()], 5);
        assert_eq!(t.iter().sum::<u64>(), l.wall());
    }

    #[test]
    fn only_the_covered_part_of_a_child_is_subtracted() {
        // A child sticking out of its parent on both sides.
        let mut l = Ledger::new(100, 200);
        let ex = l.span(Ledger::ROOT, Layer::Execute, 150, 180);
        l.span(ex, Layer::Gemm, 140, 190);
        let t = self_times(&l);
        assert_eq!(t[Layer::Gemm.index()], 30, "clipped to the parent");
        assert_eq!(t[Layer::Execute.index()], 0);
        assert_eq!(t[Layer::Unaccounted.index()], 70);
        assert_eq!(t.iter().sum::<u64>(), 100);

        // Children reported longer than their parent (phase totals that
        // overshoot): clipped, never negative self time.
        let mut l = Ledger::new(0, 50);
        let ex = l.span(Ledger::ROOT, Layer::Execute, 0, 40);
        l.phases(ex, &[(Layer::Gather, 30), (Layer::Gemm, 30)]);
        let t = self_times(&l);
        assert_eq!(t[Layer::Gather.index()], 30);
        assert_eq!(t[Layer::Gemm.index()], 10);
        assert_eq!(t[Layer::Execute.index()], 0);
        assert_eq!(t.iter().sum::<u64>(), 50);
    }

    #[test]
    fn overlapping_siblings_are_not_double_counted() {
        let mut l = Ledger::new(0, 100);
        l.span(Ledger::ROOT, Layer::Submit, 10, 40);
        l.span(Ledger::ROOT, Layer::Flush, 30, 60);
        let t = self_times(&l);
        assert_eq!(t[Layer::Submit.index()], 30);
        assert_eq!(t[Layer::Flush.index()], 20);
        assert_eq!(t[Layer::Unaccounted.index()], 50);
        assert_eq!(t.iter().sum::<u64>(), 100);
    }

    #[test]
    fn random_span_trees_always_sum_exactly_to_wall() {
        let mut rng = cortex_rng::Rng::new(7);
        for _ in 0..500 {
            let start = rng.below_u64(1000);
            let end = start + rng.below_u64(1000);
            let mut l = Ledger::new(start, end);
            let mut parents = vec![Ledger::ROOT];
            let mut cursor = start.saturating_sub(20);
            for _ in 0..rng.range_usize(0, 12) {
                let parent = *rng.pick(&parents);
                let s = cursor + rng.below_u64(60);
                let e = s + rng.below_u64(300);
                cursor = s;
                let id = l.span(parent, Layer::Gather, s, e);
                parents.push(id);
            }
            let t = self_times(&l);
            assert_eq!(t.iter().sum::<u64>(), l.wall());
        }
    }
}
