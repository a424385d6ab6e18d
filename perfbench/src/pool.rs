//! The nine Table 2 models, seeded request pools, and the reference
//! outputs every response is checked against.
//!
//! Requests reach the program as raw parts (`children`, `words`), the
//! wire shape `RecStructure::from_parts` accepts. The pool also keeps,
//! per distinct request, the structure and linearization the reference
//! rows are indexed by — built before any timing starts.

use cortex_backend::params::Params;
use cortex_ds::linearizer::{Linearized, Linearizer};
use cortex_ds::{datasets, NodeId, RecStructure, StructureKind};
use cortex_models::{
    dagrnn, mvrnn, reference, seq, treefc, treegru, treelstm, treernn, LeafInit, Model,
};
use cortex_rng::Rng;
use cortex_tensor::Tensor;

/// Largest allowed |output − reference| per element.
pub const TOLERANCE: f32 = 1e-4;

/// The input shape a model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Binary parse trees.
    Tree,
    /// Chains.
    Sequence,
    /// Grid DAGs.
    Grid,
}

/// One of the paper's models: constructor, reference and input shape.
pub struct Spec {
    /// Table 2 short name.
    pub name: &'static str,
    /// Builds the model (and its parameters) at hidden size `h`.
    pub build: fn(usize) -> Model,
    /// Reference rows of the primary output, per structure node.
    pub reference: fn(&RecStructure, &Params, usize) -> Vec<Vec<f32>>,
    /// Input shape.
    pub shape: Shape,
}

/// TreeLSTM over trees.
pub const TREE_LSTM: Spec = Spec {
    name: "TreeLSTM",
    build: |h| treelstm::tree_lstm(h, LeafInit::Embedding),
    reference: |s, p, h| reference::tree_lstm(s, p, h, LeafInit::Embedding).h,
    shape: Shape::Tree,
};

/// Sequential LSTM.
pub const SEQ_LSTM: Spec = Spec {
    name: "LSTM",
    build: seq::seq_lstm,
    reference: |s, p, h| reference::tree_lstm(s, p, h, LeafInit::Embedding).h,
    shape: Shape::Sequence,
};

/// The nine models of Table 2.
pub const TABLE2: [Spec; 9] = [
    Spec {
        name: "TreeFC",
        build: |h| treefc::tree_fc(h, LeafInit::Embedding),
        reference: |s, p, h| reference::tree_fc(s, p, h, LeafInit::Embedding),
        shape: Shape::Tree,
    },
    Spec {
        name: "TreeRNN",
        build: |h| treernn::tree_rnn(h, LeafInit::Embedding),
        reference: |s, p, h| reference::tree_rnn(s, p, h, LeafInit::Embedding),
        shape: Shape::Tree,
    },
    Spec {
        name: "TreeGRU",
        build: |h| treegru::tree_gru(h, LeafInit::Embedding),
        reference: |s, p, h| reference::tree_gru(s, p, h, LeafInit::Embedding, false),
        shape: Shape::Tree,
    },
    Spec {
        name: "SimpleTreeGRU",
        build: |h| treegru::simple_tree_gru(h, LeafInit::Embedding),
        reference: |s, p, h| reference::tree_gru(s, p, h, LeafInit::Embedding, true),
        shape: Shape::Tree,
    },
    TREE_LSTM,
    Spec {
        name: "MV-RNN",
        build: mvrnn::mv_rnn,
        reference: |s, p, h| reference::mv_rnn(s, p, h).a,
        shape: Shape::Tree,
    },
    Spec {
        name: "DAG-RNN",
        build: dagrnn::dag_rnn,
        reference: reference::dag_rnn,
        shape: Shape::Grid,
    },
    SEQ_LSTM,
    Spec {
        name: "GRU",
        build: seq::seq_gru,
        reference: |s, p, h| reference::tree_gru(s, p, h, LeafInit::Embedding, false),
        shape: Shape::Sequence,
    },
];

/// Raw request parts: child lists and node words.
pub type Parts = (Vec<Vec<NodeId>>, Vec<u32>);

/// One distinct request: its raw parts plus what checking needs.
pub struct Request {
    /// Index of the model (in the workload's model list) it is for.
    pub model: usize,
    /// Declared structure kind.
    pub kind: StructureKind,
    /// Raw child lists.
    pub children: Vec<Vec<NodeId>>,
    /// Raw leaf/node words.
    pub words: Vec<u32>,
    /// The structure the parts encode (reference numbering).
    pub structure: RecStructure,
    /// Its linearization (maps outputs back to structure nodes).
    pub lin: Linearized,
    /// Reference rows of the primary output.
    pub want: Vec<Vec<f32>>,
}

impl Request {
    /// A fresh copy of the raw parts, as a caller would send them.
    pub fn parts(&self) -> Parts {
        (self.children.clone(), self.words.clone())
    }

    /// Checks an output against the reference.
    pub fn check(&self, output: &Tensor) -> bool {
        cortex_models::verify::compare_output(
            output,
            &self.lin,
            &self.structure,
            &self.want,
            TOLERANCE,
        )
        .is_ok()
    }
}

/// `k` SST-like sentence lengths at evenly spaced quantiles of the
/// synthetic treebank's length distribution. Every seed gets the same
/// lengths — seeds vary tree shapes and words, not the amount of work —
/// so runs with different seeds measure the same load.
pub fn sst_lengths(k: usize) -> Vec<usize> {
    const CORPUS: usize = 4000;
    let mut lens: Vec<usize> = datasets::sentiment_treebank(CORPUS, 0)
        .iter()
        .map(RecStructure::num_leaves)
        .collect();
    lens.sort_unstable();
    (0..k)
        .map(|i| lens[(2 * i + 1) * CORPUS / (2 * k)])
        .collect()
}

/// A tiny input of `shape` with size class `size` in 1..=8: that many
/// leaves for trees, tokens for sequences, nodes (at most) for grids.
fn tiny(shape: Shape, size: usize, seed: u64) -> RecStructure {
    const GRIDS: [(usize, usize); 8] = [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
        (1, 5),
        (2, 3),
        (1, 7),
        (2, 4),
    ];
    match shape {
        Shape::Tree => datasets::random_binary_tree(size, seed),
        Shape::Sequence => datasets::sequence(size, seed),
        Shape::Grid => {
            let (rows, cols) = GRIDS[size - 1];
            datasets::grid_dag(rows, cols, seed)
        }
    }
}

/// Input structures of a workload, each tagged with its model index.
pub type Inputs = Vec<(usize, RecStructure)>;

/// `paper_bs10`: `n` requests for model 0, each 10 SST-like trees (one
/// per length decile) merged into one forest.
pub fn paper_bs10_inputs(n: usize, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xb510);
    let lens = sst_lengths(10);
    (0..n)
        .map(|_| {
            let trees: Vec<RecStructure> = lens
                .iter()
                .map(|&len| datasets::random_binary_tree(len, rng.next_u64()))
                .collect();
            let refs: Vec<&RecStructure> = trees.iter().collect();
            (0, RecStructure::merge(&refs))
        })
        .collect()
}

/// `tiny_mix`: for each of `specs`, `per_size` inputs of every size
/// class 1..=8, in round-robin model order.
pub fn tiny_mix_inputs(specs: &[Spec], per_size: usize, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x71e1);
    (0..8 * per_size * specs.len())
        .map(|i| {
            let m = i % specs.len();
            let size = (i / specs.len()) % 8 + 1;
            (m, tiny(specs[m].shape, size, rng.next_u64()))
        })
        .collect()
}

/// `serve_mix`: `n` single SST-length sentences, one tree (model 1) per
/// three sequences (model 0), lengths at SST quantiles within each kind,
/// in a seeded order.
pub fn serve_mix_inputs(n: usize, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let trees = n / 4;
    let mut inputs: Inputs = sst_lengths(trees)
        .into_iter()
        .map(|len| (1, datasets::random_binary_tree(len, rng.next_u64())))
        .collect();
    for len in sst_lengths(n - trees) {
        inputs.push((0, datasets::sequence(len, rng.next_u64())));
    }
    for i in (1..inputs.len()).rev() {
        inputs.swap(i, rng.below_usize(i + 1));
    }
    inputs
}

/// Turns inputs into checked requests: raw parts, linearization and
/// reference rows, computed with models built at `hidden` (parameters
/// are deterministic, so they equal the timed models' parameters).
pub fn build_requests(specs: &[Spec], hidden: usize, inputs: Inputs) -> Vec<Request> {
    let models: Vec<Model> = specs.iter().map(|s| (s.build)(hidden)).collect();
    let linearizer = Linearizer::new();
    inputs
        .into_iter()
        .map(|(model, structure)| {
            let n = structure.num_nodes();
            let children = (0..n)
                .map(|i| structure.children(NodeId::new(i as u32)).to_vec())
                .collect();
            let words = (0..n)
                .map(|i| structure.word(NodeId::new(i as u32)))
                .collect();
            let lin = linearizer
                .linearize(&structure)
                .expect("generated inputs linearize");
            let want = (specs[model].reference)(&structure, &models[model].params, hidden);
            Request {
                model,
                kind: structure.kind(),
                children,
                words,
                structure,
                lin,
                want,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        let a = serve_mix_inputs(40, 9);
        let b = serve_mix_inputs(40, 9);
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        assert_eq!(a.iter().filter(|(m, _)| *m == 1).count(), 10);
        let bs10 = paper_bs10_inputs(2, 1);
        assert!(bs10.iter().all(|(_, s)| s.roots().len() == 10));
    }

    #[test]
    fn seeds_change_shapes_but_not_the_amount_of_work() {
        let leaves = |inputs: &Inputs| -> Vec<usize> {
            let mut v: Vec<usize> = inputs.iter().map(|(_, s)| s.num_leaves()).collect();
            v.sort_unstable();
            v
        };
        for (a, b) in [
            (paper_bs10_inputs(4, 1), paper_bs10_inputs(4, 2)),
            (serve_mix_inputs(40, 1), serve_mix_inputs(40, 2)),
            (
                tiny_mix_inputs(&TABLE2, 2, 1),
                tiny_mix_inputs(&TABLE2, 2, 2),
            ),
        ] {
            assert_ne!(a, b);
            assert_eq!(leaves(&a), leaves(&b));
        }
        let lens = sst_lengths(10);
        assert!(lens.windows(2).all(|w| w[0] <= w[1]));
        let mean = lens.iter().sum::<usize>() as f64 / 10.0;
        assert!((15.0..25.0).contains(&mean), "SST-like mean length {mean}");
    }

    #[test]
    fn tiny_inputs_are_tiny_and_match_their_model() {
        for (m, s) in tiny_mix_inputs(&TABLE2, 6, 3) {
            assert!(s.num_leaves() <= 8 && s.num_nodes() <= 15);
            let kind = match TABLE2[m].shape {
                Shape::Tree => StructureKind::Tree,
                Shape::Sequence => StructureKind::Sequence,
                Shape::Grid => StructureKind::Dag,
            };
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn raw_parts_round_trip_through_from_parts() {
        let reqs = build_requests(&TABLE2, 4, tiny_mix_inputs(&TABLE2, 2, 5));
        for r in &reqs {
            let (children, words) = r.parts();
            let s = RecStructure::from_parts(r.kind, children, words).unwrap();
            assert_eq!(s, r.structure);
        }
    }
}
