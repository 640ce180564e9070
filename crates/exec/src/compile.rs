//! Compilation of arena trees into flat, layout-ordered node arrays.
//!
//! This is the runtime analog of arch-forest's code generation step:
//! every tree becomes a dense array of 16-byte nodes placed in the
//! order a [`TreeLayout`] dictates, with child pointers remapped to
//! positions in that order. The comparison mode decides what each node
//! stores:
//!
//! * [`FloatNode`] — the split value as `f32`; the runtime test is the
//!   native float `<=` (the paper's naive/CAGS configurations);
//! * [`IntNode`] — the split value preprocessed by
//!   [`flint_core::PreparedThreshold`] into its FLInt order key
//!   ([`PreparedThreshold::order_key`]: Theorem 2's negative-split case
//!   folded into the key offline); the runtime test is one signed
//!   integer comparison of the feature's order key
//!   ([`flint_core::order_key`]) against it, the shape of the float
//!   node (the paper's FLInt configurations). Walks that visit many
//!   nodes per row key the row once, up front.
//!
//! [`FloatTree`] and [`IntTree`] are the per-tree compile step and the
//! per-tree oracles. A [`crate::CompiledForest`] lays their arrays back
//! to back into one forest-wide node array with forest-global child
//! positions and one root per tree, and every f32 engine walks that
//! array: the scalar walk from each root in turn, the blocked walk
//! many (tree, row) walks at once, the lane walk a wave of lane groups
//! from one root.

use flint_core::{order_key, PreparedThreshold};
use flint_forest::{DecisionTree, Node, NodeId};
use flint_layout::TreeLayout;

/// Marker stored in the `feature` word of leaf nodes.
pub const LEAF_MARKER: u32 = u32::MAX;

/// A flat node with a native float threshold (naive configurations).
///
/// `repr(C)`: the SIMD engine's AVX2 path gathers fields by 32-bit
/// word offset (`feature` at word 0, `threshold` at 1, `left` at 2,
/// `right` at 3), so the layout must be the declaration order.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct FloatNode {
    /// Feature index, or [`LEAF_MARKER`] for leaves.
    pub feature: u32,
    /// Split value (unused for leaves).
    pub threshold: f32,
    /// Flat position of the left child; for leaves, the class.
    pub left: u32,
    /// Flat position of the right child (unused for leaves).
    pub right: u32,
}

/// A flat node with the split's FLInt order key: a row goes left iff
/// its feature's order key is `<= key`, one signed compare.
///
/// `repr(C)` for the same reason as [`FloatNode`]: the SIMD engine
/// gathers `feature`/`key`/`left`/`right` by word offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct IntNode {
    /// Feature index, or [`LEAF_MARKER`] for leaves.
    pub feature: u32,
    /// The split's order key ([`PreparedThreshold::order_key`]).
    pub key: i32,
    /// Flat position of the left child; for leaves, the class.
    pub left: u32,
    /// Flat position of the right child (unused for leaves).
    pub right: u32,
}

/// The two 16-byte node formats as the walks over flat arrays read
/// them.
pub(crate) trait FlatNode: Copy {
    /// The split value: an `f32` threshold or an `i32` order key.
    type Split: Copy;

    /// `(feature, split, left, right)`; a leaf has feature
    /// [`LEAF_MARKER`] and its class in `left`.
    fn parts(&self) -> (u32, Self::Split, u32, u32);

    /// The node with both child positions moved up by `base` (a leaf,
    /// whose `left` is a class, unchanged): the step that lays a tree
    /// into a forest-wide array at position `base`.
    fn rebased(self, base: u32) -> Self;
}

impl FlatNode for FloatNode {
    type Split = f32;

    #[inline(always)]
    fn parts(&self) -> (u32, f32, u32, u32) {
        (self.feature, self.threshold, self.left, self.right)
    }

    fn rebased(self, base: u32) -> Self {
        if self.feature == LEAF_MARKER {
            return self;
        }
        Self {
            left: self.left + base,
            right: self.right + base,
            ..self
        }
    }
}

impl FlatNode for IntNode {
    type Split = i32;

    #[inline(always)]
    fn parts(&self) -> (u32, i32, u32, u32) {
        (self.feature, self.key, self.left, self.right)
    }

    fn rebased(self, base: u32) -> Self {
        if self.feature == LEAF_MARKER {
            return self;
        }
        Self {
            left: self.left + base,
            right: self.right + base,
            ..self
        }
    }
}

/// The scalar walk every flat array shares: from `root` down to a leaf,
/// going left where `go_left(feature, split)` holds; returns the leaf's
/// class. One tree at a time, one dependent node load per level: the
/// paper's measured shape.
#[inline(always)]
pub(crate) fn walk<N: FlatNode>(
    nodes: &[N],
    root: u32,
    go_left: impl Fn(usize, N::Split) -> bool,
) -> u32 {
    let mut idx = root;
    loop {
        let (feature, split, left, right) = nodes[idx as usize].parts();
        if feature == LEAF_MARKER {
            return left;
        }
        idx = if go_left(feature as usize, split) {
            left
        } else {
            right
        };
    }
}

/// A tree compiled to a flat float-comparison array.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatTree {
    nodes: Vec<FloatNode>,
}

/// A tree compiled to a flat FLInt integer-comparison array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntTree {
    nodes: Vec<IntNode>,
}

/// Error compiling a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileTreeError {
    /// A split value was NaN (cannot be FLInt-prepared; also rejected
    /// by tree validation, so this is defensive).
    NanThreshold {
        /// The offending node.
        node: NodeId,
    },
    /// A feature index collides with the leaf marker.
    FeatureTooLarge {
        /// The offending node.
        node: NodeId,
    },
    /// A node position or leaf class does not fit a 16-bit field of
    /// the half-precision node encoding ([`crate::f16`] trees must
    /// stay under 65 535 nodes).
    IndexOverflow {
        /// The offending node.
        node: NodeId,
    },
    /// The forest has more nodes than its node array can index: `u32`
    /// child positions, or the `i32` word offsets the AVX2 lane kernels
    /// gather at.
    TooManyNodes {
        /// The forest's node count.
        nodes: usize,
        /// The most nodes the array can index.
        max: usize,
    },
}

impl core::fmt::Display for CompileTreeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NanThreshold { node } => write!(f, "node {node} has a NaN split value"),
            Self::FeatureTooLarge { node } => {
                write!(
                    f,
                    "node {node} has a feature index colliding with the leaf marker"
                )
            }
            Self::IndexOverflow { node } => {
                write!(
                    f,
                    "node {node} does not fit the 16-bit half-precision node encoding"
                )
            }
            Self::TooManyNodes { nodes, max } => {
                write!(
                    f,
                    "the forest has {nodes} nodes; its node array indexes at most {max}"
                )
            }
        }
    }
}

impl std::error::Error for CompileTreeError {}

impl FloatTree {
    /// Compiles `tree` in the order given by `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `layout` does not cover `tree`.
    pub fn compile(tree: &DecisionTree, layout: &TreeLayout) -> Self {
        assert_eq!(layout.len(), tree.n_nodes(), "layout must cover the tree");
        let nodes = (0..layout.len())
            .map(|k| {
                let id = layout.node_at(k);
                match &tree.nodes()[id.index()] {
                    Node::Leaf { class, .. } => FloatNode {
                        feature: LEAF_MARKER,
                        threshold: 0.0,
                        left: *class,
                        right: 0,
                    },
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => FloatNode {
                        feature: *feature,
                        threshold: *threshold,
                        left: layout.position_of(*left),
                        right: layout.position_of(*right),
                    },
                }
            })
            .collect();
        Self { nodes }
    }

    /// Predicts the class of `features` with native float comparisons.
    #[inline]
    pub fn predict(&self, features: &[f32]) -> u32 {
        walk(&self.nodes, 0, |f, threshold| features[f] <= threshold)
    }

    /// Predicts with *software float* comparisons (the no-FPU baseline;
    /// same decisions, much more per-node work).
    #[inline]
    pub fn predict_softfloat(&self, features: &[f32]) -> u32 {
        walk(&self.nodes, 0, |f, threshold| {
            flint_softfloat::soft_le(features[f], threshold)
        })
    }

    /// The flat node array.
    pub fn nodes(&self) -> &[FloatNode] {
        &self.nodes
    }
}

impl IntTree {
    /// Compiles `tree` in the order given by `layout`, resolving every
    /// threshold offline per Theorem 2 into its order key.
    ///
    /// # Errors
    ///
    /// [`CompileTreeError::NanThreshold`] for NaN split values,
    /// [`CompileTreeError::FeatureTooLarge`] if a feature index
    /// collides with the leaf marker.
    ///
    /// # Panics
    ///
    /// Panics if `layout` does not cover `tree`.
    pub fn compile(tree: &DecisionTree, layout: &TreeLayout) -> Result<Self, CompileTreeError> {
        assert_eq!(layout.len(), tree.n_nodes(), "layout must cover the tree");
        let mut nodes = Vec::with_capacity(layout.len());
        for k in 0..layout.len() {
            let id = layout.node_at(k);
            let node = match &tree.nodes()[id.index()] {
                Node::Leaf { class, .. } => IntNode {
                    feature: LEAF_MARKER,
                    key: 0,
                    left: *class,
                    right: 0,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature == LEAF_MARKER {
                        return Err(CompileTreeError::FeatureTooLarge { node: id });
                    }
                    let prepared = PreparedThreshold::new(*threshold)
                        .map_err(|_| CompileTreeError::NanThreshold { node: id })?;
                    IntNode {
                        feature: *feature,
                        key: prepared.order_key(),
                        left: layout.position_of(*left),
                        right: layout.position_of(*right),
                    }
                }
            };
            nodes.push(node);
        }
        Ok(Self { nodes })
    }

    /// Predicts the class of `features` using integer operations only:
    /// per visited node, the feature's order key and one signed
    /// comparison. The per-tree oracle of the forest walks, which key a
    /// row once up front and then make the same compare per node.
    #[inline]
    pub fn predict(&self, features: &[f32]) -> u32 {
        walk(&self.nodes, 0, |f, key| order_key(features[f]) <= key)
    }

    /// The flat node array.
    pub fn nodes(&self) -> &[IntNode] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_forest::example_tree;
    use flint_layout::{LayoutStrategy, TreeProfile};

    fn layouts(tree: &DecisionTree) -> Vec<TreeLayout> {
        let profile = TreeProfile::uniform(tree);
        [
            LayoutStrategy::ArenaOrder,
            LayoutStrategy::BreadthFirst,
            LayoutStrategy::HotPathDfs,
            LayoutStrategy::Cags { block_nodes: 2 },
        ]
        .iter()
        .map(|&s| TreeLayout::compute(tree, &profile, s))
        .collect()
    }

    #[test]
    fn float_tree_matches_reference_under_all_layouts() {
        let tree = example_tree();
        let inputs = [
            [0.0f32, -2.0],
            [0.0, 0.0],
            [1.0, 0.0],
            [0.5, -1.25],
            [-3.0, 7.0],
        ];
        for layout in layouts(&tree) {
            let compiled = FloatTree::compile(&tree, &layout);
            for input in &inputs {
                assert_eq!(compiled.predict(input), tree.predict(input));
                assert_eq!(compiled.predict_softfloat(input), tree.predict(input));
            }
        }
    }

    #[test]
    fn int_tree_matches_reference_under_all_layouts() {
        let tree = example_tree();
        let inputs = [
            [0.0f32, -2.0],
            [0.0, 0.0],
            [1.0, 0.0],
            [0.5, -1.25],
            [-3.0, 7.0],
            [0.5, -0.0],
        ];
        for layout in layouts(&tree) {
            let compiled = IntTree::compile(&tree, &layout).expect("compilable");
            for input in &inputs {
                assert_eq!(compiled.predict(input), tree.predict(input), "{input:?}");
            }
        }
    }

    #[test]
    fn negative_thresholds_store_inverted_key() {
        let tree = example_tree(); // has threshold -1.25
        let profile = TreeProfile::uniform(&tree);
        let layout = TreeLayout::compute(&tree, &profile, LayoutStrategy::ArenaOrder);
        let compiled = IntTree::compile(&tree, &layout).expect("compilable");
        let keys: Vec<i32> = compiled
            .nodes()
            .iter()
            .filter(|n| n.feature != LEAF_MARKER)
            .map(|n| n.key)
            .collect();
        let (pos, neg) = (
            PreparedThreshold::new(0.5f32).expect("non-NaN"),
            PreparedThreshold::new(-1.25f32).expect("non-NaN"),
        );
        assert!(!pos.flips_sign() && neg.flips_sign());
        // 0.5 keeps its Listing 2 immediate; -1.25 stores the inverted
        // Listing 4 immediate, which is the split's own order key.
        assert_eq!(keys, vec![pos.key(), !neg.key()]);
        assert_eq!(keys, vec![order_key(0.5f32), order_key(-1.25f32)]);
    }

    #[test]
    fn node_sizes_stay_compact() {
        // The paper's point about memory layout only holds if nodes are
        // actually dense: both node types must stay 16 bytes.
        assert_eq!(core::mem::size_of::<FloatNode>(), 16);
        assert_eq!(core::mem::size_of::<IntNode>(), 16);
    }

    #[test]
    fn leaf_positions_encode_classes() {
        let tree = example_tree();
        let profile = TreeProfile::uniform(&tree);
        let layout = TreeLayout::compute(&tree, &profile, LayoutStrategy::ArenaOrder);
        let compiled = FloatTree::compile(&tree, &layout);
        let leaf_classes: Vec<u32> = compiled
            .nodes()
            .iter()
            .filter(|n| n.feature == LEAF_MARKER)
            .map(|n| n.left)
            .collect();
        assert_eq!(leaf_classes, vec![2, 0, 1]); // arena order of example_tree
    }
}
