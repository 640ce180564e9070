//! Decision tree container, traversal and structural queries.

use crate::node::{Node, NodeId};

/// A trained decision tree.
///
/// Nodes live in an arena; [`NodeId::ROOT`] (index 0) is the root.
/// Inference follows the paper's traversal rule: at every split node
/// take the left child when `x[feature] <= threshold`, otherwise the
/// right child, until a leaf is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
}

/// Error validating a tree's structure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateTreeError {
    /// The arena is empty.
    Empty,
    /// A child pointer references a node outside the arena.
    DanglingChild {
        /// The split node holding the pointer.
        node: NodeId,
    },
    /// A node references a feature index `>= n_features`.
    FeatureRange {
        /// The offending node.
        node: NodeId,
    },
    /// A split threshold is NaN.
    NanThreshold {
        /// The offending node.
        node: NodeId,
    },
    /// A leaf's class is `>= n_classes` or its counts length differs
    /// from `n_classes`.
    LeafClass {
        /// The offending node.
        node: NodeId,
    },
    /// A node is its own ancestor (cycle), is visited twice, or is
    /// unreachable from the root (the arena does not encode a tree).
    NotATree {
        /// The node reached twice, or never.
        node: NodeId,
    },
}

impl core::fmt::Display for ValidateTreeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Empty => write!(f, "tree has no nodes"),
            Self::DanglingChild { node } => write!(f, "node {node} has a dangling child pointer"),
            Self::FeatureRange { node } => write!(f, "node {node} tests an out-of-range feature"),
            Self::NanThreshold { node } => write!(f, "node {node} has a NaN split value"),
            Self::LeafClass { node } => write!(f, "leaf {node} has an invalid class or counts"),
            Self::NotATree { node } => {
                write!(f, "node {node} is reachable twice or never (not a tree)")
            }
        }
    }
}

impl std::error::Error for ValidateTreeError {}

impl DecisionTree {
    /// Wraps an arena of nodes (root at index 0) after validating it.
    ///
    /// # Errors
    ///
    /// Any [`ValidateTreeError`] variant if the arena is empty, has
    /// dangling/duplicated children, out-of-range features or classes,
    /// or NaN thresholds.
    pub fn new(
        nodes: Vec<Node>,
        n_features: usize,
        n_classes: usize,
    ) -> Result<Self, ValidateTreeError> {
        let tree = Self {
            nodes,
            n_features,
            n_classes,
        };
        tree.validate()?;
        Ok(tree)
    }

    fn validate(&self) -> Result<(), ValidateTreeError> {
        if self.nodes.is_empty() {
            return Err(ValidateTreeError::Empty);
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let node = self
                .nodes
                .get(id.index())
                .ok_or(ValidateTreeError::DanglingChild { node: id })?;
            if seen[id.index()] {
                return Err(ValidateTreeError::NotATree { node: id });
            }
            seen[id.index()] = true;
            match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature as usize >= self.n_features {
                        return Err(ValidateTreeError::FeatureRange { node: id });
                    }
                    if threshold.is_nan() {
                        return Err(ValidateTreeError::NanThreshold { node: id });
                    }
                    if left.index() >= self.nodes.len() || right.index() >= self.nodes.len() {
                        return Err(ValidateTreeError::DanglingChild { node: id });
                    }
                    stack.push(*left);
                    stack.push(*right);
                }
                Node::Leaf { class, counts } => {
                    if *class as usize >= self.n_classes || counts.len() != self.n_classes {
                        return Err(ValidateTreeError::LeafClass { node: id });
                    }
                }
            }
        }
        // An unreachable node escapes every check above, yet compilers
        // lay out (and remap the children of) every node in the arena.
        match seen.iter().position(|&reached| !reached) {
            Some(i) => Err(ValidateTreeError::NotATree {
                node: NodeId(i as u32),
            }),
            None => Ok(()),
        }
    }

    /// Number of input features the tree expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes the tree predicts over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The node arena.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: NodeId) -> usize {
            match &nodes[id.index()] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, NodeId::ROOT)
    }

    /// Predicts the class of `features` via the paper's traversal rule.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict(&self, features: &[f32]) -> u32 {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        let mut id = NodeId::ROOT;
        loop {
            match &self.nodes[id.index()] {
                Node::Leaf { class, .. } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if features[*feature as usize] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The leaf reached by `features`, with its class counts — used for
    /// probability averaging in forests.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_leaf(&self, features: &[f32]) -> (NodeId, &[u32]) {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        let mut id = NodeId::ROOT;
        loop {
            match &self.nodes[id.index()] {
                Node::Leaf { counts, .. } => return (id, counts),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if features[*feature as usize] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The root-to-leaf path taken by `features` (used by the CAGS
    /// profiler to collect empirical branch probabilities).
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn trace(&self, features: &[f32]) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut id = NodeId::ROOT;
        loop {
            path.push(id);
            match &self.nodes[id.index()] {
                Node::Leaf { .. } => return path,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if features[*feature as usize] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// All split thresholds in the tree (for threshold statistics and
    /// codegen tests).
    pub fn thresholds(&self) -> impl Iterator<Item = f32> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            Node::Split { threshold, .. } => Some(*threshold),
            Node::Leaf { .. } => None,
        })
    }

    /// Gini feature importances (scikit-learn's `feature_importances_`):
    /// per feature, the total impurity decrease of the splits testing
    /// it, weighted by the fraction of training samples reaching the
    /// split, normalized to sum to 1 (all-zero for a single-leaf tree).
    ///
    /// Node class counts are reconstructed bottom-up from the leaf
    /// counts stored at training time.
    pub fn feature_importances(&self) -> Vec<f64> {
        use crate::train::gini::gini;
        // Bottom-up class counts per node.
        fn counts_of(nodes: &[Node], id: NodeId, memo: &mut Vec<Option<Vec<u32>>>) -> Vec<u32> {
            if let Some(c) = &memo[id.index()] {
                return c.clone();
            }
            let c = match &nodes[id.index()] {
                Node::Leaf { counts, .. } => counts.clone(),
                Node::Split { left, right, .. } => {
                    let l = counts_of(nodes, *left, memo);
                    let r = counts_of(nodes, *right, memo);
                    l.iter().zip(&r).map(|(a, b)| a + b).collect()
                }
            };
            memo[id.index()] = Some(c.clone());
            c
        }
        let mut memo = vec![None; self.nodes.len()];
        let root_counts = counts_of(&self.nodes, NodeId::ROOT, &mut memo);
        let total: u64 = root_counts.iter().map(|&c| u64::from(c)).sum();
        let mut importances = vec![0.0f64; self.n_features];
        if total == 0 {
            return importances;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = node
            {
                let node_counts = memo[i].as_ref().expect("memoized");
                let left_counts = memo[left.index()].as_ref().expect("memoized");
                let right_counts = memo[right.index()].as_ref().expect("memoized");
                let n: u64 = node_counts.iter().map(|&c| u64::from(c)).sum();
                let nl: u64 = left_counts.iter().map(|&c| u64::from(c)).sum();
                let nr: u64 = right_counts.iter().map(|&c| u64::from(c)).sum();
                let decrease = n as f64 * gini(node_counts)
                    - nl as f64 * gini(left_counts)
                    - nr as f64 * gini(right_counts);
                importances[*feature as usize] += decrease / total as f64;
            }
        }
        let sum: f64 = importances.iter().sum();
        if sum > 0.0 {
            for v in &mut importances {
                *v /= sum;
            }
        }
        importances
    }
}

/// Builds the tiny example tree used across the workspace's unit tests:
///
/// ```text
/// root: x[0] <= 0.5 ? (x[1] <= -1.25 ? class 0 : class 1) : class 2
/// ```
pub fn example_tree() -> DecisionTree {
    DecisionTree::new(
        vec![
            Node::Split {
                feature: 0,
                threshold: 0.5,
                left: NodeId(1),
                right: NodeId(2),
            },
            Node::Split {
                feature: 1,
                threshold: -1.25,
                left: NodeId(3),
                right: NodeId(4),
            },
            Node::Leaf {
                class: 2,
                counts: vec![0, 0, 10],
            },
            Node::Leaf {
                class: 0,
                counts: vec![8, 2, 0],
            },
            Node::Leaf {
                class: 1,
                counts: vec![1, 9, 0],
            },
        ],
        2,
        3,
    )
    .expect("example tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_tree_predictions() {
        let t = example_tree();
        assert_eq!(t.predict(&[0.0, -2.0]), 0);
        assert_eq!(t.predict(&[0.0, 0.0]), 1);
        assert_eq!(t.predict(&[1.0, 0.0]), 2);
        // Boundary: <= goes left.
        assert_eq!(t.predict(&[0.5, -1.25]), 0);
    }

    #[test]
    fn structural_queries() {
        let t = example_tree();
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.thresholds().collect::<Vec<_>>(), vec![0.5, -1.25]);
    }

    #[test]
    fn trace_follows_decisions() {
        let t = example_tree();
        assert_eq!(t.trace(&[0.0, 0.0]), vec![NodeId(0), NodeId(1), NodeId(4)]);
        assert_eq!(t.trace(&[1.0, 0.0]), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn predict_leaf_returns_counts() {
        let t = example_tree();
        let (id, counts) = t.predict_leaf(&[1.0, 0.0]);
        assert_eq!(id, NodeId(2));
        assert_eq!(counts, &[0, 0, 10]);
    }

    #[test]
    fn feature_importances_of_example_tree() {
        let t = example_tree();
        let imp = t.feature_importances();
        assert_eq!(imp.len(), 2);
        // Both features split somewhere, so both get positive weight,
        // normalized to 1.
        assert!(imp.iter().all(|&v| v > 0.0));
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Feature 0 splits at the root over all 30 samples and isolates
        // the pure class-2 leaf — it must dominate.
        assert!(imp[0] > imp[1], "{imp:?}");
    }

    #[test]
    fn feature_importances_of_single_leaf() {
        let t = DecisionTree::new(
            vec![Node::Leaf {
                class: 0,
                counts: vec![3, 1],
            }],
            2,
            2,
        )
        .expect("valid");
        assert_eq!(t.feature_importances(), vec![0.0, 0.0]);
    }

    #[test]
    fn validation_rejects_empty() {
        assert_eq!(
            DecisionTree::new(vec![], 1, 2).unwrap_err(),
            ValidateTreeError::Empty
        );
    }

    #[test]
    fn validation_rejects_dangling_child() {
        let err = DecisionTree::new(
            vec![Node::Split {
                feature: 0,
                threshold: 0.0,
                left: NodeId(7),
                right: NodeId(8),
            }],
            1,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ValidateTreeError::DanglingChild { node: NodeId(0) });
    }

    #[test]
    fn validation_rejects_bad_feature_and_nan() {
        let leaf = Node::Leaf {
            class: 0,
            counts: vec![1, 0],
        };
        let err = DecisionTree::new(
            vec![
                Node::Split {
                    feature: 5,
                    threshold: 0.0,
                    left: NodeId(1),
                    right: NodeId(2),
                },
                leaf.clone(),
                leaf.clone(),
            ],
            1,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ValidateTreeError::FeatureRange { node: NodeId(0) });

        let err = DecisionTree::new(
            vec![
                Node::Split {
                    feature: 0,
                    threshold: f32::NAN,
                    left: NodeId(1),
                    right: NodeId(2),
                },
                leaf.clone(),
                leaf,
            ],
            1,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ValidateTreeError::NanThreshold { node: NodeId(0) });
    }

    #[test]
    fn validation_rejects_shared_child() {
        // Both children point at the same leaf: a DAG, not a tree.
        let err = DecisionTree::new(
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.0,
                    left: NodeId(1),
                    right: NodeId(1),
                },
                Node::Leaf {
                    class: 0,
                    counts: vec![1, 0],
                },
            ],
            1,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ValidateTreeError::NotATree { node: NodeId(1) });
    }

    #[test]
    fn validation_rejects_bad_leaf() {
        let err = DecisionTree::new(
            vec![Node::Leaf {
                class: 9,
                counts: vec![1, 0],
            }],
            1,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ValidateTreeError::LeafClass { node: NodeId(0) });
        let err = DecisionTree::new(
            vec![Node::Leaf {
                class: 0,
                counts: vec![1],
            }],
            1,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ValidateTreeError::LeafClass { node: NodeId(0) });
    }
}
