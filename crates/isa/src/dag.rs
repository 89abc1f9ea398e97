//! Operator dependency graphs for the Fig. 6 critical-path analysis.
//!
//! §2.2 of the paper builds "a directed acyclic graph (DAG) with operators as
//! nodes and dependencies as edges. … the total execution time of operators
//! on the longest path is a lower bound of the execution time of the DNN
//! model" under perfect intra-workload operator parallelism. Fig. 6 reports
//! the resulting *ideal speedup* (total sequential time / critical path),
//! which is marginal (6.7 % on average) — the observation that motivates
//! cross-workload parallelism instead.

use std::fmt;

use crate::op::OpDesc;

/// Error type for DAG construction and analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagError {
    /// An edge referenced a node index that does not exist.
    NodeOutOfRange {
        /// The offending node index.
        index: usize,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// An edge would create a self-loop.
    SelfLoop(usize),
    /// The graph contains a dependency cycle (detected during analysis).
    Cycle,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NodeOutOfRange { index, len } => {
                write!(f, "node index {index} out of range for {len} nodes")
            }
            DagError::SelfLoop(i) => write!(f, "self-loop on node {i}"),
            DagError::Cycle => write!(f, "dependency graph contains a cycle"),
        }
    }
}

impl std::error::Error for DagError {}

/// A DAG of tensor operators with dependency edges.
///
/// # Example
///
/// ```
/// use v10_isa::{FuKind, OpDesc, OpDag};
///
/// let op = |c| OpDesc::builder(FuKind::Sa).compute_cycles(c).build();
/// let mut dag = OpDag::new();
/// let a = dag.add_node(op(100));
/// let b = dag.add_node(op(50));
/// let c = dag.add_node(op(50));
/// dag.add_edge(a, b)?; // b depends on a
/// dag.add_edge(a, c)?; // c depends on a (parallel with b)
/// assert_eq!(dag.critical_path_cycles()?, 150);
/// assert!((dag.ideal_speedup()? - 200.0 / 150.0).abs() < 1e-12);
/// # Ok::<(), v10_isa::DagError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpDag {
    nodes: Vec<OpDesc>,
    /// Forward adjacency: `succs[i]` are the operators that depend on `i`.
    succs: Vec<Vec<usize>>,
    /// Number of unresolved dependencies per node.
    in_degree: Vec<usize>,
}

impl OpDag {
    /// Creates an empty DAG.
    #[must_use]
    pub fn new() -> Self {
        OpDag::default()
    }

    /// Adds an operator node and returns its index.
    pub fn add_node(&mut self, op: OpDesc) -> usize {
        self.nodes.push(op);
        self.succs.push(Vec::new());
        self.in_degree.push(0);
        self.nodes.len() - 1
    }

    /// Adds a dependency edge: `to` cannot start before `from` finishes.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::NodeOutOfRange`] for invalid indices and
    /// [`DagError::SelfLoop`] if `from == to`. Cycles are only detected
    /// lazily by the analyses (building is O(1) per edge).
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<(), DagError> {
        let len = self.nodes.len();
        for &i in &[from, to] {
            if i >= len {
                return Err(DagError::NodeOutOfRange { index: i, len });
            }
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        // Both indices are in range, and `succs` and `in_degree` hold one
        // entry per node.
        if let (Some(succs), Some(in_degree)) =
            (self.succs.get_mut(from), self.in_degree.get_mut(to))
        {
            succs.push(to);
            *in_degree += 1;
        }
        Ok(())
    }

    /// Number of operator nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the DAG holds no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The operator at `index`, or `None` if `index` is out of range.
    #[must_use]
    pub fn op(&self, index: usize) -> Option<&OpDesc> {
        self.nodes.get(index)
    }

    /// Iterates over the operator nodes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &OpDesc> {
        self.nodes.iter()
    }

    /// Sum of all operator compute cycles — the fully sequential execution
    /// time (the denominator of Fig. 6's speedup).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(|o| o.compute_cycles()).sum()
    }

    /// Length in cycles of the longest dependency chain — the lower bound on
    /// execution time under unlimited operator-level parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph is not acyclic.
    pub fn critical_path_cycles(&self) -> Result<u64, DagError> {
        let order = self.topo_order()?;
        // finish[i] = earliest completion of node i.
        let mut finish = vec![0u64; self.nodes.len()];
        for &i in &order {
            let (Some(node), Some(f)) = (self.nodes.get(i), finish.get_mut(i)) else {
                continue;
            };
            // `f` already holds the max over predecessors: the start.
            let end = *f + node.compute_cycles();
            *f = end;
            for &s in self.succs_of(i) {
                // Successor's start is the max of its predecessors' finishes;
                // reuse its `finish` slot as a running max before it executes.
                if let Some(f) = finish.get_mut(s) {
                    *f = (*f).max(end);
                }
            }
        }
        Ok(finish.into_iter().max().unwrap_or(0))
    }

    /// The ideal operator-level-parallelism speedup of Fig. 6:
    /// `total_cycles / critical_path_cycles`.
    ///
    /// Returns `1.0` for the empty DAG.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Cycle`] if the graph is not acyclic.
    pub fn ideal_speedup(&self) -> Result<f64, DagError> {
        if self.is_empty() {
            return Ok(1.0);
        }
        let cp = self.critical_path_cycles()?;
        Ok(self.total_cycles() as f64 / cp as f64)
    }

    /// Kahn's algorithm; detects cycles.
    fn topo_order(&self) -> Result<Vec<usize>, DagError> {
        let mut in_deg = self.in_degree.clone();
        let mut ready: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| in_deg.get(i) == Some(&0))
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = ready.pop() {
            order.push(i);
            for &s in self.succs_of(i) {
                if let Some(d) = in_deg.get_mut(s) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        if order.len() == self.nodes.len() {
            Ok(order)
        } else {
            Err(DagError::Cycle)
        }
    }

    /// The operators that depend on node `i` (none for an unknown node).
    fn succs_of(&self, i: usize) -> &[usize] {
        self.succs.get(i).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::FuKind;

    fn op(c: u64) -> OpDesc {
        OpDesc::builder(FuKind::Sa).compute_cycles(c).build()
    }

    fn chain(lens: &[u64]) -> OpDag {
        let mut dag = OpDag::new();
        let ids: Vec<usize> = lens.iter().map(|&c| dag.add_node(op(c))).collect();
        for w in ids.windows(2) {
            dag.add_edge(w[0], w[1]).unwrap();
        }
        dag
    }

    #[test]
    fn chain_has_no_parallelism() {
        let dag = chain(&[10, 20, 30]);
        assert_eq!(dag.critical_path_cycles().unwrap(), 60);
        assert!((dag.ideal_speedup().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_speedup() {
        // a -> {b, c} -> d ; b and c can overlap.
        let mut dag = OpDag::new();
        let a = dag.add_node(op(10));
        let b = dag.add_node(op(40));
        let c = dag.add_node(op(40));
        let d = dag.add_node(op(10));
        for (f, t) in [(a, b), (a, c), (b, d), (c, d)] {
            dag.add_edge(f, t).unwrap();
        }
        assert_eq!(dag.total_cycles(), 100);
        assert_eq!(dag.critical_path_cycles().unwrap(), 60);
        assert!((dag.ideal_speedup().unwrap() - 100.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn fully_parallel_nodes() {
        let mut dag = OpDag::new();
        for _ in 0..5 {
            dag.add_node(op(10));
        }
        assert_eq!(dag.critical_path_cycles().unwrap(), 10);
        assert!((dag.ideal_speedup().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dag_is_trivial() {
        let dag = OpDag::new();
        assert!(dag.is_empty());
        assert_eq!(dag.critical_path_cycles().unwrap(), 0);
        assert_eq!(dag.ideal_speedup().unwrap(), 1.0);
    }

    #[test]
    fn cycle_detected() {
        let mut dag = chain(&[1, 1]);
        dag.add_edge(1, 0).unwrap();
        assert_eq!(dag.critical_path_cycles(), Err(DagError::Cycle));
        assert_eq!(dag.ideal_speedup(), Err(DagError::Cycle));
    }

    #[test]
    fn bad_edges_rejected() {
        let mut dag = chain(&[1]);
        assert_eq!(
            dag.add_edge(0, 5),
            Err(DagError::NodeOutOfRange { index: 5, len: 1 })
        );
        assert_eq!(dag.add_edge(0, 0), Err(DagError::SelfLoop(0)));
    }

    #[test]
    fn iter_and_accessors() {
        let dag = chain(&[3, 4]);
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.op(1).map(|o| o.compute_cycles()), Some(4));
        assert!(dag.op(2).is_none());
        assert_eq!(dag.iter().map(|o| o.compute_cycles()).sum::<u64>(), 7);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DagError::Cycle.to_string(),
            "dependency graph contains a cycle"
        );
        assert!(DagError::SelfLoop(3).to_string().contains("3"));
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use crate::op::FuKind;
    use v10_sim::SimRng;

    /// For random DAGs (edges only forward), the critical path is at
    /// most the total and at least the longest single node.
    #[test]
    fn critical_path_bounds() {
        let mut rng = SimRng::seed_from(0xDA6);
        for _ in 0..64 {
            let n = 1 + rng.index(40);
            let lens: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 1000)).collect();
            let mut dag = OpDag::new();
            for &c in &lens {
                dag.add_node(OpDesc::builder(FuKind::Vu).compute_cycles(c).build());
            }
            for _ in 0..rng.index(121) {
                let (a, b) = (rng.index(n), rng.index(n));
                if a < b {
                    dag.add_edge(a, b).unwrap(); // forward edges only: acyclic
                }
            }
            let cp = dag.critical_path_cycles().unwrap();
            let total: u64 = lens.iter().sum();
            let max = *lens.iter().max().unwrap();
            assert!(cp <= total);
            assert!(cp >= max);
            let speedup = dag.ideal_speedup().unwrap();
            assert!(speedup >= 1.0 - 1e-12);
        }
    }
}
