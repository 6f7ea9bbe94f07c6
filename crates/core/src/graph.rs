//! The logical Mitos dataflow graph and its construction from SSA
//! (the paper's Sec. 4.3), plus physical planning (parallelism and edge
//! partitioning).
//!
//! "We create a single dataflow node from each assignment statement and a
//! single dataflow edge from each variable reference." Condition nodes are
//! the operators defining branch conditions; Φ-statements become Φ-nodes
//! whose input choice is resolved at runtime from the execution path.

use mitos_ir::nir::{FuncIr, Op, Terminator};
use mitos_ir::{BlockId, VarId};
use mitos_lang::{Expr, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Index of a logical operator (dataflow node).
pub type OpId = u32;
/// Index of a logical edge.
pub type EdgeId = u32;

/// Parallelism class of an operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Parallelism {
    /// One physical instance (wrapped scalars, global reduces, conditions).
    Single,
    /// One physical instance per cluster machine.
    Full,
}

/// How a logical edge distributes data among destination instances.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Partitioning {
    /// Instance `i` sends to instance `i` (same-machine when co-located).
    Forward,
    /// Partition by hash of the element key (field 0) — shuffles.
    Hash,
    /// Every source instance sends everything to every destination instance.
    Broadcast,
    /// All source instances send to the single destination instance.
    Gather,
}

/// The runtime behaviour of a node; expressions are compiled lambdas.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Reads a file partition per instance. Inputs: `[name]`.
    ReadFile,
    /// Appends the data bag to a file. Inputs: `[data, name]`.
    WriteFile,
    /// Collects the data bag into the engine result. Inputs: `[data]`.
    OutputSink {
        /// Result tag.
        tag: Arc<str>,
    },
    /// Per-element transform. Inputs: `[data, captured..]`.
    Map {
        /// Lambda body (`$0` element, `$1..` captured).
        expr: Expr,
    },
    /// Per-element transform into a flattened list. Inputs: `[data, captured..]`.
    FlatMap {
        /// Lambda body.
        expr: Expr,
    },
    /// Predicate filter. Inputs: `[data, captured..]`.
    Filter {
        /// Predicate body.
        expr: Expr,
    },
    /// Hash equi-join on key. Inputs: `[build, probe]`. The build side is the
    /// loop-invariant-hoisting side (Sec. 5.3).
    Join,
    /// Cartesian product. Inputs: `[stream, collected]`.
    Cross,
    /// Multiset union. Inputs: `[left, right]`.
    Union,
    /// Per-key fold of `(k, v)` pairs. Inputs: `[data, captured..]`.
    ReduceByKey {
        /// Combiner body (`$0` acc, `$1` value, `$2..` captured).
        expr: Expr,
    },
    /// Partition-local pre-aggregation (no shuffle); the combiner pass's
    /// map-side combine. Inputs: `[data, captured..]`.
    ReduceByKeyLocal {
        /// Combiner body (`$0` acc, `$1` value, `$2..` captured).
        expr: Expr,
    },
    /// Global fold to a one-element bag. Inputs: `[data, captured..]`.
    Reduce {
        /// Combiner body.
        expr: Expr,
        /// Empty-bag value; `None` = error on empty input.
        init: Option<Value>,
    },
    /// Duplicate elimination. Inputs: `[data]`.
    Distinct,
    /// One-element bag from captured scalars. Inputs: `[captured..]`.
    Singleton {
        /// The scalar expression.
        expr: Expr,
    },
    /// Literal bag. Inputs: `[captured..]`.
    LiteralBag {
        /// Element expressions.
        elems: Vec<Expr>,
    },
    /// Identity forward. Inputs: `[data]`.
    Alias,
    /// Φ-node: forwards exactly one input, chosen from the execution path.
    /// Inputs: one per SSA operand.
    Phi,
    /// A fused chain of narrow per-element operators (see [`crate::fuse`]):
    /// the host runs every stage's kernel in one pass over the elements,
    /// with no intermediate bags or edges. Inputs: `[data-or-name,
    /// captured..]` — the head stage's data (or file-name) input first,
    /// then every stage's captured scalars in stage order.
    Fused {
        /// The stages, in execution order. Stage 0 may be a source
        /// ([`NodeKind::ReadFile`]); all later stages are per-element.
        stages: Arc<[FusedStage]>,
    },
}

/// One member of a fused operator chain.
#[derive(Clone, Debug)]
pub struct FusedStage {
    /// The original operator (`ReadFile`, `Map`, `FlatMap`, `Filter`, or a
    /// pass-through `Alias`/`Phi`).
    pub kind: NodeKind,
    /// Display name of the original logical node (its SSA variable).
    pub name: Arc<str>,
    /// Number of captured scalar inputs this stage consumes. The fused
    /// node's captured slots are laid out contiguously in stage order.
    pub captured: usize,
}

impl NodeKind {
    /// Number of *data* inputs (captured scalar inputs come after these).
    pub fn data_arity(&self) -> usize {
        match self {
            NodeKind::ReadFile | NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => 0,
            NodeKind::Map { .. }
            | NodeKind::FlatMap { .. }
            | NodeKind::Filter { .. }
            | NodeKind::ReduceByKey { .. }
            | NodeKind::ReduceByKeyLocal { .. }
            | NodeKind::Reduce { .. }
            | NodeKind::Distinct
            | NodeKind::Alias
            | NodeKind::OutputSink { .. } => 1,
            NodeKind::WriteFile | NodeKind::Join | NodeKind::Cross | NodeKind::Union => 2,
            NodeKind::Phi => usize::MAX, // all inputs are data
            // Input 0 is the head's data (or file-name) input; the rest are
            // the stages' captured scalars.
            NodeKind::Fused { .. } => 1,
        }
    }

    /// Short name for display.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            NodeKind::ReadFile => "readFile",
            NodeKind::WriteFile => "writeFile",
            NodeKind::OutputSink { .. } => "output",
            NodeKind::Map { .. } => "map",
            NodeKind::FlatMap { .. } => "flatMap",
            NodeKind::Filter { .. } => "filter",
            NodeKind::Join => "join",
            NodeKind::Cross => "cross",
            NodeKind::Union => "union",
            NodeKind::ReduceByKey { .. } => "reduceByKey",
            NodeKind::ReduceByKeyLocal { .. } => "reduceByKeyLocal",
            NodeKind::Reduce { .. } => "reduce",
            NodeKind::Distinct => "distinct",
            NodeKind::Singleton { .. } => "singleton",
            NodeKind::LiteralBag { .. } => "bagLit",
            NodeKind::Alias => "alias",
            NodeKind::Phi => "phi",
            NodeKind::Fused { .. } => "fused",
        }
    }

    /// Display label: the mnemonic, except for fused chains, which join
    /// their stage mnemonics (`map+filter+flatMap`).
    pub fn label(&self) -> String {
        match self {
            NodeKind::Fused { stages } => stages
                .iter()
                .map(|s| s.kind.mnemonic())
                .collect::<Vec<_>>()
                .join("+"),
            other => other.mnemonic().to_string(),
        }
    }
}

/// A logical input edge of a node.
#[derive(Clone, Copy, Debug)]
pub struct InputSpec {
    /// Producing node.
    pub src: OpId,
    /// Distribution of data across destination instances.
    pub partitioning: Partitioning,
}

/// Branch targets of a condition node.
#[derive(Clone, Copy, Debug)]
pub struct CondInfo {
    /// Block chosen when the condition is true.
    pub then_blk: BlockId,
    /// Block chosen when the condition is false.
    pub else_blk: BlockId,
}

/// A logical dataflow node.
#[derive(Clone, Debug)]
pub struct LogicalNode {
    /// The SSA variable this node defines.
    pub var: VarId,
    /// Display name (the SSA variable name).
    pub name: Arc<str>,
    /// The basic block of the defining statement.
    pub block: BlockId,
    /// Position of the statement within its block (drives the same-block
    /// input-selection rule).
    pub stmt_idx: usize,
    /// Runtime behaviour.
    pub kind: NodeKind,
    /// Logical inputs, in order (data inputs first, then captured scalars).
    pub inputs: Vec<InputSpec>,
    /// Parallelism class.
    pub parallelism: Parallelism,
    /// Present iff this node decides a branch (a *condition node*).
    pub condition: Option<CondInfo>,
}

/// A logical edge with destination bookkeeping (derived from inputs).
#[derive(Clone, Copy, Debug)]
pub struct LogicalEdge {
    /// Producing node.
    pub src: OpId,
    /// Consuming node.
    pub dst: OpId,
    /// Index of this edge among `dst`'s inputs.
    pub dst_input: usize,
    /// Distribution.
    pub partitioning: Partitioning,
}

/// The complete logical dataflow job plus the control-flow graph it
/// implements.
#[derive(Clone, Debug)]
pub struct LogicalGraph {
    /// Dataflow nodes, indexed by [`OpId`].
    pub nodes: Vec<LogicalNode>,
    /// All edges (derived from node inputs), indexed by [`EdgeId`].
    pub edges: Vec<LogicalEdge>,
    /// Outgoing edge ids per node.
    pub out_edges: Vec<Vec<EdgeId>>,
    /// The SSA function (for terminators and block structure).
    pub func: FuncIr,
}

/// An error during dataflow building.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BuildError {
    /// Description.
    pub message: String,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dataflow build error: {}", self.message)
    }
}

impl std::error::Error for BuildError {}

impl LogicalGraph {
    /// Builds the single dataflow job from a validated SSA program:
    /// one node per statement, one edge per variable reference.
    pub fn build(func: &FuncIr) -> Result<LogicalGraph, BuildError> {
        let mut nodes: Vec<LogicalNode> = Vec::new();
        let mut var_to_op: HashMap<VarId, OpId> = HashMap::new();

        // Pass 1: create nodes.
        for (b, block) in func.blocks.iter().enumerate() {
            for (i, stmt) in block.stmts.iter().enumerate() {
                let id = nodes.len() as OpId;
                let info = &func.vars[stmt.target as usize];
                let (kind, _) = translate_op(&stmt.op)?;
                let parallelism = plan_parallelism(&kind, info.is_scalar);
                nodes.push(LogicalNode {
                    var: stmt.target,
                    name: info.name.clone(),
                    block: b as BlockId,
                    stmt_idx: i,
                    kind,
                    inputs: Vec::new(),
                    parallelism,
                    condition: None,
                });
                var_to_op.insert(stmt.target, id);
            }
        }

        // Pass 2: wire inputs (one edge per variable reference).
        {
            let mut op_iter = 0usize;
            for block in &func.blocks {
                for stmt in &block.stmts {
                    let uses = stmt.op.uses();
                    let dst = op_iter as OpId;
                    op_iter += 1;
                    let mut inputs = Vec::with_capacity(uses.len());
                    for (input_idx, u) in uses.iter().enumerate() {
                        let src = *var_to_op.get(u).ok_or_else(|| BuildError {
                            message: format!(
                                "variable `{}` has no defining node",
                                func.var_name(*u)
                            ),
                        })?;
                        let partitioning = plan_partitioning(
                            &nodes[dst as usize],
                            input_idx,
                            nodes[src as usize].parallelism,
                        );
                        inputs.push(InputSpec { src, partitioning });
                    }
                    nodes[dst as usize].inputs = inputs;
                }
            }
        }

        // Pass 3: mark condition nodes from branch terminators.
        for block in &func.blocks {
            if let Terminator::Branch {
                cond,
                then_blk,
                else_blk,
            } = &block.term
            {
                let op = *var_to_op.get(cond).ok_or_else(|| BuildError {
                    message: format!("condition `{}` has no node", func.var_name(*cond)),
                })?;
                nodes[op as usize].condition = Some(CondInfo {
                    then_blk: *then_blk,
                    else_blk: *else_blk,
                });
            }
        }

        // Derive the edge table.
        let mut edges = Vec::new();
        let mut out_edges = vec![Vec::new(); nodes.len()];
        for (dst, node) in nodes.iter().enumerate() {
            for (dst_input, input) in node.inputs.iter().enumerate() {
                let id = edges.len() as EdgeId;
                edges.push(LogicalEdge {
                    src: input.src,
                    dst: dst as OpId,
                    dst_input,
                    partitioning: input.partitioning,
                });
                out_edges[input.src as usize].push(id);
            }
        }

        Ok(LogicalGraph {
            nodes,
            edges,
            out_edges,
            func: func.clone(),
        })
    }

    /// Number of physical instances of a node on an `machines`-machine
    /// cluster.
    pub fn instances(&self, op: OpId, machines: u16) -> u16 {
        match self.nodes[op as usize].parallelism {
            Parallelism::Single => 1,
            Parallelism::Full => machines,
        }
    }

    /// The machine hosting instance `inst` of `op`. Single-instance
    /// operators live on machine 0 (with the control-flow "driver-side"
    /// chain), full operators place instance `i` on machine `i`.
    pub fn placement(&self, op: OpId, inst: u16) -> u16 {
        match self.nodes[op as usize].parallelism {
            Parallelism::Single => 0,
            Parallelism::Full => inst,
        }
    }

    /// Number of physical senders feeding one destination instance over an
    /// edge (how many `BagDone` messages to expect).
    pub fn senders_per_dst(&self, edge: EdgeId, machines: u16) -> u16 {
        let e = &self.edges[edge as usize];
        match e.partitioning {
            Partitioning::Forward => 1,
            Partitioning::Hash | Partitioning::Gather | Partitioning::Broadcast => {
                self.instances(e.src, machines)
            }
        }
    }

    /// Destination instances for an element sent by `src_inst` over `edge`,
    /// as a contiguous range (one instance, or all of them for `Broadcast`),
    /// so routing an element allocates nothing. For `Hash`, the instance is
    /// determined by the element key.
    pub fn route(
        &self,
        edge: EdgeId,
        src_inst: u16,
        key: Option<&Value>,
        machines: u16,
    ) -> Range<u16> {
        let e = &self.edges[edge as usize];
        let dst_n = self.instances(e.dst, machines);
        let one = |d: u16| d..d + 1;
        match e.partitioning {
            Partitioning::Forward => one(src_inst.min(dst_n - 1)),
            Partitioning::Gather => one(0),
            Partitioning::Broadcast => 0..dst_n,
            Partitioning::Hash => {
                let key = key.expect("hash routing needs a key");
                one((stable_hash(key) % dst_n as u64) as u16)
            }
        }
    }
}

/// FNV-1a over the value's own hash impl — deterministic across runs and
/// platforms (unlike `DefaultHasher` guarantees).
pub fn stable_hash(v: &Value) -> u64 {
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }
    use std::hash::Hash;
    let mut h = Fnv(0xcbf29ce484222325);
    v.hash(&mut h);
    std::hash::Hasher::finish(&h)
}

fn translate_op(op: &Op) -> Result<(NodeKind, ()), BuildError> {
    let kind = match op {
        Op::ReadFile { .. } => NodeKind::ReadFile,
        Op::WriteFile { .. } => NodeKind::WriteFile,
        Op::Output { tag, .. } => NodeKind::OutputSink { tag: tag.clone() },
        Op::Map { expr, .. } => NodeKind::Map { expr: expr.clone() },
        Op::FlatMap { expr, .. } => NodeKind::FlatMap { expr: expr.clone() },
        Op::Filter { expr, .. } => NodeKind::Filter { expr: expr.clone() },
        Op::Join { .. } => NodeKind::Join,
        Op::Cross { .. } => NodeKind::Cross,
        Op::Union { .. } => NodeKind::Union,
        Op::ReduceByKey { expr, .. } => NodeKind::ReduceByKey { expr: expr.clone() },
        Op::ReduceByKeyLocal { expr, .. } => NodeKind::ReduceByKeyLocal { expr: expr.clone() },
        Op::Reduce { expr, init, .. } => NodeKind::Reduce {
            expr: expr.clone(),
            init: init.clone(),
        },
        Op::Distinct { .. } => NodeKind::Distinct,
        Op::Singleton { expr, .. } => NodeKind::Singleton { expr: expr.clone() },
        Op::LiteralBag { elems, .. } => NodeKind::LiteralBag {
            elems: elems.clone(),
        },
        Op::Alias { .. } => NodeKind::Alias,
        Op::Phi { .. } => NodeKind::Phi,
    };
    Ok((kind, ()))
}

fn plan_parallelism(kind: &NodeKind, is_scalar: bool) -> Parallelism {
    if is_scalar {
        return Parallelism::Single;
    }
    match kind {
        // Global reduce gathers to one instance; its output is a wrapped
        // scalar anyway (is_scalar), so the first arm is defensive.
        // Literal bags are materialized once (a single driver-side
        // collection) and redistributed by their consumers.
        NodeKind::Reduce { .. } | NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => {
            Parallelism::Single
        }
        _ => Parallelism::Full,
    }
}

fn plan_partitioning(dst: &LogicalNode, input_idx: usize, src_par: Parallelism) -> Partitioning {
    use NodeKind::*;
    if dst.parallelism == Parallelism::Single {
        // Everything funnels into the one instance.
        return Partitioning::Gather;
    }
    // Destination is Full.
    let data_arity = dst.kind.data_arity();
    if input_idx >= data_arity && data_arity != usize::MAX {
        // Captured scalar positions are always broadcast.
        return Partitioning::Broadcast;
    }
    match (&dst.kind, input_idx) {
        // The collected cross side and file names go everywhere.
        (Cross, 1) | (WriteFile, 1) => Partitioning::Broadcast,
        (Join, _) | (ReduceByKey { .. }, _) | (Distinct, _) => Partitioning::Hash,
        // A single-instance bag producer feeding a partitioned data input
        // must be redistributed, not replicated.
        _ if src_par == Parallelism::Single => Partitioning::Hash,
        _ => Partitioning::Forward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitos_ir::compile_str;

    fn graph(src: &str) -> LogicalGraph {
        LogicalGraph::build(&compile_str(src).unwrap()).unwrap()
    }

    fn node_by_name<'g>(g: &'g LogicalGraph, name: &str) -> (&'g LogicalNode, OpId) {
        let (i, n) = g
            .nodes
            .iter()
            .enumerate()
            .find(|(_, n)| &*n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"));
        (n, i as OpId)
    }

    #[test]
    fn one_node_per_statement_one_edge_per_reference() {
        let g = graph("a = bag(1, 2); b = a.map(x => x + 1); output(b, \"b\");");
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.edges.len(), 2);
        let (map_node, _) = node_by_name(&g, "b");
        assert_eq!(map_node.inputs.len(), 1);
        // Literal bags materialize at a single instance; consumers
        // redistribute them.
        assert_eq!(map_node.inputs[0].partitioning, Partitioning::Hash);
    }

    #[test]
    fn scalars_are_single_and_broadcast_to_bag_ops() {
        let g = graph("k = 5; b = bag(1, 2).filter(x => x < k); output(b, \"b\");");
        let (k, _) = node_by_name(&g, "k");
        assert_eq!(k.parallelism, Parallelism::Single);
        let (filter, _) = node_by_name(&g, "b");
        assert_eq!(filter.parallelism, Parallelism::Full);
        // input 0 = data (redistributed from the single literal-bag
        // instance), input 1 = captured k (broadcast).
        assert_eq!(filter.inputs[0].partitioning, Partitioning::Hash);
        assert_eq!(filter.inputs[1].partitioning, Partitioning::Broadcast);
    }

    #[test]
    fn joins_hash_partition_both_sides() {
        let g = graph("a = bag((1, 2)); b = bag((1, 3)); c = a join b; output(c, \"c\");");
        let (join, _) = node_by_name(&g, "c");
        assert_eq!(join.inputs[0].partitioning, Partitioning::Hash);
        assert_eq!(join.inputs[1].partitioning, Partitioning::Hash);
    }

    #[test]
    fn reduce_gathers_to_single() {
        let g = graph("b = bag(1, 2, 3); s = b.sum(); output(s, \"s\");");
        let sum_node = g
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Reduce { .. }))
            .unwrap();
        assert_eq!(sum_node.parallelism, Parallelism::Single);
        assert_eq!(sum_node.inputs[0].partitioning, Partitioning::Gather);
    }

    #[test]
    fn condition_nodes_are_marked() {
        let g = graph("i = 0; while (i < 2) { i = i + 1; } output(i, \"i\");");
        let conds: Vec<&LogicalNode> = g.nodes.iter().filter(|n| n.condition.is_some()).collect();
        assert_eq!(conds.len(), 1);
        let cond = conds[0].condition.unwrap();
        assert_ne!(cond.then_blk, cond.else_blk);
        assert_eq!(conds[0].parallelism, Parallelism::Single);
    }

    #[test]
    fn phi_nodes_have_multiple_inputs() {
        let g = graph("i = 0; while (i < 2) { i = i + 1; } output(i, \"i\");");
        let phi = g
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Phi))
            .unwrap();
        assert_eq!(phi.inputs.len(), 2);
    }

    #[test]
    fn readfile_broadcasts_its_name() {
        let g = graph("b = readFile(\"f\"); output(b, \"b\");");
        let rf = g
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::ReadFile))
            .unwrap();
        assert_eq!(rf.parallelism, Parallelism::Full);
        assert_eq!(rf.inputs[0].partitioning, Partitioning::Broadcast);
    }

    #[test]
    fn routing_covers_all_instances_exactly_once_for_hash() {
        let g = graph("a = bag((1, 2)); b = bag((1, 3)); c = a join b; output(c, \"c\");");
        let (_, join_id) = node_by_name(&g, "c");
        let edge = g
            .edges
            .iter()
            .position(|e| e.dst == join_id && e.dst_input == 0)
            .unwrap() as EdgeId;
        let machines = 4;
        for k in 0..100i64 {
            let key = Value::I64(k);
            let dsts = g.route(edge, 0, Some(&key), machines);
            assert_eq!(dsts.len(), 1);
            assert!(dsts.start < machines);
            // Same key always routes the same way.
            assert_eq!(dsts, g.route(edge, 2, Some(&key), machines));
        }
    }

    #[test]
    fn broadcast_routes_to_everyone() {
        let g = graph("k = 5; b = bag(1).filter(x => x < k); output(b, \"b\");");
        let (_, filter_id) = node_by_name(&g, "b");
        let edge = g
            .edges
            .iter()
            .position(|e| e.dst == filter_id && e.dst_input == 1)
            .unwrap() as EdgeId;
        assert_eq!(g.route(edge, 0, None, 3), 0..3);
    }

    #[test]
    fn stable_hash_is_deterministic() {
        let v = Value::tuple([Value::I64(42), Value::str("x")]);
        assert_eq!(stable_hash(&v), stable_hash(&v));
        assert_ne!(stable_hash(&Value::I64(1)), stable_hash(&Value::I64(2)));
    }

    #[test]
    fn cross_broadcasts_right_side() {
        let g = graph("a = bag(1); b = bag(2); c = a cross b; output(c, \"c\");");
        let (cross, _) = node_by_name(&g, "c");
        assert_eq!(cross.inputs[0].partitioning, Partitioning::Hash);
        assert_eq!(cross.inputs[1].partitioning, Partitioning::Broadcast);
    }

    #[test]
    fn senders_per_dst_matches_partitioning() {
        let g = graph("k = 5; a = bag((1, 2)); b = a.map(x => x); c = a join b; output(c, \"c\"); output(k, \"k\");");
        let machines = 4;
        for (i, e) in g.edges.iter().enumerate() {
            let senders = g.senders_per_dst(i as EdgeId, machines);
            match e.partitioning {
                Partitioning::Forward => assert_eq!(senders, 1),
                Partitioning::Hash | Partitioning::Gather => {
                    assert_eq!(senders, g.instances(e.src, machines))
                }
                Partitioning::Broadcast => {
                    assert_eq!(senders, g.instances(e.src, machines))
                }
            }
        }
    }
}
