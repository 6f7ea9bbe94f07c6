//! Execution paths and the path-based coordination rules of Sec. 5.2.
//!
//! A **bag identifier** is `(operator, path-prefix length)`: since every
//! bag's path is a prefix of the single global execution path, storing the
//! length is enough — a large representational win over shipping block
//! sequences around, and every control-flow manager replicates the path
//! anyway.
//!
//! This module implements, as pure functions over the path:
//!
//! * output-bag scheduling (5.2.2): an operator computes a bag for every
//!   occurrence of its block on the path;
//! * input-bag choice (5.2.3): the longest prefix ending with the
//!   producer's block — extended with a statement-order tie-break for
//!   producers in the *same* block as the consumer (needed when a loop
//!   body is a single basic block);
//! * conditional-output decisions (5.2.4): send a produced bag when the
//!   path reaches the consumer's block before the producer's block recurs;
//!   drop it as soon as the path enters a block from which the consumer's
//!   block is unreachable without passing the producer's block again (the
//!   paper's static early-discard rule).

use crate::graph::{EdgeId, LogicalGraph, OpId};
use mitos_ir::nir::FuncIr;
use mitos_ir::{BlockId, Dominators};

/// A bag identifier: the producing operator and the length of the
/// execution-path prefix at creation (Sec. 5.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BagId {
    /// Producing logical operator.
    pub op: OpId,
    /// Length of the path prefix; `path[len - 1]` is the producing block
    /// occurrence.
    pub len: u32,
}

/// The (replicated) global execution path: the sequence of basic blocks the
/// program's control flow has reached.
///
/// Alongside the blocks it keeps, per block, the ascending positions where
/// that block occurs, so the input-bag rule's "latest occurrence of the
/// producer's block" (5.2.3) is a lookup instead of a backward scan over an
/// ever-growing path.
#[derive(Clone, Debug, Default)]
pub struct ExecutionPath {
    blocks: Vec<BlockId>,
    /// `occurrences[b]` = positions of block `b`, ascending.
    occurrences: Vec<Vec<u32>>,
    exited: bool,
}

impl ExecutionPath {
    /// An empty path.
    pub fn new() -> ExecutionPath {
        ExecutionPath::default()
    }

    /// Appends a block occurrence; returns its position.
    pub fn append(&mut self, block: BlockId) -> u32 {
        let pos = self.blocks.len() as u32;
        self.blocks.push(block);
        let b = block as usize;
        if b >= self.occurrences.len() {
            self.occurrences.resize_with(b + 1, Vec::new);
        }
        self.occurrences[b].push(pos);
        pos
    }

    /// Marks that the program has exited (no more blocks will be appended).
    pub fn mark_exited(&mut self) {
        self.exited = true;
    }

    /// Whether the program has exited.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Current length.
    pub fn len(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block at a position.
    pub fn get(&self, pos: u32) -> BlockId {
        self.blocks[pos as usize]
    }

    /// The whole path so far (for test assertions against the reference
    /// interpreter's recorded path).
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The largest position `i < limit` with `path[i] == block`: O(1) when
    /// `limit` is past the block's latest occurrence (every live selection
    /// on a growing path), O(log n) by binary search otherwise.
    pub fn last_occurrence_before(&self, block: BlockId, limit: u32) -> Option<u32> {
        let occ = self.occurrences.get(block as usize)?;
        match occ.last() {
            Some(&last) if last < limit => Some(last),
            _ => {
                let n = occ.partition_point(|&p| p < limit);
                n.checked_sub(1).map(|i| occ[i])
            }
        }
    }
}

/// One natural loop of the control-flow graph, identified by its header
/// block (the target of at least one back edge `u → h` with `h`
/// dominating `u`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopInfo {
    /// The loop header block.
    pub header: BlockId,
    /// Index (into [`LoopNest::loops`]) of the innermost enclosing loop,
    /// or `None` for a top-level loop.
    pub parent: Option<usize>,
    /// Nesting depth: 1 for top-level loops, 2 for loops inside them, …
    pub depth: u32,
}

/// The loop-nesting structure of a compiled program, used to decode an
/// execution path (and therefore every path-prefix bag identifier) back
/// into **loop-iteration coordinates**.
///
/// A bag identifier stores only `(operator, prefix length)`; the prefix
/// ends at the block occurrence the bag belongs to. Replaying the path
/// while counting header occurrences per nesting level assigns every
/// position a coordinate vector — e.g. `[2, 0]` = third outer iteration,
/// first inner iteration — which is how the profiler attributes events to
/// iterations without any extra runtime tagging.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopNest {
    /// All natural loops, ordered by header block id (deterministic).
    pub loops: Vec<LoopInfo>,
    /// `loop_of_block[b]` = innermost loop whose body contains block `b`.
    pub loop_of_block: Vec<Option<usize>>,
}

impl LoopNest {
    /// Detects the natural loops of `func` from its back edges (an edge
    /// `u → h` where `h` dominates `u`) and computes their nesting.
    pub fn build(func: &FuncIr) -> LoopNest {
        let n = func.block_count();
        if n == 0 {
            return LoopNest::default();
        }
        let dom = Dominators::compute(func);
        let preds = func.predecessors();
        let succs = func.successors();

        // Collect back edges grouped by header, headers in ascending order.
        let mut latches: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for u in 0..n as BlockId {
            for &h in &succs[u as usize] {
                if dom.dominates(h, u) {
                    match latches.binary_search_by_key(&h, |&(hh, _)| hh) {
                        Ok(i) => latches[i].1.push(u),
                        Err(i) => latches.insert(i, (h, vec![u])),
                    }
                }
            }
        }

        // Natural loop body of header h: h plus everything that reaches a
        // latch backwards without passing through h.
        let mut bodies: Vec<Vec<bool>> = Vec::with_capacity(latches.len());
        for (h, ls) in &latches {
            let mut body = vec![false; n];
            body[*h as usize] = true;
            let mut stack: Vec<BlockId> = ls.clone();
            while let Some(b) = stack.pop() {
                if body[b as usize] {
                    continue;
                }
                body[b as usize] = true;
                stack.extend(preds[b as usize].iter().copied());
            }
            bodies.push(body);
        }

        // Parent = the smallest strictly-containing loop body.
        let body_size = |i: usize| -> usize { bodies[i].iter().filter(|&&x| x).count() };
        let mut loops: Vec<LoopInfo> = latches
            .iter()
            .map(|&(header, _)| LoopInfo {
                header,
                parent: None,
                depth: 1,
            })
            .collect();
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for (j, body) in bodies.iter().enumerate().take(loops.len()) {
                if i != j
                    && body[loops[i].header as usize]
                    && (best.is_none() || body_size(j) < body_size(best.unwrap()))
                {
                    best = Some(j);
                }
            }
            loops[i].parent = best;
        }
        for i in 0..loops.len() {
            let mut d = 1;
            let mut p = loops[i].parent;
            while let Some(j) = p {
                d += 1;
                p = loops[j].parent;
            }
            loops[i].depth = d;
        }

        // Innermost loop per block = the containing loop of maximal depth
        // (ties broken toward the smaller body, which cannot happen for
        // distinct-header natural loops at equal depth containing the same
        // block unless they share the body anyway).
        let mut loop_of_block = vec![None; n];
        for (b, slot) in loop_of_block.iter_mut().enumerate() {
            let mut best: Option<usize> = None;
            for (i, body) in bodies.iter().enumerate() {
                if body[b] && (best.is_none() || loops[i].depth > loops[best.unwrap()].depth) {
                    best = Some(i);
                }
            }
            *slot = best;
        }
        LoopNest {
            loops,
            loop_of_block,
        }
    }

    /// The chain of loops containing `block`, outermost first.
    pub fn chain_of_block(&self, block: BlockId) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut cur = self.loop_of_block.get(block as usize).copied().flatten();
        while let Some(i) = cur {
            chain.push(i);
            cur = self.loops[i].parent;
        }
        chain.reverse();
        chain
    }

    /// Maximum nesting depth (0 for loop-free programs).
    pub fn max_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// Decodes an execution path into per-position **iteration
    /// coordinates**: for every path position, the vector of 0-based
    /// iteration counters of the loops enclosing that block occurrence,
    /// outermost first (empty for blocks outside all loops).
    ///
    /// A new occurrence of a loop's header while that loop is active
    /// starts its next iteration; entering a loop (its header appearing
    /// when the loop is not active) starts iteration 0; leaving a loop's
    /// body pops its counter. Re-entering a loop therefore restarts at 0 —
    /// coordinates are relative to the current activation, matching how
    /// input selection treats recurring blocks (Sec. 5.2.3).
    pub fn coords(&self, path: &[BlockId]) -> Vec<Vec<u32>> {
        let mut stack: Vec<(usize, u32)> = Vec::new();
        let mut out = Vec::with_capacity(path.len());
        for &b in path {
            let chain = self.chain_of_block(b);
            let mut common = 0;
            while common < stack.len() && common < chain.len() && stack[common].0 == chain[common] {
                common += 1;
            }
            stack.truncate(common);
            for &l in &chain[common..] {
                stack.push((l, 0));
            }
            if let Some(&innermost) = chain.last() {
                if self.loops[innermost].header == b && common == chain.len() {
                    // The loop was already active: a fresh header
                    // occurrence begins its next iteration.
                    stack.last_mut().expect("active loop").1 += 1;
                }
            }
            out.push(stack.iter().map(|&(_, it)| it).collect());
        }
        out
    }
}

/// Static per-edge data for the coordination rules.
#[derive(Clone, Debug)]
pub struct EdgeRules {
    /// Producer's block and statement index.
    pub src_block: BlockId,
    /// Producer's statement index within its block.
    pub src_stmt: usize,
    /// Consumer's block.
    pub dst_block: BlockId,
    /// Consumer's statement index within its block.
    pub dst_stmt: usize,
    /// True when producer and consumer share a block with the producer
    /// first: elements stream immediately, no conditional-send watcher.
    pub immediate: bool,
    /// `drop_mask[b]`: entering block `b` proves the consumer's block can
    /// no longer be reached without the producer's block recurring — the
    /// producer may discard the pending bag.
    pub drop_mask: Vec<bool>,
}

/// All static rule data derived from a logical graph.
#[derive(Clone, Debug)]
pub struct PathRules {
    /// Per logical edge.
    pub edges: Vec<EdgeRules>,
}

impl PathRules {
    /// Precomputes rule data for every edge of the graph.
    pub fn build(graph: &LogicalGraph) -> PathRules {
        let succs = graph.func.successors();
        let n_blocks = graph.func.block_count();
        let edges = graph
            .edges
            .iter()
            .map(|e| {
                let src = &graph.nodes[e.src as usize];
                let dst = &graph.nodes[e.dst as usize];
                let immediate = src.block == dst.block && src.stmt_idx < dst.stmt_idx;
                let drop_mask = if immediate {
                    Vec::new()
                } else {
                    (0..n_blocks as BlockId)
                        .map(|b| !can_reach_avoiding(&succs, b, dst.block, src.block))
                        .collect()
                };
                EdgeRules {
                    src_block: src.block,
                    src_stmt: src.stmt_idx,
                    dst_block: dst.block,
                    dst_stmt: dst.stmt_idx,
                    immediate,
                    drop_mask,
                }
            })
            .collect();
        PathRules { edges }
    }

    /// Input-bag choice (5.2.3): the path-prefix length of the input bag a
    /// consumer occurrence at `out_pos` must use from this edge, or `None`
    /// if the producer has not yet occurred (only legal for Φ candidates).
    pub fn select_input_len(
        &self,
        edge: EdgeId,
        path: &ExecutionPath,
        out_pos: u32,
    ) -> Option<u32> {
        let r = &self.edges[edge as usize];
        // Same-block producers earlier in the block belong to the *current*
        // occurrence; everything else must come from a strictly earlier
        // position ("the latest bag written before this point").
        let limit = if r.src_block == r.dst_block && r.src_stmt < r.dst_stmt {
            out_pos + 1
        } else {
            out_pos
        };
        path.last_occurrence_before(r.src_block, limit)
            .map(|i| i + 1)
    }

    /// Conditional-output decision (5.2.4) for a bag produced over `edge`
    /// with identifier length `bag_len`, scanning path positions from
    /// `cursor`. Returns the decision and the next cursor.
    pub fn decide_send(
        &self,
        edge: EdgeId,
        path: &ExecutionPath,
        bag_len: u32,
        cursor: u32,
    ) -> (SendDecision, u32) {
        let r = &self.edges[edge as usize];
        debug_assert!(!r.immediate, "immediate edges never consult the watcher");
        let mut pos = cursor.max(bag_len);
        while pos < path.len() {
            let b = path.get(pos);
            if b == r.dst_block {
                return (SendDecision::Send, pos + 1);
            }
            if r.drop_mask[b as usize] {
                return (SendDecision::Drop, pos + 1);
            }
            pos += 1;
        }
        if path.exited() {
            // No more appends will come; the consumer's block can never be
            // reached.
            return (SendDecision::Drop, pos);
        }
        (SendDecision::Undecided, pos)
    }
}

/// Outcome of the conditional-output watcher.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendDecision {
    /// Transmit the bag to the consumer.
    Send,
    /// Discard the bag; the consumer will never select it.
    Drop,
    /// Keep watching future path appends.
    Undecided,
}

/// BFS reachability from `from` to `target` that never visits `avoid`
/// (including as the start block).
fn can_reach_avoiding(
    succs: &[Vec<BlockId>],
    from: BlockId,
    target: BlockId,
    avoid: BlockId,
) -> bool {
    if from == avoid {
        return false;
    }
    if from == target {
        return true;
    }
    let mut visited = vec![false; succs.len()];
    visited[from as usize] = true;
    let mut queue = vec![from];
    while let Some(b) = queue.pop() {
        for &s in &succs[b as usize] {
            // Arriving AT the target always counts, even when the target
            // block is the avoided block itself (same-block loop-carried
            // edges): "avoid" only forbids passing *through*.
            if s == target {
                return true;
            }
            if s == avoid || visited[s as usize] {
                continue;
            }
            visited[s as usize] = true;
            queue.push(s);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LogicalGraph;
    use mitos_ir::compile_str;
    use proptest::prelude::*;

    fn setup(src: &str) -> (LogicalGraph, PathRules) {
        let g = LogicalGraph::build(&compile_str(src).unwrap()).unwrap();
        let r = PathRules::build(&g);
        (g, r)
    }

    fn edge_into(g: &LogicalGraph, dst_name: &str, input: usize) -> EdgeId {
        let dst = g
            .nodes
            .iter()
            .position(|n| &*n.name == dst_name)
            .unwrap_or_else(|| panic!("no node {dst_name}")) as OpId;
        g.edges
            .iter()
            .position(|e| e.dst == dst && e.dst_input == input)
            .unwrap() as EdgeId
    }

    fn path_of(blocks: &[BlockId]) -> ExecutionPath {
        let mut p = ExecutionPath::new();
        for &b in blocks {
            p.append(b);
        }
        p
    }

    #[test]
    fn last_occurrence_respects_limit() {
        let p = path_of(&[0, 1, 2, 1, 3]);
        assert_eq!(p.last_occurrence_before(1, 5), Some(3));
        assert_eq!(p.last_occurrence_before(1, 3), Some(1));
        assert_eq!(p.last_occurrence_before(1, 1), None);
        assert_eq!(p.last_occurrence_before(9, 5), None);
    }

    /// The backward scan the occurrence index replaced, kept as the
    /// reference the indexed lookup is checked against.
    fn scan_last_occurrence_before(blocks: &[BlockId], block: BlockId, limit: u32) -> Option<u32> {
        let limit = (limit as usize).min(blocks.len());
        blocks[..limit]
            .iter()
            .rposition(|&b| b == block)
            .map(|i| i as u32)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On random paths, for present and absent blocks and every limit
        /// from 0 to `len + 2`, the indexed lookup equals the backward
        /// scan — also when asked again after the path grew.
        #[test]
        fn indexed_lookup_matches_backward_scan(
            first in prop::collection::vec(0u32..6, 0..48),
            more in prop::collection::vec(0u32..6, 0..24),
        ) {
            let mut p = ExecutionPath::new();
            let mut blocks = Vec::new();
            for chunk in [first, more] {
                for b in chunk {
                    p.append(b);
                    blocks.push(b);
                }
                // Blocks 6, 7 and `BlockId::MAX` never occur.
                for block in (0..8).chain([BlockId::MAX]) {
                    for limit in 0..=blocks.len() as u32 + 2 {
                        prop_assert_eq!(
                            p.last_occurrence_before(block, limit),
                            scan_last_occurrence_before(&blocks, block, limit)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_block_earlier_stmt_selects_current_occurrence() {
        // b = a.map(..) in the same block: b's input comes from the same
        // occurrence.
        let (g, r) = setup("a = bag(1); b = a.map(x => x); output(b, \"b\");");
        let e = edge_into(&g, "b", 0);
        let p = path_of(&[0]);
        assert_eq!(r.select_input_len(e, &p, 0), Some(1));
    }

    #[test]
    fn loop_carried_phi_selects_previous_iteration() {
        // do-while with a single-block body: the phi's loop-carried operand
        // is defined in the same block *after* the phi, so the selection
        // must come from the previous occurrence.
        let (g, r) = setup("i = 0; do { i = i + 1; } while (i < 3); output(i, \"i\");");
        let phi = g
            .nodes
            .iter()
            .position(|n| matches!(n.kind, crate::graph::NodeKind::Phi))
            .unwrap() as OpId;
        let phi_node = &g.nodes[phi as usize];
        // Identify the edge from the loop-carried producer (same block,
        // later stmt) and from the init producer (entry block).
        let mut init_edge = None;
        let mut carried_edge = None;
        for (i, e) in g.edges.iter().enumerate() {
            if e.dst == phi {
                let src = &g.nodes[e.src as usize];
                if src.block == phi_node.block {
                    carried_edge = Some(i as EdgeId);
                } else {
                    init_edge = Some(i as EdgeId);
                }
            }
        }
        let (init_edge, carried_edge) = (init_edge.unwrap(), carried_edge.unwrap());
        // Path: entry(0), body(1), body(1), ... Phi occurrence at pos 1.
        let p = path_of(&[0, 1, 1]);
        // First iteration (pos 1): init candidate = prefix 1; carried = none.
        assert_eq!(r.select_input_len(init_edge, &p, 1), Some(1));
        assert_eq!(r.select_input_len(carried_edge, &p, 1), None);
        // Second iteration (pos 2): carried candidate = prefix 2 (previous
        // body occurrence), init still 1 — carried wins.
        assert_eq!(r.select_input_len(carried_edge, &p, 2), Some(2));
        assert_eq!(r.select_input_len(init_edge, &p, 2), Some(1));
    }

    #[test]
    fn figure_4a_outer_invariant_selected_across_inner_iterations() {
        // x defined in the outer loop, joined inside the inner loop: every
        // inner occurrence selects the bag of the latest outer occurrence
        // (the paper's ABBA example).
        let (g, r) = setup(
            r#"
            i = 0;
            while (i < 2) {
                x = bag((1, i));
                j = 0;
                while (j < 2) {
                    y = bag((1, j));
                    z = x join y;
                    j = j + 1;
                }
                i = i + 1;
            }
            output(i, "done");
            "#,
        );
        let build_edge = edge_into(&g, "z", 0);
        let z = g.nodes.iter().position(|n| &*n.name == "z").unwrap();
        let z_block = g.nodes[z].block;
        let x = g.nodes.iter().position(|n| &*n.name == "x").unwrap();
        let x_block = g.nodes[x].block;
        // Build a plausible path: entry, outerHeader, outerBody(x),
        // innerHeader, innerBody(z), innerHeader, innerBody(z), ...
        // We find real block ids from the graph.
        let outer_body = x_block;
        let inner_body = z_block;
        // Find the headers from the terminator structure: inner header is
        // the block that branches into inner_body.
        let mut p = ExecutionPath::new();
        // Synthetic but structurally consistent path: the selection rule
        // only inspects occurrences of x's block.
        let inner_header = {
            let preds = g.func.predecessors();
            *preds[inner_body as usize]
                .iter()
                .find(|&&b| b != inner_body)
                .unwrap()
        };
        for &b in &[
            0,
            1,
            outer_body,
            inner_header,
            inner_body,
            inner_header,
            inner_body,
        ] {
            p.append(b);
        }
        let first_inner_pos = 4;
        let second_inner_pos = 6;
        let sel1 = r.select_input_len(build_edge, &p, first_inner_pos).unwrap();
        let sel2 = r
            .select_input_len(build_edge, &p, second_inner_pos)
            .unwrap();
        assert_eq!(sel1, sel2, "same x bag reused across inner iterations");
        assert_eq!(p.get(sel1 - 1), x_block);
    }

    #[test]
    fn conditional_send_fires_on_consumer_block() {
        // yesterday = counts (block B); consumed by the join next iteration.
        let (g, r) = setup(
            r#"
            yesterday = empty;
            day = 1;
            do {
                counts = bag((day, 1));
                j = counts join yesterday;
                s = j.count();
                yesterday = counts;
                day = day + 1;
            } while (day <= 3);
            output(day, "d");
            "#,
        );
        // Edge: alias `yesterday.2`... find the edge into the phi from the
        // loop body (the loop-carried alias).
        let phi = g
            .nodes
            .iter()
            .position(|n| {
                matches!(n.kind, crate::graph::NodeKind::Phi) && n.name.starts_with("yesterday")
            })
            .unwrap() as OpId;
        let carried_edge = g
            .edges
            .iter()
            .position(|e| {
                e.dst == phi && g.nodes[e.src as usize].block == g.nodes[phi as usize].block
            })
            .unwrap() as EdgeId;
        let body = g.nodes[phi as usize].block;
        // Bag produced at first body occurrence (pos 1, len 2).
        let mut p = path_of(&[0, body]);
        let (d, cursor) = r.decide_send(carried_edge, &p, 2, 2);
        assert_eq!(d, SendDecision::Undecided);
        // Loop continues: body occurs again -> dst block reached -> send.
        p.append(body);
        let (d, _) = r.decide_send(carried_edge, &p, 2, cursor);
        assert_eq!(d, SendDecision::Send);
    }

    #[test]
    fn conditional_send_drops_on_exit() {
        let (g, r) = setup(
            r#"
            yesterday = empty;
            day = 1;
            do {
                counts = bag((day, 1));
                j = counts join yesterday;
                s = j.count();
                yesterday = counts;
                day = day + 1;
            } while (day <= 3);
            output(day, "d");
            "#,
        );
        let phi = g
            .nodes
            .iter()
            .position(|n| {
                matches!(n.kind, crate::graph::NodeKind::Phi) && n.name.starts_with("yesterday")
            })
            .unwrap() as OpId;
        let carried_edge = g
            .edges
            .iter()
            .position(|e| {
                e.dst == phi && g.nodes[e.src as usize].block == g.nodes[phi as usize].block
            })
            .unwrap() as EdgeId;
        let body = g.nodes[phi as usize].block;
        let exit = g.func.exit_block().unwrap();
        // Loop exits right after the bag is produced.
        let mut p = path_of(&[0, body, exit]);
        let (d, _) = r.decide_send(carried_edge, &p, 2, 2);
        assert_eq!(d, SendDecision::Drop, "exit block is in the drop set");
        // Even without appending the exit block, marking the path exited
        // drops pending bags.
        let mut p2 = path_of(&[0, body]);
        p2.mark_exited();
        let (d2, _) = r.decide_send(carried_edge, &p2, 2, 2);
        assert_eq!(d2, SendDecision::Drop);
        let _ = &mut p;
    }

    #[test]
    fn immediate_edges_have_no_watcher() {
        let (g, r) = setup("a = bag(1); b = a.map(x => x); output(b, \"b\");");
        let e = edge_into(&g, "b", 0);
        assert!(r.edges[e as usize].immediate);
    }

    #[test]
    fn loop_nest_detects_nesting_and_coords() {
        // Outer while + inner while: two loops, inner nested in outer.
        let func = mitos_ir::compile_str(
            r#"
            i = 0;
            while (i < 2) {
                j = 0;
                while (j < 3) { j = j + 1; }
                i = i + 1;
            }
            output(i, "i");
            "#,
        )
        .unwrap();
        let nest = LoopNest::build(&func);
        assert_eq!(nest.loops.len(), 2, "{nest:?}");
        assert_eq!(nest.max_depth(), 2);
        let inner = nest.loops.iter().position(|l| l.depth == 2).unwrap();
        let outer = nest.loops.iter().position(|l| l.depth == 1).unwrap();
        assert_eq!(nest.loops[inner].parent, Some(outer));
        assert_eq!(nest.loops[outer].parent, None);

        // Replay the real path from the reference interpreter and check
        // coordinate structure.
        let fs = mitos_fs::InMemoryFs::new();
        let run = mitos_ir::interpret(&func, &fs, mitos_ir::InterpConfig::default()).unwrap();
        let coords = nest.coords(&run.path);
        assert_eq!(coords.len(), run.path.len());
        // Entry block: outside all loops.
        assert!(coords[0].is_empty());
        // Depth-2 coordinates appear, and the innermost counter reaches 2
        // (three inner iterations) while the outer counter reaches 1.
        assert!(coords.iter().any(|c| c == &vec![0, 0]), "{coords:?}");
        assert!(coords.iter().any(|c| c == &vec![0, 2]), "{coords:?}");
        assert!(coords.iter().any(|c| c == &vec![1, 2]), "{coords:?}");
        assert!(!coords.iter().any(|c| c.len() > 2));
        // Inner counters restart at 0 on every outer iteration.
        assert!(coords.iter().any(|c| c == &vec![1, 0]), "{coords:?}");
        // Coordinates are monotone per nesting level along the path:
        // the outer counter never decreases.
        let mut last_outer = 0;
        for c in &coords {
            if let Some(&o) = c.first() {
                assert!(o >= last_outer, "{coords:?}");
                last_outer = o;
            }
        }
    }

    #[test]
    fn loop_nest_single_block_do_while() {
        // do-while with a single-block body: the header is its own latch.
        let func =
            mitos_ir::compile_str("i = 0; do { i = i + 1; } while (i < 3); output(i, \"i\");")
                .unwrap();
        let nest = LoopNest::build(&func);
        assert_eq!(nest.loops.len(), 1);
        let fs = mitos_fs::InMemoryFs::new();
        let run = mitos_ir::interpret(&func, &fs, mitos_ir::InterpConfig::default()).unwrap();
        let coords = nest.coords(&run.path);
        // Three body occurrences: iterations 0, 1, 2.
        let iters: Vec<u32> = coords
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c[0])
            .collect();
        assert_eq!(iters, vec![0, 1, 2], "{coords:?}");
    }

    #[test]
    fn loop_free_program_has_empty_nest() {
        let func = mitos_ir::compile_str("a = bag(1, 2); output(a.sum(), \"s\");").unwrap();
        let nest = LoopNest::build(&func);
        assert!(nest.loops.is_empty());
        assert_eq!(nest.max_depth(), 0);
        let coords = nest.coords(&[0, 1]);
        assert!(coords.iter().all(Vec::is_empty));
    }

    #[test]
    fn if_branch_bag_dropped_when_branch_not_taken() {
        // x assigned before the if; consumed only in the then-branch.
        let (g, r) = setup(
            r#"
            i = 0;
            while (i < 3) {
                x = bag((i, 1));
                if (i == 1) {
                    s = x.count();
                    output(s, "s");
                }
                i = i + 1;
            }
            output(i, "i");
            "#,
        );
        // Edge from x into the count (reduce) inside the then-branch.
        let x = g.nodes.iter().position(|n| &*n.name == "x").unwrap() as OpId;
        let reduce_edge = g
            .edges
            .iter()
            .position(|e| {
                e.src == x
                    && matches!(
                        g.nodes[e.dst as usize].kind,
                        crate::graph::NodeKind::Reduce { .. }
                    )
            })
            .unwrap() as EdgeId;
        let rules = &r.edges[reduce_edge as usize];
        assert!(!rules.immediate);
        let body = g.nodes[x as usize].block;
        let then_blk = rules.dst_block;
        // The else path must be in the drop mask... find a block that is
        // neither then nor body: the join block after the if. We emulate:
        // path [.., body, elseOrJoin]: the bag should be dropped once the
        // path proves the then-branch was skipped.
        // Find the else block from the condition node in the body block.
        let cond = g
            .nodes
            .iter()
            .find(|n| n.block == body && n.condition.is_some())
            .unwrap();
        let ci = cond.condition.unwrap();
        let else_blk = if ci.then_blk == then_blk {
            ci.else_blk
        } else {
            ci.then_blk
        };
        assert!(
            rules.drop_mask[else_blk as usize],
            "skipping the branch must drop the pending bag"
        );
        assert!(!rules.drop_mask[then_blk as usize]);
    }
}
