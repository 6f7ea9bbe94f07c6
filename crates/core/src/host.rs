//! The **bag operator host** (Sec. 5): wraps one physical operator instance
//! and implements the coordination logic from the operator's side —
//! output-bag scheduling, input-bag selection, element buffering and
//! separation by bag identifier, conditional-output sending, input-bag
//! garbage collection, loop pipelining, and loop-invariant hoisting.
//!
//! A host is a pure state machine: the worker feeds it path appends and
//! data/punctuation messages; it emits messages through [`HostOut`]. This
//! keeps it driver-agnostic (simulator or threads) and unit-testable.

use crate::graph::{EdgeId, NodeKind, OpId};
use crate::obs::mem::{elems_bytes, MemClass};
use crate::obs::{EventKind, InputRule, ObsBuf};
use crate::path::{ExecutionPath, SendDecision};
use crate::rt::{batch_wire_bytes, EngineShared, Msg, Net, RuntimeError, OUTPUT_PREFIX};
use mitos_ir::kernel::{self, join_row};
use mitos_ir::BlockId;
use mitos_lang::expr::eval;
use mitos_lang::{Batch, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Sink for everything a host emits during one poke.
pub struct HostOut<'a> {
    /// Message transport (also the CPU-charge sink).
    pub net: &'a mut dyn Net,
    /// Control-flow decisions made by condition nodes (the worker applies
    /// them locally and broadcasts them).
    pub decisions: &'a mut Vec<(u32, BlockId)>,
    /// Path positions whose bag this host finished (non-pipelined mode).
    pub computed: &'a mut Vec<u32>,
    /// Observability recording buffer (no-op at [`crate::obs::ObsLevel::Off`]).
    pub obs: &'a mut ObsBuf,
}

/// One buffered input bag: elements received so far plus completion
/// tracking. Completion is robust to data/punctuation reordering: the bag is
/// complete when every sender's end-of-bag arrived *and* all announced
/// elements are here.
#[derive(Default)]
struct InBuf {
    elems: Vec<Value>,
    done_senders: u16,
    announced_total: u64,
}

impl InBuf {
    fn complete(&self, expected_senders: u16) -> bool {
        self.done_senders == expected_senders && self.elems.len() as u64 == self.announced_total
    }
}

/// Per-logical-input state: buffered bags keyed by bag-identifier length.
struct InputState {
    bufs: HashMap<u32, InBuf>,
    expected_senders: u16,
}

/// Operator-specific state for the active output bag.
enum OpState {
    Simple,
    Build(HashMap<Value, Vec<Value>>),
    CrossRight(Vec<Value>),
    Agg(HashMap<Value, Value>),
    Fold(Option<Value>),
    Distinct(HashSet<Value>),
}

/// State kept across output bags for loop-invariant hoisting (Sec. 5.3).
enum Kept {
    Join {
        bag_len: u32,
        table: HashMap<Value, Vec<Value>>,
    },
    Cross {
        bag_len: u32,
        right: Vec<Value>,
    },
}

/// Send state of one produced bag on one outgoing logical edge.
enum EdgeSend {
    /// Decided (or immediate): elements flow as produced; counts per
    /// destination instance accumulate for the end-of-bag punctuation.
    /// Produced elements coalesce in `pending` (per destination) until a
    /// full `cost.batch_elems` chunk is ready or the bag finalizes, so one
    /// network message carries one full batch regardless of how finely the
    /// producer's input happened to be chunked. Pending elements are not
    /// charged to the residency registry: they are in flight to the wire
    /// within the same step, exactly like the per-emit sends they replace.
    Streaming {
        counts: Vec<u32>,
        pending: Vec<Vec<Value>>,
        done_sent: bool,
    },
    /// Waiting for the path to prove the consumer will run (5.2.4).
    /// `opened_ns` (recorded only when observability is on) feeds the
    /// open→decision latency histogram.
    Undecided {
        cursor: u32,
        buffer: Vec<Value>,
        opened_ns: u64,
    },
    /// The consumer will never select this bag.
    Dropped,
}

/// A produced (possibly still in-flight) output bag.
struct OutBag {
    edges: Vec<EdgeSend>,
    finalized: bool,
}

impl OutBag {
    fn retired(&self) -> bool {
        self.finalized
            && self.edges.iter().all(|e| match e {
                EdgeSend::Streaming { done_sent, .. } => *done_sent,
                EdgeSend::Dropped => true,
                EdgeSend::Undecided { .. } => false,
            })
    }
}

/// The output bag currently being computed.
struct Active {
    pos: u32,
    len: u32,
    /// Selected input bag length per logical input (`None` = unused Φ input).
    sel: Vec<Option<u32>>,
    /// Elements of each input already processed.
    consumed: Vec<usize>,
    /// Gating inputs not yet fully collected.
    gates_left: usize,
    /// Whether each gating input has been gate-processed.
    gate_done: Vec<bool>,
    /// Collected captured scalar values (indexed by captured slot).
    captured: Vec<Value>,
    state: OpState,
    write_name: Option<String>,
    /// Whether a source-like operator (Singleton/LiteralBag) has emitted.
    sources_emitted: bool,
    /// Elements read from disk by a read-headed fused chain, parked until
    /// every captured-scalar gate of the later stages is satisfied (the
    /// disk can finish before the scalars arrive).
    read_elems: Option<Vec<Value>>,
}

/// A bag operator host: one physical instance of one logical operator.
pub struct Host {
    shared: Arc<EngineShared>,
    op: OpId,
    inst: u16,
    n_inst: u16,
    /// The machine this instance is placed on (cached for telemetry).
    machine: u16,
    block: BlockId,
    kind: NodeKind,
    name: Arc<str>,
    condition: Option<crate::graph::CondInfo>,
    /// Edge ids feeding this node, ordered by input index.
    in_edges: Vec<EdgeId>,
    /// Outgoing edge ids.
    out_edge_ids: Vec<EdgeId>,
    /// Gating (collect-before-stream) flags per input.
    gating: Vec<bool>,
    /// Number of data inputs (captured scalars come after).
    data_arity: usize,
    pending_outputs: VecDeque<u32>,
    current: Option<Active>,
    inputs: Vec<InputState>,
    kept: Option<Kept>,
    outbags: HashMap<u32, OutBag>,
    /// Barrier watermark: positions `<= frontier` may start (non-pipelined).
    released_frontier: u32,
    /// Elements read from disk, waiting for the simulated I/O delay.
    pending_io: Option<Vec<Value>>,
    /// Statistics: total elements this instance emitted.
    pub emitted_elements: u64,
    /// Statistics: hoisting reuse hits.
    pub hoist_hits: u64,
}

impl Host {
    /// Creates the host for instance `inst` of `op`.
    pub fn new(shared: Arc<EngineShared>, op: OpId, inst: u16) -> Host {
        let node = &shared.graph.nodes[op as usize];
        let n_inst = shared.graph.instances(op, shared.machines);
        let mut in_edges = vec![u32::MAX; node.inputs.len()];
        for (i, e) in shared.graph.edges.iter().enumerate() {
            if e.dst == op {
                in_edges[e.dst_input] = i as EdgeId;
            }
        }
        debug_assert!(in_edges.iter().all(|&e| e != u32::MAX));
        let out_edge_ids = shared.graph.out_edges[op as usize].clone();
        let gating = gating_flags(&node.kind, node.inputs.len());
        // The host's notion of arity: inputs below it are handled by
        // operator-specific gate/stream logic, the rest are captured
        // scalars. ReadFile's name is operator-specific even though it has
        // no data input in the planner's sense.
        let data_arity = match node.kind {
            NodeKind::Phi => node.inputs.len(),
            NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => 0,
            NodeKind::ReadFile => 1,
            _ => node.kind.data_arity().min(node.inputs.len()),
        };
        let inputs = in_edges
            .iter()
            .map(|&e| InputState {
                bufs: HashMap::new(),
                expected_senders: shared.graph.senders_per_dst(e, shared.machines),
            })
            .collect();
        let released_frontier = if shared.config.pipelined { u32::MAX } else { 0 };
        let machine = shared.graph.placement(op, inst);
        Host {
            block: node.block,
            kind: node.kind.clone(),
            name: node.name.clone(),
            condition: node.condition,
            shared,
            op,
            inst,
            n_inst,
            machine,
            in_edges,
            out_edge_ids,
            gating,
            data_arity,
            pending_outputs: VecDeque::new(),
            current: None,
            inputs,
            kept: None,
            outbags: HashMap::new(),
            released_frontier,
            pending_io: None,
            emitted_elements: 0,
            hoist_hits: 0,
        }
    }

    /// The logical operator this host runs.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// The path gained block `block` at position `pos`.
    pub fn on_path_append(
        &mut self,
        pos: u32,
        block: BlockId,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        if block == self.block {
            self.pending_outputs.push_back(pos);
        }
        self.advance_watchers(path, out)?;
        self.progress(path, out)
    }

    /// The path will never be extended again.
    pub fn on_exit(&mut self, path: &ExecutionPath, out: &mut HostOut) -> Result<(), RuntimeError> {
        self.advance_watchers(path, out)?;
        self.progress(path, out)
    }

    /// The barrier released positions up to `pos` (non-pipelined mode).
    pub fn on_release(
        &mut self,
        pos: u32,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        self.released_frontier = self.released_frontier.max(pos);
        self.progress(path, out)
    }

    /// Data arrived on an input edge. Residency accounting stays on the
    /// in-memory [`Batch::estimated_bytes`] estimate (identical to the row
    /// buffer's [`elems_bytes`]); only wire accounting uses encoded sizes.
    pub fn on_data(
        &mut self,
        edge: EdgeId,
        bag_len: u32,
        batch: Batch,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let input = self.shared.graph.edges[edge as usize].dst_input;
        let is_new = !self.inputs[input].bufs.contains_key(&bag_len);
        self.shared.mem.charge(
            MemClass::AwaitingInputs,
            self.machine,
            self.op,
            is_new as u64,
            batch.len() as u64,
            batch.estimated_bytes(),
        );
        let buf = self.inputs[input].bufs.entry(bag_len).or_default();
        buf.elems.extend(batch.into_values());
        self.poke(path, out)
    }

    /// End-of-bag punctuation arrived on an input edge.
    pub fn on_done(
        &mut self,
        edge: EdgeId,
        bag_len: u32,
        count: u32,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let input = self.shared.graph.edges[edge as usize].dst_input;
        let expected = self.inputs[input].expected_senders;
        if !self.inputs[input].bufs.contains_key(&bag_len) {
            // Punctuation can open the buffer before any data: one live
            // (still-empty) bag becomes resident.
            self.shared
                .mem
                .charge(MemClass::AwaitingInputs, self.machine, self.op, 1, 0, 0);
        }
        let buf = self.inputs[input].bufs.entry(bag_len).or_default();
        buf.done_senders += 1;
        buf.announced_total += count as u64;
        if buf.done_senders > expected {
            let got = buf.done_senders;
            return Err(RuntimeError::new(format!(
                "input {input} of `{}` got {got} end-of-bag punctuations for \
                 bag len {bag_len}, expected {expected}",
                self.name
            )));
        }
        self.poke(path, out)
    }

    /// The simulated disk finished a read for this host.
    pub fn on_io_done(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let elems = self
            .pending_io
            .take()
            .ok_or_else(|| RuntimeError::new("IoDone without a pending read".to_string()))?;
        let bag_len = {
            let active = self
                .current
                .as_mut()
                .ok_or_else(|| RuntimeError::new("IoDone without an active bag".to_string()))?;
            active.gate_done[0] = true;
            active.gates_left -= 1;
            active.len
        };
        out.obs.record(
            out.net,
            self.op,
            EventKind::IoFinished {
                bag_len,
                count: elems.len() as u64,
            },
        );
        if matches!(self.kind, NodeKind::Fused { .. }) {
            // A read-headed fused chain parks the raw elements until every
            // later stage's captured-scalar gate is satisfied; they flow
            // through the chain in `emit_sources`.
            self.current.as_mut().expect("active").read_elems = Some(elems);
        } else {
            self.emit_all(elems, out)?;
        }
        self.poke(path, out)
    }

    /// Whether this host has nothing scheduled and nothing in flight
    /// (termination detection for the threaded driver).
    pub fn idle(&self) -> bool {
        self.current.is_none() && self.pending_outputs.is_empty() && self.outbags.is_empty()
    }

    /// Introspects a non-idle host for the stall watchdog: what the active
    /// bag is waiting for (first unsatisfied input, barrier release, or a
    /// disk read) and which conditional-send watchers are still pending.
    /// Returns [`None`] when the host is idle.
    pub fn stall_info(&self) -> Option<crate::obs::watchdog::OpStall> {
        use crate::obs::watchdog::{Awaited, OpStall};
        if self.idle() {
            return None;
        }
        let mut pending_watchers: Vec<(EdgeId, u32)> = Vec::new();
        for (&len, bag) in &self.outbags {
            for (ei, e) in bag.edges.iter().enumerate() {
                if matches!(e, EdgeSend::Undecided { .. }) {
                    pending_watchers.push((self.out_edge_ids[ei], len));
                }
            }
        }
        pending_watchers.sort_unstable();
        let awaited = if self.pending_io.is_some() {
            Some(Awaited::DiskRead)
        } else if let Some(active) = &self.current {
            let mut found = None;
            for (i, sel) in active.sel.iter().enumerate() {
                let Some(sel_len) = *sel else { continue };
                let st = &self.inputs[i];
                let (received, announced, done_senders) = match st.bufs.get(&sel_len) {
                    Some(b) => (b.elems.len() as u64, b.announced_total, b.done_senders),
                    None => (0, 0, 0),
                };
                let satisfied = if self.gating[i] {
                    active.gate_done[i]
                } else {
                    done_senders == st.expected_senders
                        && received == announced
                        && active.consumed[i] as u64 == received
                };
                if !satisfied {
                    found = Some(Awaited::InputBag {
                        input: i as u32,
                        edge: self.in_edges[i],
                        bag_len: sel_len,
                        received,
                        announced,
                        done_senders,
                        expected_senders: st.expected_senders,
                    });
                    break;
                }
            }
            found
        } else if let Some(&pos) = self.pending_outputs.front() {
            (!self.shared.config.pipelined && pos > self.released_frontier)
                .then_some(Awaited::BarrierRelease { pos })
        } else {
            None
        };
        Some(OpStall {
            op: self.op,
            name: self.name.to_string(),
            block: self.block,
            bag_len: self.current.as_ref().map(|a| a.len),
            awaited,
            pending_watchers,
        })
    }

    fn poke(&mut self, path: &ExecutionPath, out: &mut HostOut) -> Result<(), RuntimeError> {
        self.progress(path, out)
    }

    // --- Memory accounting ------------------------------------------------

    /// Garbage-collects buffered input bags with identifier length below
    /// `keep`, crediting the freed residency. An associated function so
    /// call sites can hold a mutable borrow of one input while reading the
    /// registry.
    fn gc_input(
        state: &mut InputState,
        keep: u32,
        mem: &crate::obs::mem::MemRegistry,
        machine: u16,
        op: OpId,
    ) {
        let (mut bags, mut elems, mut bytes) = (0u64, 0u64, 0u64);
        state.bufs.retain(|&l, b| {
            if l >= keep {
                true
            } else {
                bags += 1;
                elems += b.elems.len() as u64;
                bytes += elems_bytes(&b.elems);
                false
            }
        });
        if bags > 0 {
            mem.credit(MemClass::AwaitingInputs, machine, op, bags, elems, bytes);
        }
    }

    /// Approximate residency of a hoist-cache entry: `(elements, bytes)`.
    fn kept_cost(kept: &Kept) -> (u64, u64) {
        match kept {
            Kept::Join { table, .. } => {
                let (mut elems, mut bytes) = (0u64, 0u64);
                for (k, vs) in table {
                    elems += vs.len() as u64;
                    bytes += k.estimated_bytes() + elems_bytes(vs);
                }
                (elems, bytes)
            }
            Kept::Cross { right, .. } => (right.len() as u64, elems_bytes(right)),
        }
    }

    /// Credits a hoist-cache entry leaving the cache (reused into an active
    /// bag, or invalidated by a changed input selection).
    fn credit_kept(&self, kept: &Kept) {
        let (elems, bytes) = Self::kept_cost(kept);
        self.shared
            .mem
            .credit(MemClass::HoistCache, self.machine, self.op, 1, elems, bytes);
    }

    /// End-of-run input-buffer GC: once the path has exited and this host
    /// is fully idle, no future occurrence can select a buffered input bag
    /// (selection candidates only come from path appends), so everything
    /// still buffered — kept during the run for potential re-selection — is
    /// released. Late in-flight arrivals re-enter via `poke`, which runs
    /// the sweep again.
    fn exit_gc(&mut self) {
        for state in &mut self.inputs {
            let (mut bags, mut elems, mut bytes) = (0u64, 0u64, 0u64);
            for b in state.bufs.values() {
                bags += 1;
                elems += b.elems.len() as u64;
                bytes += elems_bytes(&b.elems);
            }
            if bags > 0 {
                state.bufs.clear();
                self.shared.mem.credit(
                    MemClass::AwaitingInputs,
                    self.machine,
                    self.op,
                    bags,
                    elems,
                    bytes,
                );
            }
        }
    }

    // --- Scheduling -------------------------------------------------------

    /// Works through pending output bags as far as data allows, then (when
    /// the run is over for this host) sweeps the input buffers.
    fn progress(&mut self, path: &ExecutionPath, out: &mut HostOut) -> Result<(), RuntimeError> {
        self.progress_inner(path, out)?;
        if path.exited() && self.idle() {
            self.exit_gc();
        }
        Ok(())
    }

    /// Works through pending output bags as far as data allows.
    fn progress_inner(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        loop {
            if self.current.is_none() {
                let Some(&pos) = self.pending_outputs.front() else {
                    return Ok(());
                };
                if !self.shared.config.pipelined && pos > self.released_frontier {
                    return Ok(()); // superstep barrier
                }
                self.pending_outputs.pop_front();
                self.start_bag(pos, path, out)?;
                // The path may already extend past this occurrence
                // (pipelining): resolve what can be resolved right away.
                self.advance_watchers(path, out)?;
            }
            // Feed the active bag from whatever is buffered: first satisfy
            // gates, then emit sources, then drain streams.
            let n = self.inputs.len();
            for i in 0..n {
                self.try_gate(i, out)?;
            }
            if self.active_ready_to_stream() {
                if !self.current.as_ref().expect("active").sources_emitted {
                    self.current.as_mut().expect("active").sources_emitted = true;
                    self.emit_sources(out)?;
                }
                for i in 0..n {
                    if !self.gating[i] {
                        self.drain_stream(i, out)?;
                    }
                }
            }
            if !self.try_finalize(path, out)? {
                return Ok(());
            }
        }
    }

    fn active_ready_to_stream(&self) -> bool {
        self.current.as_ref().is_some_and(|a| a.gates_left == 0)
    }

    /// Starts the output bag for the occurrence at `pos`: selects input
    /// bags (5.2.3), garbage-collects superseded buffers, consults the
    /// hoisting cache, and initializes operator state.
    ///
    /// Stream-order invariant: `BagOpened` is recorded *before* any of
    /// this bag's `InputSelected`/`HoistHit` events, and the bag's
    /// `BagFinalized` after all of them — the span layer
    /// ([`crate::obs::span`]) associates those children with "the bag
    /// this `(machine, op)` has open right now", so the per-machine
    /// record order is load-bearing. (`SendResolved` is exempt: a
    /// conditional send may resolve after the bag closed, so it carries
    /// its own bag identifier instead.)
    fn start_bag(
        &mut self,
        pos: u32,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let len = pos + 1;
        self.shared.telemetry.bag_started(self.machine, self.op);
        out.obs
            .record(out.net, self.op, EventKind::BagOpened { pos, bag_len: len });
        let is_phi = matches!(self.kind, NodeKind::Phi);
        let n_inputs = self.in_edges.len();
        let mut sel: Vec<Option<u32>> = Vec::with_capacity(n_inputs);
        if is_phi {
            // Φ choice: the input whose producing block occurred latest.
            let mut best: Option<(u32, usize)> = None;
            let mut candidates = Vec::with_capacity(n_inputs);
            for (i, &e) in self.in_edges.iter().enumerate() {
                let c = self.shared.rules.select_input_len(e, path, pos);
                out.net.charge(self.shared.config.cost.per_scan_block_ns);
                if let Some(l) = c {
                    match best {
                        Some((bl, _)) if bl >= l => {}
                        _ => best = Some((l, i)),
                    }
                }
                candidates.push(c);
            }
            let (win_len, win_idx) = best.ok_or_else(|| {
                RuntimeError::new(format!(
                    "phi `{}` has no available input at path position {pos}",
                    self.name
                ))
            })?;
            for (i, c) in candidates.iter().enumerate() {
                sel.push(if i == win_idx { *c } else { None });
            }
            if out.obs.enabled() {
                out.obs.record(
                    out.net,
                    self.op,
                    EventKind::InputSelected {
                        edge: self.in_edges[win_idx],
                        bag_len: win_len,
                        rule: InputRule::PhiLatest,
                    },
                );
            }
            // GC: buffered bags older than the winner can never be selected
            // again (candidate prefixes grow monotonically).
            for state in &mut self.inputs {
                Self::gc_input(state, win_len, &self.shared.mem, self.machine, self.op);
            }
        } else {
            for (i, &e) in self.in_edges.iter().enumerate() {
                let l = self
                    .shared
                    .rules
                    .select_input_len(e, path, pos)
                    .ok_or_else(|| {
                        RuntimeError::new(format!(
                            "input {i} of `{}` has no producer occurrence before \
                             path position {pos} (invalid SSA?)",
                            self.name
                        ))
                    })?;
                out.net.charge(self.shared.config.cost.per_scan_block_ns);
                if out.obs.enabled() {
                    // Which prefix rule fired (5.2.3): a same-block producer
                    // earlier in this very occurrence, or the latest earlier
                    // occurrence of the producing block.
                    let r = &self.shared.rules.edges[e as usize];
                    let rule = if r.src_block == r.dst_block && r.src_stmt < r.dst_stmt && l == len
                    {
                        InputRule::SameBlock
                    } else {
                        InputRule::LatestOccurrence
                    };
                    out.obs.record(
                        out.net,
                        self.op,
                        EventKind::InputSelected {
                            edge: e,
                            bag_len: l,
                            rule,
                        },
                    );
                }
                sel.push(Some(l));
            }
            for (i, state) in self.inputs.iter_mut().enumerate() {
                if let Some(keep) = sel[i] {
                    Self::gc_input(state, keep, &self.shared.mem, self.machine, self.op);
                }
            }
        }

        // Loop-invariant hoisting: reuse kept build state if the hoisted
        // input's selected bag is unchanged (Sec. 5.3).
        let mut state = init_state(&self.kind);
        let mut reused = false;
        if self.shared.config.hoisting {
            match (&self.kind, &self.kept) {
                (NodeKind::Join, Some(Kept::Join { bag_len, .. })) if sel[0] == Some(*bag_len) => {
                    if let Some(k) = self.kept.take() {
                        // The cached table moves into the active bag's
                        // operator state: cache residency becomes working
                        // state (re-charged as cache at finalize).
                        self.credit_kept(&k);
                        if let Kept::Join { table, .. } = k {
                            state = OpState::Build(table);
                            reused = true;
                        }
                    }
                }
                (NodeKind::Cross, Some(Kept::Cross { bag_len, .. }))
                    if sel[1] == Some(*bag_len) =>
                {
                    if let Some(k) = self.kept.take() {
                        self.credit_kept(&k);
                        if let Kept::Cross { right, .. } = k {
                            state = OpState::CrossRight(right);
                            reused = true;
                        }
                    }
                }
                _ => {}
            }
        }
        if reused {
            self.hoist_hits += 1;
            if out.obs.enabled() {
                let hoist_len = match self.kind {
                    NodeKind::Join => sel[0],
                    _ => sel[1],
                };
                out.obs.record(
                    out.net,
                    self.op,
                    EventKind::HoistHit {
                        pos,
                        bag_len: hoist_len.unwrap_or(0),
                    },
                );
            }
        } else if matches!(self.kind, NodeKind::Join | NodeKind::Cross) {
            if let Some(k) = self.kept.take() {
                self.credit_kept(&k); // invalidated: the selection changed
            }
        }

        // Gating bookkeeping; a reused hoisted input's gate is pre-satisfied.
        let hoist_input = match self.kind {
            NodeKind::Join => Some(0),
            NodeKind::Cross => Some(1),
            _ => None,
        };
        let mut gates_left = 0;
        let mut gate_done = vec![false; n_inputs];
        for (i, &g) in self.gating.iter().enumerate() {
            if !g || sel[i].is_none() || (reused && hoist_input == Some(i)) {
                gate_done[i] = true;
            } else {
                gates_left += 1;
            }
        }

        let n_captured = n_inputs.saturating_sub(self.data_arity);
        self.current = Some(Active {
            pos,
            len,
            sel,
            consumed: vec![0; n_inputs],
            gates_left,
            gate_done,
            captured: vec![Value::Unit; n_captured],
            state,
            write_name: None,
            sources_emitted: false,
            read_elems: None,
        });

        // Register the out-bag with per-edge send decisions.
        let mut edges = Vec::with_capacity(self.out_edge_ids.len());
        for &e in &self.out_edge_ids {
            if self.shared.rules.edges[e as usize].immediate {
                let dst = self.shared.graph.edges[e as usize].dst;
                let dst_n = self.shared.graph.instances(dst, self.shared.machines);
                edges.push(EdgeSend::Streaming {
                    counts: vec![0; dst_n as usize],
                    pending: vec![Vec::new(); dst_n as usize],
                    done_sent: false,
                });
            } else {
                // The clock is only consulted when tracing records latency.
                let opened_ns = if out.obs.tracing() {
                    out.net.now_ns()
                } else {
                    0
                };
                // One conditionally-sent bag is now resident until the path
                // proves (or refutes) that its consumer runs.
                self.shared
                    .mem
                    .charge(MemClass::AwaitingBarrier, self.machine, self.op, 1, 0, 0);
                edges.push(EdgeSend::Undecided {
                    cursor: len,
                    buffer: Vec::new(),
                    opened_ns,
                });
            }
        }
        self.outbags.insert(
            len,
            OutBag {
                edges,
                finalized: false,
            },
        );
        Ok(())
    }

    // --- Input consumption ------------------------------------------------

    /// Gate-processes input `i` if it is a still-pending gate whose selected
    /// bag is complete.
    fn try_gate(&mut self, input: usize, out: &mut HostOut) -> Result<(), RuntimeError> {
        let Some(active) = &self.current else {
            return Ok(());
        };
        if !self.gating[input] || active.gate_done[input] {
            return Ok(());
        }
        let Some(sel_len) = active.sel[input] else {
            return Ok(());
        };
        let expected = self.inputs[input].expected_senders;
        let complete = self.inputs[input]
            .bufs
            .get(&sel_len)
            .is_some_and(|b| b.complete(expected));
        if !complete {
            return Ok(());
        }
        if self.pending_io.is_some() {
            return Ok(()); // disk read already in flight for this gate
        }
        self.process_gate(input, sel_len, out)
    }

    /// Consumes a completed gating input.
    fn process_gate(
        &mut self,
        input: usize,
        sel_len: u32,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let cost = self.shared.config.cost;
        // Pull out what we need from the buffer without holding borrows.
        let (single, count) = {
            let buf = self.inputs[input].bufs.get(&sel_len).expect("gate buffer");
            (buf.elems.first().cloned(), buf.elems.len())
        };
        if input >= self.data_arity {
            // Captured scalar: exactly one element.
            if count != 1 {
                return Err(RuntimeError::new(format!(
                    "captured scalar input {input} of `{}` holds {count} elements",
                    self.name
                )));
            }
            let slot = input - self.data_arity;
            let active = self.current.as_mut().expect("active");
            active.captured[slot] = single.expect("one element");
            active.gate_done[input] = true;
            active.gates_left -= 1;
            return Ok(());
        }
        // The file-name gate of a plain readFile or a read-headed fused
        // chain kicks off the asynchronous partition read; the gate is
        // marked done when the simulated disk answers (`on_io_done`).
        let read_gate = input == 0
            && match &self.kind {
                NodeKind::ReadFile => true,
                NodeKind::Fused { stages } => matches!(stages[0].kind, NodeKind::ReadFile),
                _ => false,
            };
        if read_gate {
            if count != 1 {
                return Err(RuntimeError::new(format!(
                    "file name bag for `{}` holds {count} elements",
                    self.name
                )));
            }
            let v = single.expect("one element");
            let name = v
                .as_str()
                .ok_or_else(|| {
                    RuntimeError::new(format!(
                        "file name for `{}` must be a string, got {v:?}",
                        self.name
                    ))
                })?
                .to_string();
            let (part, parts) = (self.inst as usize, self.n_inst as usize);
            let elems = self
                .shared
                .fs
                .read_partition(&name, part, parts)
                .map_err(|e| RuntimeError::new(e.to_string()))?;
            let bytes = self
                .shared
                .fs
                .partition_bytes(&name, part, parts)
                .unwrap_or(0);
            // Disk I/O proceeds asynchronously: the CPU pays only a
            // deserialization share now; the data arrives after the
            // disk delay (loop pipelining overlaps this with compute
            // from other iteration steps).
            out.net.charge(cost.elem_cost(elems.len()) / 4);
            let delay = cost.io_cost(bytes);
            debug_assert!(self.pending_io.is_none(), "one read at a time");
            self.pending_io = Some(elems);
            let machine = self.machine;
            out.obs.record(
                out.net,
                self.op,
                EventKind::IoStarted {
                    bag_len: self.current.as_ref().expect("active").len,
                    delay_ns: delay,
                },
            );
            out.net
                .schedule(delay, machine, Msg::IoDone { op: self.op });
            return Ok(());
        }
        match (&self.kind, input) {
            (NodeKind::WriteFile, 1) => {
                if count != 1 {
                    return Err(RuntimeError::new(format!(
                        "file name bag for `{}` holds {count} elements",
                        self.name
                    )));
                }
                let v = single.expect("one element");
                let name = v
                    .as_str()
                    .ok_or_else(|| {
                        RuntimeError::new(format!(
                            "file name for `{}` must be a string, got {v:?}",
                            self.name
                        ))
                    })?
                    .to_string();
                out.net.charge(cost.io.open_latency_ns);
                let active = self.current.as_mut().expect("active");
                active.write_name = Some(name);
            }
            (NodeKind::Join, 0) => {
                let elems = {
                    let buf = self.inputs[input].bufs.get(&sel_len).expect("gate buffer");
                    buf.elems.clone()
                };
                out.net.charge(cost.insert_cost(elems.len()));
                let mut table: HashMap<Value, Vec<Value>> = HashMap::with_capacity(elems.len());
                for v in elems {
                    table.entry(v.key().clone()).or_default().push(v);
                }
                let active = self.current.as_mut().expect("active");
                active.state = OpState::Build(table);
            }
            (NodeKind::Cross, 1) => {
                let elems = {
                    let buf = self.inputs[input].bufs.get(&sel_len).expect("gate buffer");
                    buf.elems.clone()
                };
                out.net.charge(cost.elem_cost(elems.len()));
                let active = self.current.as_mut().expect("active");
                active.state = OpState::CrossRight(elems);
            }
            (kind, input) => {
                return Err(RuntimeError::new(format!(
                    "unexpected gating input {input} for {}",
                    kind.mnemonic()
                )))
            }
        }
        let active = self.current.as_mut().expect("active");
        active.gate_done[input] = true;
        active.gates_left -= 1;
        Ok(())
    }

    /// Emits the output of source-like operators (Singleton, LiteralBag)
    /// once all captured values are in; announces condition decisions.
    fn emit_sources(&mut self, out: &mut HostOut) -> Result<(), RuntimeError> {
        let cost = self.shared.config.cost;
        match self.kind.clone() {
            NodeKind::Singleton { expr } => {
                let (captured, len) = {
                    let a = self.current.as_ref().expect("active");
                    (a.captured.clone(), a.len)
                };
                out.net.charge(cost.eval_cost(expr.node_count(), 1));
                let v = eval(&expr, &captured).map_err(|e| RuntimeError::new(e.message))?;
                if let Some(ci) = self.condition {
                    let b = v.as_bool().ok_or_else(|| {
                        RuntimeError::new(format!(
                            "condition `{}` evaluated to non-bool {v:?}",
                            self.name
                        ))
                    })?;
                    let target = if b { ci.then_blk } else { ci.else_blk };
                    out.decisions.push((len, target));
                }
                self.emit_all(vec![v], out)?;
            }
            NodeKind::LiteralBag { elems } => {
                let captured = self.current.as_ref().expect("active").captured.clone();
                let mut vals = Vec::with_capacity(elems.len());
                for e in &elems {
                    out.net.charge(cost.eval_cost(e.node_count(), 1));
                    vals.push(eval(e, &captured).map_err(|e| RuntimeError::new(e.message))?);
                }
                self.emit_all(vals, out)?;
            }
            NodeKind::Fused { .. } => {
                // Read-headed chain: the parked disk elements run through
                // every stage in one pass, now that all gates are in.
                if let Some(elems) = self.current.as_mut().expect("active").read_elems.take() {
                    let outv = self
                        .fused_transform(Batch::from_values(elems), out)?
                        .into_values();
                    self.emit_all(outv, out)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Runs a batch through every stage of a fused chain in one pass,
    /// batch-in/batch-out: each element-wise stage is the shared kernel
    /// ([`kernel::map`] / [`kernel::flat_map`] / [`kernel::filter`]), and
    /// the rows move from stage to stage without conversion. The
    /// per-element traversal base is charged once for the
    /// whole chain (that is fusion's compute win); each stage then pays
    /// only for its own lambda.
    fn fused_transform(
        &mut self,
        mut batch: Batch,
        out: &mut HostOut,
    ) -> Result<Batch, RuntimeError> {
        let NodeKind::Fused { stages } = self.kind.clone() else {
            return Err(RuntimeError::new(
                "fused_transform on non-fused".to_string(),
            ));
        };
        let cost = self.shared.config.cost;
        let captured = self.current.as_ref().expect("active").captured.clone();
        out.net.charge(cost.elem_cost(batch.len()));
        let mut cap_off = 0usize;
        for stage in stages.iter() {
            let caps = &captured[cap_off..cap_off + stage.captured];
            cap_off += stage.captured;
            if batch.is_empty() {
                continue;
            }
            match &stage.kind {
                // The source stage: its elements are already in `batch`.
                NodeKind::ReadFile => {}
                NodeKind::Map { expr } => {
                    out.net
                        .charge(cost.fused_expr_cost(expr.node_count(), batch.len()));
                    batch = kernel::map(expr, caps, &batch)
                        .map_err(|e| RuntimeError::new(e.message))?;
                }
                NodeKind::FlatMap { expr } => {
                    out.net
                        .charge(cost.fused_expr_cost(expr.node_count(), batch.len()));
                    batch = kernel::flat_map(expr, caps, &batch)
                        .map_err(|e| RuntimeError::new(e.message))?;
                }
                NodeKind::Filter { expr } => {
                    out.net
                        .charge(cost.fused_expr_cost(expr.node_count(), batch.len()));
                    batch = kernel::filter(expr, caps, &batch)
                        .map_err(|e| RuntimeError::new(e.message))?;
                }
                NodeKind::Alias | NodeKind::Phi => {}
                other => {
                    return Err(RuntimeError::new(format!(
                        "operator {} cannot be a fused stage",
                        other.mnemonic()
                    )))
                }
            }
        }
        Ok(batch)
    }

    /// Processes all unconsumed elements of a stream input.
    fn drain_stream(&mut self, input: usize, out: &mut HostOut) -> Result<(), RuntimeError> {
        let (sel_len, start) = {
            let active = self.current.as_ref().expect("active");
            let Some(sel_len) = active.sel[input] else {
                return Ok(());
            };
            (sel_len, active.consumed[input])
        };
        let elems: Vec<Value> = {
            let Some(buf) = self.inputs[input].bufs.get(&sel_len) else {
                return Ok(());
            };
            if start >= buf.elems.len() {
                return Ok(());
            }
            buf.elems[start..].to_vec()
        };
        self.current.as_mut().expect("active").consumed[input] = start + elems.len();
        self.process_stream(input, elems, out)
    }

    fn process_stream(
        &mut self,
        input: usize,
        elems: Vec<Value>,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let kind = self.kind.clone();
        let cost = self.shared.config.cost;
        let captured = self.current.as_ref().expect("active").captured.clone();
        match &kind {
            // The element-wise transforms run through the shared kernels;
            // wrapping the rows in a batch and unwrapping the result are
            // moves.
            NodeKind::Map { expr } => {
                out.net
                    .charge(cost.eval_cost(expr.node_count(), elems.len()));
                let outv = kernel::map(expr, &captured, &Batch::from_values(elems))
                    .map_err(|e| RuntimeError::new(e.message))?;
                self.emit_all(outv.into_values(), out)?;
            }
            NodeKind::FlatMap { expr } => {
                out.net
                    .charge(cost.eval_cost(expr.node_count(), elems.len()));
                let outv = kernel::flat_map(expr, &captured, &Batch::from_values(elems))
                    .map_err(|e| RuntimeError::new(e.message))?;
                self.emit_all(outv.into_values(), out)?;
            }
            NodeKind::Filter { expr } => {
                out.net
                    .charge(cost.eval_cost(expr.node_count(), elems.len()));
                let outv = kernel::filter(expr, &captured, &Batch::from_values(elems))
                    .map_err(|e| RuntimeError::new(e.message))?;
                self.emit_all(outv.into_values(), out)?;
            }
            NodeKind::Join => {
                debug_assert_eq!(input, 1, "probe side streams");
                out.net.charge(cost.probe_cost(elems.len()));
                let mut outv = Vec::new();
                {
                    let active = self.current.as_ref().expect("active");
                    let OpState::Build(table) = &active.state else {
                        return Err(RuntimeError::new("join probing before build".to_string()));
                    };
                    for r in &elems {
                        if let Some(matches) = table.get(r.key()) {
                            for l in matches {
                                outv.push(join_row(r.key(), l, r));
                            }
                        }
                    }
                }
                self.emit_all(outv, out)?;
            }
            NodeKind::Cross => {
                debug_assert_eq!(input, 0, "left side streams");
                let mut outv = Vec::new();
                {
                    let active = self.current.as_ref().expect("active");
                    let OpState::CrossRight(right) = &active.state else {
                        return Err(RuntimeError::new(
                            "cross streaming before collect".to_string(),
                        ));
                    };
                    out.net
                        .charge(cost.elem_cost(elems.len() * right.len().max(1)));
                    for l in &elems {
                        for r in right {
                            outv.push(Value::tuple([l.clone(), r.clone()]));
                        }
                    }
                }
                self.emit_all(outv, out)?;
            }
            NodeKind::Union | NodeKind::Alias | NodeKind::Phi => {
                out.net.charge(cost.elem_cost(elems.len()));
                self.emit_all(elems, out)?;
            }
            // A map-headed fused chain streams its data input through every
            // stage in one pass.
            NodeKind::Fused { .. } => {
                let outv = self.fused_transform(Batch::from_values(elems), out)?;
                self.emit_all(outv.into_values(), out)?;
            }
            NodeKind::ReduceByKey { expr } | NodeKind::ReduceByKeyLocal { expr } => {
                out.net
                    .charge(cost.eval_cost(expr.node_count(), elems.len()));
                let active = self.current.as_mut().expect("active");
                let OpState::Agg(map) = &mut active.state else {
                    return Err(RuntimeError::new("reduceByKey state mismatch".to_string()));
                };
                let mut params = Vec::with_capacity(2 + captured.len());
                params.push(Value::Unit);
                params.push(Value::Unit);
                params.extend(captured);
                for v in elems {
                    let fields = v.as_tuple().ok_or_else(|| {
                        RuntimeError::new(format!("reduceByKey expects (k, v) tuples, got {v:?}"))
                    })?;
                    if fields.len() != 2 {
                        return Err(RuntimeError::new(format!(
                            "reduceByKey expects 2-field tuples, got {v:?}"
                        )));
                    }
                    match map.entry(fields[0].clone()) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(fields[1].clone());
                        }
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            params[0] = e.get().clone();
                            params[1] = fields[1].clone();
                            *e.get_mut() =
                                eval(expr, &params).map_err(|e| RuntimeError::new(e.message))?;
                        }
                    }
                }
            }
            NodeKind::Reduce { expr, .. } => {
                out.net
                    .charge(cost.eval_cost(expr.node_count(), elems.len()));
                let active = self.current.as_mut().expect("active");
                let OpState::Fold(acc) = &mut active.state else {
                    return Err(RuntimeError::new("reduce state mismatch".to_string()));
                };
                let mut params = Vec::with_capacity(2 + captured.len());
                params.push(Value::Unit);
                params.push(Value::Unit);
                params.extend(captured);
                for v in elems {
                    match acc.take() {
                        None => *acc = Some(v),
                        Some(a) => {
                            params[0] = a;
                            params[1] = v;
                            *acc = Some(
                                eval(expr, &params).map_err(|e| RuntimeError::new(e.message))?,
                            );
                        }
                    }
                }
            }
            NodeKind::Distinct => {
                out.net.charge(cost.insert_cost(elems.len()));
                let mut outv = Vec::new();
                {
                    let active = self.current.as_mut().expect("active");
                    let OpState::Distinct(seen) = &mut active.state else {
                        return Err(RuntimeError::new("distinct state mismatch".to_string()));
                    };
                    for v in elems {
                        if seen.insert(v.clone()) {
                            outv.push(v);
                        }
                    }
                }
                self.emit_all(outv, out)?;
            }
            NodeKind::OutputSink { tag } => {
                out.net.charge(cost.elem_cost(elems.len()));
                out.obs.record(
                    out.net,
                    self.op,
                    EventKind::SinkWrote {
                        bag_len: self.current.as_ref().expect("active").len,
                        count: elems.len() as u64,
                    },
                );
                self.shared
                    .fs
                    .append(&format!("{OUTPUT_PREFIX}{tag}"), &elems);
            }
            NodeKind::WriteFile => {
                debug_assert_eq!(input, 0, "data side streams");
                let name = self
                    .current
                    .as_ref()
                    .expect("active")
                    .write_name
                    .clone()
                    .ok_or_else(|| RuntimeError::new("writeFile data before name".to_string()))?;
                let bytes: u64 = elems.iter().map(Value::estimated_bytes).sum();
                out.net.charge(cost.io_stream_cost(bytes));
                self.shared.fs.append(&name, &elems);
            }
            NodeKind::ReadFile | NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => {
                return Err(RuntimeError::new(format!(
                    "source operator {} received stream data",
                    kind.mnemonic()
                )))
            }
        }
        Ok(())
    }

    // --- Finalization -----------------------------------------------------

    /// Finalizes the active bag if every used input is complete and
    /// consumed. Returns whether finalization happened.
    fn try_finalize(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<bool, RuntimeError> {
        {
            let Some(active) = &self.current else {
                return Ok(false);
            };
            if active.gates_left > 0 {
                return Ok(false);
            }
            for (i, sel) in active.sel.iter().enumerate() {
                let Some(sel_len) = sel else { continue };
                if self.gating[i] {
                    continue; // gates already satisfied
                }
                let expected = self.inputs[i].expected_senders;
                match self.inputs[i].bufs.get(sel_len) {
                    Some(buf)
                        if buf.complete(expected) && active.consumed[i] == buf.elems.len() => {}
                    _ => return Ok(false),
                }
            }
        }
        // Final emissions of blocking aggregations.
        let final_emit: Option<Vec<Value>> = {
            let active = self.current.as_mut().expect("active");
            match &self.kind {
                NodeKind::ReduceByKey { .. } | NodeKind::ReduceByKeyLocal { .. } => {
                    let OpState::Agg(map) = std::mem::replace(&mut active.state, OpState::Simple)
                    else {
                        return Err(RuntimeError::new("reduceByKey state mismatch".to_string()));
                    };
                    let mut pairs: Vec<(Value, Value)> = map.into_iter().collect();
                    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    Some(
                        pairs
                            .into_iter()
                            .map(|(k, v)| Value::tuple([k, v]))
                            .collect(),
                    )
                }
                NodeKind::Reduce { init, .. } => {
                    let OpState::Fold(acc) = std::mem::replace(&mut active.state, OpState::Simple)
                    else {
                        return Err(RuntimeError::new("reduce state mismatch".to_string()));
                    };
                    match (acc, init) {
                        (Some(a), _) => Some(vec![a]),
                        (None, Some(i)) => Some(vec![i.clone()]),
                        (None, None) => {
                            return Err(RuntimeError::new(format!(
                                "reduce `{}` on an empty bag with no initial value",
                                self.name
                            )))
                        }
                    }
                }
                _ => None,
            }
        };
        if let Some(vs) = final_emit {
            self.emit_all(vs, out)?;
        }
        // Sinks create their target even for empty bags, matching the
        // sequential semantics (an empty written file still exists).
        match &self.kind {
            NodeKind::OutputSink { tag } => {
                self.shared.fs.append(&format!("{OUTPUT_PREFIX}{tag}"), &[]);
            }
            NodeKind::WriteFile => {
                if let Some(name) = &self.current.as_ref().expect("active").write_name {
                    self.shared.fs.append(name, &[]);
                }
            }
            _ => {}
        }

        let active = self.current.take().expect("active");
        // Keep hoistable build state for the next output bag (Sec. 5.3).
        if self.shared.config.hoisting {
            let new_kept = match (&self.kind, active.state) {
                (NodeKind::Join, OpState::Build(table)) => Some(Kept::Join {
                    bag_len: active.sel[0].expect("join build selected"),
                    table,
                }),
                (NodeKind::Cross, OpState::CrossRight(right)) => Some(Kept::Cross {
                    bag_len: active.sel[1].expect("cross right selected"),
                    right,
                }),
                _ => None,
            };
            if let Some(k) = new_kept {
                // Deliberately retained across output bags: charged to the
                // hoist-cache class (excluded from the leak verdict).
                let (elems, bytes) = Self::kept_cost(&k);
                self.shared.mem.charge(
                    MemClass::HoistCache,
                    self.machine,
                    self.op,
                    1,
                    elems,
                    bytes,
                );
                self.kept = Some(k);
            }
        }

        // Mark the out-bag finalized and punctuate decided edges.
        if let Some(outbag) = self.outbags.get_mut(&active.len) {
            outbag.finalized = true;
        }
        self.shared.telemetry.bag_finished(self.machine, self.op);
        out.obs.record(
            out.net,
            self.op,
            EventKind::BagFinalized {
                pos: active.pos,
                bag_len: active.len,
            },
        );
        self.emit_done_where_possible(active.len, out);
        self.retire_outbags();

        if !self.shared.config.pipelined {
            out.computed.push(active.pos);
        }
        let _ = path;
        Ok(true)
    }

    // --- Emission & conditional sends --------------------------------------

    /// Emits produced elements of the active bag onto every outgoing edge.
    fn emit_all(&mut self, elems: Vec<Value>, out: &mut HostOut) -> Result<(), RuntimeError> {
        if elems.is_empty() {
            return Ok(());
        }
        self.emitted_elements += elems.len() as u64;
        self.shared
            .telemetry
            .elements_out(self.machine, self.op, elems.len() as u64);
        let bag_len = self.current.as_ref().expect("active").len;
        if out.obs.enabled() {
            out.obs.record(
                out.net,
                self.op,
                EventKind::Emitted {
                    bag_len,
                    count: elems.len() as u64,
                },
            );
        }
        let cost = self.shared.config.cost;
        let n_edges = self.out_edge_ids.len();
        if n_edges == 0 {
            return Ok(());
        }
        out.net.charge(cost.ser_cost(elems.len() * n_edges));
        for ei in 0..n_edges {
            // Read the edge's send state first (immutable), then update it.
            enum Action {
                Skip,
                Buffer,
                Ship,
            }
            let action = match &self.outbags.get(&bag_len).expect("outbag").edges[ei] {
                EdgeSend::Dropped => Action::Skip,
                EdgeSend::Undecided { .. } => Action::Buffer,
                EdgeSend::Streaming { .. } => Action::Ship,
            };
            match action {
                Action::Skip => {}
                Action::Buffer => {
                    self.shared.mem.charge(
                        MemClass::AwaitingBarrier,
                        self.machine,
                        self.op,
                        0,
                        elems.len() as u64,
                        elems_bytes(&elems),
                    );
                    if let EdgeSend::Undecided { buffer, .. } =
                        &mut self.outbags.get_mut(&bag_len).expect("outbag").edges[ei]
                    {
                        buffer.extend(elems.iter().cloned());
                    }
                }
                Action::Ship => self.route_and_flush(bag_len, ei, &elems, out),
            }
        }
        Ok(())
    }

    /// Partitions elements of a streaming edge over its destination
    /// instances, appending each to that instance's pending buffer (in
    /// element order) and counting it, then ships every full batch.
    fn route_and_flush(&mut self, bag_len: u32, ei: usize, elems: &[Value], out: &mut HostOut) {
        let edge = self.out_edge_ids[ei];
        let graph = &self.shared.graph;
        let (inst, machines) = (self.inst, self.shared.machines);
        if let EdgeSend::Streaming {
            counts, pending, ..
        } = &mut self.outbags.get_mut(&bag_len).expect("outbag").edges[ei]
        {
            for v in elems {
                for d in graph.route(edge, inst, Some(v.key()), machines) {
                    counts[d as usize] += 1;
                    pending[d as usize].push(v.clone());
                }
            }
        }
        self.flush_pending(bag_len, ei, out);
    }

    /// Ships routed elements as [`Batch`]es of at most `cost.batch_elems`
    /// elements, each as one [`Msg::Data`], charging the batch's **actual
    /// encoded wire size** (or the legacy estimate under the
    /// `MITOS_BATCH_OFF` kill switch — see [`batch_wire_bytes`]) to the
    /// network and the flow registry.
    fn send_batches(
        &self,
        edge: EdgeId,
        dst_inst: u16,
        bag_len: u32,
        elems: Vec<Value>,
        out: &mut HostOut,
    ) {
        let dst = self.shared.graph.edges[edge as usize].dst;
        let machine = self.shared.graph.placement(dst, dst_inst);
        let max_elems = self.shared.config.cost.batch_elems.max(1);
        let mut elems = elems.into_iter();
        while elems.len() > 0 {
            let batch: Batch = elems.by_ref().take(max_elems).collect();
            let bytes = self.shared.config.cost.wire_bytes(batch_wire_bytes(&batch));
            self.shared
                .flow
                .msg_out(edge, self.machine, machine, batch.len() as u64, bytes);
            out.net.send(
                machine,
                Msg::Data {
                    edge,
                    dst_inst,
                    bag_len,
                    batch,
                },
                bytes,
            );
        }
    }

    /// Records a conditional-output send/drop resolution (5.2.4), with
    /// open→decision latency when tracing (the clock is never read at
    /// lower levels).
    fn record_send_resolved(
        &self,
        edge: EdgeId,
        bag_len: u32,
        sent: bool,
        buffered: u64,
        opened_ns: u64,
        out: &mut HostOut,
    ) {
        if !out.obs.enabled() {
            return;
        }
        let latency_ns = if out.obs.tracing() {
            out.net.now_ns().saturating_sub(opened_ns)
        } else {
            0
        };
        out.obs.record(
            out.net,
            self.op,
            EventKind::SendResolved {
                edge,
                bag_len,
                sent,
                buffered,
                latency_ns,
            },
        );
    }

    /// Advances conditional-send watchers for every in-flight out-bag.
    fn advance_watchers(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let mut to_flush: Vec<(u32, usize, Vec<Value>)> = Vec::new();
        let mut resolved_any = false;
        // Bag order, not map order: `outbags` is a randomly seeded hash
        // map, and the order resolutions are found in is the order their
        // buffered elements are flushed. Sorting fixes the send order, and
        // with it the simulator's event order, across runs and drivers.
        let mut lens: Vec<u32> = self.outbags.keys().copied().collect();
        lens.sort_unstable();
        for bag_len in lens {
            let n_edges = self.out_edge_ids.len();
            for ei in 0..n_edges {
                let edge = self.out_edge_ids[ei];
                let (decision, next, buffered, buf_held, buf_bytes, opened_ns) = {
                    let outbag = self.outbags.get_mut(&bag_len).expect("outbag");
                    let EdgeSend::Undecided {
                        cursor,
                        buffer,
                        opened_ns,
                    } = &mut outbag.edges[ei]
                    else {
                        continue;
                    };
                    let (d, next) = self.shared.rules.decide_send(edge, path, bag_len, *cursor);
                    let buf_held = buffer.len() as u64;
                    let buf_bytes = elems_bytes(buffer);
                    let buffered = if d == SendDecision::Send {
                        std::mem::take(buffer)
                    } else {
                        Vec::new()
                    };
                    (d, next, buffered, buf_held, buf_bytes, *opened_ns)
                };
                let outbag = self.outbags.get_mut(&bag_len).expect("outbag");
                match decision {
                    SendDecision::Undecided => {
                        if let EdgeSend::Undecided { cursor, .. } = &mut outbag.edges[ei] {
                            *cursor = next;
                        }
                    }
                    SendDecision::Drop => {
                        outbag.edges[ei] = EdgeSend::Dropped;
                        self.shared.mem.credit(
                            MemClass::AwaitingBarrier,
                            self.machine,
                            self.op,
                            1,
                            buf_held,
                            buf_bytes,
                        );
                        resolved_any = true;
                        self.record_send_resolved(edge, bag_len, false, buf_held, opened_ns, out);
                    }
                    SendDecision::Send => {
                        let dst = self.shared.graph.edges[edge as usize].dst;
                        let dst_n = self.shared.graph.instances(dst, self.shared.machines);
                        outbag.edges[ei] = EdgeSend::Streaming {
                            counts: vec![0; dst_n as usize],
                            pending: vec![Vec::new(); dst_n as usize],
                            done_sent: false,
                        };
                        self.shared.mem.credit(
                            MemClass::AwaitingBarrier,
                            self.machine,
                            self.op,
                            1,
                            buf_held,
                            buf_bytes,
                        );
                        to_flush.push((bag_len, ei, buffered));
                        resolved_any = true;
                        self.record_send_resolved(edge, bag_len, true, buf_held, opened_ns, out);
                    }
                }
            }
        }
        for (bag_len, ei, buffered) in to_flush {
            out.net
                .charge(self.shared.config.cost.ser_cost(buffered.len()));
            self.route_and_flush(bag_len, ei, &buffered, out);
        }
        if resolved_any {
            let lens: Vec<u32> = self
                .outbags
                .iter()
                .filter(|(_, b)| b.finalized)
                .map(|(&l, _)| l)
                .collect();
            for l in lens {
                self.emit_done_where_possible(l, out);
            }
            self.retire_outbags();
        }
        Ok(())
    }

    /// Drops retired out-bags.
    fn retire_outbags(&mut self) {
        self.outbags.retain(|_, b| !b.retired());
    }

    /// Drains every full `cost.batch_elems` chunk of a streaming edge's
    /// per-destination pending output and ships each as one batch message;
    /// the sub-batch remainder stays pending until the bag finalizes.
    fn flush_pending(&mut self, bag_len: u32, ei: usize, out: &mut HostOut) {
        let max_elems = self.shared.config.cost.batch_elems.max(1);
        let edge = self.out_edge_ids[ei];
        let mut ship: Vec<(u16, Vec<Value>)> = Vec::new();
        if let Some(outbag) = self.outbags.get_mut(&bag_len) {
            if let EdgeSend::Streaming { pending, .. } = &mut outbag.edges[ei] {
                for (d, buf) in pending.iter_mut().enumerate() {
                    if buf.len() >= max_elems {
                        let rest = buf.split_off(buf.len() - buf.len() % max_elems);
                        ship.push((d as u16, std::mem::replace(buf, rest)));
                    }
                }
            }
        }
        for (d, vs) in ship {
            self.send_batches(edge, d, bag_len, vs, out);
        }
    }

    /// Sends end-of-bag punctuation on every decided edge of a finalized
    /// bag that hasn't sent it yet, flushing the edge's sub-batch pending
    /// remainder first so the punctuation counts are already on the wire.
    fn emit_done_where_possible(&mut self, bag_len: u32, out: &mut HostOut) {
        let n_edges = self.out_edge_ids.len();
        for ei in 0..n_edges {
            let edge = self.out_edge_ids[ei];
            let (counts, leftover): (Vec<u32>, Vec<Vec<Value>>) = {
                let Some(outbag) = self.outbags.get_mut(&bag_len) else {
                    return;
                };
                if !outbag.finalized {
                    return;
                }
                match &mut outbag.edges[ei] {
                    EdgeSend::Streaming {
                        counts,
                        pending,
                        done_sent,
                    } if !*done_sent => {
                        *done_sent = true;
                        (counts.clone(), std::mem::take(pending))
                    }
                    _ => continue,
                }
            };
            for (d, vs) in leftover.into_iter().enumerate() {
                if !vs.is_empty() {
                    self.send_batches(edge, d as u16, bag_len, vs, out);
                }
            }
            if out.obs.enabled() {
                out.obs.record(
                    out.net,
                    self.op,
                    EventKind::PunctuationSent {
                        edge,
                        bag_len,
                        count: counts.iter().map(|&c| c as u64).sum(),
                    },
                );
            }
            let e = &self.shared.graph.edges[edge as usize];
            let dst = e.dst;
            // A Forward sender only ever feeds its own peer instance; all
            // other partitionings may have sent anywhere, so they punctuate
            // every destination (receivers expect exactly
            // `senders_per_dst` punctuations).
            let targets: Vec<u16> = match e.partitioning {
                crate::graph::Partitioning::Forward => {
                    let dst_n = counts.len() as u16;
                    vec![self.inst.min(dst_n - 1)]
                }
                _ => (0..counts.len() as u16).collect(),
            };
            for d in targets {
                let machine = self.shared.graph.placement(dst, d);
                self.shared.flow.msg_out(edge, self.machine, machine, 0, 24);
                out.net.send(
                    machine,
                    Msg::BagDone {
                        edge,
                        dst_inst: d,
                        bag_len,
                        count: counts[d as usize],
                    },
                    24,
                );
            }
        }
    }
}

/// Which inputs must be fully collected before streaming can begin.
fn gating_flags(kind: &NodeKind, n_inputs: usize) -> Vec<bool> {
    let mut flags = vec![false; n_inputs];
    match kind {
        NodeKind::ReadFile => {
            flags[0] = true;
        }
        NodeKind::WriteFile => {
            if n_inputs > 1 {
                flags[1] = true;
            }
        }
        NodeKind::Map { .. }
        | NodeKind::FlatMap { .. }
        | NodeKind::Filter { .. }
        | NodeKind::ReduceByKey { .. }
        | NodeKind::ReduceByKeyLocal { .. }
        | NodeKind::Reduce { .. } => {
            for f in flags.iter_mut().skip(1) {
                *f = true; // captured scalars
            }
        }
        NodeKind::Join => {
            flags[0] = true; // build side
        }
        NodeKind::Cross => {
            if n_inputs > 1 {
                flags[1] = true; // collected side
            }
        }
        NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => {
            for f in flags.iter_mut() {
                *f = true;
            }
        }
        // A read-headed chain gates on its file name like a plain readFile;
        // captured scalars of every stage gate like a map's.
        NodeKind::Fused { stages } => {
            if matches!(stages[0].kind, NodeKind::ReadFile) {
                flags[0] = true;
            }
            for f in flags.iter_mut().skip(1) {
                *f = true;
            }
        }
        NodeKind::Union
        | NodeKind::Distinct
        | NodeKind::Alias
        | NodeKind::Phi
        | NodeKind::OutputSink { .. } => {}
    }
    flags
}

fn init_state(kind: &NodeKind) -> OpState {
    match kind {
        NodeKind::Join => OpState::Build(HashMap::new()),
        NodeKind::Cross => OpState::CrossRight(Vec::new()),
        NodeKind::ReduceByKey { .. } | NodeKind::ReduceByKeyLocal { .. } => {
            OpState::Agg(HashMap::new())
        }
        // The fold is seeded with the empty-bag value when one exists
        // (sum/count); `.reduce(..)` starts from the first element.
        NodeKind::Reduce { init, .. } => OpState::Fold(init.clone()),
        NodeKind::Distinct => OpState::Distinct(HashSet::new()),
        _ => OpState::Simple,
    }
}
