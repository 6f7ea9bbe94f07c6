//! The traced pass: per-layer timings taken from outside, by calling each
//! layer's public functions on the workload's own program and data, plus
//! the counters each layer reports in `EngineResult`/`Outcome`.
//!
//! Nothing here feeds the end-to-end samples; the pass runs in its own
//! process (`--trace 1`). Every job it runs is still checked against the
//! reference interpreter.

use crate::job::{self, Oracle, SIM_MACHINES};
use crate::report::{median, Metrics};
use crate::workload::Workload;
use crate::Tally;
use mitos::core::graph::NodeKind;
use mitos::core::rt::Net;
use mitos::core::{
    planned_graph, run_sim, CostModel, EngineConfig, ExecutionPath, FlowRegistry, LogicalGraph,
    MemClass, MemRegistry, Msg, Parallelism, PathRules, Relay,
};
use mitos::fs::InMemoryFs;
use mitos::ir::{kernel, BlockId, FuncIr};
use mitos::lang::{Batch, Expr, Value};
use mitos::sim::SimConfig;
use mitos::{Engine, ObsLevel};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Resets the process's peak resident set (`VmHWM`) so that it covers
/// only what runs next. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set in bytes (`VmHWM`), 0 if unreadable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Median ns per call of `f` over batches filling `slice`; each batch is
/// sized to take at least 200 µs so clock reads stay out of the figure.
fn ns_per_call(slice: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_micros(200) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < slice {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// A transport that keeps the last message sent and drops the rest:
/// relay costs without a network. Taking the kept message back lets a
/// probe send one message over and over without cloning it.
#[derive(Default)]
struct SlotNet {
    last: Option<Msg>,
}

impl Net for SlotNet {
    fn send(&mut self, _machine: u16, msg: Msg, _bytes: u64) {
        self.last = Some(black_box(msg));
    }
    fn charge(&mut self, _ns: u64) {}
    fn schedule(&mut self, _delay_ns: u64, _machine: u16, msg: Msg) {
        drop(black_box(msg));
    }
    fn now_ns(&mut self) -> u64 {
        0
    }
}

/// One kernel probe: the lambda and the data it runs on.
struct KernelInput {
    expr: Expr,
    input: Vec<Value>,
    /// The workload's program has no such kernel; a stand-in lambda runs
    /// over the workload's data instead.
    stand_in: bool,
}

/// Inputs for the four kernel probes.
struct Kernels {
    map: KernelInput,
    filter: KernelInput,
    reduce_by_key: KernelInput,
    join_build: Vec<Value>,
    join_probe: Vec<Value>,
    join_stand_in: bool,
}

/// Stand-in lambdas for programs without a map, filter or reduceByKey.
const STAND_IN: &str = r#"b = readFile("x");
p = b.map(x => (x, 1));
f = p.filter(q => q[1] == 1);
r = f.reduceByKey((a, c) => a + c);
output((r join p).count(), "n");
"#;

/// The `n`-th lambda of `kind` ("map", "filter", "reduce_by_key") in the
/// unfused graph, in block and statement order.
fn lambda(graph: &LogicalGraph, kind: &str, n: usize) -> Option<Expr> {
    graph
        .nodes
        .iter()
        .filter_map(|node| match (&node.kind, kind) {
            (NodeKind::Map { expr }, "map")
            | (NodeKind::Filter { expr }, "filter")
            | (NodeKind::ReduceByKey { expr }, "reduce_by_key") => Some(expr.clone()),
            _ => None,
        })
        .nth(n)
}

fn pair(a: Value, b: Value) -> Value {
    Value::tuple([a, b])
}

/// The kernels a workload's program uses, on the data it feeds them.
fn kernel_inputs(w: &Workload, func: &FuncIr) -> Kernels {
    let program = LogicalGraph::build(func).expect("program planned before");
    let stand_in = LogicalGraph::build(&mitos::compile(STAND_IN).expect("stand-in compiles"))
        .expect("stand-in plans");
    let fallback = |kind: &str| lambda(&stand_in, kind, 0).expect("stand-in has every kernel");
    let ones = |input: &[Value]| -> Vec<Value> {
        input
            .iter()
            .map(|v| pair(v.clone(), Value::I64(1)))
            .collect()
    };
    match w.name {
        "visit_count" => {
            // decode → validate → project, then `(page, 1)` pairs for the
            // pageTypes join and the per-day reduceByKey.
            let decode = lambda(&program, "map", 0).expect("visit_count decodes");
            let valid = lambda(&program, "filter", 0).expect("visit_count filters");
            let raw = Batch::from_slice(&w.sample);
            let decoded = kernel::map(&decode, &[], &raw).expect("decode runs");
            let kept = kernel::filter(&valid, &[], &decoded).expect("filter runs");
            let pages: Vec<Value> = kept
                .iter()
                .map(|e| e.as_tuple().expect("decoded pairs")[0].clone())
                .collect();
            let visits = ones(&pages);
            Kernels {
                map: KernelInput {
                    expr: decode,
                    input: w.sample.clone(),
                    stand_in: false,
                },
                filter: KernelInput {
                    expr: valid,
                    input: decoded.into_values(),
                    stand_in: false,
                },
                reduce_by_key: KernelInput {
                    expr: lambda(&program, "reduce_by_key", 0).expect("visit_count reduces"),
                    input: visits.clone(),
                    stand_in: false,
                },
                join_build: w.fs.read("pageTypes").expect("generated"),
                join_probe: visits,
                join_stand_in: false,
            }
        }
        _ => {
            let pairs = ones(&w.sample);
            let (join_build, join_probe, join_stand_in) = if w.name == "branchy_control" {
                (
                    w.fs.read("keys").expect("generated"),
                    crate::workload::branchy_probes(&w.fs),
                    false,
                )
            } else {
                (pairs.clone(), pairs.clone(), true)
            };
            Kernels {
                map: KernelInput {
                    expr: fallback("map"),
                    input: w.sample.clone(),
                    stand_in: true,
                },
                filter: KernelInput {
                    expr: fallback("filter"),
                    input: pairs.clone(),
                    stand_in: true,
                },
                reduce_by_key: KernelInput {
                    expr: fallback("reduce_by_key"),
                    input: pairs,
                    stand_in: true,
                },
                join_build,
                join_probe,
                join_stand_in,
            }
        }
    }
}

/// Worker threads for the traced pass's thread-driver jobs: one per core
/// of a 2-core host, so that decision broadcast between workers and the
/// time workers wait on one another show in the phase latencies and
/// `threads.cpu_util`. These jobs are not gated, so their sensitivity to
/// the host's steal time is tolerable here (see `job::THREAD_MACHINES`).
const CONCURRENT_MACHINES: u16 = 2;

/// Time one probe gets: a 2% share of the run, within 20–400 ms.
fn probe_slice(budget: Duration) -> Duration {
    (budget / 50).clamp(Duration::from_millis(20), Duration::from_millis(400))
}

/// The per-layer pass (see the module docs).
pub fn traced_pass(
    w: &Workload,
    func: &FuncIr,
    oracle: &Oracle,
    budget: Duration,
    tally: &mut Tally,
) -> Metrics {
    let start = Instant::now();
    let slice = probe_slice(budget);
    let cost = CostModel::default();
    let config = EngineConfig::default();
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // lang: parse; ir: lower + SSA + validate; core.graph/fuse: plan.
    let program = mitos::lang::parse(&w.src).expect("program parsed before");
    let parse_ns = ns_per_call(slice, || {
        black_box(mitos::lang::parse(black_box(&w.src)).expect("parses"));
    });
    let compile_ns = ns_per_call(slice, || {
        black_box(mitos::ir::compile(black_box(&program)).expect("compiles"));
    });
    let plan_ns = ns_per_call(slice, || {
        let graph = planned_graph(func, &config).expect("plans");
        black_box(PathRules::build(&graph));
    });
    m.put("lang.parse_us", parse_ns / 1e3, "us");

    // lang.batch: the workload's values in `batch_elems` chunks.
    let batches: Vec<Batch> = w
        .sample
        .chunks(cost.batch_elems)
        .map(Batch::from_slice)
        .collect();
    let elems = w.sample.len() as f64;
    let wire_bytes: usize = batches.iter().map(Batch::encoded_len).sum();
    let encoded_len_ns = ns_per_call(slice, || {
        black_box(
            batches
                .iter()
                .map(|b| black_box(b).encoded_len())
                .sum::<usize>(),
        );
    });
    let encoded: Vec<Vec<u8>> = batches.iter().map(Batch::encode).collect();
    let encode_ns = ns_per_call(slice, || {
        for b in &batches {
            black_box(black_box(b).encode());
        }
    });
    let decode_ns = ns_per_call(slice, || {
        for buf in &encoded {
            black_box(Batch::decode(black_box(buf)).expect("round-trips"));
        }
    });
    let mb = wire_bytes as f64 / 1e6;
    m.put(
        "lang.batch.encoded_len_ns_per_elem",
        encoded_len_ns / elems,
        "ns",
    );
    m.put(
        "lang.batch.wire_bytes_per_elem",
        wire_bytes as f64 / elems,
        "B",
    );
    m.put("lang.batch.encode_mb_s", mb / (encode_ns / 1e9), "MB/s");
    m.put("lang.batch.decode_mb_s", mb / (decode_ns / 1e9), "MB/s");

    // ir: compile, the program's kernels on its own data, and the
    // reference interpreter (the single-threaded baseline of the job).
    m.put("ir.compile_us", compile_ns / 1e3, "us");
    let k = kernel_inputs(w, func);
    for (name, input) in [
        ("map", &k.map),
        ("filter", &k.filter),
        ("reduce_by_key", &k.reduce_by_key),
    ] {
        if input.stand_in {
            notes.push(format!(
                "ir.kernel.{name}: stand-in lambda (the program has none)"
            ));
        }
    }
    let per_elem = |input: &KernelInput, ns: f64| ns / input.input.len().max(1) as f64;
    let map_in = Batch::from_slice(&k.map.input);
    let map_ns = per_elem(
        &k.map,
        ns_per_call(slice, || {
            black_box(kernel::map(&k.map.expr, &[], black_box(&map_in)).expect("map runs"));
        }),
    );
    let filter_in = Batch::from_slice(&k.filter.input);
    let filter_ns = per_elem(
        &k.filter,
        ns_per_call(slice, || {
            black_box(kernel::filter(&k.filter.expr, &[], black_box(&filter_in)).expect("runs"));
        }),
    );
    let rbk = &k.reduce_by_key;
    let rbk_ns = per_elem(
        rbk,
        ns_per_call(slice, || {
            black_box(kernel::reduce_by_key(&rbk.expr, &[], black_box(&rbk.input)).expect("runs"));
        }),
    );
    if k.join_stand_in {
        notes.push("ir.kernel.join: stand-in self-join (the program has none)".into());
    }
    let join_ns = ns_per_call(slice, || {
        black_box(kernel::join(
            black_box(&k.join_build),
            black_box(&k.join_probe),
        ));
    });
    let build_only_ns = ns_per_call(slice, || {
        black_box(kernel::join(black_box(&k.join_build), &[]));
    });
    let join_elems = (k.join_build.len() + k.join_probe.len()).max(1) as f64;
    m.put("ir.kernel.map_ns_per_elem", map_ns, "ns");
    m.put("ir.kernel.filter_ns_per_elem", filter_ns, "ns");
    m.put("ir.kernel.reduce_by_key_ns_per_elem", rbk_ns, "ns");
    m.put("ir.kernel.join_ns_per_elem", join_ns / join_elems, "ns");
    let mut interp_ms = Vec::new();
    let interp_start = Instant::now();
    while interp_ms.len() < 3 || interp_start.elapsed() < slice {
        let t = Instant::now();
        let r = mitos::ir::interpret(func, oracle.fs(), mitos::ir::InterpConfig::default());
        interp_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let files = oracle.take_written();
        let checked = r
            .map_err(|e| e.to_string())
            .and_then(|r| job::check(&r.canonical_outputs(), &r.path, &files, &oracle.expected));
        tally.record(Engine::Reference, checked);
    }
    m.put("ir.interp_ms", median(&interp_ms), "ms");

    // fs: partitioned reads of the workload's inputs, as 8 readers would
    // (between jobs the shared file system holds the inputs only).
    // step_loop reads no files, so a file of its sample stands in.
    let read_fs = if w.fs.list().is_empty() {
        let fs = InMemoryFs::new();
        fs.put("sample", w.sample.clone());
        fs
    } else {
        w.fs.clone()
    };
    let files = read_fs.list();
    let read_elems: usize = files
        .iter()
        .map(|f| read_fs.read(f).expect("put").len())
        .sum();
    let read_ns = ns_per_call(slice, || {
        for f in &files {
            for part in 0..SIM_MACHINES as usize {
                black_box(
                    read_fs
                        .read_partition(f, part, SIM_MACHINES as usize)
                        .expect("put"),
                );
            }
        }
    });
    m.put(
        "fs.read_ns_per_elem",
        read_ns / read_elems.max(1) as f64,
        "ns",
    );
    m.put("core.plan_us", plan_ns / 1e3, "us");

    // core.path: selection and send decisions at the final path length.
    let graph = planned_graph(func, &config).expect("plans");
    let rules = PathRules::build(&graph);
    let blocks = &oracle.expected.path;
    let path_of = |len: usize| {
        let mut p = ExecutionPath::new();
        for &b in &blocks[..len] {
            p.append(b);
        }
        p
    };
    let full = path_of(blocks.len());
    let tenth = path_of((blocks.len() / 10).max(1));
    let edges = graph.edges.len().max(1) as u32;
    let select_at = |p: &ExecutionPath| {
        ns_per_call(slice, || {
            for e in 0..edges {
                black_box(rules.select_input_len(e, p, p.len()));
            }
        }) / edges as f64
    };
    let select_full = select_at(&full);
    let select_tenth = select_at(&tenth);
    // Each watched edge decides its producer's latest bag, as a live
    // watcher does once the path has stopped growing.
    let watched: Vec<(u32, u32)> = (0..graph.edges.len() as u32)
        .filter(|&e| !rules.edges[e as usize].immediate)
        .map(|e| {
            let src = rules.edges[e as usize].src_block;
            let bag = full
                .last_occurrence_before(src, full.len())
                .map_or(0, |i| i + 1);
            (e, bag)
        })
        .collect();
    let decide_ns = ns_per_call(slice, || {
        for &(e, bag) in &watched {
            black_box(rules.decide_send(e, &full, bag, bag));
        }
    }) / watched.len().max(1) as f64;
    let absent = BlockId::MAX;
    let scan_ns_per_block = ns_per_call(slice, || {
        black_box(full.last_occurrence_before(black_box(absent), full.len()));
    }) / full.len().max(1) as f64;
    m.put("core.path.blocks", blocks.len() as f64, "count");
    m.put("core.path.select_input_ns", select_full, "ns");
    m.put("core.path.decide_send_ns", decide_ns, "ns");
    m.put(
        "core.path.select_growth",
        select_full / select_tenth,
        "ratio",
    );

    // sim + the engine's counters: full simulator jobs.
    let cluster = SimConfig::with_machines(SIM_MACHINES);
    let mut sim_wall = Vec::new();
    let mut sim_result = None;
    let sim_start = Instant::now();
    while sim_wall.len() < 3 || sim_start.elapsed() < slice {
        let t = Instant::now();
        let r = run_sim(func, oracle.fs(), config.clone(), cluster);
        sim_wall.push(t.elapsed().as_secs_f64());
        let files = oracle.take_written();
        let checked = r
            .map_err(|e| e.message)
            .and_then(|r| job::check(&r.outputs, &r.path, &files, &oracle.expected).map(|()| r));
        if let Some(r) = tally.record(Engine::Mitos, checked) {
            sim_result = Some(r);
        }
    }
    if let Some(r) = &sim_result {
        let lookups = r.template_hits + r.template_misses;
        m.put("core.template.lookups", lookups as f64, "count");
        m.put("core.template.hit_rate", r.template_hit_rate(), "ratio");
        m.put(
            "core.template.invalidations",
            r.template_invalidations as f64,
            "count",
        );
        m.put("core.decisions", r.decisions as f64, "count");
        m.put("core.host.hoist_hits", r.hoist_hits as f64, "count");
        let emitted: u64 = r.op_stats.iter().map(|s| s.emitted).sum();
        m.put("core.host.elems_emitted", emitted as f64, "count");
        m.put("core.relay.data_messages", r.data_messages as f64, "count");
    }

    // core.relay: one data message of the workload's through `send_via`
    // to another machine, with the relay switched on or off as the jobs'
    // configuration switches it (off when fault-free, so the message
    // passes straight through).
    let flow = FlowRegistry::new(2, graph.edges.len().max(1));
    let mem = MemRegistry::new(2, graph.nodes.len().max(1));
    let batch = batches.first().cloned().unwrap_or_else(Batch::new);
    let msg_bytes = batch.encoded_len() as u64;
    let data = Msg::Data {
        edge: 0,
        dst_inst: 1,
        bag_len: 1,
        batch,
    };
    let as_configured = config.faults.net_faults_active() && config.faults.retransmit;
    let mut sender = Relay::new(0, 2, as_configured);
    let mut net = SlotNet {
        last: Some(data.clone()),
    };
    let relay_ns = ns_per_call(slice, || {
        let msg = net.last.take().expect("message kept");
        sender.send_via(&mut net, 1, msg, msg_bytes, &flow, &mem);
    });
    // The at-least-once protocol the relay runs under network faults:
    // sequence-numbered envelope, unacked buffer, receive-side dedup and
    // ack. No fault-free job pays this; it is reported apart.
    let mut sender = Relay::new(0, 2, true);
    let mut receiver = Relay::new(1, 2, true);
    let mut msg = Some(data);
    let mut seq = 0u64;
    let reliable_ns = ns_per_call(slice, || {
        let payload = msg.take().expect("message kept");
        sender.send_via(&mut net, 1, payload, msg_bytes, &flow, &mem);
        // The envelope carries a copy of the payload; it is the next send.
        if let Some(Msg::Reliable { payload, .. }) = net.last.take() {
            msg = Some(*payload);
        }
        black_box(receiver.accept(&mut net, 0, seq, &mem));
        sender.on_ack(1, seq, &flow, &mem);
        seq += 1;
    });
    if let Some(r) = &sim_result {
        let retrans: u64 = r.flow.edges.iter().map(|e| e.retrans_msgs()).sum();
        m.put("core.relay.retrans_msgs", retrans as f64, "count");
    }
    m.put("core.relay.msg_ns", relay_ns, "ns");
    m.put("core.relay.reliable_msg_ns", reliable_ns, "ns");

    // core.obs: per-message flow accounting and per-bag memory accounting.
    let flow_ns = ns_per_call(slice, || {
        flow.msg_out(0, 0, 1, black_box(64), black_box(512));
        flow.msg_in(0, 1, black_box(64));
    });
    let mem_ns = ns_per_call(slice, || {
        mem.charge(
            MemClass::AwaitingInputs,
            0,
            0,
            1,
            black_box(64),
            black_box(512),
        );
        mem.credit(
            MemClass::AwaitingInputs,
            0,
            0,
            1,
            black_box(64),
            black_box(512),
        );
    });
    m.put("core.obs.flow_msg_ns", flow_ns, "ns");
    m.put("core.obs.mem_charge_ns", mem_ns, "ns");
    if let Some(r) = &sim_result {
        // Skew is only meaningful where the consumer runs on every
        // machine; a single-instance consumer is skewed by design.
        let skew = r
            .flow
            .edges
            .iter()
            .filter(|e| {
                let dst = graph.edges[e.edge as usize].dst as usize;
                graph.nodes[dst].parallelism == Parallelism::Full
            })
            .map(|e| e.recv_skew())
            .fold(1.0, f64::max);
        m.put("core.flow.wire_bytes", r.flow.bytes_on_wire() as f64, "B");
        m.put("core.flow.recv_skew", skew, "ratio");
        m.put("core.mem.peak_bytes", r.mem.peak_resident() as f64, "B");
    }

    // Thread-driver jobs: tracing off vs `ObsLevel::Trace`, alternated;
    // phase latencies from the first traced job's span trees.
    let mut off_ms = Vec::new();
    let mut trace_ms = Vec::new();
    let mut phases = None;
    let mut busy_cpu = 0.0;
    let mut busy_wall = 0.0;
    let reserve = slice * 2;
    while off_ms.len() < 10 || start.elapsed() + reserve < budget {
        let (wall, cpu, r) = oracle.job_with_cpu(
            func,
            Engine::MitosThreads,
            CONCURRENT_MACHINES,
            ObsLevel::Off,
        );
        busy_cpu += cpu;
        busy_wall += wall.as_secs_f64();
        off_ms.push(wall.as_secs_f64() * 1e3);
        tally.record(Engine::MitosThreads, r);
        let (wall, r) = oracle.job(
            func,
            Engine::MitosThreads,
            CONCURRENT_MACHINES,
            ObsLevel::Trace,
        );
        trace_ms.push(wall.as_secs_f64() * 1e3);
        if let Some(out) = tally.record(Engine::MitosThreads, r) {
            if phases.is_none() {
                phases = out.phase_histograms();
            }
        }
        if start.elapsed() > Duration::from_secs(120) {
            break;
        }
    }
    if let Some(h) = &phases {
        for (name, hist) in h.phases() {
            m.put(
                format!("core.phase.{name}_us_p50"),
                hist.quantile(0.5) as f64 / 1e3,
                "us",
            );
        }
    }
    m.put(
        "trace_overhead_pct",
        (median(&trace_ms) / median(&off_ms) - 1.0) * 100.0,
        "%",
    );

    // sim: scheduler throughput and the modelled (virtual) figures.
    if let Some(r) = &sim_result {
        let wall = median(&sim_wall);
        m.put("sim.events", r.sim.messages as f64, "count");
        m.put("sim.events_per_s", r.sim.messages as f64 / wall, "1/s");
        m.put("sim.virtual_ms", r.sim.end_time as f64 / 1e6, "ms");
        m.put("sim.cpu_ms", r.sim.cpu_ns as f64 / 1e6, "ms");
        m.put("sim.max_inbox", r.sim.max_inbox as f64, "count");
    }
    m.put(
        "threads.cpu_util",
        busy_cpu / (busy_wall * CONCURRENT_MACHINES as f64),
        "ratio",
    );

    // Cost-model calibration: modelled ns ÷ measured ns (never gated).
    let map_nodes = k.map.expr.node_count() as f64;
    let probe_ns = ((join_ns - build_only_ns) / k.join_probe.len().max(1) as f64).max(1e-3);
    let insert_ns = (build_only_ns / k.join_build.len().max(1) as f64).max(1e-3);
    let ser_ns = encode_ns / elems;
    m.put(
        "core.cost.scan_ratio",
        cost.per_scan_block_ns as f64 / scan_ns_per_block,
        "ratio",
    );
    m.put(
        "core.cost.elem_ratio",
        (cost.per_element_ns as f64 + cost.per_expr_node_ns as f64 * map_nodes) / map_ns,
        "ratio",
    );
    m.put(
        "core.cost.insert_ratio",
        cost.per_insert_ns as f64 / insert_ns,
        "ratio",
    );
    m.put(
        "core.cost.probe_ratio",
        cost.per_probe_ns as f64 / probe_ns,
        "ratio",
    );
    m.put(
        "core.cost.ser_ratio",
        cost.per_ser_ns as f64 / ser_ns,
        "ratio",
    );

    for note in notes {
        println!("  note: {note}");
    }
    m
}
