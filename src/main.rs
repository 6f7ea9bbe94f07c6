//! `mitos` — command-line runner for Mitos programs.
//!
//! ```sh
//! mitos run program.mt --machines 8 --engine mitos \
//!       --input numbers=data.txt --output-dir out/
//! mitos ssa program.mt          # print the SSA intermediate representation
//! mitos check program.mt       # compile + report Flink expressibility
//! ```
//!
//! Input files are loaded into the in-memory DFS: each line becomes one bag
//! element — an integer, a float, a quoted string, or a comma-separated
//! tuple of those.

use mitos::fs::InMemoryFs;
use mitos::lang::Value;
use mitos::sim::SimConfig;
use mitos::{baselines, compile, ir, Engine, EngineConfig, LiveOptions, ObsLevel, Run};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mitos run <program> [--machines N] [--engine mitos|mitos-nopipe|\
         mitos-nohoist|flink|flink-jobs|spark|threads|reference]\n             \
         [--input name=path]... [--output-dir dir]\n             \
         [--explain] [--trace out.json] [--metrics-out out.prom] [--no-fuse]\n             \
         [--progress] [--watch] [--interval MS] [--deadline MS]\n             \
         [--fault-drop P] [--fault-dup P] [--fault-reorder P]\n             \
         [--fault-partition A:B:FROM_MS:UNTIL_MS]... [--fault-seed N] [--fault-no-retransmit]\n          \
         # --progress: one live status line per interval (stderr)\n          \
         # --watch: live per-operator table per interval (stderr)\n          \
         # --deadline: stall watchdog; no progress for MS ms aborts with exit 2\n          \
         # --no-fuse: disable operator chain fusion in the physical planner\n          \
         # --fault-*: seeded deterministic fault injection (Mitos engines only);\n          \
         #   drop/dup/reorder are per-message probabilities in [0,1]; recovery runs\n          \
         #   an at-least-once retransmission protocol unless --fault-no-retransmit,\n          \
         #   in which case an unrecoverable stall exits 2 naming the faults\n  \
         # --metrics-out: per-step control-plane phase latency histograms\n          \
         #   (broadcast/assembly/execute/send-resolve) in Prometheus text format\n  \
         mitos explain <program> [run options] [--json] [--dot out.dot]\n          \
         # per-operator runtime report (Mitos engines only;\n          \
         #   --dot writes a metrics-count overlay)\n  \
         mitos flow <program> [run options] [--json] [--dot out.dot]\n          \
         # per-edge data-plane flow report: top edges by bytes/elements,\n          \
         #   wire totals, per-machine skew, observed selectivity, backpressure\n          \
         #   (Mitos engines only; --dot writes an edge heat overlay)\n  \
         mitos mem <program> [run options] [--json] [--dot out.dot]\n          \
         # per-machine state-residency report: live bags/elements/bytes by\n          \
         #   retention class, high-water marks, leak attribution\n          \
         #   (Mitos engines only; --dot writes a node heat overlay)\n  \
         mitos profile <program> [run options] [--json] [--profile-json out.json] [--dot out.dot]\n          \
         # per-iteration attribution + critical path (Mitos engines only)\n  \
         mitos trace-tree <program> [run options] [--step N] [--json] [--dot out.dot]\n          \
         # per-step causal span tree: decision broadcast -> receipt -> input\n          \
         #   assembly -> execute -> send-resolve (Mitos engines only)\n  \
         mitos ssa <program>\n  \
         mitos graph <program> [--no-fuse]   # DOT dataflow (Figure 3b style)\n  \
         mitos check <program>"
    );
    std::process::exit(2);
}

fn parse_line(line: &str) -> Result<Value, String> {
    let line = line.trim();
    let parse_atom = |s: &str| -> Result<Value, String> {
        let s = s.trim();
        if let Ok(v) = s.parse::<i64>() {
            return Ok(Value::I64(v));
        }
        if let Ok(v) = s.parse::<f64>() {
            return Ok(Value::F64(v));
        }
        if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
            return Ok(Value::str(&s[1..s.len() - 1]));
        }
        Ok(Value::str(s))
    };
    if line.contains(',') {
        let fields: Result<Vec<Value>, String> = line.split(',').map(parse_atom).collect();
        Ok(Value::tuple(fields?))
    } else {
        parse_atom(line)
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Tuple(fields) => fields
            .iter()
            .map(render_value)
            .collect::<Vec<_>>()
            .join(","),
        Value::Str(s) => s.to_string(),
        other => format!("{other:?}"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `mitos explain --json`: the explain report as deterministic,
/// hand-rolled JSON — run totals, per-operator counters, the recovery
/// summary when observability recorded one, and the per-edge flow and
/// state-residency reports (`null` on engines without a Mitos data
/// plane).
fn explain_json(
    outcome: &mitos::Outcome,
    engine: Engine,
    machines: u16,
    func: &ir::FuncIr,
    engine_cfg: &EngineConfig,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"engine\":{},\"machines\":{machines},\"millis\":{:.6},\
         \"path_blocks\":{},\"decisions\":{},\"hoist_hits\":{},\
         \"data_messages\":{},",
        json_str(&engine.to_string()),
        outcome.millis(),
        outcome.path.len(),
        outcome.decisions,
        outcome.op_stats.iter().map(|s| s.hoist_hits).sum::<u64>(),
        outcome.data_messages,
    );
    out.push_str("\"ops\":[");
    for (i, s) in outcome.op_stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"op\":{},\"name\":{},\"kind\":{},\"instances\":{},\
             \"emitted\":{},\"hoist_hits\":{}}}",
            s.op,
            json_str(&s.name),
            json_str(&s.kind),
            s.instances,
            s.emitted,
            s.hoist_hits,
        );
    }
    out.push_str("],");
    if let Some(obs) = &outcome.obs {
        let m = &obs.metrics;
        let _ = write!(
            out,
            "\"metrics\":{{\"decisions_broadcast\":{},\"path_appends\":{},\
             \"steps_released\":{},\"bags_opened\":{},\"elements_emitted\":{},\
             \"elements_discarded\":{},\"conditional_dropped\":{},\
             \"sink_written\":{},\"retransmissions\":{},\
             \"duplicates_dropped\":{}}},",
            m.decisions_broadcast,
            m.path_appends,
            m.steps_released,
            m.ops.iter().map(|o| o.bags_opened).sum::<u64>(),
            m.total_emitted(),
            m.ops.iter().map(|o| o.elements_discarded).sum::<u64>(),
            m.total_cond_dropped(),
            m.total_sink_written(),
            m.retransmits,
            m.dup_msgs_dropped,
        );
    }
    let graph = mitos::core::planned_graph(func, engine_cfg).ok();
    let flow = match (outcome.flow(), &graph) {
        (Some(f), Some(g)) => f.to_json(g),
        _ => "null".to_string(),
    };
    let mem = match (outcome.mem(), &graph) {
        (Some(m), Some(g)) => m.to_json(g),
        _ => "null".to_string(),
    };
    let _ = write!(out, "\"flow\":{flow},\"mem\":{mem}");
    out.push('}');
    out
}

/// `mitos trace-tree --json`: the causal span trees as deterministic,
/// hand-rolled JSON. Span ids are already deterministic (see
/// [`mitos::core::obs::span`]); under the simulator the timestamps are
/// virtual, so the whole document is bit-stable across runs.
fn trees_json(trees: &[mitos::core::StepTree], op_names: &[String]) -> String {
    use std::fmt::Write as _;
    let span_json = |out: &mut String, s: &mitos::core::obs::span::Span| {
        let op = if s.op == u32::MAX {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        let name = op_names.get(s.op as usize).map_or("", |n| n.as_str());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"kind\":{},\"machine\":{},\"op\":{op},\
             \"op_name\":{},\"start_ns\":{},\"end_ns\":{},\"attempts\":{},\
             \"label\":{},\"detail\":{}}}",
            s.id,
            s.parent,
            json_str(s.kind.label()),
            s.machine,
            json_str(name),
            s.start_ns,
            s.end_ns,
            s.attempts,
            json_str(&s.label),
            json_str(&s.detail),
        );
    };
    let mut out = String::from("{\"steps\":[");
    for (i, tree) in trees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"step\":{},\"block\":{},\"decided\":{},\"spans\":[",
            tree.step, tree.block, tree.decided,
        );
        for (j, s) in tree.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            span_json(&mut out, s);
        }
        out.push_str("],\"orphans\":[");
        for (j, s) in tree.orphans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            span_json(&mut out, s);
        }
        out.push_str("]}");
    }
    let _ = write!(
        out,
        "],\"step_count\":{},\"span_count\":{},\"orphan_count\":{}}}",
        trees.len(),
        trees.iter().map(|t| t.spans.len()).sum::<usize>(),
        trees.iter().map(|t| t.orphans.len()).sum::<usize>(),
    );
    out
}

/// Machine-readable (`--json`) and Graphviz (`--dot out.dot`) output
/// options shared by every report subcommand (`explain`, `flow`, `mem`,
/// `profile`, `trace-tree`): one parser, so the flags spell and behave
/// identically everywhere.
#[derive(Default)]
struct ReportOpts {
    /// Print the report as deterministic JSON on stdout.
    json: bool,
    /// Write the subcommand's DOT overlay to this path.
    dot: Option<String>,
}

impl ReportOpts {
    /// Consumes `args[*i]` — `--json`, or `--dot` plus its path operand
    /// (advancing `*i` past it) — exiting with usage on a missing operand.
    fn consume(&mut self, args: &[String], i: &mut usize) {
        match args[*i].as_str() {
            "--json" => self.json = true,
            "--dot" => {
                *i += 1;
                self.dot = Some(args.get(*i).unwrap_or_else(|| usage()).clone());
            }
            _ => usage(),
        }
    }
}

/// Writes a report subcommand's DOT overlay to `path`; `what` names the
/// overlay in the confirmation line on stderr.
fn write_dot(path: &str, dot: String, what: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, dot) {
        eprintln!("error: cannot write DOT {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("wrote {what} DOT {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let command = args[0].as_str();
    let program_path = &args[1];
    let src = match std::fs::read_to_string(program_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {program_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let func = match compile(&src) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "{}",
                mitos::lang::Diagnostic::new(e.message.clone(), Default::default()).render(&src)
            );
            return ExitCode::FAILURE;
        }
    };

    match command {
        "ssa" => {
            print!("{}", ir::pretty(&func));
            ExitCode::SUCCESS
        }
        "graph" => {
            // Figure-3b-style DOT rendering of the single dataflow job —
            // the plan the engine actually runs, i.e. post-fusion unless
            // --no-fuse.
            let no_fuse = args[2..].iter().any(|a| a == "--no-fuse");
            let cfg = EngineConfig::new().with_fusion(!no_fuse);
            match mitos::core::planned_graph(&func, &cfg) {
                Ok(graph) => {
                    print!(
                        "{}",
                        mitos::core::to_dot(&graph, &mitos::core::DotOverlay::default())
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "check" => {
            println!(
                "compiles: yes ({} basic blocks, {} operators)",
                func.blocks.len(),
                func.blocks.iter().map(|b| b.stmts.len()).sum::<usize>()
            );
            match baselines::flink_mode(&func) {
                baselines::FlinkMode::Native => {
                    println!("Flink native iterations: expressible")
                }
                baselines::FlinkMode::SeparateJobs => println!(
                    "Flink native iterations: NOT expressible (needs one job per step); \
                     Mitos runs it as a single dataflow job"
                ),
            }
            ExitCode::SUCCESS
        }
        "run" | "explain" | "flow" | "mem" | "profile" | "trace-tree" => {
            let explain_cmd = command == "explain";
            let flow_cmd = command == "flow";
            let mem_cmd = command == "mem";
            let profile_cmd = command == "profile";
            let tracetree_cmd = command == "trace-tree";
            let report_cmd = explain_cmd || flow_cmd || mem_cmd || profile_cmd || tracetree_cmd;
            let mut machines: u16 = 4;
            let mut engine = Engine::Mitos;
            let mut inputs: Vec<(String, String)> = Vec::new();
            let mut output_dir: Option<String> = None;
            let mut explain = explain_cmd;
            let mut trace_path: Option<String> = None;
            let mut metrics_out: Option<String> = None;
            let mut step_filter: Option<u32> = None;
            let mut profile_json: Option<String> = None;
            let mut report = ReportOpts::default();
            let mut combiners = false;
            let mut no_fuse = false;
            let mut progress = false;
            let mut watch = false;
            let mut interval_ms: u64 = 200;
            let mut deadline_ms: Option<u64> = None;
            let mut fault_drop: f64 = 0.0;
            let mut fault_dup: f64 = 0.0;
            let mut fault_reorder: f64 = 0.0;
            let mut fault_partitions: Vec<(u16, u16, u64, u64)> = Vec::new();
            let mut fault_seed: Option<u64> = None;
            let mut fault_no_retransmit = false;
            let mut fault_flags = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--machines" => {
                        i += 1;
                        machines = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                    }
                    "--engine" => {
                        i += 1;
                        engine = match args.get(i).map(String::as_str) {
                            Some("mitos") => Engine::Mitos,
                            Some("mitos-nopipe") => Engine::MitosNoPipelining,
                            Some("mitos-nohoist") => Engine::MitosNoHoisting,
                            Some("flink") => Engine::FlinkNative,
                            Some("flink-jobs") => Engine::FlinkSeparateJobs,
                            Some("spark") => Engine::Spark,
                            Some("threads") => Engine::MitosThreads,
                            Some("reference") => Engine::Reference,
                            _ => usage(),
                        };
                    }
                    "--input" => {
                        i += 1;
                        let spec = args.get(i).unwrap_or_else(|| usage());
                        let (name, path) = spec.split_once('=').unwrap_or_else(|| usage());
                        inputs.push((name.to_string(), path.to_string()));
                    }
                    "--output-dir" => {
                        i += 1;
                        output_dir = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    "--explain" => explain = true,
                    "--trace" => {
                        i += 1;
                        trace_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    "--metrics-out" => {
                        i += 1;
                        metrics_out = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    // Restricting the tree rendering to one path position
                    // only makes sense under `mitos trace-tree`.
                    "--step" if tracetree_cmd => {
                        i += 1;
                        step_filter = Some(
                            args.get(i)
                                .and_then(|s| s.parse().ok())
                                .unwrap_or_else(|| usage()),
                        );
                    }
                    // Profiler outputs only make sense where the profile
                    // is computed: under `mitos profile`.
                    "--profile-json" if profile_cmd => {
                        i += 1;
                        profile_json = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    // Shared report options: every report subcommand takes
                    // --json (deterministic JSON on stdout) and --dot (that
                    // subcommand's overlay: observed counts under
                    // explain/trace-tree, edge heat under flow, node
                    // residency heat under mem, the critical path under
                    // profile).
                    "--json" | "--dot" if report_cmd => report.consume(&args, &mut i),
                    "--combiners" => combiners = true,
                    "--no-fuse" => no_fuse = true,
                    "--progress" => progress = true,
                    "--watch" => watch = true,
                    "--interval" => {
                        i += 1;
                        interval_ms = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                    }
                    "--deadline" => {
                        i += 1;
                        deadline_ms = Some(
                            args.get(i)
                                .and_then(|s| s.parse().ok())
                                .unwrap_or_else(|| usage()),
                        );
                    }
                    "--fault-drop" => {
                        i += 1;
                        fault_drop = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|p| (0.0..=1.0).contains(p))
                            .unwrap_or_else(|| usage());
                        fault_flags = true;
                    }
                    "--fault-dup" => {
                        i += 1;
                        fault_dup = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|p| (0.0..=1.0).contains(p))
                            .unwrap_or_else(|| usage());
                        fault_flags = true;
                    }
                    "--fault-reorder" => {
                        i += 1;
                        fault_reorder = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .filter(|p| (0.0..=1.0).contains(p))
                            .unwrap_or_else(|| usage());
                        fault_flags = true;
                    }
                    "--fault-partition" => {
                        i += 1;
                        let spec = args.get(i).unwrap_or_else(|| usage());
                        let parts: Vec<&str> = spec.split(':').collect();
                        let machine = |j: usize| parts.get(j).and_then(|s| s.parse::<u16>().ok());
                        let millis = |j: usize| {
                            parts
                                .get(j)
                                .and_then(|s| s.parse::<u64>().ok())
                                .map(|ms| ms.saturating_mul(1_000_000))
                        };
                        match (machine(0), machine(1), millis(2), millis(3)) {
                            (Some(a), Some(b), Some(from), Some(until)) if parts.len() == 4 => {
                                fault_partitions.push((a, b, from, until));
                            }
                            _ => usage(),
                        }
                        fault_flags = true;
                    }
                    "--fault-seed" => {
                        i += 1;
                        fault_seed = Some(
                            args.get(i)
                                .and_then(|s| s.parse().ok())
                                .unwrap_or_else(|| usage()),
                        );
                        fault_flags = true;
                    }
                    "--fault-no-retransmit" => {
                        fault_no_retransmit = true;
                        fault_flags = true;
                    }
                    _ => usage(),
                }
                i += 1;
            }
            // Tracing, profiling, span trees and the phase-histogram
            // export need timestamps; a bare --explain only needs the
            // counters.
            let obs =
                if trace_path.is_some() || profile_cmd || tracetree_cmd || metrics_out.is_some() {
                    ObsLevel::Trace
                } else if explain {
                    ObsLevel::Metrics
                } else {
                    ObsLevel::Off
                };
            // The event stream exists only on the Mitos engines; asking
            // for it anywhere else is a contradiction, not a warning.
            let obs_capable = matches!(
                engine,
                Engine::Mitos
                    | Engine::MitosNoPipelining
                    | Engine::MitosNoHoisting
                    | Engine::MitosThreads
            );
            let live_requested = progress || watch || deadline_ms.is_some();
            // Every report subcommand reads Mitos-only instrumentation, so
            // they share one engine gate with one exit code.
            if (report_cmd || trace_path.is_some() || metrics_out.is_some() || live_requested)
                && !obs_capable
            {
                let what = if explain_cmd {
                    "`mitos explain`"
                } else if flow_cmd {
                    "`mitos flow`"
                } else if mem_cmd {
                    "`mitos mem`"
                } else if profile_cmd {
                    "`mitos profile`"
                } else if tracetree_cmd {
                    "`mitos trace-tree`"
                } else if trace_path.is_some() {
                    "--trace"
                } else if metrics_out.is_some() {
                    "--metrics-out"
                } else {
                    "--progress/--watch/--deadline"
                };
                eprintln!(
                    "error: {what} requires a Mitos engine \
                     (mitos|mitos-nopipe|mitos-nohoist|threads), not `{engine}`"
                );
                return ExitCode::from(2);
            }
            // Fault injection exists only where the recovery protocol does.
            if fault_flags && !obs_capable {
                eprintln!(
                    "error: --fault-* requires a Mitos engine \
                     (mitos|mitos-nopipe|mitos-nohoist|threads), not `{engine}` — \
                     the baselines and the reference interpreter run fault-free only"
                );
                return ExitCode::from(2);
            }
            let mut faults = mitos::FaultPlan::new()
                .with_drop(fault_drop)
                .with_duplicate(fault_dup)
                .with_reorder(fault_reorder)
                .with_retransmit(!fault_no_retransmit);
            if let Some(seed) = fault_seed {
                faults = faults.with_seed(seed);
            }
            for (a, b, from_ns, until_ns) in fault_partitions {
                faults = faults.with_partition(a, b, from_ns, until_ns);
            }
            let fs = InMemoryFs::new();
            for (name, path) in &inputs {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read input {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let elems: Result<Vec<Value>, String> = text
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(parse_line)
                    .collect();
                match elems {
                    Ok(elems) => fs.put(name.clone(), elems),
                    Err(e) => {
                        eprintln!("error: bad input line in {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let input_names: std::collections::BTreeSet<String> =
                inputs.iter().map(|(n, _)| n.clone()).collect();
            let func = if combiners {
                ir::passes::insert_combiners(&func)
            } else {
                func
            };
            let live = LiveOptions {
                sample_interval_ns: if progress || watch {
                    interval_ms.saturating_mul(1_000_000)
                } else {
                    0
                },
                deadline_ns: deadline_ms.map_or(0, |ms| ms.saturating_mul(1_000_000)),
                // Undocumented fault-injection hook so the stall watchdog
                // can be exercised end to end (tests/cli.rs).
                fault_withhold_decisions: std::env::var("MITOS_FAULT_WITHHOLD_DECISIONS")
                    .is_ok_and(|v| v == "1"),
            };
            let engine_cfg = EngineConfig::new()
                .with_fusion(!no_fuse)
                .with_faults(faults);
            // The watch table indexes operators by id, so it must see the
            // plan the engine actually runs (post-fusion).
            let graph_for_watch = if watch {
                mitos::core::planned_graph(&func, &engine_cfg).ok()
            } else {
                None
            };
            let mut on_snapshot = |s: &mitos::Snapshot| {
                if let Some(g) = &graph_for_watch {
                    // Clear + home: a live-updating table like `top`.
                    eprint!("\x1b[2J\x1b[H{}", mitos::core::watch_table(s, g));
                } else if progress {
                    eprintln!("{}", mitos::core::progress_line(s));
                }
            };
            let start = std::time::Instant::now();
            match Run::new(&func)
                .engine(engine)
                .cluster(SimConfig::with_machines(machines))
                .obs(obs)
                .live(live)
                .on_snapshot(&mut on_snapshot)
                .config(engine_cfg.clone())
                .execute(&fs)
            {
                Ok(outcome) => {
                    if progress || watch {
                        eprintln!(
                            "[progress] done: {} snapshots, {} elements emitted",
                            outcome.snapshots.len(),
                            outcome
                                .snapshots
                                .last()
                                .map_or(0, |s| s.total_elements_out()),
                        );
                    }
                    if explain {
                        // Per-edge data-plane rows ride along whenever the
                        // run had flow accounting (Mitos engines).
                        let flow_rows = outcome
                            .flow()
                            .and_then(|f| {
                                let g = mitos::core::planned_graph(&func, &engine_cfg).ok()?;
                                Some(f.explain_rows(&g))
                            })
                            .unwrap_or_default();
                        // Residency rows likewise (always-on mem registry).
                        let mem_rows = outcome.mem().map(|m| m.explain_rows()).unwrap_or_default();
                        // The subcommand's report is the product: stdout.
                        // As a flag on `run` it is diagnostics: stderr.
                        if explain_cmd && report.json {
                            println!(
                                "{}",
                                explain_json(&outcome, engine, machines, &func, &engine_cfg)
                            );
                        } else if explain_cmd {
                            print!("{}{}{}", outcome.explain(), flow_rows, mem_rows);
                        } else {
                            eprint!("{}{}{}", outcome.explain(), flow_rows, mem_rows);
                        }
                        if explain_cmd {
                            if let Some(path) = &report.dot {
                                let graph = match mitos::core::planned_graph(&func, &engine_cfg) {
                                    Ok(g) => g,
                                    Err(e) => {
                                        eprintln!("error: {e}");
                                        return ExitCode::FAILURE;
                                    }
                                };
                                let dot = mitos::core::to_dot(
                                    &graph,
                                    &mitos::core::DotOverlay {
                                        metrics: outcome.obs.as_ref().map(|o| &o.metrics),
                                        ..Default::default()
                                    },
                                );
                                if let Err(code) = write_dot(path, dot, "metrics overlay") {
                                    return code;
                                }
                            }
                        }
                    }
                    if flow_cmd {
                        // The engine gate above makes flow presence an
                        // invariant here, not a user error.
                        let flow = outcome.flow().expect("Mitos engines account flow");
                        let graph = match mitos::core::planned_graph(&func, &engine_cfg) {
                            Ok(g) => g,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        if report.json {
                            println!("{}", flow.to_json(&graph));
                        } else {
                            print!("{}", flow.render(&graph));
                        }
                        if let Some(path) = &report.dot {
                            let dot = mitos::core::to_dot(
                                &graph,
                                &mitos::core::DotOverlay {
                                    flow: Some(flow),
                                    ..Default::default()
                                },
                            );
                            if let Err(code) = write_dot(path, dot, "flow heat-overlay") {
                                return code;
                            }
                        }
                        return ExitCode::SUCCESS;
                    }
                    if mem_cmd {
                        // The engine gate above makes residency accounting
                        // an invariant here, not a user error.
                        let mem = outcome.mem().expect("Mitos engines account residency");
                        let graph = match mitos::core::planned_graph(&func, &engine_cfg) {
                            Ok(g) => g,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        if report.json {
                            println!("{}", mem.to_json(&graph));
                        } else {
                            print!("{}", mem.render(&graph));
                        }
                        if let Some(path) = &report.dot {
                            let dot = mitos::core::to_dot(
                                &graph,
                                &mitos::core::DotOverlay {
                                    mem: Some(mem),
                                    ..Default::default()
                                },
                            );
                            if let Err(code) = write_dot(path, dot, "mem residency") {
                                return code;
                            }
                        }
                        return ExitCode::SUCCESS;
                    }
                    if let Some(path) = &trace_path {
                        match outcome.chrome_trace() {
                            Some(json) => {
                                if let Err(e) = std::fs::write(path, json) {
                                    eprintln!("error: cannot write trace {path}: {e}");
                                    return ExitCode::FAILURE;
                                }
                                eprintln!(
                                    "wrote Chrome trace {path} ({} events) — open in \
                                     chrome://tracing or https://ui.perfetto.dev",
                                    outcome.obs.as_ref().map_or(0, |o| o.events.len())
                                );
                            }
                            None => eprintln!(
                                "warning: --trace requires a Mitos engine \
                                 (mitos/mitos-nopipe/mitos-nohoist/threads); no trace written"
                            ),
                        }
                    }
                    if let Some(path) = &metrics_out {
                        let Some(histos) = outcome.phase_histograms() else {
                            eprintln!("error: run produced no trace for --metrics-out");
                            return ExitCode::FAILURE;
                        };
                        let mut prom = histos.prometheus();
                        // Per-edge flow and per-class residency series ride
                        // along with the phase histograms in the same
                        // exposition file.
                        if let Ok(g) = mitos::core::planned_graph(&func, &engine_cfg) {
                            if let Some(f) = outcome.flow() {
                                prom.push_str(&f.prometheus(&g));
                            }
                            if let Some(m) = outcome.mem() {
                                prom.push_str(&m.prometheus(&g));
                            }
                        }
                        if let Err(e) = std::fs::write(path, prom) {
                            eprintln!("error: cannot write metrics {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!(
                            "wrote Prometheus metrics {path} \
                             ({} steps, 4 phases, per-edge flow, residency)",
                            histos.steps
                        );
                    }
                    if tracetree_cmd {
                        let Some(trees) = outcome.trace_trees() else {
                            eprintln!("error: run produced no trace for trace-tree");
                            return ExitCode::FAILURE;
                        };
                        // Operator display names, indexed by operator id.
                        let max_op = outcome.op_stats.iter().map(|s| s.op).max().unwrap_or(0);
                        let mut op_names = vec![String::new(); max_op as usize + 1];
                        for s in &outcome.op_stats {
                            op_names[s.op as usize] = format!("{} ({})", s.name, s.kind);
                        }
                        let selected: Vec<_> = trees
                            .iter()
                            .filter(|t| step_filter.is_none_or(|s| s == t.step))
                            .cloned()
                            .collect();
                        if let Some(s) = step_filter {
                            if selected.is_empty() {
                                eprintln!(
                                    "error: no step {s} in this run ({} steps traced)",
                                    trees.len()
                                );
                                return ExitCode::FAILURE;
                            }
                        }
                        if let Some(path) = &report.dot {
                            // The span trees have no graph rendering of
                            // their own; the overlay carries the run's
                            // observed counts on the plan that ran.
                            let graph = match mitos::core::planned_graph(&func, &engine_cfg) {
                                Ok(g) => g,
                                Err(e) => {
                                    eprintln!("error: {e}");
                                    return ExitCode::FAILURE;
                                }
                            };
                            let dot = mitos::core::to_dot(
                                &graph,
                                &mitos::core::DotOverlay {
                                    metrics: outcome.obs.as_ref().map(|o| &o.metrics),
                                    ..Default::default()
                                },
                            );
                            if let Err(code) = write_dot(path, dot, "metrics overlay") {
                                return code;
                            }
                        }
                        if report.json {
                            println!("{}", trees_json(&selected, &op_names));
                            return ExitCode::SUCCESS;
                        }
                        for tree in &selected {
                            print!("{}", mitos::core::render_tree(tree, &op_names));
                        }
                        println!(
                            "{} step(s), {} span(s), {} orphan(s)",
                            trees.len(),
                            trees.iter().map(|t| t.spans.len()).sum::<usize>(),
                            trees.iter().map(|t| t.orphans.len()).sum::<usize>(),
                        );
                        return ExitCode::SUCCESS;
                    }
                    if profile_cmd {
                        let Some(profile) = outcome.profile() else {
                            eprintln!("error: run produced no trace to profile");
                            return ExitCode::FAILURE;
                        };
                        if report.json {
                            println!("{}", profile.to_json(&outcome.op_stats));
                        } else {
                            print!("{}", profile.render(&outcome.op_stats));
                        }
                        if let Some(path) = &profile_json {
                            if let Err(e) = std::fs::write(path, profile.to_json(&outcome.op_stats))
                            {
                                eprintln!("error: cannot write profile {path}: {e}");
                                return ExitCode::FAILURE;
                            }
                            eprintln!("wrote profile JSON {path}");
                        }
                        if let Some(path) = &report.dot {
                            // Annotate the plan that ran, so the overlay's
                            // operator ids match the metrics registry.
                            let graph = match mitos::core::planned_graph(&func, &engine_cfg) {
                                Ok(g) => g,
                                Err(e) => {
                                    eprintln!("error: {e}");
                                    return ExitCode::FAILURE;
                                }
                            };
                            let dot = mitos::core::to_dot(
                                &graph,
                                &mitos::core::DotOverlay {
                                    metrics: outcome.obs.as_ref().map(|o| &o.metrics),
                                    critical: Some(&profile.critical),
                                    ..Default::default()
                                },
                            );
                            if let Err(code) = write_dot(path, dot, "critical-path") {
                                return code;
                            }
                        }
                        return ExitCode::SUCCESS;
                    }
                    if explain_cmd {
                        return ExitCode::SUCCESS;
                    }
                    for (tag, values) in &outcome.outputs {
                        println!("== output {tag} ({} values) ==", values.len());
                        for v in values {
                            println!("{}", render_value(v));
                        }
                    }
                    if let Some(dir) = output_dir {
                        std::fs::create_dir_all(&dir).ok();
                        for name in fs.list() {
                            if input_names.contains(&name) {
                                continue;
                            }
                            let rows = fs.read(&name).expect("listed");
                            let text: String =
                                rows.iter().map(|v| render_value(v) + "\n").collect();
                            let path = format!("{dir}/{name}");
                            if let Err(e) = std::fs::write(&path, text) {
                                eprintln!("warning: cannot write {path}: {e}");
                            } else {
                                println!("wrote {path} ({} rows)", rows.len());
                            }
                        }
                    }
                    let clock = if engine == Engine::MitosThreads {
                        "measured"
                    } else {
                        "virtual"
                    };
                    eprintln!(
                        "[{engine}] {} machines, {:.2} {clock} ms, {:.0} ms wall",
                        machines,
                        outcome.millis(),
                        start.elapsed().as_secs_f64() * 1000.0
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    if e.stall.is_some() {
                        // Stall watchdog / deadlock diagnosis: exit 2,
                        // like the other usage-level contradictions.
                        return ExitCode::from(2);
                    }
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
