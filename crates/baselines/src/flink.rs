//! The Flink baseline: **native iterations** (superstep execution, no
//! pipelining, loop-invariant hoisting) and the **separate jobs** fallback
//! used when a program does not fit native iterations (Sec. 2's
//! restrictions: no nested loops, no if inside the loop, no file I/O inside
//! the loop).
//!
//! The native mode reuses the Mitos runtime machinery in non-pipelined
//! mode — the paper itself frames Flink native iterations as "Mitos without
//! pipelining", and Fig. 9 isolates exactly that — with an additional
//! per-superstep overhead constant modelling Flink 1.6's per-step cost
//! (the FLINK-3322 issue the paper cites for Fig. 6's small inputs).

use mitos_core::rt::EngineConfig;
use mitos_core::{run_sim, EngineResult, RuntimeError};
use mitos_fs::InMemoryFs;
use mitos_ir::nir::{FuncIr, Op, Terminator};
use mitos_ir::{BlockId, Dominators};
use mitos_sim::SimConfig;

use crate::spark::{run_driver_loop, DriverConfig, DriverResult};

/// Per-superstep synchronization overhead of Flink 1.6's native iterations
/// (models FLINK-3322 plus per-machine synchronization work; the paper's
/// Sec. 6.2 observes the per-step overhead growing with the cluster size).
pub fn flink_step_overhead_ns(machines: u16) -> u64 {
    2_000_000 + 250_000 * machines as u64
}

/// Flink job-submission constants for the separate-jobs fallback (client
/// submits a fresh job per iteration step; slightly cheaper per job than
/// Spark's scheduler but the same linear-in-machines shape).
pub fn flink_driver_config() -> DriverConfig {
    DriverConfig {
        job_launch_ns: 60_000_000,
        per_task_ns: 6_000_000,
        ..DriverConfig::default()
    }
}

/// How a program can run on Flink.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlinkMode {
    /// Fits the native-iteration shape: a single, non-nested loop with
    /// no control flow or file I/O inside.
    Native,
    /// Needs one dataflow job per iteration step.
    SeparateJobs,
}

/// Classifies a program against Flink's native-iteration restrictions.
pub fn flink_mode(func: &FuncIr) -> FlinkMode {
    let dom = Dominators::compute(func);
    // Find back edges (u -> h where h dominates u).
    let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
    for (u, block) in func.blocks.iter().enumerate() {
        for s in block.term.successors() {
            if dom.dominates(s, u as BlockId) {
                back_edges.push((u as BlockId, s));
            }
        }
    }
    if back_edges.is_empty() {
        return FlinkMode::Native; // no loop at all
    }
    let header = back_edges[0].1;
    if back_edges.iter().any(|&(_, h)| h != header) {
        return FlinkMode::SeparateJobs; // multiple loops / nested loops
    }
    // The natural loop body: blocks that reach a back-edge source without
    // passing the header, plus the header.
    let preds = func.predecessors();
    let mut body = vec![false; func.block_count()];
    body[header as usize] = true;
    let mut stack: Vec<BlockId> = back_edges.iter().map(|&(u, _)| u).collect();
    while let Some(b) = stack.pop() {
        if body[b as usize] {
            continue;
        }
        body[b as usize] = true;
        for &p in &preds[b as usize] {
            stack.push(p);
        }
    }
    let mut branches_in_loop = 0;
    for (b, block) in func.blocks.iter().enumerate() {
        if !body[b] {
            continue;
        }
        if matches!(block.term, Terminator::Branch { .. }) {
            branches_in_loop += 1;
        }
        for stmt in &block.stmts {
            if matches!(stmt.op, Op::ReadFile { .. } | Op::WriteFile { .. }) {
                return FlinkMode::SeparateJobs; // no file I/O inside
            }
        }
    }
    if branches_in_loop > 1 {
        return FlinkMode::SeparateJobs; // if inside the loop
    }
    FlinkMode::Native
}

/// Runs a program with Flink-style native iterations: a single job,
/// superstep barriers between iteration steps, hoisting enabled.
pub fn run_flink_native(
    func: &FuncIr,
    fs: &InMemoryFs,
    cluster: SimConfig,
) -> Result<EngineResult, RuntimeError> {
    run_flink_native_with(func, fs, cluster, mitos_core::CostModel::default())
}

/// [`run_flink_native`] with an explicit operator cost model (the figure
/// harnesses pass weighted costs).
pub fn run_flink_native_with(
    func: &FuncIr,
    fs: &InMemoryFs,
    cluster: SimConfig,
    cost: mitos_core::CostModel,
) -> Result<EngineResult, RuntimeError> {
    run_sim(
        func,
        fs,
        EngineConfig::new()
            .with_pipelining(false)
            .with_hoisting(true)
            .with_extra_step_overhead_ns(flink_step_overhead_ns(cluster.machines))
            .with_cost(cost),
        cluster,
    )
}

/// Runs a program as one Flink job per iteration step (the fallback the
/// paper uses when native iterations cannot express the program).
pub fn run_flink_separate_jobs(
    func: &FuncIr,
    fs: &InMemoryFs,
    cluster: SimConfig,
) -> Result<DriverResult, RuntimeError> {
    run_driver_loop(func, fs, flink_driver_config(), cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitos_ir::compile_str;

    #[test]
    fn straight_line_is_native() {
        let f = compile_str("b = bag(1); output(b, \"b\");").unwrap();
        assert_eq!(flink_mode(&f), FlinkMode::Native);
    }

    #[test]
    fn simple_loop_is_native() {
        let f = compile_str("i = 0; while (i < 3) { i = i + 1; } output(i, \"i\");").unwrap();
        assert_eq!(flink_mode(&f), FlinkMode::Native);
    }

    #[test]
    fn file_io_inside_loop_needs_separate_jobs() {
        let f = compile_str(
            "t = 0; for d = 1 to 3 { t = t + readFile(\"f\" + d).count(); } output(t, \"t\");",
        )
        .unwrap();
        assert_eq!(flink_mode(&f), FlinkMode::SeparateJobs);
    }

    #[test]
    fn if_inside_loop_needs_separate_jobs() {
        let f = compile_str(
            "i = 0; s = 0; while (i < 3) { if (i % 2 == 0) { s = s + 1; } i = i + 1; } output(s, \"s\");",
        )
        .unwrap();
        assert_eq!(flink_mode(&f), FlinkMode::SeparateJobs);
    }

    #[test]
    fn nested_loops_need_separate_jobs() {
        let f = compile_str(
            "i = 0; while (i < 2) { j = 0; while (j < 2) { j = j + 1; } i = i + 1; } output(i, \"i\");",
        )
        .unwrap();
        assert_eq!(flink_mode(&f), FlinkMode::SeparateJobs);
    }

    #[test]
    fn native_run_matches_reference() {
        let src = "s = 0; for i = 1 to 5 { s = s + i; } output(s, \"s\");";
        let func = compile_str(src).unwrap();
        let fs = InMemoryFs::new();
        let r = run_flink_native(&func, &fs, SimConfig::with_machines(3)).unwrap();
        assert_eq!(r.outputs["s"], vec![mitos_lang::Value::I64(15)]);
    }
}
