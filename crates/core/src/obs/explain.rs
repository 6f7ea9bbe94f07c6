//! `EXPLAIN`-style per-operator text report.
//!
//! Extends the basic [`crate::engine::OpStats`] table with the
//! observability counters when a run recorded them: bags opened and
//! finalized (Sec. 5.2.2), conditional-output bags sent vs. discarded and
//! the elements dropped with them (Sec. 5.2.4), which input-selection
//! rules fired (Sec. 5.2.3), end-of-bag punctuations, and the
//! open→decision latency on conditional edges.

use super::critical::bag_intervals;
use super::fmt_ns;
use super::metrics::OpMetrics;
use crate::engine::{EngineResult, OpStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn rules_cell(m: &OpMetrics) -> String {
    let mut parts = Vec::new();
    if m.sel_same_block > 0 {
        parts.push(format!("same-block:{}", m.sel_same_block));
    }
    if m.sel_latest > 0 {
        parts.push(format!("latest:{}", m.sel_latest));
    }
    if m.sel_phi > 0 {
        parts.push(format!("phi:{}", m.sel_phi));
    }
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(" ")
    }
}

/// Renders the per-operator report for a finished run. With observability
/// enabled (`--explain` / `--trace`, or [`crate::rt::EngineConfig::obs`]
/// at [`super::ObsLevel::Metrics`] or above) the table carries the full
/// counter set; otherwise it falls back to the always-collected
/// [`crate::engine::OpStats`] columns. Rows are ordered by total busy
/// time (traced runs; with a per-machine max/mean skew column) or by
/// emitted elements (metrics-only runs), largest first.
pub fn explain_report(result: &EngineResult) -> String {
    explain_parts(
        &result.op_stats,
        result.obs.as_ref(),
        result.path.len(),
        result.hoist_hits,
        result.decisions,
        result.millis(),
    )
}

/// [`explain_report`] over its constituent pieces, for callers (like the
/// `mitos` facade) that hold the run data in another shape.
pub fn explain_parts(
    op_stats: &[crate::engine::OpStats],
    obs: Option<&super::ObsReport>,
    path_len: usize,
    hoist_hits: u64,
    decisions: u64,
    millis: f64,
) -> String {
    let mut out = String::new();
    let obs = obs.filter(|o| o.level != super::ObsLevel::Off);
    match obs {
        Some(obs) => {
            // Per-operator busy time and machine skew are derivable only
            // from the traced bag intervals; at Metrics level the columns
            // render as "-" and the emitted count orders the rows instead.
            let tracing = obs.level == super::ObsLevel::Trace;
            let mut busy_per_op: BTreeMap<u32, BTreeMap<u16, u64>> = BTreeMap::new();
            if tracing {
                for (&(machine, op, _), &(start, end)) in &bag_intervals(&obs.events) {
                    *busy_per_op
                        .entry(op)
                        .or_default()
                        .entry(machine)
                        .or_default() += end - start;
                }
            }
            let total_busy =
                |op: u32| -> u64 { busy_per_op.get(&op).map_or(0, |m| m.values().sum()) };
            let mut order: Vec<&OpStats> = op_stats.iter().collect();
            if tracing {
                order.sort_by(|a, b| {
                    total_busy(b.op)
                        .cmp(&total_busy(a.op))
                        .then(a.op.cmp(&b.op))
                });
            } else {
                order.sort_by(|a, b| b.emitted.cmp(&a.emitted).then(a.op.cmp(&b.op)));
            }
            let _ = writeln!(
                out,
                "{:<24} {:<10} {:>4} {:>10} {:>10} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>6} {:>14}  input rules",
                "operator", "kind", "inst", "emitted", "busy", "skew", "hoists", "opened",
                "closed", "c.sent", "c.drop", "discard", "punct",
                "lat mean/max",
            );
            let empty = OpMetrics::default();
            for s in order {
                let m = obs.metrics.ops.get(s.op as usize).unwrap_or(&empty);
                let lat = if m.decision_latency.count == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{}/{}",
                        fmt_ns(m.decision_latency.mean_ns()),
                        fmt_ns(m.decision_latency.max_ns)
                    )
                };
                // Skew = max over mean of per-machine busy time (1.00 =
                // perfectly balanced); meaningful only when several
                // machines hosted the operator.
                let (busy_cell, skew_cell) = match busy_per_op.get(&s.op) {
                    Some(per_machine) if !per_machine.is_empty() => {
                        let total: u64 = per_machine.values().sum();
                        let max = per_machine.values().copied().max().unwrap_or(0);
                        let mean = total as f64 / per_machine.len() as f64;
                        let skew = if total == 0 { 0.0 } else { max as f64 / mean };
                        (fmt_ns(total), format!("{skew:.2}"))
                    }
                    _ => ("-".to_string(), "-".to_string()),
                };
                let _ = writeln!(
                    out,
                    "{:<24} {:<10} {:>4} {:>10} {:>10} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>6} {:>14}  {}",
                    s.name,
                    s.kind,
                    s.instances,
                    s.emitted,
                    busy_cell,
                    skew_cell,
                    s.hoist_hits,
                    m.bags_opened,
                    m.bags_finalized,
                    m.cond_sent,
                    m.cond_dropped,
                    m.elements_discarded,
                    m.punctuations,
                    lat,
                    rules_cell(m)
                );
            }
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "path: {} blocks; decisions broadcast: {}; path appends: {}; \
                 steps released: {}",
                path_len,
                obs.metrics.decisions_broadcast,
                obs.metrics.path_appends,
                obs.metrics.steps_released,
            );
            let _ = writeln!(
                out,
                "bags: {} opened, {} conditional dropped; elements: {} emitted, \
                 {} discarded, {} written to sinks",
                obs.metrics.ops.iter().map(|m| m.bags_opened).sum::<u64>(),
                obs.metrics.total_cond_dropped(),
                obs.metrics.total_emitted(),
                obs.metrics
                    .ops
                    .iter()
                    .map(|m| m.elements_discarded)
                    .sum::<u64>(),
                obs.metrics.total_sink_written(),
            );
            // Fault-injection runs only: keep fault-free explain output
            // byte-stable.
            if obs.metrics.retransmits > 0 || obs.metrics.dup_msgs_dropped > 0 {
                let _ = writeln!(
                    out,
                    "recovery: {} retransmission(s) sent, {} duplicate delivery(ies) dropped",
                    obs.metrics.retransmits, obs.metrics.dup_msgs_dropped,
                );
            }
            if obs.level == super::ObsLevel::Trace {
                let _ = writeln!(out, "events recorded: {}", obs.events.len());
            }
        }
        None => {
            let _ = writeln!(
                out,
                "{:<24} {:<10} {:>4} {:>12} {:>8}",
                "operator", "kind", "inst", "emitted", "hoists"
            );
            for s in op_stats {
                let _ = writeln!(
                    out,
                    "{:<24} {:<10} {:>4} {:>12} {:>8}",
                    s.name, s.kind, s.instances, s.emitted, s.hoist_hits
                );
            }
            let _ = writeln!(
                out,
                "\n(run with observability enabled — `--explain`/`--trace` — \
                 for bag lifecycle and conditional-send counters)"
            );
        }
    }
    let _ = writeln!(
        out,
        "total: {hoist_hits} hoist hits, {decisions} decisions, {millis:.3} ms \
         (virtual time under the simulator, wall-clock under threads)",
    );
    out
}
