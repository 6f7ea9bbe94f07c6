//! The operator-level cost model, mapping logical work (elements processed,
//! expressions evaluated, hash operations, file IO) to virtual CPU
//! nanoseconds charged on the simulated cluster.
//!
//! The absolute values are calibrated to commodity 2010s hardware (the
//! paper's AMD Opteron testbed); the *shapes* of the evaluation figures are
//! insensitive to modest changes here, which `EXPERIMENTS.md` discusses.

use mitos_fs::IoCostModel;

/// Cost parameters for dataflow execution.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Base CPU ns per element handled by any operator.
    pub per_element_ns: u64,
    /// CPU ns per expression node, per evaluation.
    pub per_expr_node_ns: u64,
    /// CPU ns per hash-table insert (join build, reduceByKey, distinct).
    pub per_insert_ns: u64,
    /// CPU ns per hash-table probe.
    pub per_probe_ns: u64,
    /// CPU ns to serialize/deserialize one element for the network.
    pub per_ser_ns: u64,
    /// File system costs.
    pub io: IoCostModel,
    /// Elements per network data batch.
    pub batch_elems: usize,
    /// How many real-world records one simulated element stands for. The
    /// figure harnesses use this to model the paper's data volumes (tens
    /// of MB per loop step) without materializing millions of values: all
    /// per-element CPU, IO, and network costs scale by this factor.
    pub record_weight: u64,
    /// How many bytes a real record occupies relative to the simulated
    /// element's in-memory estimate (log lines carry URLs and timestamps,
    /// not bare integers). Scales IO and network volume only.
    pub bytes_per_record_scale: u64,
    /// CPU ns per indexed path lookup: one input-bag selection (the
    /// Sec. 5.2.3 "latest occurrence of the producer's block"), answered by
    /// [`crate::path::ExecutionPath::last_occurrence_before`] in O(1) on a
    /// growing path. Control-plane work is per decision, not per data
    /// record, so `record_weight` does not apply. The field keeps its older
    /// name because the wall-clock benchmark (`perfbench/`) reads it.
    pub per_scan_block_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_element_ns: 120,
            per_expr_node_ns: 15,
            per_insert_ns: 90,
            per_probe_ns: 60,
            per_ser_ns: 50,
            io: IoCostModel::default(),
            batch_elems: 1024,
            record_weight: 1,
            bytes_per_record_scale: 1,
            per_scan_block_ns: 6,
        }
    }
}

impl CostModel {
    /// Cost of evaluating an expression with `nodes` nodes over `n`
    /// elements.
    pub fn eval_cost(&self, nodes: usize, n: usize) -> u64 {
        (self.per_element_ns + self.per_expr_node_ns * nodes as u64) * n as u64 * self.record_weight
    }

    /// Base handling cost for `n` elements.
    pub fn elem_cost(&self, n: usize) -> u64 {
        self.per_element_ns * n as u64 * self.record_weight
    }

    /// Expression share of one stage of a fused operator chain over `n`
    /// elements. The per-element traversal base is charged once per chain
    /// pass (that is the compute side of fusion's win); each stage then
    /// pays only for its own lambda.
    pub fn fused_expr_cost(&self, nodes: usize, n: usize) -> u64 {
        self.per_expr_node_ns * nodes as u64 * n as u64 * self.record_weight
    }

    /// Hash-insert cost for `n` elements.
    pub fn insert_cost(&self, n: usize) -> u64 {
        self.per_insert_ns * n as u64 * self.record_weight
    }

    /// Hash-probe cost for `n` elements.
    pub fn probe_cost(&self, n: usize) -> u64 {
        self.per_probe_ns * n as u64 * self.record_weight
    }

    /// Serialization cost for `n` elements.
    pub fn ser_cost(&self, n: usize) -> u64 {
        self.per_ser_ns * n as u64 * self.record_weight
    }

    /// Disk access cost (open + transfer) for a weighted payload.
    pub fn io_cost(&self, bytes: u64) -> u64 {
        self.io
            .access_cost_ns(bytes * self.record_weight * self.bytes_per_record_scale)
    }

    /// Disk streaming cost (no open) for a weighted payload.
    pub fn io_stream_cost(&self, bytes: u64) -> u64 {
        (bytes * self.record_weight * self.bytes_per_record_scale * 1000)
            / self.io.bytes_per_us.max(1)
    }

    /// Wire size of a weighted payload.
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        bytes * self.record_weight * self.bytes_per_record_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_cost_scales_with_elements_and_nodes() {
        let m = CostModel::default();
        assert_eq!(m.eval_cost(0, 10), 10 * m.per_element_ns);
        assert!(m.eval_cost(5, 10) > m.eval_cost(1, 10));
        assert_eq!(m.eval_cost(3, 0), 0);
    }

    #[test]
    fn record_weight_scales_everything() {
        let mut m = CostModel::default();
        let base = (m.eval_cost(2, 10), m.insert_cost(5), m.io_cost(100));
        m.record_weight = 10;
        assert_eq!(m.eval_cost(2, 10), base.0 * 10);
        assert_eq!(m.insert_cost(5), base.1 * 10);
        assert!(m.io_cost(100) > base.2);
        assert_eq!(m.wire_bytes(7), 70);
    }
}
