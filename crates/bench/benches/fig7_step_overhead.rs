//! **Figure 7**: per-iteration-step overhead (log-log vs machine count),
//! isolated by a loop with minimal data processing. The paper reports the
//! job-per-step systems (Spark, Flink separate jobs) ~two orders of
//! magnitude above the native-iteration systems (Mitos, Flink, TensorFlow,
//! Naiad), with the job-launch overhead growing linearly in machines.

use mitos_baselines::{run_naiad_loop, run_tf_loop, NaiadConfig, TfConfig};
use mitos_bench::{full_scale, trivial_loop_program, BenchReport, System, Table};
use mitos_core::{build_step_trees, EngineConfig, ObsLevel, PhaseHistograms};
use mitos_fs::InMemoryFs;
use mitos_sim::SimConfig;

fn main() {
    let steps: u32 = if full_scale() { 200 } else { 50 };
    let func = mitos_ir::compile_str(&trivial_loop_program(steps)).unwrap();

    println!("\n=== Figure 7: per-step overhead microbenchmark ===");
    println!("{steps}-step loop, minimal data processing; time PER STEP (ms)\n");
    let mut table = Table::new(&[
        "machines",
        "Spark",
        "Flink (sep. jobs)",
        "Flink (native)",
        "Mitos",
        "Naiad",
        "TensorFlow",
        "Mitos peak res (B)",
    ]);
    let mut report = BenchReport::new("fig7", "per-step overhead microbenchmark");
    let mut max_spark = 0.0f64;
    let mut max_peak_resident = 0u64;
    for machines in [1u16, 3, 5, 9, 13, 19, 25] {
        let cluster = SimConfig::with_machines(machines);
        let per_step = |total_ms: f64| total_ms / steps as f64;
        let run = |s: System| {
            let fs = InMemoryFs::new();
            per_step(s.run(&func, &fs, cluster))
        };
        let naiad = per_step(
            run_naiad_loop(
                NaiadConfig {
                    steps,
                    ..NaiadConfig::default()
                },
                cluster,
            )
            .end_time as f64
                / 1e6,
        );
        let (tf_report, _) = run_tf_loop(
            TfConfig {
                steps,
                ..TfConfig::default()
            },
            cluster,
        );
        let tf = per_step(tf_report.end_time as f64 / 1e6);
        let spark = run(System::Spark);
        let flink_sep = run(System::FlinkSeparateJobs);
        let flink = run(System::FlinkNative);
        // Run Mitos directly so the sweep can also record the state
        // registry's peak residency at each cluster size — the control
        // plane should hold O(1) bags per machine regardless of scale.
        let fs = InMemoryFs::new();
        let mitos_result =
            mitos_core::run_sim(&func, &fs, EngineConfig::new(), cluster).expect("mitos run");
        let mitos = per_step(mitos_result.sim.end_time as f64 / 1e6);
        let peak_resident = mitos_result.mem.peak_resident();
        max_peak_resident = max_peak_resident.max(peak_resident);
        let cell = |ms: f64| format!("{ms:.2}");
        table.row(vec![
            machines.to_string(),
            cell(spark),
            cell(flink_sep),
            cell(flink),
            cell(mitos),
            cell(naiad),
            cell(tf),
            peak_resident.to_string(),
        ]);
        report.row(vec![
            ("machines", machines.into()),
            ("spark_step_ms", spark.into()),
            ("flink_sep_step_ms", flink_sep.into()),
            ("flink_step_ms", flink.into()),
            ("mitos_step_ms", mitos.into()),
            ("naiad_step_ms", naiad.into()),
            ("tf_step_ms", tf.into()),
            ("mitos_peak_resident_bytes", peak_resident.into()),
            // Wire volume of the whole loop: the control plane's batches
            // are tiny, so this tracks per-message framing, not payload —
            // the overhead the columnar encoding shrinks.
            ("mitos_wire_bytes", mitos_result.flow.bytes_on_wire().into()),
        ]);
        max_spark = max_spark.max(spark / mitos);
    }
    table.print();
    report.factor("spark_vs_mitos_step_max", max_spark);
    if max_peak_resident > 0 {
        // Deterministic under the simulator; omitted entirely when
        // MITOS_MEM_OFF disabled the registry for an A/B run.
        report.factor("mitos_peak_resident_bytes_max", max_peak_resident as f64);
    }

    // Where does the per-step overhead go? One traced Mitos run at a
    // mid-sweep cluster size, decomposed into the control-plane phases
    // (see `mitos_core::obs::histo`) and recorded as extra rows.
    let cluster = SimConfig::with_machines(5);
    let traced_cfg = EngineConfig::new().with_obs(ObsLevel::Trace);
    let fs = InMemoryFs::new();
    let traced = mitos_core::run_sim(&func, &fs, traced_cfg.clone(), cluster).expect("traced run");
    let histos = PhaseHistograms::from_trees(&build_step_trees(traced.obs.as_ref().unwrap()));
    println!("\nMitos control-plane phase latencies (5 machines, ns):");
    for (phase, h) in histos.phases() {
        println!(
            "  {phase:<13} p50={:>8} p99={:>8} max={:>8} (n={})",
            h.quantile(0.5),
            h.quantile(0.99),
            h.max_ns,
            h.count
        );
        report.row(vec![
            ("phase", phase.into()),
            ("p50_ns", h.quantile(0.5).into()),
            ("p99_ns", h.quantile(0.99).into()),
            ("max_ns", h.max_ns.into()),
            ("count", h.count.into()),
        ]);
    }
    // Flatness in loop length: every step selects a loop-invariant input
    // (the `for` bound, produced once before the loop). The indexed
    // execution path answers that selection in O(1), so per-step overhead
    // must not grow with the loop's length. Always run at 200 and 2000 steps
    // regardless of MITOS_BENCH_FULL; fully deterministic under the
    // simulator.
    let flat_cluster = SimConfig::with_machines(25);
    let virt_step_ms = |steps: u32| -> f64 {
        let func = mitos_ir::compile_str(&trivial_loop_program(steps)).unwrap();
        let fs = InMemoryFs::new();
        let r = mitos_core::run_sim(&func, &fs, EngineConfig::new(), flat_cluster)
            .expect("flatness run");
        r.sim.end_time as f64 / 1e6 / f64::from(steps)
    };
    println!("\nPer-step overhead vs loop length (25 machines):");
    let mut flat = Vec::new();
    for steps in [200u32, 2000] {
        let ms = virt_step_ms(steps);
        println!("  {steps:>5} steps: {ms:.4} ms/step");
        report.row(vec![
            ("flatness", "loop_length".into()),
            ("machines", 25u16.into()),
            ("steps", steps.into()),
            ("mitos_step_ms", ms.into()),
        ]);
        flat.push(ms);
    }
    let growth = flat[1] / flat[0];
    assert!(
        growth <= 1.05,
        "per-step overhead must stay flat in loop length: 2000/200 steps = {growth}"
    );
    report.factor("step_growth_2000_vs_200", growth);
    report.provenance(cluster.seed, traced_cfg.digest());
    report.write();
    println!("\npaper: job-per-step systems grow linearly with machines and sit");
    println!("~100x above the native-iteration systems, which stay flat.");
}
