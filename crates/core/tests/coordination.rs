//! Cross-iteration coordination tests: loop-carried state, phis, and
//! conditional edges, checked on multi-machine simulated clusters —
//! including under injected faults (`fault_*` tests): the Sec. 5.2.3
//! input-bag selection rules and the Sec. 5.2.4 conditional-output
//! discard must survive duplicated and reordered condition-decision
//! broadcasts bit-identically.

use mitos_core::rt::{EngineConfig, FaultPlan};
use mitos_core::{run_sim, run_threads, EngineResult};
use mitos_fs::InMemoryFs;
use mitos_lang::Value;
use mitos_sim::SimConfig;

fn run(src: &str, machines: u16) -> EngineResult {
    let fs = InMemoryFs::new();
    for d in 1..=3 {
        fs.put(format!("log{d}"), vec![Value::I64(1), Value::I64(2)]);
    }
    let func = mitos_ir::compile_str(src).unwrap();
    run_sim(
        &func,
        &fs,
        EngineConfig::default(),
        SimConfig::with_machines(machines),
    )
    .unwrap()
}

#[test]
fn loop_carried_alias_forwards_previous_iteration() {
    let src = r#"
        yesterday = empty;
        day = 1;
        do {
            counts = readFile("log" + day).map(x => (x, day * 10));
            output(yesterday, "y");
            yesterday = counts;
            day = day + 1;
        } while (day <= 3);
    "#;
    for machines in [1, 2, 4] {
        let r = run(src, machines);
        // Day 1 contributes nothing; days 2 and 3 output the previous
        // day's counts.
        let mut expected: Vec<Value> = vec![
            Value::tuple([Value::I64(1), Value::I64(10)]),
            Value::tuple([Value::I64(2), Value::I64(10)]),
            Value::tuple([Value::I64(1), Value::I64(20)]),
            Value::tuple([Value::I64(2), Value::I64(20)]),
        ];
        expected.sort_unstable();
        assert_eq!(r.outputs["y"], expected, "machines={machines}");
    }
}

#[test]
fn join_inside_branch_matches_previous_day() {
    let src = r#"
        yesterday = empty;
        day = 1;
        do {
            counts = readFile("log" + day).map(x => (x, day * 10));
            if (day != 1) {
                j = counts join yesterday;
                output(j, "joined");
            }
            yesterday = counts;
            day = day + 1;
        } while (day <= 3);
    "#;
    for machines in [1, 3] {
        let r = run(src, machines);
        let j = &r.outputs["joined"];
        assert_eq!(j.len(), 4, "machines={machines}: {j:?}");
        for v in j {
            let t = v.as_tuple().unwrap();
            assert_eq!(
                t[1].as_i64().unwrap() - t[2].as_i64().unwrap(),
                10,
                "today minus yesterday, machines={machines}: {v:?}"
            );
        }
    }
}

#[test]
fn distributed_path_matches_reference_interpreter() {
    let src = r#"
        s = 0;
        for i = 1 to 5 {
            if (i % 2 == 0) { s = s + i; } else { s = s - i; }
        }
        output(s, "s");
    "#;
    let func = mitos_ir::compile_str(src).unwrap();
    let ref_fs = InMemoryFs::new();
    let reference = mitos_ir::interpret(&func, &ref_fs, mitos_ir::InterpConfig::default()).unwrap();
    let fs = InMemoryFs::new();
    let r = run_sim(
        &func,
        &fs,
        EngineConfig::default(),
        SimConfig::with_machines(5),
    )
    .unwrap();
    assert_eq!(r.path, reference.path);
    assert_eq!(r.outputs, reference.canonical_outputs());
}

#[test]
fn untaken_branches_do_not_ship_bags() {
    // `big` is consumed only inside the if-branch. When the branch is never
    // taken, the conditional edges (Sec. 5.2.4) must drop the bag at the
    // producer instead of shipping it.
    let program = |threshold: i64| {
        format!(
            r#"
            hits = 0;
            for i = 1 to 6 {{
                big = readFile("blob").map(x => (x, i));
                if (i > {threshold}) {{
                    joined = big join big;
                    hits = hits + joined.count();
                }}
            }}
            output(hits, "hits");
            "#
        )
    };
    let run = |threshold: i64| {
        let fs = InMemoryFs::new();
        fs.put("blob", (0..2000).map(Value::I64).collect::<Vec<_>>());
        let func = mitos_ir::compile_str(&program(threshold)).unwrap();
        run_sim(
            &func,
            &fs,
            EngineConfig::default(),
            SimConfig::with_machines(4),
        )
        .unwrap()
    };
    let always = run(0); // branch taken every iteration
    let never = run(100); // branch never taken
    assert_eq!(never.outputs["hits"], vec![Value::I64(0)]);
    assert!(
        never.sim.remote_bytes * 4 < always.sim.remote_bytes,
        "dropping unneeded bags must save the shuffle traffic: \
         never={} always={}",
        never.sim.remote_bytes,
        always.sim.remote_bytes
    );
}

#[test]
fn pipelined_and_barrier_paths_are_identical() {
    let src = r#"
        s = 0;
        for i = 1 to 8 {
            if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
        }
        output(s, "s");
    "#;
    let func = mitos_ir::compile_str(src).unwrap();
    let run = |pipelined: bool| {
        let fs = InMemoryFs::new();
        run_sim(
            &func,
            &fs,
            EngineConfig::new().with_pipelining(pipelined),
            SimConfig::with_machines(3),
        )
        .unwrap()
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a.path, b.path);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.decisions, b.decisions, "same control-flow decisions");
}

/// A nested-loop program that leans on both coordination mechanisms under
/// test: the inner loop's join picks its build-side input bag via the
/// Sec. 5.2.3 prefix rules (the outer bag `x` is invariant across inner
/// iterations), and the conditional `output` inside the `if` exercises the
/// Sec. 5.2.4 conditional-output discard on every untaken iteration.
const NESTED_COND_SRC: &str = r#"
    total = 0;
    i = 0;
    while (i < 3) {
        x = bag((1, i), (2, i + 10));
        j = 0;
        while (j < 2) {
            y = bag((1, j), (2, j));
            z = x join y;
            if ((i + j) % 2 == 0) {
                output(z, "taken");
            }
            total = total + z.count();
            j = j + 1;
        }
        i = i + 1;
    }
    output(total, "t");
"#;

/// Runs [`NESTED_COND_SRC`] on the simulator with `plan` installed and
/// metrics collection on.
fn run_nested_with_plan(plan: FaultPlan, machines: u16) -> EngineResult {
    let func = mitos_ir::compile_str(NESTED_COND_SRC).unwrap();
    let fs = InMemoryFs::new();
    run_sim(
        &func,
        &fs,
        EngineConfig::new()
            .with_obs(mitos_core::ObsLevel::Metrics)
            .with_faults(plan),
        SimConfig::with_machines(machines),
    )
    .unwrap()
}

/// Sec. 5.2.3 + 5.2.4 under **duplicated** condition-decision broadcasts:
/// receiver-side dedup must make input-bag selection and conditional-output
/// discard land on exactly the fault-free result.
#[test]
fn fault_duplicated_decisions_preserve_selection_and_discard() {
    let clean = run_nested_with_plan(FaultPlan::default(), 3);
    let dup = run_nested_with_plan(FaultPlan::new().with_duplicate(0.5).with_seed(11), 3);
    assert!(
        dup.sim.faults_duplicated > 0,
        "the plan must actually duplicate: {:?}",
        dup.sim
    );
    assert_eq!(dup.outputs, clean.outputs, "outputs under duplication");
    assert_eq!(dup.path, clean.path, "execution path under duplication");
    let cond_dropped = |r: &EngineResult| r.obs.as_ref().unwrap().metrics.total_cond_dropped();
    assert!(
        cond_dropped(&clean) > 0,
        "the program must exercise conditional-output discard"
    );
    assert_eq!(
        cond_dropped(&dup),
        cond_dropped(&clean),
        "5.2.4 discards exactly the same bags under duplicated decisions"
    );
}

/// Sec. 5.2.3 + 5.2.4 under **reordered** condition-decision broadcasts:
/// the path-prefix coordination is order-tolerant by design, so late
/// decisions must not change which input bags are selected or which
/// conditional outputs are discarded.
#[test]
fn fault_reordered_decisions_preserve_selection_and_discard() {
    let clean = run_nested_with_plan(FaultPlan::default(), 3);
    let reord = run_nested_with_plan(
        FaultPlan::new()
            .with_reorder(0.6)
            .with_reorder_delay_ns(800_000)
            .with_seed(23),
        3,
    );
    assert!(
        reord.sim.faults_reordered > 0,
        "the plan must actually reorder: {:?}",
        reord.sim
    );
    assert_eq!(reord.outputs, clean.outputs, "outputs under reordering");
    assert_eq!(reord.path, clean.path, "execution path under reordering");
    let cond_dropped = |r: &EngineResult| r.obs.as_ref().unwrap().metrics.total_cond_dropped();
    assert_eq!(
        cond_dropped(&reord),
        cond_dropped(&clean),
        "5.2.4 discards exactly the same bags under reordered decisions"
    );
}

/// Longer nested loops under chaos: a dropped/duplicated/reordered run
/// must produce outputs, an execution path, and causal span-tree *shapes*
/// bit-identical to the fault-free run's — retransmissions and late
/// decisions leave no trace-visible seam in the coordination.
#[test]
fn fault_chaos_on_scaled_nested_loops_preserves_results_and_tree_shapes() {
    // Scale the nested loops up so the path grows well past the 3x2
    // original and inner-loop iterations recur under every fault kind.
    let src = NESTED_COND_SRC
        .replace("i < 3", "i < 7")
        .replace("j < 2", "j < 3");
    let func = mitos_ir::compile_str(&src).unwrap();
    let run_traced = |plan: FaultPlan| {
        let fs = InMemoryFs::new();
        run_sim(
            &func,
            &fs,
            EngineConfig::new()
                .with_obs(mitos_core::ObsLevel::Trace)
                .with_faults(plan),
            SimConfig::with_machines(3),
        )
        .unwrap()
    };
    let clean = run_traced(FaultPlan::default());
    let faulted = run_traced(
        FaultPlan::new()
            .with_drop(0.15)
            .with_duplicate(0.3)
            .with_reorder(0.4)
            .with_reorder_delay_ns(600_000)
            .with_seed(41),
    );
    assert!(
        faulted.sim.faults_dropped > 0
            && faulted.sim.faults_duplicated > 0
            && faulted.sim.faults_reordered > 0,
        "the plan must inject every fault kind: {:?}",
        faulted.sim
    );
    assert_eq!(faulted.outputs, clean.outputs, "outputs under chaos");
    assert_eq!(faulted.path, clean.path, "execution path under chaos");

    let clean_trees = mitos_core::obs::build_step_trees(clean.obs.as_ref().unwrap());
    let faulted_trees = mitos_core::obs::build_step_trees(faulted.obs.as_ref().unwrap());
    assert_eq!(faulted_trees.len(), clean_trees.len(), "step-tree count");
    for (ct, ft) in clean_trees.iter().zip(&faulted_trees) {
        assert!(ct.orphans.is_empty(), "clean step {} orphans", ct.step);
        assert!(ft.orphans.is_empty(), "faulted step {} orphans", ft.step);
        assert_eq!(ft.shape(), ct.shape(), "tree shape at step {}", ft.step);
    }
}

/// The same invariants on the thread driver, with drops added so the
/// at-least-once relay has to retransmit: results must still equal the
/// fault-free run's.
#[test]
fn fault_chaos_on_threads_matches_fault_free() {
    let func = mitos_ir::compile_str(NESTED_COND_SRC).unwrap();
    let clean_fs = InMemoryFs::new();
    let clean = run_threads(&func, &clean_fs, EngineConfig::default(), 3).unwrap();
    let plan = FaultPlan::new()
        .with_drop(0.15)
        .with_duplicate(0.2)
        .with_reorder(0.3)
        .with_seed(7);
    for round in 0..3 {
        let fs = InMemoryFs::new();
        let r = run_threads(&func, &fs, EngineConfig::new().with_faults(plan.clone()), 3)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(r.outputs, clean.outputs, "round {round}");
        assert_eq!(r.path, clean.path, "round {round}");
    }
}

#[test]
fn combiner_pass_is_equivalent_and_cuts_shuffle_traffic() {
    // A skewed workload: many elements, few keys — the regime where
    // map-side combining shines.
    let src = r#"
        total = 0;
        for d = 1 to 4 {
            counts = readFile("log").map(x => (x % 4, 1)).reduceByKey((a, b) => a + b);
            total = total + counts.map(c => c[1]).sum();
        }
        output(total, "t");
    "#;
    let setup = |fs: &InMemoryFs| {
        fs.put("log", (0..4000).map(Value::I64).collect::<Vec<_>>());
    };
    let plain = mitos_ir::compile_str(src).unwrap();
    let combined = mitos_ir::passes::insert_combiners(&plain);
    mitos_ir::validate(&combined).unwrap();

    let run = |func: &mitos_ir::FuncIr| {
        let fs = InMemoryFs::new();
        setup(&fs);
        run_sim(
            func,
            &fs,
            EngineConfig::default(),
            SimConfig::with_machines(4),
        )
        .unwrap()
    };
    let a = run(&plain);
    let b = run(&combined);
    assert_eq!(a.outputs, b.outputs, "combiners must not change results");
    assert!(
        b.sim.remote_bytes * 2 < a.sim.remote_bytes,
        "map-side combine must cut shuffle traffic: plain={} combined={}",
        a.sim.remote_bytes,
        b.sim.remote_bytes
    );
}
