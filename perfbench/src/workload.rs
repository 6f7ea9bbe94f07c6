//! The benchmark's three workloads: seeded input generators and the
//! programs that run over them.
//!
//! Every input is derived from the run's `--seed`; the program text never
//! depends on it, so compile and plan work is the same on every seed and
//! only the data (and, for `branchy_control`, the path the data steers)
//! changes. `step_loop` reads no input, so it is the same on every seed.

use mitos::fs::InMemoryFs;
use mitos::lang::Value;
use mitos::workloads::{
    generate_page_types, generate_visit_logs, visit_count_program, VisitCountSpec,
};

/// Names accepted by `--workload`, in the order the benchmark lists them.
pub const NAMES: [&str; 3] = ["visit_count", "step_loop", "branchy_control"];

/// Visit Count: days (log files), visits per day, distinct pages.
const VC_DAYS: u32 = 16;
const VC_VISITS_PER_DAY: usize = 1_200;
const VC_PAGES: u64 = 1_000;
const VC_PAGE_TYPES: u32 = 8;

/// Fig. 7 per-step-overhead loop length.
const STEP_LOOP_STEPS: u32 = 1_500;

/// `branchy_control`: outer steps, and the size of its join's build side.
const BRANCHY_STEPS: u32 = 600;
const BRANCHY_KEYS: i64 = 64;

/// One workload instance: the program text and its generated inputs.
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Program source.
    pub src: String,
    /// Input files only; jobs write their outputs next to them.
    pub fs: InMemoryFs,
    /// Values the workload's bags carry, in input order — the data the
    /// per-layer pass feeds the codec, file-system and kernel probes.
    pub sample: Vec<Value>,
}

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let fs = InMemoryFs::new();
    let (name, src, sample) = match name {
        "visit_count" => {
            let spec = VisitCountSpec {
                days: VC_DAYS,
                visits_per_day: VC_VISITS_PER_DAY,
                pages: VC_PAGES,
                seed,
            };
            generate_visit_logs(&fs, &spec);
            generate_page_types(&fs, VC_PAGES, VC_PAGE_TYPES, mix(seed, 1));
            let logs = (1..=VC_DAYS)
                .flat_map(|d| fs.read(&format!("pageVisitLog{d}")).expect("generated"))
                .collect();
            ("visit_count", visit_count_program(VC_DAYS, true), logs)
        }
        "step_loop" => {
            // The program reads no files, so the seed does not reach it;
            // its own bags, `(1, i)`, stand in for input data.
            let sample = (1..=STEP_LOOP_STEPS as i64)
                .map(|i| Value::tuple([Value::I64(1), Value::I64(i)]))
                .collect();
            let src = mitos_bench::trivial_loop_program(STEP_LOOP_STEPS);
            ("step_loop", src, sample)
        }
        "branchy_control" => {
            generate_branchy(&fs, seed);
            let probes = branchy_probes(&fs);
            ("branchy_control", branchy_program(BRANCHY_STEPS), probes)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        src,
        fs,
        sample,
    })
}

/// An outer loop whose every step reads a one-element control file `c`.
/// Even `c` takes an `if/else`; odd `c` runs an inner loop of `c % 5`
/// trips, each joining a small probe bag against the loop-invariant
/// `keys`. Paths are irregular, conditional edges both send and discard,
/// and path suffixes rarely repeat, so the template cache mostly misses.
pub fn branchy_program(steps: u32) -> String {
    format!(
        r#"keys = readFile("keys");
total = 0;
i = 1;
while (i <= {steps}) {{
    c = readFile("ctl" + i).sum();
    if (c % 2 == 0) {{
        if (c % 3 == 0) {{
            total = total + c;
        }} else {{
            total = total - 1;
        }}
    }} else {{
        j = 0;
        while (j < c % 5) {{
            probe = bag((j, c), (j + 1, i), (c % {keys}, j));
            total = total + (keys join probe).count();
            j = j + 1;
        }}
    }}
    i = i + 1;
}}
output(total, "total");
"#,
        keys = BRANCHY_KEYS
    )
}

/// Writes `keys` (`(k, v)` for `k < BRANCHY_KEYS`) and `ctl1..=steps`,
/// each holding one control value in `0..1000`. The values are a fixed
/// multiset in a seeded order, so every seed takes each branch and runs
/// each inner trip count equally often — the same work on a different,
/// irregular path.
fn generate_branchy(fs: &InMemoryFs, seed: u64) {
    let keys = (0..BRANCHY_KEYS)
        .map(|k| {
            Value::tuple([
                Value::I64(k),
                Value::I64((mix(seed, k as u64) % 100) as i64),
            ])
        })
        .collect();
    fs.put("keys", keys);
    let mut ctl: Vec<i64> = (0..BRANCHY_STEPS as i64)
        .map(|i| (i * 7919 + 13) % 1000)
        .collect();
    // Fisher–Yates with SplitMix64 draws.
    for i in (1..ctl.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        ctl.swap(i, j);
    }
    for (i, c) in ctl.into_iter().enumerate() {
        fs.put(format!("ctl{}", i + 1), vec![Value::I64(c)]);
    }
}

/// The probe bags `branchy_control`'s inner loop joins against `keys`,
/// in program order, computed from the control files in `fs`.
pub fn branchy_probes(fs: &InMemoryFs) -> Vec<Value> {
    let mut probes = Vec::new();
    for i in 1..=BRANCHY_STEPS as i64 {
        let c = match fs.read(&format!("ctl{i}")).as_deref() {
            Ok([Value::I64(c)]) => *c,
            other => panic!("ctl{i} holds one integer, found {other:?}"),
        };
        if c % 2 == 1 {
            for j in 0..c % 5 {
                probes.push(Value::tuple([Value::I64(j), Value::I64(c)]));
                probes.push(Value::tuple([Value::I64(j + 1), Value::I64(i)]));
                probes.push(Value::tuple([Value::I64(c % BRANCHY_KEYS), Value::I64(j)]));
            }
        }
    }
    probes
}

/// SplitMix64 of `seed` and a stream index: a deterministic, well-mixed
/// value per `(seed, i)`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_compiles() {
        for name in NAMES {
            let w = build(name, 1).expect("known workload");
            assert_eq!(w.name, name);
            mitos::compile(&w.src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!w.sample.is_empty(), "{name}: empty sample");
        }
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let a = build(name, 5).unwrap();
            let b = build(name, 5).unwrap();
            let c = build(name, 6).unwrap();
            assert_eq!(a.fs.snapshot(), b.fs.snapshot(), "{name}");
            assert_eq!(a.sample, b.sample, "{name}");
            if name != "step_loop" {
                assert_ne!(
                    a.fs.snapshot(),
                    c.fs.snapshot(),
                    "{name}: seed must reach the inputs"
                );
                assert_ne!(a.sample, c.sample, "{name}: seed must reach the inputs");
            }
        }
    }
}
