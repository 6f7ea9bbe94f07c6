//! Timed jobs through the public `mitos::Run` facade, and the reference
//! oracle every job is checked against.

use mitos::fs::InMemoryFs;
use mitos::ir::{BlockId, FuncIr};
use mitos::lang::Value;
use mitos::{Engine, ObsLevel, Outcome, Run};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Simulated cluster size for `Engine::Mitos` jobs.
pub const SIM_MACHINES: u16 = 8;
/// Worker threads for timed `Engine::MitosThreads` jobs. The driver's own
/// thread wakes every 200 µs to detect quiescence, so one worker leaves it
/// a core of a 2-core host. With two workers, three runnable threads
/// share two cores and job time follows the hypervisor's steal time:
/// branchy_control's p90 read 119–170 ms across four runs of one seed.
pub const THREAD_MACHINES: u16 = 1;

/// What a correct job produces: `output(..)` collections, the execution
/// path, and the files it wrote (contents sorted).
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub outputs: BTreeMap<String, Vec<Value>>,
    pub path: Vec<BlockId>,
    pub files: BTreeMap<String, Vec<Value>>,
}

/// A workload's file system plus the reference answer for it.
pub struct Oracle {
    fs: InMemoryFs,
    inputs: BTreeSet<String>,
    pub expected: Expected,
}

impl Oracle {
    /// Runs `func` once on the reference interpreter over `fs` (the
    /// workload's inputs) to fix the expected result.
    pub fn new(func: &FuncIr, fs: InMemoryFs) -> Result<Oracle, String> {
        let inputs = fs.list().into_iter().collect();
        let mut oracle = Oracle {
            fs,
            inputs,
            expected: Expected {
                outputs: BTreeMap::new(),
                path: Vec::new(),
                files: BTreeMap::new(),
            },
        };
        let reference = Run::new(func)
            .engine(Engine::Reference)
            .execute(&oracle.fs)
            .map_err(|e| format!("reference interpreter failed: {e}"))?;
        oracle.expected = Expected {
            outputs: reference.outputs,
            path: reference.path,
            files: oracle.take_written(),
        };
        Ok(oracle)
    }

    /// The file system jobs run on (inputs only between jobs).
    pub fn fs(&self) -> &InMemoryFs {
        &self.fs
    }

    /// Removes and returns every file a job wrote, so the next job starts
    /// from the inputs alone.
    pub fn take_written(&self) -> BTreeMap<String, Vec<Value>> {
        let mut written = BTreeMap::new();
        for name in self.fs.list() {
            if self.inputs.contains(&name) {
                continue;
            }
            let mut elems = self.fs.read(&name).expect("listed file exists");
            elems.sort_unstable();
            self.fs.remove(&name);
            written.insert(name, elems);
        }
        written
    }

    /// Runs one job and checks it. Only `Run::execute` is timed; the
    /// check and the file-system reset happen after the clock stops.
    pub fn job(
        &self,
        func: &FuncIr,
        engine: Engine,
        machines: u16,
        obs: ObsLevel,
    ) -> (Duration, Result<Outcome, String>) {
        let (wall, _, checked) = self.job_with_cpu(func, engine, machines, obs);
        (wall, checked)
    }

    /// [`Oracle::job`], also returning the process CPU seconds (all
    /// threads) spent in `Run::execute` alone.
    pub fn job_with_cpu(
        &self,
        func: &FuncIr,
        engine: Engine,
        machines: u16,
        obs: ObsLevel,
    ) -> (Duration, f64, Result<Outcome, String>) {
        let run = Run::new(func).engine(engine).machines(machines).obs(obs);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let result = run.execute(&self.fs);
        let wall = start.elapsed();
        let cpu = cpu_seconds() - cpu0;
        let files = self.take_written();
        let checked = match result {
            Ok(out) => check(&out.outputs, &out.path, &files, &self.expected).map(|()| out),
            Err(e) => Err(format!("job failed: {e}")),
        };
        (wall, cpu, checked)
    }
}

/// User plus system CPU seconds of the whole process, all threads
/// included, exited ones too (`/proc/self/stat`, in 100 Hz clock ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Compares one job's result with the reference; the error names the
/// first difference.
pub fn check(
    outputs: &BTreeMap<String, Vec<Value>>,
    path: &[BlockId],
    files: &BTreeMap<String, Vec<Value>>,
    expected: &Expected,
) -> Result<(), String> {
    if *outputs != expected.outputs {
        let tag = expected
            .outputs
            .keys()
            .chain(outputs.keys())
            .find(|t| outputs.get(*t) != expected.outputs.get(*t))
            .cloned()
            .unwrap_or_default();
        return Err(format!("output {tag:?} differs from the reference"));
    }
    if path != expected.path {
        let at = path
            .iter()
            .zip(&expected.path)
            .position(|(a, b)| a != b)
            .unwrap_or(path.len().min(expected.path.len()));
        return Err(format!(
            "execution path differs from the reference at position {at} \
             (length {} vs {})",
            path.len(),
            expected.path.len()
        ));
    }
    if *files != expected.files {
        let name = expected
            .files
            .keys()
            .chain(files.keys())
            .find(|n| files.get(*n) != expected.files.get(*n))
            .cloned()
            .unwrap_or_default();
        return Err(format!("written file {name:?} differs from the reference"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(src: &str) -> (FuncIr, Oracle) {
        let w = crate::workload::build(src, 3).expect("known workload");
        let func = mitos::compile(&w.src).expect("compiles");
        let oracle = Oracle::new(&func, w.fs).expect("reference runs");
        (func, oracle)
    }

    #[test]
    fn both_drivers_match_the_reference_and_reset_the_fs() {
        let (func, oracle) = oracle("visit_count");
        assert!(
            !oracle.expected.files.is_empty(),
            "visit_count writes diffs"
        );
        let before = oracle.fs().list();
        for engine in [Engine::Mitos, Engine::MitosThreads] {
            let machines =
                [SIM_MACHINES, THREAD_MACHINES][(engine == Engine::MitosThreads) as usize];
            let (_, r) = oracle.job(&func, engine, machines, ObsLevel::Off);
            r.unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert_eq!(oracle.fs().list(), before, "written files removed");
        }
    }

    #[test]
    fn corrupted_expectation_fails_every_job() {
        let (func, mut oracle) = oracle("step_loop");
        let tag = oracle.expected.outputs.keys().next().unwrap().clone();
        oracle.expected.outputs.get_mut(&tag).unwrap()[0] = Value::I64(-1);
        let jobs = 4;
        let failed = (0..jobs)
            .filter(|i| {
                let (engine, machines) = [
                    (Engine::Mitos, SIM_MACHINES),
                    (Engine::MitosThreads, THREAD_MACHINES),
                ][i % 2];
                oracle
                    .job(&func, engine, machines, ObsLevel::Off)
                    .1
                    .is_err()
            })
            .count();
        assert_eq!(failed as f64 / jobs as f64, 1.0, "failed_frac must be 1");
    }

    #[test]
    fn path_and_file_differences_are_named() {
        let (func, oracle) = oracle("visit_count");
        let (_, r) = oracle.job(&func, Engine::Mitos, SIM_MACHINES, ObsLevel::Off);
        let mut out = r.unwrap();
        let files = oracle.expected.files.clone();
        out.path.push(0);
        let e = check(&out.outputs, &out.path, &files, &oracle.expected).unwrap_err();
        assert!(e.contains("execution path"), "{e}");
        out.path.pop();
        let mut wrong = files.clone();
        wrong.values_mut().next().unwrap().push(Value::I64(0));
        let e = check(&out.outputs, &out.path, &wrong, &oracle.expected).unwrap_err();
        assert!(e.contains("written file"), "{e}");
    }
}
