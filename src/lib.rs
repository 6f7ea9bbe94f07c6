//! # Mitos — imperative control flow compiled to a single cyclic dataflow
//!
//! A Rust reproduction of *"Efficient Control Flow in Dataflow Systems:
//! When Ease-of-Use Meets High Performance"* (ICDE 2021). Programs written
//! with ordinary imperative control flow (`while`, `do-while`, `if`, nested
//! loops) over distributed bags are compiled — via simplification and an
//! SSA-based intermediate representation — into a **single cyclic dataflow
//! job**, whose distributed execution is coordinated with path-carrying bag
//! identifiers, enabling **loop pipelining** and **loop-invariant
//! hoisting**.
//!
//! ```
//! use mitos::{run, Engine};
//! use mitos::fs::InMemoryFs;
//! use mitos::lang::Value;
//!
//! let fs = InMemoryFs::new();
//! fs.put("numbers", (1..=10).map(Value::I64).collect::<Vec<_>>());
//! let outcome = run(
//!     r#"
//!     total = 0;
//!     for round = 1 to 3 {
//!         scaled = readFile("numbers").map(x => x * round);
//!         total = total + scaled.sum();
//!     }
//!     output(total, "total");
//!     "#,
//!     &fs,
//!     Engine::Mitos,
//!     4,
//! ).unwrap();
//! assert_eq!(outcome.outputs["total"], vec![Value::I64(330)]);
//! ```
//!
//! Fine-grained control — engine choice, cluster shape, observability,
//! live telemetry, and engine tuning such as disabling operator chain
//! fusion — goes through the [`Run`] builder:
//!
//! ```
//! # use mitos::fs::InMemoryFs;
//! use mitos::{compile, Engine, EngineConfig, ObsLevel, Run};
//! # let fs = InMemoryFs::new();
//! let func = compile(r#"output(bag(1, 2).map(x => x + 1).sum(), "s");"#).unwrap();
//! let outcome = Run::new(&func)
//!     .engine(Engine::Mitos)
//!     .machines(2)
//!     .obs(ObsLevel::Metrics)
//!     .config(EngineConfig::new().with_fusion(false))
//!     .execute(&fs)
//!     .unwrap();
//! ```
//!
//! The crates behind this facade:
//!
//! * [`lang`] — values, expressions, the surface language parser;
//! * [`ir`] — simplification, SSA, validation, reference interpreter;
//! * [`core`] — the Mitos dataflow builder and runtime (the paper's
//!   contribution);
//! * [`baselines`] — Spark-like driver loops, Flink-like supersteps,
//!   Naiad- and TensorFlow-like loop executors;
//! * [`sim`] — the deterministic cluster simulator all engines run on;
//! * [`fs`] — the in-memory distributed file system;
//! * [`workloads`] — seeded generators for the paper's evaluation tasks.

#![warn(missing_docs)]

pub use mitos_baselines as baselines;
pub use mitos_core as core;
pub use mitos_fs as fs;
pub use mitos_ir as ir;
pub use mitos_lang as lang;
pub use mitos_sim as sim;
pub use mitos_workloads as workloads;

pub use mitos_core::rt::{EngineConfig, FaultPlan};
pub use mitos_core::{FlowReport, MemReport, ObsLevel, ObsReport, Snapshot, StallReport};
use mitos_fs::InMemoryFs;
use mitos_ir::{BlockId, FuncIr};
use mitos_lang::Value;
use mitos_sim::SimConfig;
use std::collections::BTreeMap;
use std::fmt;

/// Which engine executes the program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Mitos: single cyclic dataflow, loop pipelining, hoisting.
    Mitos,
    /// Mitos with loop pipelining disabled (Fig. 9 ablation).
    MitosNoPipelining,
    /// Mitos with loop-invariant hoisting disabled (Fig. 8 ablation).
    MitosNoHoisting,
    /// Flink-style native iterations (supersteps + hoisting).
    FlinkNative,
    /// Flink submitting one job per iteration step.
    FlinkSeparateJobs,
    /// Spark-style driver loop (one job per action).
    Spark,
    /// Mitos on real OS threads (one worker thread per machine) instead of
    /// the simulator — no virtual timing, genuine concurrency.
    MitosThreads,
    /// The sequential reference interpreter (no cluster, no timing).
    Reference,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::Mitos => "Mitos",
            Engine::MitosNoPipelining => "Mitos (not pipelined)",
            Engine::MitosNoHoisting => "Mitos (wo. loop-invariant hoisting)",
            Engine::FlinkNative => "Flink (native iterations)",
            Engine::FlinkSeparateJobs => "Flink (separate jobs)",
            Engine::Spark => "Spark",
            Engine::MitosThreads => "Mitos (threads)",
            Engine::Reference => "Reference interpreter",
        };
        write!(f, "{name}")
    }
}

/// The unified result of running a program on any engine.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `output(value, tag)` collections, canonically sorted.
    pub outputs: BTreeMap<String, Vec<Value>>,
    /// The execution path (sequence of basic blocks).
    pub path: Vec<BlockId>,
    /// Execution time in nanoseconds: virtual time under the simulator,
    /// measured wall-clock time under [`Engine::MitosThreads`], and 0 for
    /// the reference interpreter (see [`mitos_core::NS_PER_MS`]).
    pub virtual_ns: u64,
    /// Per-operator statistics (Mitos engines only; empty otherwise).
    pub op_stats: Vec<mitos_core::engine::OpStats>,
    /// Control-flow decisions broadcast by condition nodes (Mitos engines
    /// only; 0 otherwise).
    pub decisions: u64,
    /// Structured observability report — populated by the Mitos engines
    /// when the run was requested with [`ObsLevel::Metrics`] or
    /// [`ObsLevel::Trace`] (see [`Run::obs`]); `None` otherwise.
    pub obs: Option<ObsReport>,
    /// Periodic live-telemetry snapshots — populated by the Mitos engines
    /// when the run was requested with a non-zero
    /// [`LiveOptions::sample_interval_ns`] (see [`Run::live`]);
    /// empty otherwise. Deterministic (virtual-time sampled) under the
    /// simulated engines, wall-clock sampled under
    /// [`Engine::MitosThreads`].
    pub snapshots: Vec<Snapshot>,
    /// Always-on per-edge data-plane flow accounting (Mitos engines only;
    /// `None` for the baselines and the reference interpreter, which have
    /// no Mitos data plane to account). See [`Outcome::flow`].
    pub flow: Option<FlowReport>,
    /// Data-plane messages delivered post-dedup (Mitos engines only;
    /// 0 otherwise). The flow report's per-edge message totals reconcile
    /// exactly with this counter.
    pub data_messages: u64,
    /// Always-on per-machine, per-retention-class memory/state residency
    /// accounting (Mitos engines only; `None` for the baselines and the
    /// reference interpreter, which have no Mitos state to account). See
    /// [`Outcome::mem`].
    pub mem: Option<MemReport>,
}

impl Outcome {
    /// Execution time in milliseconds (virtual or wall-clock, matching
    /// [`Outcome::virtual_ns`]).
    pub fn millis(&self) -> f64 {
        self.virtual_ns as f64 / mitos_core::NS_PER_MS as f64
    }

    /// Renders the `EXPLAIN`-style per-operator report (see
    /// [`mitos_core::obs::explain_report`]): the full counter table when
    /// the run collected observability data, a basic
    /// [`mitos_core::engine::OpStats`] table otherwise.
    pub fn explain(&self) -> String {
        mitos_core::obs::explain_parts(
            &self.op_stats,
            self.obs.as_ref(),
            self.path.len(),
            self.op_stats.iter().map(|s| s.hoist_hits).sum(),
            self.decisions,
            self.millis(),
        )
    }

    /// Renders the run's event stream as Chrome trace-event JSON (load in
    /// `chrome://tracing` or Perfetto). Meaningful only when the run used
    /// [`ObsLevel::Trace`]; returns `None` otherwise.
    pub fn chrome_trace(&self) -> Option<String> {
        let obs = self.obs.as_ref()?;
        (obs.level == ObsLevel::Trace).then(|| mitos_core::obs::chrome_trace(obs, &self.op_stats))
    }

    /// Builds the iteration profile of the run: per-iteration
    /// latency/element/decision attribution (decoded from bag identifiers
    /// via the program's loop nest), warmup-vs-steady split, per-machine
    /// straggler report, and the critical path through the bag-dependency
    /// DAG (see [`mitos_core::obs::profile`] and
    /// [`mitos_core::obs::critical`]). Requires a run at
    /// [`ObsLevel::Trace`]; returns `None` otherwise. Render with
    /// [`mitos_core::Profile::render`] or serialize with
    /// [`mitos_core::Profile::to_json`], passing [`Outcome::op_stats`].
    pub fn profile(&self) -> Option<mitos_core::Profile> {
        let obs = self.obs.as_ref()?;
        (obs.level == ObsLevel::Trace)
            .then(|| mitos_core::build_profile(obs, &self.path, self.virtual_ns))
    }

    /// Reconstructs the per-step causal span trees (decision broadcast →
    /// receipt → input-bag assembly → operator execute → send-resolve)
    /// from the run's event stream (see [`mitos_core::obs::span`]).
    /// Requires a run at [`ObsLevel::Trace`]; returns `None` otherwise.
    /// Render one tree with [`mitos_core::render_tree`].
    pub fn trace_trees(&self) -> Option<Vec<mitos_core::StepTree>> {
        let obs = self.obs.as_ref()?;
        (obs.level == ObsLevel::Trace).then(|| mitos_core::build_step_trees(obs))
    }

    /// Derives the per-phase control-plane latency histograms (broadcast,
    /// assembly, execute, send-resolve; log₂ buckets) from the causal span
    /// trees (see [`mitos_core::obs::histo`]). Requires a run at
    /// [`ObsLevel::Trace`]; returns `None` otherwise. Export with
    /// [`mitos_core::PhaseHistograms::prometheus`].
    pub fn phase_histograms(&self) -> Option<mitos_core::PhaseHistograms> {
        self.trace_trees()
            .map(|t| mitos_core::PhaseHistograms::from_trees(&t))
    }

    /// The run's live-telemetry snapshots (see [`Outcome::snapshots`]).
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The run's per-edge data-plane flow report (elements, messages,
    /// serialized/wire/retransmitted bytes, relay-window watermarks,
    /// queue-depth and backpressure samples) — always populated by the
    /// Mitos engines, `None` for the baselines and the reference
    /// interpreter. Render with [`FlowReport::render`], export with
    /// [`FlowReport::prometheus`].
    pub fn flow(&self) -> Option<&FlowReport> {
        self.flow.as_ref()
    }

    /// The run's memory/state residency report (per-machine,
    /// per-retention-class live bags / elements / approximate bytes, with
    /// high-water marks and leak attribution) — always populated by the
    /// Mitos engines, `None` for the baselines and the reference
    /// interpreter. Render with [`MemReport::render`], export with
    /// [`MemReport::prometheus`]; a fault-free run that retains nothing
    /// outside deliberate caches reports [`MemReport::leak_free`].
    pub fn mem(&self) -> Option<&MemReport> {
        self.mem.as_ref()
    }
}

/// An error from compilation or execution.
#[derive(Clone, Debug)]
pub struct Error {
    /// Description.
    pub message: String,
    /// Structured stall diagnosis, present when the run was aborted by the
    /// stall watchdog or diagnosed as deadlocked (see
    /// [`mitos_core::obs::watchdog`]). Boxed to keep the `Err` variant
    /// small on every `Result<_, Error>` in the API.
    pub stall: Option<Box<StallReport>>,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<mitos_lang::Diagnostic> for Error {
    fn from(e: mitos_lang::Diagnostic) -> Self {
        Error {
            message: e.message,
            stall: None,
        }
    }
}

impl From<mitos_core::RuntimeError> for Error {
    fn from(e: mitos_core::RuntimeError) -> Self {
        Error {
            message: e.message,
            stall: e.stall,
        }
    }
}

/// Compiles source text to validated SSA (parse → simplify → SSA →
/// validate).
pub fn compile(src: &str) -> Result<FuncIr, Error> {
    Ok(mitos_ir::compile_str(src)?)
}

/// Live-execution options for [`Run::live`]: telemetry sampling
/// and the stall watchdog. The all-zero [`Default`] means "no sampling, no
/// watchdog" and is accepted by every engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveOptions {
    /// Telemetry sampling interval in nanoseconds (0 = no snapshots).
    /// Virtual time under the simulated Mitos engines (deterministic,
    /// charges zero virtual time), wall-clock under
    /// [`Engine::MitosThreads`].
    pub sample_interval_ns: u64,
    /// Stall-watchdog deadline in nanoseconds (0 = off). Under
    /// [`Engine::MitosThreads`], a worker making no progress for this long
    /// aborts the run with an [`Error`] carrying a [`StallReport`]. The
    /// simulated engines need no timer — a stall there surfaces as
    /// quiescence-without-exit and is diagnosed the same way.
    pub deadline_ns: u64,
    /// Fault injection for watchdog tests: condition decisions are applied
    /// locally but never broadcast, wedging every other worker. Shorthand
    /// for [`FaultPlan::with_withhold_decisions`] on the run's
    /// [`EngineConfig::faults`] plan (richer fault injection — message
    /// drop/duplication/reordering, partitions — goes through
    /// [`Run::config`] with [`EngineConfig::with_faults`]).
    pub fault_withhold_decisions: bool,
}

/// A single execution of a compiled program, configured fluently: engine,
/// cluster size, observability level, live telemetry, and engine tuning
/// ([`EngineConfig`] — pipelining, hoisting, operator chain fusion, cost
/// model) all hang off one builder, and [`Run::execute`] produces the
/// unified [`Outcome`].
///
/// ```
/// use mitos::{compile, Engine, EngineConfig, Run};
/// use mitos::fs::InMemoryFs;
/// use mitos::lang::Value;
///
/// let func = compile(r#"s = bag(1, 2, 3).map(x => x * 2); output(s.sum(), "s");"#).unwrap();
/// let fs = InMemoryFs::new();
/// let outcome = Run::new(&func)
///     .engine(Engine::Mitos)
///     .machines(2)
///     .config(EngineConfig::new().with_fusion(false)) // e.g. ablate chain fusion
///     .execute(&fs)
///     .unwrap();
/// assert_eq!(outcome.outputs["s"], vec![Value::I64(12)]);
/// ```
///
/// Defaults: [`Engine::Mitos`], 4 machines, [`ObsLevel::Off`], no live
/// telemetry, [`EngineConfig::default`] (pipelining, hoisting and fusion
/// all on).
pub struct Run<'a> {
    func: &'a FuncIr,
    engine: Engine,
    cluster: SimConfig,
    obs: Option<ObsLevel>,
    live: Option<LiveOptions>,
    config: EngineConfig,
    on_snapshot: Option<&'a mut dyn FnMut(&Snapshot)>,
}

impl<'a> Run<'a> {
    /// Starts a run of `func` with the default configuration.
    pub fn new(func: &'a FuncIr) -> Self {
        Run {
            func,
            engine: Engine::Mitos,
            cluster: SimConfig::with_machines(4),
            obs: None,
            live: None,
            config: EngineConfig::default(),
            on_snapshot: None,
        }
    }

    /// Selects the executing engine (default [`Engine::Mitos`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the simulated cluster size (default 4 machines).
    pub fn machines(mut self, machines: u16) -> Self {
        self.cluster = SimConfig::with_machines(machines);
        self
    }

    /// Full control over the cluster parameters (overrides
    /// [`Run::machines`]).
    pub fn cluster(mut self, cluster: SimConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Collects structured observability data at the requested
    /// [`ObsLevel`] (Mitos engines only — the baselines and the reference
    /// interpreter ignore this and return `Outcome::obs = None`).
    /// Recording never charges virtual time, so simulated results are
    /// bit-identical at every level.
    pub fn obs(mut self, obs: ObsLevel) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Streams live telemetry: with a non-zero
    /// [`LiveOptions::sample_interval_ns`] periodic [`Snapshot`]s are
    /// collected into [`Outcome::snapshots`] (and fed to
    /// [`Run::on_snapshot`], if set); with a non-zero
    /// [`LiveOptions::deadline_ns`] the stall watchdog arms. Live
    /// telemetry exists only on the Mitos engines: any non-default option
    /// on a baseline or the reference interpreter makes [`Run::execute`]
    /// fail.
    pub fn live(mut self, live: LiveOptions) -> Self {
        self.live = Some(live);
        self
    }

    /// Invokes `f` on each periodic [`Snapshot`] while the job runs
    /// (requires a sampling interval via [`Run::live`]).
    pub fn on_snapshot(mut self, f: &'a mut dyn FnMut(&Snapshot)) -> Self {
        self.on_snapshot = Some(f);
        self
    }

    /// Supplies the base [`EngineConfig`] (cost model, pipelining,
    /// hoisting, operator chain fusion, …). Settings made through the
    /// other builder methods — [`Run::obs`], [`Run::live`] — and the
    /// ablation engines ([`Engine::MitosNoPipelining`],
    /// [`Engine::MitosNoHoisting`]) are applied on top of it.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a deterministic fault-injection plan ([`FaultPlan`]) on the
    /// run's [`EngineConfig`]. Mitos engines only: the baselines and the
    /// reference interpreter reject an active plan (they model fault-free
    /// execution), and [`Run::execute`] fails accordingly.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Sets the maximum elements per data-plane batch, clamped to at
    /// least one, on the run's [`EngineConfig`] — the tuning knob for
    /// trading per-message overhead against pipelining granularity,
    /// without constructing a whole cost model. Results are identical at
    /// every setting; only message counts, wire bytes, and timing shift.
    pub fn batch_elems(mut self, elems: usize) -> Self {
        self.config = self.config.with_batch_elems(elems);
        self
    }

    /// Runs the program. File effects land in `fs`.
    pub fn execute(self, fs: &InMemoryFs) -> Result<Outcome, Error> {
        let Run {
            func,
            engine,
            cluster,
            obs,
            live,
            config,
            on_snapshot,
        } = self;
        // The effective live options: the builder's, or whatever the base
        // config already carries.
        let live = live.unwrap_or(LiveOptions {
            sample_interval_ns: config.sample_interval_ns,
            deadline_ns: config.stall_deadline_ns,
            fault_withhold_decisions: config.faults.withhold_decisions,
        });
        if live != LiveOptions::default()
            && !matches!(
                engine,
                Engine::Mitos
                    | Engine::MitosNoPipelining
                    | Engine::MitosNoHoisting
                    | Engine::MitosThreads
            )
        {
            return Err(Error {
                message: format!(
                    "live telemetry (sampling / stall watchdog) requires a Mitos engine \
                     (mitos|mitos-nopipe|mitos-nohoist|threads), not `{engine}`"
                ),
                stall: None,
            });
        }
        if config.faults.is_active()
            && !matches!(
                engine,
                Engine::Mitos
                    | Engine::MitosNoPipelining
                    | Engine::MitosNoHoisting
                    | Engine::MitosThreads
            )
        {
            return Err(Error {
                message: format!(
                    "fault injection (--fault-* / EngineConfig::faults) requires a Mitos \
                     engine (mitos|mitos-nopipe|mitos-nohoist|threads), not `{engine}` — \
                     the baselines and the reference interpreter run fault-free only"
                ),
                stall: None,
            });
        }
        let mut noop = |_: &Snapshot| {};
        let on_snapshot = on_snapshot.unwrap_or(&mut noop);
        let mitos_config = || {
            let mut cfg = config
                .clone()
                .with_sample_interval_ns(live.sample_interval_ns)
                .with_stall_deadline_ns(live.deadline_ns);
            cfg.faults.withhold_decisions = live.fault_withhold_decisions;
            if let Some(obs) = obs {
                cfg = cfg.with_obs(obs);
            }
            // The ablation engines force their switch off; plain Mitos
            // respects the base config.
            if engine == Engine::MitosNoPipelining {
                cfg = cfg.with_pipelining(false);
            }
            if engine == Engine::MitosNoHoisting {
                cfg = cfg.with_hoisting(false);
            }
            cfg
        };
        match engine {
            Engine::Mitos | Engine::MitosNoPipelining | Engine::MitosNoHoisting => {
                let r = mitos_core::run_sim_live(func, fs, mitos_config(), cluster, on_snapshot)?;
                Ok(Outcome {
                    outputs: r.outputs,
                    path: r.path,
                    virtual_ns: r.sim.end_time,
                    op_stats: r.op_stats,
                    decisions: r.decisions,
                    obs: r.obs,
                    snapshots: r.snapshots,
                    flow: Some(r.flow),
                    data_messages: r.data_messages,
                    mem: Some(r.mem),
                })
            }
            Engine::FlinkNative => {
                let r = mitos_baselines::run_flink_native(func, fs, cluster)?;
                Ok(Outcome {
                    outputs: r.outputs,
                    path: r.path,
                    virtual_ns: r.sim.end_time,
                    op_stats: r.op_stats,
                    decisions: 0,
                    obs: None,
                    snapshots: Vec::new(),
                    flow: None,
                    data_messages: 0,
                    mem: None,
                })
            }
            Engine::FlinkSeparateJobs => {
                let r = mitos_baselines::run_flink_separate_jobs(func, fs, cluster)?;
                Ok(Outcome {
                    outputs: r.outputs,
                    path: r.path,
                    virtual_ns: r.sim.end_time,
                    op_stats: Vec::new(),
                    decisions: 0,
                    obs: None,
                    snapshots: Vec::new(),
                    flow: None,
                    data_messages: 0,
                    mem: None,
                })
            }
            Engine::Spark => {
                let r = mitos_baselines::run_driver_loop(
                    func,
                    fs,
                    mitos_baselines::DriverConfig::default(),
                    cluster,
                )?;
                Ok(Outcome {
                    outputs: r.outputs,
                    path: r.path,
                    virtual_ns: r.sim.end_time,
                    op_stats: Vec::new(),
                    decisions: 0,
                    obs: None,
                    snapshots: Vec::new(),
                    flow: None,
                    data_messages: 0,
                    mem: None,
                })
            }
            Engine::MitosThreads => {
                let r = mitos_core::run_threads_live(
                    func,
                    fs,
                    mitos_config(),
                    cluster.machines,
                    on_snapshot,
                )?;
                Ok(Outcome {
                    outputs: r.outputs,
                    path: r.path,
                    // Wall-clock ns, measured by the driver's single epoch.
                    virtual_ns: r.sim.end_time,
                    op_stats: r.op_stats,
                    decisions: r.decisions,
                    obs: r.obs,
                    snapshots: r.snapshots,
                    flow: Some(r.flow),
                    data_messages: r.data_messages,
                    mem: Some(r.mem),
                })
            }
            Engine::Reference => {
                let r = mitos_ir::interpret(func, fs, mitos_ir::InterpConfig::default()).map_err(
                    |e| Error {
                        message: e.message,
                        stall: None,
                    },
                )?;
                Ok(Outcome {
                    outputs: r.canonical_outputs(),
                    path: r.path,
                    virtual_ns: 0,
                    op_stats: Vec::new(),
                    decisions: 0,
                    obs: None,
                    snapshots: Vec::new(),
                    flow: None,
                    data_messages: 0,
                    mem: None,
                })
            }
        }
    }
}

/// Compiles and runs source text (the one-call entry point).
pub fn run(src: &str, fs: &InMemoryFs, engine: Engine, machines: u16) -> Result<Outcome, Error> {
    let func = compile(src)?;
    Run::new(&func)
        .engine(engine)
        .machines(machines)
        .execute(fs)
}
