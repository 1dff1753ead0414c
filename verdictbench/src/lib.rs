//! `verdictbench`: the repository benchmark. It runs seeded workloads from
//! the generated SyGuS suite through the public solver API, scores every
//! answer with `certify_solution` plus an independent concrete check, and
//! reports certified solves and time-to-verdict end to end. A separate
//! traced run replays each problem layer by layer through the public
//! functions of the parser, the solver layers and the SMT substrate, and
//! times every call from this crate.
//!
//! Workloads, and why each exists:
//!
//! * `clia`: the CLIA track, one request at a time. Deduction and SMT
//!   validity checks do most of the work; the decision-tree CEGIS decides
//!   the problems that time out.
//! * `grammar-inv`: the INV and General tracks, same settings. Height-based
//!   enumeration under custom grammars, invariant templates, loop
//!   summarization, division and the parallel height band decide outcomes.
//! * `daemon`: every problem as a JSONL `solve` line into an in-process
//!   daemon scheduler from two closed-loop clients. Parallelism runs across
//!   requests, so the height band is bypassed while solves share the
//!   process, and per-request overhead weighs on the many fast solves.
//!
//! End-to-end metrics (`--trace 0`), one value per run:
//!
//! * `solved`: certified solves per pass.
//! * `verdict_p50_ms`, `verdict_p75_ms`, `verdict_geomean_ms`: median, 75th
//!   percentile and geometric mean over problems of each problem's fastest
//!   time from request to certified verdict across passes; a problem not
//!   solved in most of its passes is charged the limit. Fast problems run
//!   in many more passes than slow ones (see the `e2e` module).
//! * `pass_wall_s`: the wall time of one pass built from those per-problem
//!   times: their sum over the number of clients.
//! * `setup_s`: median of repeated suite generation, parsing and solver or
//!   scheduler construction.
//! * `peak_rss_mb`: median over the passes that carry the whole workload of
//!   the peak resident memory during the pass, with freed memory returned
//!   to the system before each pass.
//!
//! A failed operation is an answer failing a check, an engine fault, or a
//! daemon `error`, `overloaded` or `cancelled` answer; a timeout or give-up
//! is an unsolved problem, not a failure. The per-layer metrics of the
//! traced run are described in the `replay` module.

pub mod check;
mod e2e;
mod replay;
pub mod report;
pub mod rng;
pub mod stats;

use dryadsynth::daemon::{Scheduler, SchedulerConfig};
use dryadsynth::{DryadSynth, DryadSynthConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sygus_ast::{Json, Problem};
use sygus_benchmarks::Track;

/// Enumeration threads inside one solve on `clia` and `grammar-inv` (the
/// solver's default on a machine with two or more cores).
pub const SOLVER_THREADS: usize = 2;
/// Daemon worker threads on `daemon`.
pub const DAEMON_WORKERS: usize = 2;
/// Enumeration threads inside one daemon solve.
pub const THREADS_PER_SOLVE: usize = 1;
/// Closed-loop clients on `daemon`: each sends its next request only after
/// the previous answer arrived.
pub const DAEMON_CLIENTS: usize = 2;
/// Per-problem wall-clock limit. Every problem that the suite solves at
/// all solves well inside it, so a problem's solved status does not hinge
/// on scheduling noise; unsolved problems are charged this limit.
pub const LIMIT: Duration = Duration::from_millis(2000);
/// Set-up is measured this many times per run and reported as the median.
const SETUP_REPEATS: usize = 51;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The CLIA track, solved directly, one request at a time.
    Clia,
    /// The INV and General tracks, solved directly, one request at a time.
    GrammarInv,
    /// Every problem through the in-process daemon scheduler.
    Daemon,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Clia, Workload::GrammarInv, Workload::Daemon];

    /// The workload named `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Clia => "clia",
            Workload::GrammarInv => "grammar-inv",
            Workload::Daemon => "daemon",
        }
    }

    fn admits(self, track: Track) -> bool {
        match self {
            Workload::Clia => track == Track::Clia,
            Workload::GrammarInv => track != Track::Clia,
            Workload::Daemon => true,
        }
    }

    /// How many passes a problem may reach the limit in before it stops
    /// running; it is charged the limit for the passes it sits out. On
    /// `clia` and `daemon` the same problems time out in every pass, and
    /// running them again would cost 18 s and 13 s a pass. On `grammar-inv`
    /// the parallel height band makes some outcomes depend on timing
    /// (`strided_walk_7` and `phase_split` sometimes time out), so a second
    /// chance keeps one unlucky pass from deciding the run.
    pub fn timeout_strikes(self) -> usize {
        match self {
            Workload::GrammarInv => 2,
            _ => 1,
        }
    }

    /// The traced run replays every `trace_stride`-th problem in suite
    /// order: a fixed subset, so its per-layer totals cover the same
    /// problems whatever the program's speed. The strides keep one traced
    /// run under a minute on a two-core machine (about 45, 55 and 30 s);
    /// a problem left unsolved costs about 8 s of replay.
    pub fn trace_stride(self) -> usize {
        match self {
            Workload::Clia => 2,
            Workload::GrammarInv => 1,
            Workload::Daemon => 4,
        }
    }

    /// Enumeration threads inside one solve.
    pub fn solver_threads(self) -> usize {
        match self {
            Workload::Daemon => THREADS_PER_SOLVE,
            _ => SOLVER_THREADS,
        }
    }
}

/// A wrong answer substituted for the solver's answer on one problem, so a
/// test can check that scoring rejects it.
#[derive(Clone, Debug)]
pub struct Plant {
    /// The benchmark whose answer is replaced.
    pub problem: String,
    /// The replacement answer in SyGuS syntax.
    pub answer: String,
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seeds problem order and concrete check inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Run the layer replay instead of the end-to-end passes.
    pub trace: bool,
    /// Restrict the workload to these benchmarks (empty: all of it).
    pub only: Vec<String>,
    /// A planted wrong answer, for self-tests.
    pub plant: Option<Plant>,
    /// Where per-problem rows are written.
    pub out_dir: PathBuf,
}

/// One problem of a workload.
#[derive(Clone, Debug)]
pub struct Item {
    /// Benchmark name.
    pub name: String,
    /// Competition track.
    pub track: Track,
    /// The generated SyGuS text; the solver sees only this.
    pub source: String,
    /// The parsed problem, for scoring.
    pub problem: Problem,
}

/// Generates the suite and parses the workload's problems, in suite order.
pub fn load(settings: &Settings) -> Vec<Item> {
    sygus_benchmarks::suite()
        .into_iter()
        .filter(|b| settings.workload.admits(b.track))
        .filter(|b| settings.only.is_empty() || settings.only.contains(&b.name))
        .map(|b| {
            let problem = b.problem();
            Item {
                name: b.name,
                track: b.track,
                source: b.source,
                problem,
            }
        })
        .collect()
}

/// What serves the requests of a run.
enum Target {
    Direct(DryadSynth),
    Daemon(Scheduler),
}

impl Target {
    fn new(workload: Workload) -> Target {
        match workload {
            Workload::Daemon => Target::Daemon(Scheduler::start(SchedulerConfig {
                workers: DAEMON_WORKERS,
                threads_per_solve: THREADS_PER_SOLVE,
                certify: true,
                ..SchedulerConfig::default()
            })),
            w => Target::Direct(direct_solver(w.solver_threads())),
        }
    }
}

fn direct_solver(threads: usize) -> DryadSynth {
    DryadSynth::new(DryadSynthConfig {
        threads,
        ..DryadSynthConfig::default()
    })
}

/// Suite generation, parsing and solver or scheduler construction, timed
/// [`SETUP_REPEATS`] times; returns the last set-up and the median seconds.
fn set_up(settings: &Settings) -> (Vec<Item>, Target, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let items = load(settings);
        let target = Target::new(settings.workload);
        times.push(started.elapsed().as_secs_f64());
        // Replacing the previous set-up drains its scheduler, outside the
        // timed region.
        last = Some((items, target));
    }
    let (items, target) = last.expect("SETUP_REPEATS is positive");
    (items, target, stats::median(&times))
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run: the benchmark's last output line.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// No answer returned as solved failed a check.
    pub correct: bool,
    /// Operations attempted (solve requests, or problems replayed).
    pub attempted: u64,
    /// Failed operations: answers failing a check, engine faults, and
    /// daemon `error`, `overloaded` or `cancelled` responses.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The machine and configuration the run used.
    pub config: Json,
    /// Where the per-problem rows went.
    pub rows_path: PathBuf,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs one measurement: end-to-end passes, or with `trace` the layer
/// replay. Writes the per-problem rows and returns the result.
///
/// # Errors
///
/// A message when the workload selects no problems or the rows cannot be
/// written.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let (items, target, setup_s) = set_up(settings);
    if items.is_empty() {
        return Err(format!(
            "workload {} selects no problems",
            settings.workload.name()
        ));
    }
    let measured = if settings.trace {
        replay::run(settings, &items, &target)
    } else {
        e2e::run(settings, &items, &target, setup_s)
    };
    let config = report::config_json(settings, items.len(), measured.passes);
    let rows = report::rows_document(&config, measured.rows);
    std::fs::create_dir_all(&settings.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", settings.out_dir.display()))?;
    let rows_path = settings.out_dir.join(format!(
        "{}-seed{}-{}.json",
        settings.workload.name(),
        settings.seed,
        if settings.trace { "trace" } else { "e2e" }
    ));
    std::fs::write(&rows_path, format!("{rows}\n"))
        .map_err(|e| format!("cannot write {}: {e}", rows_path.display()))?;
    Ok(Outcome {
        correct: measured.cert_fail == 0,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: measured.metrics,
        config,
        rows_path,
    })
}

/// What a measurement hands back to [`run`].
struct Measured {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    cert_fail: u64,
    passes: usize,
    rows: Vec<Json>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
