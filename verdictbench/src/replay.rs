//! The traced run. It replays a fixed subset of the workload, every
//! [`Workload::trace_stride`]-th problem in suite order, so every run covers
//! the same problems whatever the seed or the program's speed; the seed
//! only orders them. Each problem is first solved end to end as one timed
//! span (the workload's own solver configuration, certification on), then
//! replayed layer by layer in Algorithm 1's order through the public
//! functions of each layer, stopping where the cooperative solver would:
//!
//! 1. parse (`sygus_parser::parse_problem`)
//! 2. summarize, INV only (`strengthen_with_summary`)
//! 3. deduct (`DeductiveEngine::deduct`), stop on `Solved`
//! 4. divide (`Divider::divide`)
//! 5. `FixedHeightSolver::solve_at_height` for h = 1..=max height, sharing
//!    one `ExamplePool`, each call budgeted at the limit; stop at the first
//!    `Solved` or once the heights have used the limit
//! 6. certify (`certify_solution`) and the bare SMT validity check
//!
//! After step 5 the same problem runs through `FixedHeightBackend` and
//! `ParallelHeightBackend` under one limit each, to compare the sequential
//! heights with the parallel band. On `daemon`, one two-client pass of the
//! subset through the scheduler comes first, for its latency lines and
//! per-problem verdicts. After the replay, each problem the span solved is
//! solved once more with no layer calls in between, and the tracing
//! overhead is the span against that untraced solve. Every time is taken
//! here, around the call; there are no spans inside the program.

use crate::check::CERTIFY_WINDOW;
use crate::e2e::{self, solve_direct, Sample, Verdict};
use crate::{
    direct_solver, ms, stats, Item, Measured, Metric, Settings, Target, LIMIT, SOLVER_THREADS,
    THREADS_PER_SOLVE,
};
use dryadsynth::{
    certify_solution, strengthen_with_summary, DeductOutcome, DeductionConfig, DeductiveEngine,
    DivideConfig, Divider, EnumBackend, ExamplePool, FixedHeightBackend, FixedHeightConfig,
    FixedHeightResult, FixedHeightSolver, ParallelHeightBackend,
};
use smtkit::{SmtConfig, SmtSolver};
use std::collections::BTreeMap;
use std::time::Instant;
use sygus_ast::{Budget, Json, Problem, Term};

/// Heights the replay tries, the solver's default maximum.
const MAX_HEIGHT: usize = 5;

/// What the layer replay of one problem measured.
#[derive(Debug, Default)]
struct Layers {
    parse_ms: f64,
    summarize_ms: f64,
    summary_applied: bool,
    deduct_ms: f64,
    deduct_solved: bool,
    /// `None` when deduction solved the problem and division never ran.
    divide_ms: Option<f64>,
    proposals: usize,
    /// `(height, ms)` per `solve_at_height` call.
    heights: Vec<(usize, f64)>,
    heights_solved: bool,
    /// The last height whose call finished before the limit.
    last_height: usize,
    /// `(band ms, band solved, sequential ms, sequential solved)`.
    backends: Option<(f64, bool, f64, bool)>,
    faults: Vec<String>,
    /// `(certify ms, certified, bare SMT check ms)` when an answer came out.
    certify: Option<(f64, bool, f64)>,
}

fn fresh_height_config() -> FixedHeightConfig {
    FixedHeightConfig {
        budget: Budget::from_timeout(LIMIT),
        ..FixedHeightConfig::default()
    }
}

/// Drives a backend the way the cooperative loop does: steps of its
/// stride up to its maximum, until one solves or the budget ends. Returns
/// the answer, if any.
fn run_backend(backend: &dyn EnumBackend, problem: &Problem) -> Result<Option<Term>, String> {
    let pool = ExamplePool::default();
    let mut height = 1;
    while height <= backend.max_steps() {
        match backend.solve_step(problem, height, &pool) {
            FixedHeightResult::Solved(t) => return Ok(Some(t)),
            FixedHeightResult::Timeout => return Ok(None),
            FixedHeightResult::Fault(m) => return Err(m),
            FixedHeightResult::NoSolution | FixedHeightResult::Failed(_) => {}
        }
        height += backend.stride();
    }
    Ok(None)
}

fn replay_layers(item: &Item) -> Layers {
    let mut l = Layers::default();
    let started = Instant::now();
    let parsed = sygus_parser::parse_problem(&item.source);
    l.parse_ms = ms(started.elapsed());
    let mut problem = parsed.unwrap_or_else(|_| item.problem.clone());
    if problem.inv.is_some() {
        let started = Instant::now();
        l.summary_applied = strengthen_with_summary(&mut problem);
        l.summarize_ms = ms(started.elapsed());
    }
    let engine = DeductiveEngine::new(DeductionConfig {
        budget: Budget::from_timeout(LIMIT),
    });
    let started = Instant::now();
    let deduced = engine.deduct(&problem);
    l.deduct_ms = ms(started.elapsed());
    let mut answer = None;
    let mut wrap = None;
    match deduced {
        DeductOutcome::Solved(body) => {
            l.deduct_solved = true;
            answer = Some(body);
        }
        DeductOutcome::Simplified(d) => {
            problem = d.problem;
            wrap = Some(d.wrap);
        }
        DeductOutcome::Unsolvable | DeductOutcome::Unchanged => {}
    }
    if answer.is_none() {
        let divider = Divider::new(DivideConfig {
            budget: Budget::from_timeout(LIMIT),
            ..DivideConfig::default()
        });
        let started = Instant::now();
        l.proposals = divider.divide(&problem).len();
        l.divide_ms = Some(ms(started.elapsed()));

        let pool = ExamplePool::default();
        let heights_started = Instant::now();
        for h in 1..=MAX_HEIGHT {
            if heights_started.elapsed() >= LIMIT {
                break;
            }
            let solver = FixedHeightSolver::new(fresh_height_config());
            let started = Instant::now();
            let result = solver.solve_at_height(&problem, h, &pool);
            l.heights.push((h, ms(started.elapsed())));
            match result {
                FixedHeightResult::Solved(t) => {
                    l.last_height = h;
                    l.heights_solved = true;
                    answer = Some(wrap.as_ref().map_or(t.clone(), |w| w(t)));
                    break;
                }
                FixedHeightResult::NoSolution | FixedHeightResult::Failed(_) => l.last_height = h,
                FixedHeightResult::Timeout => {}
                FixedHeightResult::Fault(m) => l.faults.push(format!("height {h}: {m}")),
            }
        }

        let timed = |backend: &dyn EnumBackend| {
            let started = Instant::now();
            let result = run_backend(backend, &problem);
            (ms(started.elapsed()), result)
        };
        let (seq_ms, seq) = timed(&FixedHeightBackend::new(fresh_height_config(), MAX_HEIGHT));
        let (band_ms, band) = timed(&ParallelHeightBackend::new(
            fresh_height_config(),
            MAX_HEIGHT,
            SOLVER_THREADS,
        ));
        for (name, result) in [("sequential", &seq), ("band", &band)] {
            if let Err(m) = result {
                l.faults.push(format!("{name} backend: {m}"));
            }
        }
        let solved = |r: &Result<Option<Term>, String>| matches!(r, Ok(Some(_)));
        l.backends = Some((band_ms, solved(&band), seq_ms, solved(&seq)));
    }
    if let Some(body) = answer {
        let started = Instant::now();
        let cert = certify_solution(
            &item.problem,
            &body,
            Some(&Budget::from_timeout(CERTIFY_WINDOW)),
        );
        let certify_ms = ms(started.elapsed());
        let smt = SmtSolver::with_config(
            SmtConfig::builder()
                .budget(Budget::from_timeout(CERTIFY_WINDOW))
                .build(),
        );
        let started = Instant::now();
        // Only the time matters here: the verdict is certify_solution's.
        let _ = smt.check_valid(&item.problem.verification_formula(&body));
        l.certify = Some((certify_ms, cert.certified(), ms(started.elapsed())));
    }
    l
}

/// Sums per metric name.
#[derive(Default)]
struct Totals(BTreeMap<&'static str, f64>);

impl Totals {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) / d
        } else {
            0.0
        }
    }
}

/// Operations of the traced run: solves, and layer calls that faulted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    cert_fail: u64,
}

impl Tally {
    fn count(&mut self, sample: &Sample, item: &Item, what: &str) {
        self.attempted += 1;
        if sample.verdict.is_failure() {
            self.failed += 1;
            eprintln!(
                "verdictbench: {what} {} failed: {:?}",
                item.name, sample.verdict
            );
        }
        self.cert_fail += u64::from(matches!(sample.verdict, Verdict::CertFail(_)));
    }
}

pub(crate) fn run(settings: &Settings, items: &[Item], target: &Target) -> Measured {
    let subset: Vec<usize> = (0..items.len())
        .step_by(settings.workload.trace_stride())
        .collect();
    let order = |pass| -> Vec<usize> {
        e2e::order(subset.len(), settings.seed, pass)
            .into_iter()
            .map(|k| subset[k])
            .collect()
    };
    let mut t = Totals::default();
    let mut tally = Tally::default();

    // On `daemon`: one closed-loop pass first, for the scheduler's latency
    // lines and the per-problem daemon verdicts the overhead is taken from.
    let mut daemon_verdicts: BTreeMap<&str, Sample> = BTreeMap::new();
    let mut daemon_latency = (0.0, 0.0);
    if let Target::Daemon(scheduler) = target {
        for (i, sample) in e2e::pass(target, items, &order(0), settings, 0) {
            tally.count(&sample, &items[i], "daemon");
            if sample.verdict.is_failure() {
                t.add("daemon.failed", 1.0);
            }
            daemon_verdicts.insert(&items[i].name, sample);
        }
        let p50 = |name: &str| {
            scheduler
                .stats()
                .latencies
                .iter()
                .find(|l| l.name == name)
                .map_or(0.0, |l| l.lifetime.p50_us as f64 / 1e3)
        };
        daemon_latency = (p50("queue_wait"), p50("solve_wall"));
    }

    let solver = match target {
        Target::Direct(solver) => solver.clone(),
        Target::Daemon(_) => direct_solver(THREADS_PER_SOLVE),
    };
    let mut spans = Vec::new();
    let mut solved_spans = BTreeMap::new();
    let mut daemon_overheads = Vec::new();
    let mut rows = Vec::new();
    for i in order(1) {
        let item = &items[i];
        let span = solve_direct(&solver, item, settings);
        tally.count(&span, item, "span");
        let span_solved = span.verdict == Verdict::Solved;
        spans.push(span.ms);
        if span_solved {
            for &(name, value) in &span.work {
                t.add(name, value as f64);
            }
            solved_spans.insert(i, span.ms);
        }
        if let Some(d) = daemon_verdicts.get(item.name.as_str()) {
            if span_solved && d.verdict == Verdict::Solved {
                daemon_overheads.push(d.ms - span.ms);
            }
        }

        let l = replay_layers(item);
        for fault in &l.faults {
            tally.failed += 1;
            eprintln!("verdictbench: {} engine fault: {fault}", item.name);
        }
        t.add("parser.busy_ms", l.parse_ms);
        t.add("invariant.busy_ms", l.summarize_ms);
        t.add("invariant.applied", f64::from(u8::from(l.summary_applied)));
        t.add("deduction.busy_ms", l.deduct_ms);
        t.add("deduction.solved", f64::from(u8::from(l.deduct_solved)));
        if let Some(d) = l.divide_ms {
            t.add("divide.busy_ms", d);
            t.add("divide.proposals", l.proposals as f64);
            t.add("fixed_height.problems", 1.0);
        }
        for &(h, h_ms) in &l.heights {
            t.add("fixed_height.busy_ms", h_ms);
            t.add("fixed_height.heights_tried", 1.0);
            t.add(HEIGHT_METRICS[h - 1], h_ms);
        }
        t.add("fixed_height.solved", f64::from(u8::from(l.heights_solved)));
        if let Some((band_ms, band, seq_ms, seq)) = l.backends {
            t.add("parallel.band_ms", band_ms);
            t.add("parallel.seq_ms", seq_ms);
            t.add("parallel.lost", f64::from(u8::from(seq && !band)));
            t.add("parallel.won", f64::from(u8::from(band && !seq)));
        }
        if let Some((certify_ms, certified, verify_ms)) = l.certify {
            t.add("certify.busy_ms", certify_ms);
            t.add("certify.fail", f64::from(u8::from(!certified)));
            t.add("smt.verify_ms", verify_ms);
        }
        let replay_solved = l.certify.is_some();
        if !replay_solved {
            t.add("replay.unsolved", 1.0);
        }
        rows.push(trace_row(settings, item, &span, &l, replay_solved));
    }

    // The tracing overhead: each solved span against an untraced solve of
    // the same problem by the same solver, in a pass with no layer calls.
    let mut overhead_ratios = Vec::new();
    for i in order(2)
        .into_iter()
        .filter(|i| solved_spans.contains_key(i))
    {
        let untraced = solve_direct(&solver, &items[i], settings);
        tally.count(&untraced, &items[i], "untraced");
        if untraced.verdict == Verdict::Solved {
            overhead_ratios.push(solved_spans[&i] / untraced.ms);
        }
    }

    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let problems = rows.len() as f64;
    let mut metrics = vec![
        metric("replay.problems", problems, "count"),
        metric("replay.unsolved", t.get("replay.unsolved"), "count"),
        metric("trace.solve_p50_ms", stats::median(&spans), "ms"),
        metric(
            "trace.overhead_ratio",
            if overhead_ratios.is_empty() {
                0.0
            } else {
                stats::median(&overhead_ratios) - 1.0
            },
            "ratio",
        ),
        metric("cert_fail", tally.cert_fail as f64, "count"),
    ];
    for &(name, unit) in &LAYER_METRICS {
        let value = match name {
            "deduction.solved_ratio" => t.get("deduction.solved") / problems,
            "fixed_height.solved_ratio" => t.ratio("fixed_height.solved", "fixed_height.problems"),
            "search.theory_conflict_ratio" => {
                t.ratio("search.theory_conflicts", "search.theory_checks")
            }
            "daemon.queue_wait_p50_ms" => daemon_latency.0,
            "daemon.solve_p50_ms" => daemon_latency.1,
            "daemon.overhead_p50_ms" => stats::median(&daemon_overheads),
            _ => t.get(name),
        };
        metrics.push(metric(name, value, unit));
    }
    Measured {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        cert_fail: tally.cert_fail,
        passes: 1,
        rows,
    }
}

const HEIGHT_METRICS: [&str; MAX_HEIGHT] = [
    "fixed_height.h1_ms",
    "fixed_height.h2_ms",
    "fixed_height.h3_ms",
    "fixed_height.h4_ms",
    "fixed_height.h5_ms",
];

/// The per-layer metrics after the replay bookkeeping ones, in
/// `BENCHMARK.json` order. Times and counts are totals over the problems
/// replayed; the work counts are totals over problems the solve span
/// solved, where they do not depend on the machine.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("parser.busy_ms", "ms"),
    ("invariant.busy_ms", "ms"),
    ("invariant.applied", "count"),
    ("deduction.busy_ms", "ms"),
    ("deduction.solved_ratio", "ratio"),
    ("divide.busy_ms", "ms"),
    ("divide.proposals", "count"),
    ("fixed_height.busy_ms", "ms"),
    ("fixed_height.h1_ms", "ms"),
    ("fixed_height.h2_ms", "ms"),
    ("fixed_height.h3_ms", "ms"),
    ("fixed_height.h4_ms", "ms"),
    ("fixed_height.h5_ms", "ms"),
    ("fixed_height.heights_tried", "count"),
    ("fixed_height.solved_ratio", "ratio"),
    ("parallel.band_ms", "ms"),
    ("parallel.seq_ms", "ms"),
    ("parallel.lost", "count"),
    ("parallel.won", "count"),
    ("smt.verify_ms", "ms"),
    ("certify.busy_ms", "ms"),
    ("certify.fail", "count"),
    ("smt.queries", "count"),
    ("cegis.rounds", "count"),
    ("fuel", "count"),
    ("search.theory_checks", "count"),
    ("search.simplex_pivots", "count"),
    ("search.dl_relaxations", "count"),
    ("search.conflicts", "count"),
    ("theory.dl_dispatched", "count"),
    ("theory.dl_fallbacks", "count"),
    ("search.theory_conflict_ratio", "ratio"),
    ("daemon.queue_wait_p50_ms", "ms"),
    ("daemon.solve_p50_ms", "ms"),
    ("daemon.overhead_p50_ms", "ms"),
    ("daemon.failed", "count"),
];

/// A trace row: the span's verdict and the replay's per-layer times as
/// `stage_micros`, so `bench explain` attributes differences to layers.
/// A problem the replay leaves unsolved explains itself with the last
/// height it finished and the span's work counts at the deadline.
fn trace_row(settings: &Settings, item: &Item, span: &Sample, l: &Layers, solved: bool) -> Json {
    let micros = |ms: f64| (ms * 1e3) as u64;
    let mut stages = vec![
        ("parse".to_owned(), micros(l.parse_ms)),
        ("summarize".to_owned(), micros(l.summarize_ms)),
        ("deduct".to_owned(), micros(l.deduct_ms)),
    ];
    if let Some(d) = l.divide_ms {
        stages.push(("divide".to_owned(), micros(d)));
    }
    for &(h, h_ms) in &l.heights {
        stages.push((format!("height{h}"), micros(h_ms)));
    }
    if let Some((band_ms, _, seq_ms, _)) = l.backends {
        stages.push(("band".to_owned(), micros(band_ms)));
        stages.push(("sequential".to_owned(), micros(seq_ms)));
    }
    if let Some((certify_ms, _, verify_ms)) = l.certify {
        stages.push(("certify".to_owned(), micros(certify_ms)));
        stages.push(("verify".to_owned(), micros(verify_ms)));
    }
    let work = |name: &str| {
        span.work
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let mut fields = vec![
        ("outcome", Json::str(span.verdict.label())),
        ("solved", Json::from(span.verdict == Verdict::Solved)),
        ("seconds", Json::from(span.ms / 1e3)),
        ("replay_solved", Json::from(solved)),
        ("stage_micros", crate::report::counter_obj(&stages)),
        ("search", crate::report::counter_obj(&span.search)),
        ("work", crate::report::counter_obj(&span.work)),
    ];
    if !solved {
        fields.push((
            "unsolved",
            Json::obj([
                ("last_height", Json::from(l.last_height)),
                ("fuel", Json::from(work("fuel"))),
                ("cegis.rounds", Json::from(work("cegis.rounds"))),
                (
                    "search.theory_checks",
                    Json::from(work("search.theory_checks")),
                ),
            ]),
        ));
    }
    crate::report::row_json(settings, item, fields)
}
