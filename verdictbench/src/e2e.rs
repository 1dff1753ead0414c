//! The end-to-end measurement: seeded passes over the workload, each
//! request timed from submission to certified verdict.

use crate::check::{self, CERTIFY_WINDOW};
use crate::rng::{fnv1a, mix, SplitMix64, FNV_OFFSET};
use crate::{ms, stats, Item, Measured, Metric, Settings, Target, Workload, DAEMON_CLIENTS, LIMIT};
use dryadsynth::daemon::{Responder, Scheduler};
use dryadsynth::proto::{Request, Response, SolveJob};
use dryadsynth::{outcome_label, DryadSynth, SolveReport, SolveRequest, SynthOutcome, Synthesizer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use sygus_ast::{Json, Term};

/// How one request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Answered, and the answer passed every check.
    Solved,
    /// An honest timeout or give-up; the label is the solver's outcome.
    Unsolved(String),
    /// Answered as solved, but the answer failed a check.
    CertFail(String),
    /// An engine fault or a daemon `error`, `overloaded` or `cancelled`.
    Failed(String),
}

impl Verdict {
    pub(crate) fn label(&self) -> &str {
        match self {
            Verdict::Solved => "solved",
            Verdict::Unsolved(label) => label,
            Verdict::CertFail(_) => "cert_fail",
            Verdict::Failed(_) => "failed",
        }
    }

    pub(crate) fn is_failure(&self) -> bool {
        matches!(self, Verdict::CertFail(_) | Verdict::Failed(_))
    }
}

/// An answer as the solver returned it.
pub(crate) enum Answer<'a> {
    Term(&'a Term),
    Text(&'a str),
}

/// Scores an answer returned as solved. `solver_certified` is the verdict
/// of the solver's own `certify_solution` pass, which must be positive. A
/// term the solver returned is that certified term, so only the concrete
/// check runs on it; printed daemon text is read back and certified again,
/// and a planted answer replaces the solver's and is scored on its own.
pub(crate) fn judge(
    settings: &Settings,
    item: &Item,
    answer: Answer<'_>,
    solver_certified: Option<bool>,
) -> Verdict {
    let planted = settings.plant.as_ref().filter(|p| p.problem == item.name);
    if planted.is_none() && solver_certified != Some(true) {
        return Verdict::CertFail("the solver's own certification did not pass".into());
    }
    let seed = mix(&[settings.seed, fnv1a(item.name.as_bytes(), FNV_OFFSET)]);
    let verdict = |checked: Result<(), check::Rejection>| match checked {
        Ok(()) => Verdict::Solved,
        Err(why) => Verdict::CertFail(why.to_string()),
    };
    let text = match (planted, answer) {
        (Some(p), _) => p.answer.as_str(),
        (None, Answer::Text(text)) => text,
        (None, Answer::Term(body)) => {
            return verdict(check::concrete_check(&item.problem, body, seed))
        }
    };
    let readings = check::read_answer(&item.problem, text);
    // Of two readings of printed text, score the one the grammar derives.
    let Some(body) = readings
        .iter()
        .find(|t| item.problem.grammar_admits(t))
        .or(readings.first())
    else {
        return Verdict::CertFail("the answer does not parse".into());
    };
    verdict(check::score(&item.problem, body, seed))
}

/// One timed request.
pub(crate) struct Sample {
    pub(crate) verdict: Verdict,
    /// Request to verdict, milliseconds.
    pub(crate) ms: f64,
    /// Machine-independent work counts the solver reported.
    pub(crate) work: Vec<(&'static str, u64)>,
    /// The solver's own per-stage busy time, microseconds.
    pub(crate) stage_micros: Vec<(String, u64)>,
    /// The solver's `search.*` counters, prefix stripped, as `bench
    /// compare` reads them.
    pub(crate) search: Vec<(String, u64)>,
}

/// Report counters read as work counts: `(metric name, counter name)`.
const WORK_COUNTERS: [(&str, &str); 8] = [
    ("cegis.rounds", "cegis.rounds"),
    ("search.theory_checks", "search.theory_checks_total"),
    ("search.simplex_pivots", "search.simplex_pivots_total"),
    ("search.dl_relaxations", "search.dl_relaxations_total"),
    ("search.conflicts", "search.conflicts_total"),
    ("theory.dl_dispatched", "theory.dl_dispatched"),
    ("theory.dl_fallbacks", "theory.dl_fallbacks"),
    // The numerator of `search.theory_conflict_ratio`.
    ("search.theory_conflicts", "search.theory_conflicts_total"),
];

/// The machine-independent work counts of one solve, by metric name.
pub(crate) fn work_counts(report: &SolveReport) -> Vec<(&'static str, u64)> {
    let counters = &report.report.metrics.counters;
    let mut work = vec![
        ("smt.queries", report.stats.smt_queries),
        ("fuel", report.stats.fuel_spent),
    ];
    for (metric, name) in WORK_COUNTERS {
        let value = counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v);
        work.push((metric, value));
    }
    work
}

/// The report's `search.*` counters with the prefix stripped.
pub(crate) fn search_counters(report: &SolveReport) -> Vec<(String, u64)> {
    report
        .report
        .metrics
        .counters
        .iter()
        .filter_map(|(n, v)| Some((n.strip_prefix("search.")?.to_owned(), *v)))
        .collect()
}

/// Solves one problem directly, timing solve plus certification.
pub(crate) fn solve_direct(solver: &DryadSynth, item: &Item, settings: &Settings) -> Sample {
    let request = SolveRequest::new(&item.problem)
        .with_timeout(LIMIT)
        .certified(Some(CERTIFY_WINDOW))
        .with_source(item.name.clone());
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| solver.solve(&request)));
    let elapsed = ms(started.elapsed());
    let report = match result {
        Ok(report) => report,
        Err(_) => {
            return Sample {
                verdict: Verdict::Failed("engine_fault: the solve panicked".into()),
                ms: elapsed,
                work: Vec::new(),
                stage_micros: Vec::new(),
                search: Vec::new(),
            }
        }
    };
    let verdict = match &report.outcome {
        SynthOutcome::Solved(body) => judge(settings, item, Answer::Term(body), report.certified),
        other => match report.stats.faults.iter().find(|f| f.stage != "certify") {
            Some(fault) => Verdict::Failed(format!(
                "engine_fault in {}: {}",
                fault.stage, fault.message
            )),
            None => Verdict::Unsolved(outcome_label(other).to_owned()),
        },
    };
    let stage_micros = report
        .report
        .metrics
        .stages
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| (s.stage.to_owned(), s.total_micros))
        .collect();
    Sample {
        verdict,
        ms: elapsed,
        work: work_counts(&report),
        stage_micros,
        search: search_counters(&report),
    }
}

/// A closed-loop daemon client: sends one line and waits for its answer.
pub(crate) struct Client {
    reply: Responder,
    answers: mpsc::Receiver<Response>,
}

impl Client {
    pub(crate) fn new() -> Client {
        let (tx, answers) = mpsc::sync_channel(4);
        let reply: Responder = Arc::new(move |r| {
            // The client may have given up waiting; a late answer is dropped.
            let _ = tx.send(r);
        });
        Client { reply, answers }
    }

    /// Submits `item` and scores the answer, timing submission to answer.
    pub(crate) fn request(
        &self,
        scheduler: &Scheduler,
        item: &Item,
        id: String,
        settings: &Settings,
    ) -> Sample {
        let line = Request::Solve(SolveJob {
            id,
            sygus: item.source.clone(),
            timeout_ms: Some(LIMIT.as_millis() as u64),
            engine: None,
            certify: true,
        })
        .to_json()
        .to_string();
        let started = Instant::now();
        scheduler.handle_line(&line, &self.reply);
        // The daemon answers every admitted id; the wait is bounded anyway
        // so a lost answer shows as a failure, not a hang.
        let response = self
            .answers
            .recv_timeout(LIMIT + CERTIFY_WINDOW + Duration::from_secs(30));
        let elapsed = ms(started.elapsed());
        let mut work = Vec::new();
        let verdict = match response {
            Ok(Response::Outcome(o)) => {
                if let Some(s) = &o.stats {
                    work.push(("smt.queries", s.smt_queries));
                    work.push(("fuel", s.fuel_spent));
                }
                match (o.outcome.as_str(), &o.solution) {
                    ("solved", Some(text)) => {
                        judge(settings, item, Answer::Text(text), o.certified)
                    }
                    ("timeout" | "gave-up" | "resource-exhausted", _) => {
                        Verdict::Unsolved(o.outcome.clone())
                    }
                    (other, _) => Verdict::Failed(format!(
                        "daemon answered {other}: {}",
                        o.reason.unwrap_or_default()
                    )),
                }
            }
            Ok(Response::Error { message, .. }) => {
                Verdict::Failed(format!("daemon error: {message}"))
            }
            Ok(other) => Verdict::Failed(format!("unexpected response {}", other.to_json())),
            Err(_) => Verdict::Failed("no answer from the daemon".into()),
        };
        Sample {
            verdict,
            ms: elapsed,
            work,
            stage_micros: Vec::new(),
            search: Vec::new(),
        }
    }
}

/// One pass over the workload in `order`; returns `(problem index, sample)`.
pub(crate) fn pass(
    target: &Target,
    items: &[Item],
    order: &[usize],
    settings: &Settings,
    pass: usize,
) -> Vec<(usize, Sample)> {
    match target {
        Target::Direct(solver) => order
            .iter()
            .map(|&i| (i, solve_direct(solver, &items[i], settings)))
            .collect(),
        Target::Daemon(scheduler) => {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..DAEMON_CLIENTS)
                    .map(|_| {
                        scope.spawn(|| {
                            let client = Client::new();
                            let mut out = Vec::new();
                            loop {
                                let k = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(&i) = order.get(k) else { break };
                                let id = format!("p{pass}-{k}-{}", items[i].name);
                                out.push((i, client.request(scheduler, &items[i], id, settings)));
                            }
                            out
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("a daemon client panicked"))
                    .collect()
            })
        }
    }
}

/// Every problem still running takes part in the first this many passes,
/// and peak memory is read from them.
const FULL_PASSES: usize = 3;
/// After [`FULL_PASSES`], a problem below the p75 band whose requests take
/// `t` at the median is due `sqrt(QUANTUM_MS / t)` samples a pass, at most
/// [`MAX_REPEATS`]: fast problems run several times a pass, slower ones
/// spend time in proportion to `sqrt(t)`.
const QUANTUM_MS: f64 = 20.0;
/// The most times one problem runs in one pass.
const MAX_REPEATS: usize = 4;

/// Problems whose median request time lies within this factor of the p75
/// of those times run once every pass.
const P75_BAND: f64 = 1.5;

/// Where a problem's median request time lies against the p75 of those
/// times. Medians, not the reported fastest times, decide it: the fastest
/// of many samples reads lower than the fastest of few, and that must not
/// decide which problems get many.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rank {
    /// Below the band: sampled by [`QUANTUM_MS`].
    Below,
    /// Within [`P75_BAND`] of the p75: these decide `verdict_p75_ms`, so
    /// each runs once every pass.
    AtP75,
    /// Above the band: it decides neither `verdict_p50_ms` nor
    /// `verdict_p75_ms`, and after [`FULL_PASSES`] its time buys samples of
    /// those that do.
    Above,
}

/// The rank of each problem given the median request times `costs`.
fn ranks(costs: &[f64]) -> Vec<Rank> {
    let p75 = stats::quantile(costs, 0.75).unwrap_or(0.0);
    costs
        .iter()
        .map(|&c| match c {
            c if c < p75 / P75_BAND => Rank::Below,
            c if c <= p75 * P75_BAND => Rank::AtP75,
            _ => Rank::Above,
        })
        .collect()
}

/// How many times a problem runs in pass `pass`, given its samples so far
/// and its rank. It stops once it has reached the limit in as many passes
/// as the workload allows, and is charged the limit for the passes it sits
/// out.
fn runs_in(workload: Workload, samples: &[Sample], rank: Rank, pass: usize) -> usize {
    let timeouts = samples
        .iter()
        .filter(|s| matches!(s.verdict, Verdict::Unsolved(_)))
        .count();
    if timeouts >= workload.timeout_strikes() {
        return 0;
    }
    if pass < FULL_PASSES {
        return 1;
    }
    match rank {
        Rank::Above => 0,
        Rank::AtP75 => 1,
        Rank::Below => {
            let due =
                ((pass + 1) as f64 * (QUANTUM_MS / median_ms(samples)).sqrt()).ceil() as usize;
            due.saturating_sub(samples.len()).min(MAX_REPEATS)
        }
    }
}

/// The median time of a problem's requests, solved or not.
fn median_ms(samples: &[Sample]) -> f64 {
    stats::median(&samples.iter().map(|s| s.ms).collect::<Vec<_>>())
}

/// A problem's verdict time for the metrics: its fastest solve when it
/// solved in most of its passes, else the limit. Other processes on the
/// machine only ever add time, and they can slow a whole run: the median of
/// a problem's samples moved by half between runs of the same code, while
/// the fastest of many interleaved samples moved by under a tenth.
fn problem_ms(samples: &[Sample], limit_ms: f64) -> f64 {
    let solved: Vec<f64> = samples
        .iter()
        .filter(|s| s.verdict == Verdict::Solved)
        .map(|s| s.ms)
        .collect();
    if 2 * solved.len() > samples.len() {
        solved.into_iter().fold(f64::INFINITY, f64::min)
    } else {
        limit_ms
    }
}

/// The seeded problem order of pass `pass`.
pub(crate) fn order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(mix(&[seed, pass])).shuffle(&mut order);
    order
}

/// Runs passes until the next one would overrun `settings.seconds` (at
/// least one), then computes the end-to-end metrics.
pub(crate) fn run(settings: &Settings, items: &[Item], target: &Target, setup_s: f64) -> Measured {
    let limit_ms = ms(LIMIT);
    let mut samples: Vec<Vec<Sample>> = items.iter().map(|_| Vec::new()).collect();
    let clients = match target {
        Target::Direct(_) => 1.0,
        Target::Daemon(_) => DAEMON_CLIENTS as f64,
    };
    let mut peaks: Vec<f64> = Vec::new();
    let mut times = vec![0.0; items.len()];
    let mut rank = vec![Rank::Below; items.len()];
    let mut passes = 0;
    let started = Instant::now();
    let counts = |samples: &[Vec<Sample>], rank: &[Rank], pass: usize| -> Vec<usize> {
        (0..items.len())
            .map(|i| runs_in(settings.workload, &samples[i], rank[i], pass))
            .collect()
    };
    loop {
        let mut order: Vec<usize> = counts(&samples, &rank, passes)
            .into_iter()
            .enumerate()
            .flat_map(|(i, n)| std::iter::repeat_n(i, n))
            .collect();
        SplitMix64::new(mix(&[settings.seed, passes as u64])).shuffle(&mut order);
        // Trimming makes the next solves fault their pages back in, so it
        // happens only before the passes that memory is read from.
        let full = passes < FULL_PASSES;
        if full {
            stats::release_free_memory();
            stats::reset_peak_rss();
        }
        for (i, sample) in pass(target, items, &order, settings, passes) {
            samples[i].push(sample);
        }
        if full {
            peaks.push(stats::peak_rss_mib());
        }
        passes += 1;
        times = samples.iter().map(|s| problem_ms(s, limit_ms)).collect();
        rank = ranks(&samples.iter().map(|s| median_ms(s)).collect::<Vec<_>>());
        // Start another pass only if its predicted length still fits.
        let next_ms: f64 = counts(&samples, &rank, passes)
            .into_iter()
            .zip(&samples)
            .filter_map(|(n, s)| Some(n as f64 * s.last()?.ms))
            .sum();
        let next = Duration::from_secs_f64(next_ms / 1e3 / clients);
        if started.elapsed() + next > settings.seconds {
            break;
        }
    }
    let per_problem = times;
    // Each problem adds the share of its runs that solved: the expected
    // number of solves in one pass over the whole workload.
    let solved: f64 = samples
        .iter()
        .map(|s| s.iter().filter(|x| x.verdict == Verdict::Solved).count() as f64 / s.len() as f64)
        .sum();
    let all = samples.iter().flatten();
    let cert_fail = all
        .clone()
        .filter(|s| matches!(s.verdict, Verdict::CertFail(_)))
        .count();
    let failed = all.clone().filter(|s| s.verdict.is_failure()).count();
    for (item, s) in items.iter().zip(&samples) {
        for x in s.iter().filter(|x| x.verdict.is_failure()) {
            eprintln!("verdictbench: {} failed: {:?}", item.name, x.verdict);
        }
    }
    let metrics = vec![
        Metric {
            name: "solved",
            value: solved,
            unit: "count",
        },
        Metric {
            name: "verdict_p50_ms",
            value: stats::median(&per_problem),
            unit: "ms",
        },
        Metric {
            name: "verdict_p75_ms",
            value: stats::quantile(&per_problem, 0.75).unwrap_or(0.0),
            unit: "ms",
        },
        Metric {
            name: "verdict_geomean_ms",
            value: stats::geomean(&per_problem),
            unit: "ms",
        },
        Metric {
            name: "pass_wall_s",
            value: per_problem.iter().sum::<f64>() / 1e3 / clients,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: stats::median(&peaks),
            unit: "MiB",
        },
    ];
    let rows = items
        .iter()
        .zip(&samples)
        .zip(&per_problem)
        .map(|((item, s), &verdict_ms)| row(settings, item, s, verdict_ms))
        .collect();
    Measured {
        metrics,
        attempted: all.clone().count() as u64,
        failed: failed as u64,
        cert_fail: cert_fail as u64,
        passes,
        rows,
    }
}

/// One per-problem row in the trajectory shape `bench compare` reads.
fn row(settings: &Settings, item: &Item, samples: &[Sample], verdict_ms: f64) -> Json {
    let solved = samples
        .iter()
        .filter(|s| s.verdict == Verdict::Solved)
        .count();
    let last = samples.last().expect("every problem runs once per pass");
    let fields = vec![
        ("outcome", Json::str(last.verdict.label())),
        ("solved", Json::from(2 * solved > samples.len())),
        (
            "certified",
            Json::from(
                !samples
                    .iter()
                    .any(|s| matches!(s.verdict, Verdict::CertFail(_))),
            ),
        ),
        ("solved_passes", Json::from(solved)),
        ("seconds", Json::from(verdict_ms / 1e3)),
        (
            "verdict_ms",
            Json::Arr(samples.iter().map(|s| Json::from(s.ms)).collect()),
        ),
        (
            "stage_micros",
            crate::report::counter_obj(&last.stage_micros),
        ),
        ("search", crate::report::counter_obj(&last.search)),
        ("work", crate::report::counter_obj(&last.work)),
    ];
    crate::report::row_json(settings, item, fields)
}
