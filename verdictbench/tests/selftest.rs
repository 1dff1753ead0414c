//! Self-test of the benchmark: short runs on a seeded subset print every
//! metric `BENCHMARK.json` names, with its unit; the per-problem rows read
//! back as a `bench compare` document; and a planted wrong answer lands in
//! `cert_fail` on both the direct and the daemon path.

use bench_harness::compare::BenchDoc;
use std::path::PathBuf;
use std::time::Duration;
use sygus_ast::Json;
use verdictbench::{check, run, Outcome, Plant, Settings, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn settings(workload: Workload, trace: bool, only: &[&str], tag: &str) -> Settings {
    Settings {
        workload,
        seed: 7,
        seconds: Duration::from_secs(1),
        trace,
        only: only.iter().map(|s| (*s).to_owned()).collect(),
        plant: None,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    }
}

/// Runs and returns the outcome with its result line parsed back.
fn run_and_print(settings: &Settings) -> (Outcome, Json) {
    let outcome = run(settings).expect("the run completes");
    let line = outcome.result_json().to_string();
    let printed = Json::parse(&line).expect("the result line is JSON");
    (outcome, printed)
}

fn assert_prints_every_metric(printed: &Json, list: &str) {
    let keys: Vec<&str> = match printed {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result line is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = printed.get("metrics").expect("metrics");
    let Json::Obj(fields) = metrics else {
        panic!("metrics is not an object")
    };
    let want = declared(list);
    assert_eq!(fields.len(), want.len(), "exactly the {list} metrics");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} is printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} has a value");
    }
}

fn rows_doc(outcome: &Outcome) -> BenchDoc {
    let text = std::fs::read_to_string(&outcome.rows_path).expect("rows written");
    BenchDoc::parse_any(&text).expect("rows read as a bench document")
}

#[test]
fn end_to_end_run_prints_every_declared_metric() {
    let s = settings(Workload::Clia, false, &["max2", "min2", "abs_diff"], "e2e");
    let (outcome, printed) = run_and_print(&s);
    assert_prints_every_metric(&printed, "end_to_end");
    assert_eq!(printed.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(printed.get("failed").and_then(Json::as_i64), Some(0));
    let metric = |name: &str| {
        printed
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("value")
    };
    assert_eq!(metric("solved"), 3.0);
    assert!(metric("setup_s") > 0.0 && metric("verdict_p50_ms") > 0.0);
    let doc = rows_doc(&outcome);
    assert_eq!(doc.runs.len(), 3);
    assert!(doc
        .runs
        .iter()
        .all(|r| r.solved && r.solver == "verdictbench/clia"));
    for key in [
        "nproc",
        "solver_threads",
        "theory",
        "limit_ms",
        "passes",
        "seed",
        "commit",
    ] {
        assert!(outcome.config.get(key).is_some(), "config records {key}");
    }
}

#[test]
fn traced_run_prints_every_declared_layer_metric() {
    for (workload, only) in [
        (Workload::GrammarInv, &["counter_to_8", "qm_max2"][..]),
        (Workload::Daemon, &["max2", "counter_to_8"][..]),
    ] {
        let s = settings(workload, true, only, "trace");
        let (outcome, printed) = run_and_print(&s);
        assert_prints_every_metric(&printed, "per_layer");
        assert_eq!(
            printed.get("failed").and_then(Json::as_i64),
            Some(0),
            "{workload:?}"
        );
        // The replay covers its fixed subset whatever the time allows.
        let subset = only.len().div_ceil(workload.trace_stride());
        let replayed = printed
            .get("metrics")
            .and_then(|m| m.get("replay.problems"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(replayed, Some(subset as f64), "{workload:?}");
        assert_eq!(rows_doc(&outcome).runs.len(), subset);
    }
}

#[test]
fn planted_wrong_answer_lands_in_cert_fail() {
    for workload in [Workload::Clia, Workload::Daemon] {
        let mut s = settings(workload, false, &["max2", "min2"], "plant");
        s.plant = Some(Plant {
            problem: "max2".into(),
            answer: "(+ x0 1)".into(),
        });
        let (outcome, printed) = run_and_print(&s);
        assert_eq!(
            printed.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload:?}"
        );
        // Every max2 answer fails and every min2 answer passes; fast
        // problems may run several times a pass, so count per problem.
        let failed = printed
            .get("failed")
            .and_then(Json::as_i64)
            .expect("failed");
        let attempted = printed
            .get("attempted")
            .and_then(Json::as_i64)
            .expect("attempted");
        let rows = std::fs::read_to_string(&outcome.rows_path).expect("rows");
        let doc = Json::parse(&rows).expect("rows are JSON");
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        let row = |name: &str| {
            runs.iter()
                .find(|r| r.get("benchmark").and_then(Json::as_str) == Some(name))
                .expect("a row per problem")
        };
        let samples = |name: &str| {
            row(name)
                .get("verdict_ms")
                .and_then(Json::as_arr)
                .map_or(0, |v| v.len() as i64)
        };
        let solved = |name: &str| row(name).get("solved_passes").and_then(Json::as_i64);
        assert!(
            failed >= 1 && failed == samples("max2") && failed + samples("min2") == attempted,
            "{workload:?}: {failed}/{attempted}"
        );
        assert_eq!(solved("max2"), Some(0), "{workload:?}");
        assert_eq!(solved("min2"), Some(samples("min2")), "{workload:?}");
        let outcome_of = |name: &str| {
            row(name)
                .get("outcome")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        assert_eq!(outcome_of("max2").as_deref(), Some("cert_fail"));
        assert_eq!(outcome_of("min2").as_deref(), Some("solved"));
    }
}

fn problem(name: &str) -> sygus_ast::Problem {
    sygus_benchmarks::suite()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark in the suite")
        .problem()
}

#[test]
fn concrete_check_rejects_without_smt() {
    let max2 = problem("max2");
    let wrong = check::read_answer(&max2, "(+ x0 1)");
    assert!(matches!(
        check::concrete_check(&max2, &wrong[0], 1),
        Err(check::Rejection::Counterexample(_))
    ));
    let right = check::read_answer(&max2, "(ite (>= x0 x1) x0 x1)");
    assert_eq!(check::concrete_check(&max2, &right[0], 1), Ok(()));

    // Semantically right but outside the `+`-only grammar.
    let plus_only = problem("plus_only_x3");
    let scaled = check::read_answer(&plus_only, "(* 3 x)");
    assert_eq!(
        check::concrete_check(&plus_only, &scaled[0], 1),
        Err(check::Rejection::Grammar)
    );
}

#[test]
fn printed_answers_read_back_in_their_own_shape() {
    // The parser would flatten nested sums out of the grammar.
    let twice = problem("twice_grammar_2");
    let body = check::read_answer(&twice, "(+ (+ x x) (+ x x))");
    assert!(twice.grammar_admits(&body[0]));
    assert_eq!(check::score(&twice, &body[0], 3), Ok(()));

    // `(- 3)` reads as the literal first and as a negation second.
    let max2 = problem("max2");
    let readings = check::read_answer(&max2, "(- 3)");
    assert_eq!(readings.len(), 2);
    assert_eq!(readings[0].as_int_const(), Some(-3));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_verdictbench");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "clia", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "clia",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
