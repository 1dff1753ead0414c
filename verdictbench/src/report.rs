//! What a run records besides its result line: the machine and
//! configuration, and one row per problem in the trajectory shape that
//! `bench compare` and `bench explain` read (`{"version", "runs": [...]}`
//! with `benchmark`, `solver`, `solved`, `seconds`, `stage_micros` and
//! `search` per run).

use crate::rng::{fnv1a, FNV_OFFSET};
use crate::{Item, Settings, DAEMON_CLIENTS, DAEMON_WORKERS, LIMIT};
use std::path::{Path, PathBuf};
use sygus_ast::Json;

/// The repository root this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The machine and configuration of a run.
pub fn config_json(settings: &Settings, problems: usize, passes: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let daemon = settings.workload == crate::Workload::Daemon;
    Json::obj([
        ("workload", Json::str(settings.workload.name())),
        ("trace", Json::from(settings.trace)),
        ("seed", Json::from(settings.seed)),
        ("seconds", Json::from(settings.seconds.as_secs_f64())),
        ("limit_ms", Json::from(LIMIT.as_millis() as u64)),
        ("passes", Json::from(passes)),
        ("problems", Json::from(problems)),
        ("nproc", Json::from(nproc)),
        (
            "solver_threads",
            Json::from(settings.workload.solver_threads()),
        ),
        (
            "daemon_workers",
            Json::from(if daemon { DAEMON_WORKERS } else { 0 }),
        ),
        (
            "daemon_clients",
            Json::from(if daemon { DAEMON_CLIENTS } else { 0 }),
        ),
        (
            "theory",
            Json::str(smtkit::theory::process_default_theory().as_str()),
        ),
        ("commit", Json::str(commit())),
        (
            "source_digest",
            Json::str(format!("{:016x}", source_digest())),
        ),
    ])
}

/// The checked-out commit, read from `.git` when the tree has one.
fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the paths and contents of the solver sources (`crates/`
/// and `Cargo.lock`), so a result names the code it measured even in a
/// tree without git metadata.
fn source_digest() -> u64 {
    let root = repo_root();
    let mut files = vec![root.join("Cargo.lock")];
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |hash, path| {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let hash = fnv1a(rel.to_string_lossy().as_bytes(), hash);
        fnv1a(&std::fs::read(path).unwrap_or_default(), hash)
    })
}

/// A `{name: count}` object.
pub fn counter_obj<S: AsRef<str>>(counters: &[(S, u64)]) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(name, value)| (name.as_ref().to_owned(), Json::from(*value)))
            .collect(),
    )
}

/// A per-problem row: identity fields first, then `fields`.
pub fn row_json(settings: &Settings, item: &Item, fields: Vec<(&str, Json)>) -> Json {
    let mut row = vec![
        ("benchmark", Json::str(&item.name)),
        ("track", Json::str(item.track.name())),
        (
            "solver",
            Json::str(format!("verdictbench/{}", settings.workload.name())),
        ),
    ];
    row.extend(fields);
    Json::obj(row)
}

/// The rows document of one run.
pub fn rows_document(config: &Json, rows: Vec<Json>) -> Json {
    Json::obj([
        ("version", Json::from(dryadsynth::REPORT_VERSION)),
        ("config", config.clone()),
        ("runs", Json::Arr(rows)),
    ])
}
