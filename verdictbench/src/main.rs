//! `verdictbench --workload <clia|grammar-inv|daemon> --seed <n>
//! --seconds <n> --trace <0|1>`: runs one measurement and prints the
//! configuration line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. Per-problem rows
//! go to `results/` in this package.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use verdictbench::{run, Settings, Workload};

const USAGE: &str =
    "usage: verdictbench --workload <clia|grammar-inv|daemon> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|&s| s > 0),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: Duration::from_secs(seconds.ok_or("missing or zero --seconds")?),
        trace: trace.ok_or("missing --trace")?,
        only: Vec::new(),
        plant: None,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("verdictbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&settings) {
        Ok(outcome) => {
            eprintln!("verdictbench: rows in {}", outcome.rows_path.display());
            println!(
                "{}",
                sygus_ast::Json::obj([("config", outcome.config.clone())])
            );
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("verdictbench: {e}");
            ExitCode::FAILURE
        }
    }
}
