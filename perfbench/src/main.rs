//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>]`
//!
//! Prints a detail line (host fingerprint, sample counts, failures) and,
//! last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any correctness check fails, 2 on bad
//! arguments or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{repo_root, run, Opts, Workload};

const USAGE: &str =
    "usage: perfbench --workload <converge_er_sum|churn_tree_max|replay_tree_journaled> \
--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = repo_root().join(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke: false,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(result) => {
            for f in &result.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            println!("{}", result.detail_line(&opts));
            println!("{}", result.result_line());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
