//! `perfbench --workload <table3|zeroshot|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and the outcome digest, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use perfbench::stats::result_line;
use perfbench::Workload;

const USAGE: &str =
    "usage: perfbench --workload <table3|zeroshot|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = perfbench::run(args.workload, args.seed, args.seconds, args.trace, threads);
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "outcome_digest {:016x} (workload {:?}, seed {}, threads {threads})",
        outcome.digest, args.workload, args.seed
    );
    println!("{}", result_line(outcome.attempted, outcome.failed, &outcome.metrics));
    ExitCode::SUCCESS
}
