//! The repository benchmark: three seeded workloads, end-to-end metrics
//! from untraced runs and a per-layer split from traced runs. Every
//! response is checked against the independent reference models.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_bs10 --seed 1 --seconds 60 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod arrivals;
mod clock;
mod closed;
mod layers;
mod ledger;
mod pool;
mod report;
mod serve;
mod stats;

use report::Metrics;

/// What one run produced.
pub struct Outcome {
    /// Requests attempted (timed ones; setup's cold requests excluded).
    pub attempted: u64,
    /// Requests that failed: typed error, refusal, shed, missed
    /// deadline, or output off the reference by more than the
    /// tolerance. A broken ledger identity also counts.
    pub failed: u64,
    /// Reported metrics (the result line's).
    pub metrics: Metrics,
    /// Metrics printed next to them but not in the result line.
    pub printed: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Workload names.
const WORKLOADS: [&str; 3] = ["paper_bs10", "tiny_mix", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_bs10|tiny_mix|serve_mix> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("host: {}", report::host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let out = match args.workload.as_str() {
        "paper_bs10" => closed::run(&closed::PAPER_BS10, args.seed, args.seconds, args.trace),
        "tiny_mix" => closed::run(&closed::TINY_MIX, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    for note in &out.notes {
        println!("{note}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    for m in out.metrics.0.iter().chain(&out.printed.0) {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<28} {:>16.6} ratio", "error_rate", error_rate);
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
