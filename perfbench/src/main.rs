//! The nbsp wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_kv|map_churn|llsc_hot --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints `#` notes (host metadata, the host-speed probe, sample counts,
//! any `# VIOLATION`) and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. Exits nonzero
//! when a correctness check fails. See README.md.

mod hist;
mod host;
mod llsc_hot;
mod map_churn;
mod report;
mod serve_kv;
mod team;
mod trace;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;
use team::Team;

/// The workloads, in BENCHMARK.json order.
pub const WORKLOADS: [&str; 3] = ["serve_kv", "map_churn", "llsc_hot"];

/// What every workload gets from the command line.
#[derive(Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The run's clock origin: span times are nanoseconds since it.
    pub epoch: Instant,
    pub team: Team,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn write_trace(workload: &str, seed: u64, o: &Outcome) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    trace::write_tsv(&mut out, &o.spans)?;
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in host::metadata(args.seed) {
        println!("# {line}");
    }
    println!(
        "# workload: {}, seconds: {}, trace: {}",
        args.workload,
        args.seconds,
        u8::from(args.traced)
    );
    let (mul, store) = host::probe();
    println!("# probe before: mul_ms={mul:.2} store_ms={store:.2}");

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        epoch: Instant::now(),
        team: Team::new(),
    };
    let mut outcome = match args.workload.as_str() {
        "serve_kv" => serve_kv::run(&run),
        "map_churn" => map_churn::run(&run),
        _ => llsc_hot::run(&run),
    };
    drop(run);
    outcome.set("peak_rss_mib", host::peak_rss_mib());

    let (mul, store) = host::probe();
    println!("# probe after: mul_ms={mul:.2} store_ms={store:.2}");
    if args.traced {
        match write_trace(&args.workload, args.seed, &outcome) {
            Ok(path) => println!("# spans written: {} to {path}", outcome.spans.len()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for v in &outcome.violations {
        println!("# VIOLATION {v}");
    }
    println!("{}", report::result_line(&outcome, args.traced));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
