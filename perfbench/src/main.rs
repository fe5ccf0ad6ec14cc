//! `xic-perfbench` — the socket-level benchmark of `xic-serve`.
//!
//! ```text
//! xic-perfbench --workload paper-insert|baseline-mixed|tenant-shards
//!               --seed N --seconds S --trace 0|1
//!               --serve-bin PATH --workdir DIR
//! ```
//!
//! `--trace 0` runs the plan against a real `xic-serve` over a Unix
//! socket and prints the end-to-end metrics; `--trace 1` replays the
//! same plan in-process, timing each layer's public functions, and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md next to this crate.

mod model;
mod plan;
mod report;
mod serve;
mod trace;
mod xmlscan;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: plan::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut serve_bin = None;
    let mut workdir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    plan::Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--workdir" => workdir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let plan = plan::build(args.workload, args.seed, args.seconds)?;
    println!(
        "workload {} seed {} gamma: {}; corpus {} B before, ~{} B after; {} documents; ops {} ({} warm-up per connection)",
        plan.workload.name(),
        plan.seed,
        plan.gamma_summary,
        plan.corpus_bytes.0,
        plan.corpus_bytes.1,
        plan.docs(),
        plan.attempted(),
        plan.warmup,
    );
    let dir = args.workdir.join(format!(
        "{}-{}-{}",
        plan.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = if args.trace {
        trace::run(&plan, &dir).and_then(|t| {
            print!("{}", t.describe());
            Ok(report::result_json(
                t.correct(),
                t.attempted(),
                t.failed(),
                &t.per_layer()?,
            ))
        })
    } else {
        serve::run(&plan, &args.serve_bin, &dir).map(|out| {
            let metrics = report::end_to_end(&out);
            print!("{}", report::describe(&out, &metrics));
            report::result_json(out.correct(), out.attempted(), out.failed(), &metrics)
        })
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xic-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xic-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
