//! `perfbench` — the Globe benchmark: open-loop capacity and latency per
//! workload, and an outside-in per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-mostly --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the flight recorder
//! off; `--trace 1` is the separate traced run that reports the
//! per-layer metrics and the tracing overhead. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; every line before it is the human-readable
//! report. The exit code is non-zero when an output check fails.

mod gen;
mod probes;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use workloads::{workload, Workload, NAMES};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time budget of the run.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is one of {NAMES:?}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Generator threads: at most the core count, and at most two, so the
/// system under test keeps cores of its own on small machines.
fn generator_threads(cores: usize) -> usize {
    cores.clamp(1, 2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {NAMES:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = generator_threads(cores);
    stamp(&w, &args, cores, threads);
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        report::traced(&w, args.seed, budget, threads)
    } else {
        report::timed(&w, args.seed, budget, threads)
    };
    match result {
        Ok(report) => finish(&report),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn finish(report: &Report) -> ExitCode {
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed: {:?}", report.failures);
        ExitCode::FAILURE
    }
}

/// The header every report starts with: what ran, where, and how.
fn stamp(w: &Workload, args: &Args, cores: usize, threads: usize) {
    println!(
        "perfbench workload={} trace={}",
        w.name,
        u8::from(args.trace)
    );
    println!(
        "  cores={cores} git_rev={} seed={} seconds={}",
        git_rev(),
        args.seed,
        args.seconds
    );
    println!(
        "  backend={} shard_lanes={} storage={} docs={} replicas_per_doc={}",
        w.backend.name(),
        w.lanes(),
        w.storage(),
        w.docs,
        w.mirrors + 1
    );
    println!(
        "  load: open loop, Poisson arrivals, {threads} generator thread(s) multiplexing {} \
         handles over one EnginePort; latency phase at a fixed {} ops/s, {:.0}% reads, \
         {} B put_page writes",
        threads * w.docs * 2,
        w.nominal_rate,
        w.read_frac * 100.0,
        w.body_bytes
    );
    println!(
        "  no delay is injected between nodes: {} hop latency is processor, scheduler \
         and socket time only",
        match w.backend {
            workloads::Backend::Shard => "shard-channel",
            workloads::Backend::Tcp => "loopback TCP",
        }
    );
}

/// The commit the checkout came from, read from `.git` when there is
/// one (no subprocess); "unknown" in an exported tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .or_else(|| {
                read(".git/packed-refs").and_then(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
            })
            .map_or_else(
                || "unknown".to_string(),
                |r| r.trim().chars().take(12).collect(),
            ),
        None => head.chars().take(12).collect(),
    }
}
