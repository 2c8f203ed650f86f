//! `tibpre-benchmark` — the repository's benchmark.
//!
//! One invocation runs one workload against in-process kgc/store/proxy nodes
//! over loopback TCP, checks every output, prints every metric by name and
//! unit and ends with a one-line JSON summary.  See `README.md` beside this
//! package for the workloads, the metrics and how to read them.

mod check;
mod generator;
mod host;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;
mod world;
mod zipf;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Spec};

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: PathBuf,
}

const USAGE: &str = "usage: tibpre-benchmark --workload <name> --seed <n> --seconds <1..=60> \
                     --trace <0|1> [--out <dir>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let names = || {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        names.join(" | ")
    };
    let name = workload.ok_or_else(|| format!("missing --workload <{}>", names()))?;
    let spec =
        workload::find(&name).ok_or_else(|| format!("unknown workload {name} ({})", names()))?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1..=60"));
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    Ok(Args {
        spec,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        out: out.unwrap_or_else(|| {
            PathBuf::from(format!("benchmark/out/{name}-trace{}", u8::from(trace)))
        }),
    })
}

/// Any `TIBPRE_*` variable silently changes what the nodes do (fsync policy,
/// engine workers, record-cache size, crypto caches), so none may be set.
fn tibpre_variables() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("TIBPRE_"))
        .collect();
    set.sort();
    set
}

fn header(args: &Args) {
    let spec = args.spec;
    let window_ops = spec.window_ops(args.seconds);
    println!("# tibpre-benchmark {}", spec.name);
    println!("# why: {}", spec.why);
    println!("# commit: {}", host::commit());
    println!("# rustc: {}", host::rustc());
    println!(
        "# host: nproc {}, engine workers per node {} (shipped default), no TIBPRE_* variable set",
        host::nproc(),
        tibpre_engine::ReEncryptEngine::from_env().workers()
    );
    println!(
        "# out: {} on {}",
        args.out.display(),
        host::filesystem_of(&args.out)
    );
    println!(
        "# level: {}; nodes: {}; transport: loopback TCP",
        spec.level.label(),
        if spec.durable {
            "durable store and proxy, default fsync policy (always)"
        } else {
            "in-memory store and proxy"
        }
    );
    println!(
        "# fixture: {} patients x {} records x {} B, zipf {}, {} per connection",
        spec.patients,
        spec.records_per_patient,
        spec.payload_len,
        spec.zipf,
        spec.owned(0).len()
    );
    println!(
        "# load: closed loop, {} connection(s) x pipeline {}, churn every {}",
        spec.connections,
        spec.pipeline,
        spec.churn_every.map_or("never".to_string(), |n| format!(
            "{n} disclosures per connection"
        ))
    );
    println!(
        "# work: seed {}, warm-up {} ops, measured {} windows x {window_ops} ops \
         (fixed count: {} ops per second of --seconds {})",
        args.seed, spec.warmup_ops, spec.windows, spec.ops_per_budget_second, args.seconds
    );
}

/// The untraced run: the end-to-end metrics.
fn run_end_to_end(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let spec = args.spec;
    let ready = run::set_up(spec, &args.out, args.seed)?;
    let plan = run::plan(
        spec,
        &ready,
        spec.warmup_ops,
        spec.measured_ops(args.seconds),
    );
    let segment = run::segment(&plan, started)?;
    let mut failures = segment.failures;
    match spec.kind {
        Kind::Disclose => ready.world.shutdown(),
        Kind::Upload => {
            let (lost, reopen_ms) =
                run::verify_uploads(spec, ready.world, &ready.fixture, &segment.uploaded)?;
            let checked: usize = segment.uploaded.iter().map(Vec::len).sum();
            println!(
                "# reopen: store node restarted from disk in {reopen_ms:.1} ms, \
                 {checked} acknowledged records fetched and owner-decrypted"
            );
            failures.merge(&lost);
        }
    }
    let windows = segment.windows(spec.windows);
    let metrics = segment.end_to_end(&windows);
    report::print_metrics(&metrics);
    println!(
        "# whole run: {:.0} ms user+sys of nodes and generator over {} measured ops in {:.2} s",
        segment.cpu_ms,
        segment.measured(),
        segment.elapsed_s
    );
    for (name, values) in [
        ("op_per_s", &windows.rates),
        ("op_p50_us", &windows.percentiles(0.50)),
        ("op_p90_us", &windows.percentiles(0.90)),
    ] {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        println!("# windows {name}: {}", values.join(" "));
    }
    if !segment.churn_us.is_empty() {
        println!(
            "# churn: {} revoke/probe/re-install/disclose cycles, median {:.0} us",
            segment.churn_us.len(),
            stats::median(&segment.churn_us)
        );
    }
    Ok(finish(segment.attempted, &failures, true, &metrics))
}

/// Prints the summary line.  A failed operation makes the run incorrect, and
/// so does a check on the run as a whole (`sound`).
pub fn finish(
    attempted: u64,
    failures: &check::Failures,
    sound: bool,
    metrics: &[report::Metric],
) -> ExitCode {
    let failed = failures.total();
    let correct = failed == 0 && sound;
    println!("# failures: {}", failures.describe());
    println!("{}", report::summary(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tibpre-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = tibpre_variables();
    if !set.is_empty() {
        eprintln!(
            "tibpre-benchmark: refusing to run with {} set: the benchmark measures shipped defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // Node data, the trace and nothing else live under --out; a previous
    // run's files must not be recovered into this run's nodes.
    let _ = std::fs::remove_dir_all(&args.out);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("tibpre-benchmark: creating {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    header(&args);
    let outcome = if args.trace {
        traced::run(&args, started)
    } else {
        run_end_to_end(&args, started)
    };
    // Node data is large and of no use after the checks; the trace stays.
    for dir in ["store", "proxy", "layers"] {
        let _ = std::fs::remove_dir_all(args.out.join(dir));
    }
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tibpre-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
