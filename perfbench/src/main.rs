//! The repository benchmark: end-to-end and per-layer performance of
//! CogniCryptGEN generation, in process and served by the daemon.
//!
//! ```text
//! perfbench --workload <engine_warm|serve_http_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--reference <dir>]
//! ```
//!
//! Every response is compared byte for byte with `reference/`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The exit code is 0 only when
//! every operation succeeded and every reference passed its checks.
//! `README.md` next to this file explains the workloads and metrics.

mod boot;
mod engine_warm;
mod idle;
mod json;
mod layers;
mod reference;
mod served;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cognicryptgen::core::memtrack::TrackingAlloc;
use cognicryptgen::load::workload::{build_schedule, schedule_fingerprint, Op, WorkloadSpec};
use cognicryptgen::usecases::{all_use_cases, UseCase};

use reference::References;

/// The allocator the CLI binary runs with, so allocation counts are
/// real and the benchmark runs the program as users run it.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

/// Client threads (and connections) driving load: the CPU count of the
/// 2-CPU machine the benchmark was tuned on, fixed so that runs on any
/// machine do the same work.
pub const CLIENTS: usize = 2;

/// Daemon accept workers per transport, and the engine's thread ceiling.
pub const WORKERS: usize = 2;

/// The use case every boot generates to prove it is ready: the one with
/// the smallest output, so that set-up time is boot work rather than
/// response transfer.
pub const FIRST_UC: u8 = 11;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `GenEngine`, closed loop over uniform use cases.
    EngineWarm,
    /// Daemon booted from sources, HTTP with hostile, reload, batch and
    /// snapshot traffic mixed in.
    ServeHttpMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "engine_warm" => Ok(Workload::EngineWarm),
            "serve_http_mixed" => Ok(Workload::ServeHttpMixed),
            other => Err(format!(
                "unknown workload `{other}` (engine_warm, serve_http_mixed)"
            )),
        }
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineWarm => "engine_warm",
            Workload::ServeHttpMixed => "serve_http_mixed",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued in the timed phases, all kinds.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// End-to-end metrics, measured with tracing off.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (`--trace 1` only).
    pub layers: Vec<Metric>,
}

/// Everything a workload needs from the command line and the files.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reference_dir: PathBuf,
    pub refs: References,
    pub cases: BTreeMap<u8, UseCase>,
}

impl Ctx {
    /// The use case with `id` (ids come from the catalogue, so present).
    pub fn case(&self, id: u8) -> &UseCase {
        &self.cases[&id]
    }

    /// Whether `source` is the reference output of use case `id`.
    pub fn matches(&self, id: u8, source: &str) -> bool {
        self.refs.get(&id).is_some_and(|r| r == source)
    }
}

/// A seeded schedule over the catalogue, with its fingerprint printed
/// so two runs can be shown to have driven the same inputs.
pub fn schedule(label: &str, spec: &WorkloadSpec) -> Vec<Op> {
    let ops = build_schedule(spec);
    println!(
        "schedule {label} seed={} ops={} zipf_s={} hostile_per_mille={} fingerprint={:016x}",
        spec.seed,
        ops.len(),
        spec.zipf_s,
        spec.hostile_per_mille,
        schedule_fingerprint(&ops)
    );
    ops
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut reference_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            "--reference" => reference_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        reference_dir,
    })
}

/// Prints the result line. A latency that counts a failed operation is
/// infinite, which JSON cannot carry: it prints as `null`, and only in
/// a run that is not correct anyway.
fn print_result(correct: bool, report: &Report, metrics: &[Metric]) -> bool {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        members.join(", ")
    );
    correct
}

fn run(args: Args) -> Result<ExitCode, String> {
    let refs = reference::load(&args.reference_dir)?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        reference_dir: args.reference_dir,
        refs,
        cases: all_use_cases().into_iter().map(|u| (u.id, u)).collect(),
    };
    println!(
        "workload {} seed {} seconds {} trace {} clients {CLIENTS} workers {WORKERS} cpus {}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let cpu_before = stats::cpu_ticks();
    let report = match ctx.workload {
        Workload::EngineWarm => engine_warm::run(&ctx)?,
        Workload::ServeHttpMixed => served::run(&ctx)?,
    };
    if let (Some(before), Some(after)) = (cpu_before, stats::cpu_ticks()) {
        // Time the host's hypervisor ran something else on this
        // machine's CPUs. Served tail latency follows it: a run with a
        // high share measured the host as much as the program.
        let (steal, total) = (after.0 - before.0, after.1 - before.1);
        println!(
            "cpu steal during the run: {:.1}% of cpu time",
            100.0 * steal as f64 / total.max(1) as f64
        );
    }

    // Outside every timed window: check each reference without the
    // generator, so a reference that matched a wrong output still fails.
    let problems = reference::check_independently(&ctx.refs);
    for p in &problems {
        eprintln!("reference check failed: {p}");
    }
    println!(
        "fail_ratio {} ratio (failed {} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let correct = report.failed == 0 && report.attempted > 0 && problems.is_empty();
    let correct = print_result(
        correct,
        &report,
        if ctx.trace {
            &report.layers
        } else {
            &report.e2e
        },
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return boot::child_main(&args[1..]);
    }
    let outcome = parse_args(&args).and_then(run);
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
