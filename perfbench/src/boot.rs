//! Set-up time. A boot is only cold in a fresh process — the embedded
//! rule set and the compiled-ORDER cache are process-wide — so every
//! boot whose time is reported runs in a child process of this binary,
//! one after another, and the parent takes the median.
//!
//! Two child modes:
//!
//! * `boot` — the workload's own start-up, timed from its first call
//!   to its first verified response: rule-pack open, engine build and
//!   warm-up for `engine_warm`; `Server::start` (pack open, build,
//!   warm-up, socket bind) plus its first response, taken in process,
//!   for `serve_http_mixed`.
//! * `probe` — the daemon's start-up steps replayed one public call at
//!   a time (`rules::open`, engine build, `warm`), so the traced run
//!   can split `setup_s` into layers; the daemon itself only exposes
//!   `Server::start` as a whole.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cognicryptgen::core::engine::shared_order_cache;
use cognicryptgen::core::GenEngine;
use cognicryptgen::crysl::RuleSet;
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::javamodel::TypeTable;
use cognicryptgen::rules::{self, PackSource};
use cognicryptgen::usecases::all_use_cases;

use crate::{reference, served, stats, Ctx, Workload, FIRST_UC, WORKERS};

/// Boots timed per run; the median is `setup_s`.
pub const BOOTS: usize = 31;

/// Pause before each boot. A boot takes about a millisecond, and a
/// burst of interference on the host can slow every boot in a row of
/// them; spaced out, the boots span a quarter of a second and a burst
/// moves fewer of them.
const BOOT_GAP: Duration = Duration::from_millis(5);

/// Probe boots per traced served run.
pub const PROBES: usize = 5;

/// A child that has not finished by then is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// One timed start-up. The layer fields are `None` where the boot did
/// not split them (a daemon boot is one call).
#[derive(Debug, Clone, Copy)]
pub struct BootSample {
    pub setup_s: f64,
    pub open_ms: Option<f64>,
    pub build_ms: Option<f64>,
    pub warm_ms: Option<f64>,
}

impl BootSample {
    fn line(&self, mode: &str) -> String {
        let opt = |v: Option<f64>| v.map_or("-".to_owned(), |v| v.to_string());
        format!(
            "{mode} {} {} {} {}",
            self.setup_s,
            opt(self.open_ms),
            opt(self.build_ms),
            opt(self.warm_ms)
        )
    }

    fn parse(line: &str, mode: &str) -> Result<BootSample, String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| -> Result<Option<f64>, String> {
            if s == "-" {
                Ok(None)
            } else {
                s.parse().map(Some).map_err(|_| format!("bad field `{s}`"))
            }
        };
        match fields.as_slice() {
            [m, setup, open, build, warm] if *m == mode => Ok(BootSample {
                setup_s: num(setup)?.ok_or("missing setup time")?,
                open_ms: num(open)?,
                build_ms: num(build)?,
                warm_ms: num(warm)?,
            }),
            _ => Err(format!("unexpected child line `{line}`")),
        }
    }
}

/// An in-process engine over the embedded rules, booted the way
/// `engine_warm` boots it.
pub struct EngineBoot {
    pub engine: GenEngine,
    pub rules: Arc<RuleSet>,
    pub table: Arc<TypeTable>,
    pub sample: BootSample,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Opens the embedded pack, builds and warms an engine, and generates
/// [`FIRST_UC`], checking it against `expected`.
pub fn boot_engine(expected: &str) -> Result<EngineBoot, String> {
    let first = all_use_cases()
        .into_iter()
        .find(|u| u.id == FIRST_UC)
        .ok_or("catalogue lost its first use case")?;
    let t0 = Instant::now();
    let pack = rules::open(PackSource::Embedded).map_err(|e| format!("open: {e}"))?;
    let t1 = Instant::now();
    let rules = Arc::new(pack.rules);
    let table = Arc::new(jca_type_table());
    let engine = GenEngine::builder()
        .rules(rules.clone())
        .type_table(table.clone())
        .threads(WORKERS)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    engine.warm().map_err(|e| format!("warm: {e}"))?;
    let t3 = Instant::now();
    let generated = engine
        .generate(&first.template)
        .map_err(|e| format!("first generate: {e}"))?;
    if generated.java_source != expected {
        return Err("first generate differs from the reference".to_owned());
    }
    let t4 = Instant::now();
    Ok(EngineBoot {
        engine,
        rules,
        table,
        sample: BootSample {
            setup_s: (t4 - t0).as_secs_f64(),
            open_ms: Some(ms(t1 - t0)),
            build_ms: Some(ms(t2 - t1)),
            warm_ms: Some(ms(t3 - t2)),
        },
    })
}

/// The daemon's start-up sequence (`ServerState::new`) replayed through
/// public calls: open the embedded pack, seed the shared ORDER cache
/// from it, build the engine on that cache, warm it.
fn probe_daemon_boot() -> Result<BootSample, String> {
    let t0 = Instant::now();
    let pack = rules::open(PackSource::Embedded).map_err(|e| format!("open: {e}"))?;
    let t1 = Instant::now();
    let cache = shared_order_cache().clone();
    pack.seed(&cache);
    let engine = GenEngine::builder()
        .rules(pack.rules)
        .type_table(jca_type_table())
        .threads(WORKERS)
        .order_cache(cache)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    engine.warm().map_err(|e| format!("warm: {e}"))?;
    let t3 = Instant::now();
    Ok(BootSample {
        setup_s: (t3 - t0).as_secs_f64(),
        open_ms: Some(ms(t1 - t0)),
        build_ms: Some(ms(t2 - t1)),
        warm_ms: Some(ms(t3 - t2)),
    })
}

/// Runs `count` children of `mode` one after another and collects their
/// samples.
pub fn run_children(ctx: &Ctx, mode: &str, count: usize) -> Result<Vec<BootSample>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        std::thread::sleep(BOOT_GAP);
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--child",
            mode,
            "--workload",
            ctx.workload.name(),
            "--reference",
        ])
        .arg(&ctx.reference_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {mode} child: {e}"))?;
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{mode} child timed out"));
                }
                Err(e) => return Err(format!("{mode} child: {e}")),
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = child.stdout.take() {
            use std::io::Read;
            stdout
                .read_to_string(&mut out)
                .map_err(|e| format!("{mode} child output: {e}"))?;
        }
        if !status.success() {
            return Err(format!("{mode} child failed ({status})"));
        }
        samples.push(BootSample::parse(out.trim(), mode)?);
    }
    Ok(samples)
}

/// The set-up time of each boot in milliseconds, for the log.
pub fn listing(samples: &[BootSample]) -> Vec<f64> {
    samples
        .iter()
        .map(|b| (b.setup_s * 1e6).round() / 1e3)
        .collect()
}

/// Median set-up time of `samples`, and the median of each layer.
pub fn medians(samples: &[BootSample]) -> (f64, f64, f64, f64) {
    let col =
        |f: &dyn Fn(&BootSample) -> Option<f64>| stats::median_of(samples.iter().filter_map(f));
    (
        col(&|s| Some(s.setup_s)),
        col(&|s| s.open_ms),
        col(&|s| s.build_ms),
        col(&|s| s.warm_ms),
    )
}

/// Entry point of a child process: `--child <boot|probe> --workload <w>
/// --reference <dir>`.
pub fn child_main(args: &[String]) -> ExitCode {
    match child(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child: {e}");
            ExitCode::from(2)
        }
    }
}

fn child(args: &[String]) -> Result<String, String> {
    let mode = args.first().ok_or("child mode missing")?.clone();
    let mut workload = None;
    let mut reference_dir = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--reference" => reference_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown child flag {other}")),
        }
    }
    let workload = workload.ok_or("child needs --workload")?;
    let refs = reference::load(&reference_dir.ok_or("child needs --reference")?)?;
    let expected = refs
        .get(&FIRST_UC)
        .ok_or("no reference for the first use case")?;
    let sample = match (mode.as_str(), workload) {
        ("boot", Workload::EngineWarm) => boot_engine(expected)?.sample,
        ("boot", Workload::ServeHttpMixed) => {
            let (daemon, setup_s) = served::boot_daemon(expected)?;
            daemon.shutdown();
            BootSample {
                setup_s,
                open_ms: None,
                build_ms: None,
                warm_ms: None,
            }
        }
        ("probe", _) => probe_daemon_boot()?,
        (other, _) => return Err(format!("unknown child mode {other}")),
    };
    Ok(sample.line(&mode))
}
