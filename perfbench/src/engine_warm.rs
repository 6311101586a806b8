//! `engine_warm`: an in-process `GenEngine` booted from the embedded
//! CrySL sources, driven by [`CLIENTS`] threads calling `generate` in a
//! closed loop over a seeded uniform draw of every catalogue use case.
//! No transport runs, so engine and `javamodel` changes show here at
//! full size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cognicryptgen::core::GenEngine;
use cognicryptgen::load::workload::{catalogue_ids, OpKind, WorkloadSpec};

use crate::boot::{self, BOOTS};
use crate::layers::{self, CallTrace, ThreadTimings};
use crate::stats::{self, ns, Timeline, FAILED_NS, RESERVOIR};
use crate::{metric, schedule, Ctx, Metric, Report, CLIENTS, FIRST_UC, WORKERS};

/// Length of the draw the loop cycles through.
const SCHEDULE_OPS: u64 = 4096;

/// What one closed-loop phase measured.
struct LoopResult {
    attempted: u64,
    failed: u64,
    ok: u64,
    elapsed: Duration,
    blocks: usize,
    latency: Vec<Timeline>,
    traces: Vec<CallTrace>,
}

impl LoopResult {
    fn metrics(&self, label: &str, out: &mut Vec<Metric>) {
        let (p50, p99, rate, n) = stats::block_medians(&self.latency, self.blocks);
        let per_block = n / (self.blocks * CLIENTS) as u64;
        println!(
            "{label} closed loop: {n} latency samples in {} one-second blocks of {CLIENTS} threads \
             (~{} per thread and block beyond p99, at most {RESERVOIR} kept), \
             {} ok of {} attempted in {:.3} s",
            self.blocks,
            per_block / 100,
            self.ok,
            self.attempted,
            self.elapsed.as_secs_f64()
        );
        out.push(metric("latency_p50_ms", p50, "ms"));
        out.push(metric("latency_p99_ms", p99, "ms"));
        out.push(metric("throughput_per_s", rate, "ops/s"));
    }
}

/// Runs the closed loop for `seconds` with [`CLIENTS`] threads sharing
/// `engine`. When the engine's observer is `timings`, every call is
/// traced.
fn drive(
    ctx: &Ctx,
    engine: &GenEngine,
    timings: Option<&ThreadTimings>,
    ids: &[u8],
    seconds: f64,
) -> LoopResult {
    let blocks = stats::blocks_in(seconds);
    let mut buffers: Vec<Timeline> = (0..CLIENTS)
        .map(|slot| Timeline::new(blocks, ctx.seed.wrapping_add(slot as u64)))
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    for line in &mut buffers {
        line.begin(start);
    }
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<(u64, u64, u64, Vec<CallTrace>)> = std::thread::scope(|s| {
        let handles: Vec<_> = buffers
            .iter_mut()
            .enumerate()
            .map(|(slot, latency)| {
                let next = &next;
                s.spawn(move || {
                    let timings = timings.map(|t| t.bind(slot));
                    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, 0u64);
                    let mut traces = Vec::new();
                    loop {
                        let began = Instant::now();
                        if began >= deadline {
                            break;
                        }
                        let id = ids[next.fetch_add(1, Ordering::Relaxed) % ids.len()];
                        let uc = ctx.case(id);
                        attempted += 1;
                        let (elapsed_ns, result) = match timings {
                            None => {
                                let t = Instant::now();
                                let r = engine.generate(&uc.template);
                                (ns(t.elapsed()), r.map_err(|e| e.to_string()))
                            }
                            Some(timings) => {
                                let (trace, r) = layers::traced_generate(engine, timings, uc);
                                traces.push(trace);
                                (trace.generate_ns, r)
                            }
                        };
                        let verdict = result.and_then(|g| {
                            if ctx.matches(id, &g.java_source) {
                                Ok(())
                            } else {
                                Err("output differs from the reference".to_owned())
                            }
                        });
                        match verdict {
                            Ok(()) => {
                                ok += 1;
                                latency.push(began, elapsed_ns);
                            }
                            Err(e) => {
                                if failed == 0 {
                                    eprintln!("engine_warm: uc{id:02} failed: {e}");
                                }
                                failed += 1;
                                latency.push(began, FAILED_NS);
                            }
                        }
                    }
                    latency.finish();
                    (attempted, failed, ok, traces)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut result = LoopResult {
        attempted: 0,
        failed: 0,
        ok: 0,
        elapsed,
        blocks,
        latency: buffers,
        traces: Vec::new(),
    };
    for (attempted, failed, ok, traces) in per_thread {
        result.attempted += attempted;
        result.failed += failed;
        result.ok += ok;
        result.traces.extend(traces);
    }
    result
}

/// Generates every catalogue case once before timing starts. Outputs
/// are checked in the timed phase, where a mismatch counts as a failed
/// operation.
fn warm_up(engine: &GenEngine, ctx: &Ctx) -> Result<(), String> {
    for (id, uc) in &ctx.cases {
        engine
            .generate(&uc.template)
            .map_err(|e| format!("warm-up uc{id:02}: {e}"))?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let spec = WorkloadSpec {
        seed: ctx.seed,
        budget: SCHEDULE_OPS,
        hostile_per_mille: 0,
        reload_every: 0,
        snapshot_every: 0,
        zipf_s: 0.0,
        use_case_ids: catalogue_ids(),
        corpus: Vec::new(),
    };
    let ids: Vec<u8> = schedule("closed", &spec)
        .iter()
        .map(|op| match op.kind {
            OpKind::WellFormed { uc } => Ok(uc),
            _ => Err("a clean schedule held a non-generate op".to_owned()),
        })
        .collect::<Result<_, _>>()?;

    let boots = boot::run_children(ctx, "boot", BOOTS)?;
    let (setup_s, open_ms, build_ms, warm_ms) = boot::medians(&boots);
    let main = boot::boot_engine(&ctx.refs[&FIRST_UC])?;
    println!(
        "set-up: median of {} boots {setup_s:.6} s, each in ms: {:?}; this process booted in {:.6} s",
        boots.len(),
        boot::listing(&boots),
        main.sample.setup_s
    );
    warm_up(&main.engine, ctx)?;

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let cache_before = main.engine.cache_stats();
    let plain = drive(ctx, &main.engine, None, &ids, seconds);
    let mut report = Report {
        attempted: plain.attempted,
        failed: plain.failed,
        ..Report::default()
    };
    report.e2e.push(metric("setup_s", setup_s, "s"));
    plain.metrics("untraced", &mut report.e2e);
    if !ctx.trace {
        report
            .e2e
            .push(metric("peak_rss_mb", stats::peak_rss_mb()?, "MB"));
        return Ok(report);
    }

    // The traced half: the same engine set-up (rules, type table and
    // ORDER cache shared with the untraced engine), observed per thread.
    let timings = Arc::new(ThreadTimings::new(CLIENTS));
    let traced_engine = GenEngine::builder()
        .rules(main.rules.clone())
        .type_table(main.table.clone())
        .threads(WORKERS)
        .order_cache(main.engine.order_cache().clone())
        .observer(timings.clone())
        .build()
        .map_err(|e| format!("traced engine: {e}"))?;
    let traced = drive(ctx, &traced_engine, Some(&timings), &ids, seconds);
    let cache_after = main.engine.cache_stats();
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let mut traced_e2e = Vec::new();
    traced.metrics("traced", &mut traced_e2e);
    for m in &traced_e2e {
        println!("traced {} {} {}", m.name, m.value, m.unit);
    }

    let layers = &mut report.layers;
    layers.push(metric("rules.open_ms", open_ms, "ms"));
    layers.push(metric("core.engine_build_ms", build_ms, "ms"));
    layers.push(metric("core.warm_ms", warm_ms, "ms"));
    layers::phase_metrics(&traced.traces, layers);
    let allocs = layers::alloc_pass(&main.engine, ctx)?;
    layers::alloc_metrics(&allocs, layers);
    let javamodel = layers::javamodel_pass(&main.engine, ctx, layers)?;
    layers::cache_hit_ratio(cache_before, cache_after, layers);
    crate::served::absent_serve_metrics(layers);
    layers.push(metric(
        "tracing.overhead_ratio",
        traced_e2e[0].value / report.e2e[1].value,
        "ratio",
    ));
    layers::print_case_rows(ctx, &traced.traces, &allocs, &javamodel);
    report
        .e2e
        .push(metric("peak_rss_mb", stats::peak_rss_mb()?, "MB"));
    Ok(report)
}
