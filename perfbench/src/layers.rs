//! Per-layer measurements for the traced run, each taken from outside
//! the layer by timing calls into its public functions:
//!
//! * `core` phases — a `GenEngine` observed through the engine's own
//!   `PhaseTimings` (one per calling thread), with the benchmark's
//!   timer around each `generate`;
//! * `core` allocation — `memtrack::AllocScope` around untraced calls;
//! * `javamodel` — `check_unit`, `print_unit` and the type-table clone
//!   the generator makes per call, re-run on each case's output;
//! * `statemachine` — the ORDER cache's hit and miss counters.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cognicryptgen::core::memtrack::{AllocDelta, AllocScope};
use cognicryptgen::core::telemetry::{GenObserver, Phase, PhaseTimings, Span};
use cognicryptgen::core::{GenEngine, Generated};
use cognicryptgen::javamodel::printer::print_unit;
use cognicryptgen::javamodel::typecheck::check_unit;
use cognicryptgen::javamodel::typetable::ClassDef;
use cognicryptgen::statemachine::CacheStats;
use cognicryptgen::usecases::UseCase;

use crate::stats::{mean_of, median_of, ns};
use crate::{metric, Ctx, Metric};

/// Metric name of each phase, in `Phase::ALL` order.
const PHASE_METRICS: [&str; 5] = [
    "core.collect_us",
    "core.link_us",
    "core.select_us",
    "core.resolve_us",
    "core.assemble_us",
];

/// Repetitions per case of each `javamodel` call.
const JAVAMODEL_REPS: usize = 15;

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(0) };
}

/// A `PhaseTimings` per driving thread behind one observer, so a
/// single engine shared by several threads, as in the untraced run,
/// still yields the phase times of each call. A generate reports its
/// spans on the calling thread, which picks its slot with
/// [`ThreadTimings::bind`].
pub struct ThreadTimings(Vec<PhaseTimings>);

impl ThreadTimings {
    pub fn new(threads: usize) -> ThreadTimings {
        ThreadTimings((0..threads).map(|_| PhaseTimings::new()).collect())
    }

    /// Routes this thread's spans to slot `slot` and returns it.
    pub fn bind(&self, slot: usize) -> &PhaseTimings {
        SLOT.with(|s| s.set(slot));
        &self.0[slot]
    }
}

impl GenObserver for ThreadTimings {
    fn span_exit(&self, span: &Span<'_>, elapsed: Duration, alloc: AllocDelta) {
        self.0[SLOT.with(Cell::get)].span_exit(span, elapsed, alloc);
    }
}

/// One traced `generate`: the benchmark's own timer around the call and
/// the five phase times the engine reported through `PhaseTimings`.
#[derive(Debug, Clone, Copy)]
pub struct CallTrace {
    pub uc: u8,
    pub generate_ns: u64,
    pub phases_ns: [u64; 5],
}

/// Generates `uc` on `engine`, whose observer must route this thread's
/// spans to `timings` and no other thread's, and returns the call's
/// trace.
pub fn traced_generate(
    engine: &GenEngine,
    timings: &PhaseTimings,
    uc: &UseCase,
) -> (CallTrace, Result<Generated, String>) {
    timings.reset();
    let start = Instant::now();
    let result = engine.generate(&uc.template);
    let generate_ns = ns(start.elapsed());
    let mut phases_ns = [0u64; 5];
    for unit in timings.snapshot() {
        for phase in Phase::ALL {
            phases_ns[phase.index()] += ns(unit.phase(phase).total);
        }
    }
    (
        CallTrace {
            uc: uc.id,
            generate_ns,
            phases_ns,
        },
        result.map_err(|e| e.to_string()),
    )
}

/// Phase medians, the generate median, and the share of the generate
/// time the five phase medians account for.
pub fn phase_metrics(traces: &[CallTrace], out: &mut Vec<Metric>) {
    let us = |v: u64| v as f64 / 1e3;
    let mut phase_sum = 0.0;
    for (i, name) in PHASE_METRICS.iter().enumerate() {
        let m = median_of(traces.iter().map(|t| us(t.phases_ns[i])));
        phase_sum += m;
        out.push(metric(name, m, "us"));
    }
    let generate = median_of(traces.iter().map(|t| us(t.generate_ns)));
    out.push(metric("core.generate_us", generate, "us"));
    out.push(metric(
        "core.phase_share",
        if generate > 0.0 {
            phase_sum / generate
        } else {
            0.0
        },
        "ratio",
    ));
    println!("traced generates {}", traces.len());
}

/// Exact allocation counts of one untraced `generate` per catalogue
/// case, checked against the reference.
pub fn alloc_pass(engine: &GenEngine, ctx: &Ctx) -> Result<BTreeMap<u8, AllocDelta>, String> {
    let mut out = BTreeMap::new();
    for (id, uc) in &ctx.cases {
        let scope = AllocScope::enter();
        let generated = engine.generate(&uc.template);
        let delta = scope.finish();
        let generated = generated.map_err(|e| format!("uc{id:02}: {e}"))?;
        if !ctx.matches(*id, &generated.java_source) {
            return Err(format!("uc{id:02}: output differs from the reference"));
        }
        out.insert(*id, delta);
    }
    Ok(out)
}

/// Mean allocation per generate over the catalogue.
pub fn alloc_metrics(allocs: &BTreeMap<u8, AllocDelta>, out: &mut Vec<Metric>) {
    out.push(metric(
        "core.alloc_bytes_per_gen",
        mean_of(allocs.values().map(|d| d.allocated_bytes as f64)),
        "bytes",
    ));
    out.push(metric(
        "core.allocs_per_gen",
        mean_of(allocs.values().map(|d| d.allocations as f64)),
        "count",
    ));
}

/// Per-case `javamodel` medians in microseconds: (type check, print,
/// table clone).
pub type JavamodelRow = (f64, f64, f64);

/// Re-runs the assemble phase's `javamodel` calls on each case's
/// generated unit: the type-table clone plus template class the
/// generator makes per call, `check_unit` against that table, and
/// `print_unit`, whose output must equal the reference.
pub fn javamodel_pass(
    engine: &GenEngine,
    ctx: &Ctx,
    out: &mut Vec<Metric>,
) -> Result<BTreeMap<u8, JavamodelRow>, String> {
    let mut rows = BTreeMap::new();
    let (mut clone_all, mut check_all, mut print_all) = (Vec::new(), Vec::new(), Vec::new());
    for (id, uc) in &ctx.cases {
        let generated = engine
            .generate(&uc.template)
            .map_err(|e| format!("uc{id:02}: {e}"))?;
        let (mut clone_ns, mut check_ns, mut print_ns) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..JAVAMODEL_REPS {
            let t = Instant::now();
            let mut table = engine.table().clone();
            table.add(ClassDef::new(uc.template.class_name.clone()).ctor(vec![]));
            clone_ns.push(ns(t.elapsed()) as f64 / 1e3);

            let t = Instant::now();
            let checked = check_unit(black_box(&generated.unit), &table);
            check_ns.push(ns(t.elapsed()) as f64 / 1e3);
            checked.map_err(|e| format!("uc{id:02}: type check: {e}"))?;

            let t = Instant::now();
            let printed = print_unit(black_box(&generated.unit));
            print_ns.push(ns(t.elapsed()) as f64 / 1e3);
            if !ctx.matches(*id, &printed) {
                return Err(format!("uc{id:02}: reprint differs from the reference"));
            }
        }
        rows.insert(
            *id,
            (
                median_of(check_ns.iter().copied()),
                median_of(print_ns.iter().copied()),
                median_of(clone_ns.iter().copied()),
            ),
        );
        clone_all.extend(clone_ns);
        check_all.extend(check_ns);
        print_all.extend(print_ns);
    }
    out.push(metric(
        "javamodel.check_unit_us",
        median_of(check_all),
        "us",
    ));
    out.push(metric(
        "javamodel.print_unit_us",
        median_of(print_all),
        "us",
    ));
    out.push(metric(
        "javamodel.table_clone_us",
        median_of(clone_all),
        "us",
    ));
    Ok(rows)
}

/// Hits over lookups between two snapshots of one cache.
pub fn cache_hit_ratio(before: CacheStats, after: CacheStats, out: &mut Vec<Metric>) {
    let hits = after.hits.saturating_sub(before.hits);
    let misses = after.misses.saturating_sub(before.misses);
    println!("order cache over the timed phase: {hits} hits, {misses} misses");
    let lookups = hits + misses;
    out.push(metric(
        "statemachine.cache_hit_ratio",
        if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    ));
}

/// The per-use-case table of the traced `engine_warm` run.
pub fn print_case_rows(
    ctx: &Ctx,
    traces: &[CallTrace],
    allocs: &BTreeMap<u8, AllocDelta>,
    javamodel: &BTreeMap<u8, JavamodelRow>,
) {
    let us = |v: u64| v as f64 / 1e3;
    println!(
        "case  calls  collect_us link_us select_us resolve_us assemble_us generate_us \
         check_unit_us print_unit_us table_clone_us alloc_bytes_per_gen allocs_per_gen java_bytes"
    );
    for id in ctx.cases.keys() {
        let mine: Vec<&CallTrace> = traces.iter().filter(|t| t.uc == *id).collect();
        let phase = |i: usize| median_of(mine.iter().map(|t| us(t.phases_ns[i])));
        let alloc = allocs.get(id).copied().unwrap_or_default();
        let (check, print, clone) = javamodel.get(id).copied().unwrap_or_default();
        println!(
            "uc{id:02} {:>6} {:>10.2} {:>7.2} {:>9.2} {:>10.2} {:>11.2} {:>11.2} {:>13.2} {:>13.2} {:>14.2} {:>19} {:>14} {:>10}",
            mine.len(),
            phase(0),
            phase(1),
            phase(2),
            phase(3),
            phase(4),
            median_of(mine.iter().map(|t| us(t.generate_ns))),
            check,
            print,
            clone,
            alloc.allocated_bytes,
            alloc.allocations,
            ctx.refs[id].len(),
        );
    }
}
