//! The untraced run, which measures the end-to-end metrics, and the
//! traced run, which breaks the same work down by layer.

use crate::check::{Failure, Tally};
use crate::stats::{median, peak_rss_mib, quantile};
use crate::trace::Tracer;
use crate::workload::{
    batch_unit, cold_unit, fetch, sku, warm_unit, Cold, Device, Inputs, Vetted, Workload, BATCH,
    POOL,
};
use std::time::{Duration, Instant};

/// Set-ups per run, on every workload; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Untimed units between set-up and the timed loop.
const WARMUP_UNITS: usize = 2;
/// Minimum repetitions of every traced phase.
const MIN_REPS: usize = 3;

/// Whether a metric is a host time, which varies run to run, or a count,
/// which repeats exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time (or a quantity derived from it).
    Time,
    /// Deterministic count or modeled virtual-clock figure.
    Count,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Time or count.
    pub kind: Kind,
}

fn time(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        kind: Kind::Time,
    }
}

fn count(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        kind: Kind::Count,
    }
}

/// What one run reports.
pub struct Report {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Timed units behind the latency percentiles.
    pub samples: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A workload ready for its timed loop: its inputs, the fetched
/// recording, and the device that replays it.
struct Setup {
    inputs: Inputs,
    vetted: Vetted,
    dev: Device,
}

fn setup(workload: Workload, seed: u64) -> Result<Setup, Failure> {
    let spec = workload.spec();
    let inputs = Inputs::new(&spec, seed);
    let vetted = fetch(&spec, &sku())?;
    let dev = Device::new(&sku(), &vetted.provenance);
    Ok(Setup {
        inputs,
        vetted,
        dev,
    })
}

/// Runs unit `k`: one warm replay of a pool input, checked.
fn unit(s: &mut Setup, k: usize, tr: &mut Tracer, tally: &mut Tally) {
    warm_unit(&mut s.dev, &s.vetted, &s.inputs, k % POOL, tr, tally)
}

/// The untraced run: [`SETUP_REPS`] set-ups, a short warm-up, then a
/// closed loop of units for `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, Failure> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut current = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so peak RSS counts one.
        drop(current.take());
        let t = Instant::now();
        current = Some(setup(workload, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = current.expect("at least one set-up ran");
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    for k in 0..WARMUP_UNITS {
        unit(&mut s, k, &mut tr, &mut tally);
    }

    let done_before = tally.attempted - tally.failed;
    let budget = Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut k = WARMUP_UNITS;
    loop {
        let t = Instant::now();
        unit(&mut s, k, &mut tr, &mut tally);
        samples.push(ms(t.elapsed()));
        k += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    let completed = tally.attempted - tally.failed - done_before;
    Ok(Report {
        metrics: vec![
            time("setup_s", median(&setup_s), "s"),
            time("latency_ms_p50", quantile(&samples, 0.5), "ms"),
            time("latency_ms_p90", quantile(&samples, 0.9), "ms"),
            time("inferences_per_s", completed as f64 / loop_s, "1/s"),
            time("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
        tally,
        samples: samples.len(),
    })
}

/// Runs one traced phase: `unit(tracer, k)` in pairs, first inside a
/// `root` span of its own request, then with tracing off. The pairs
/// interleave, so the untraced host times returned cover the same stretch
/// of host time as the traced ones. At least [`MIN_REPS`] pairs run, and
/// more until `until`.
fn phase(
    tr: &mut Tracer,
    root: &'static str,
    until: Instant,
    mut unit: impl FnMut(&mut Tracer, usize),
) -> Vec<f64> {
    let mut off = Tracer::new(false);
    let mut untraced = Vec::new();
    let mut k = 0;
    while untraced.len() < MIN_REPS || Instant::now() < until {
        tr.next_request();
        let s = tr.begin(root);
        unit(tr, k);
        tr.end(s);
        let t = Instant::now();
        unit(&mut off, k + 1);
        untraced.push(ms(t.elapsed()));
        k += 2;
    }
    untraced
}

/// The traced run, in phases on the workload's network:
///
/// 1. cold path, one public layer call per span, then the first replay;
///    its untraced twin is a registry fetch, then the first replay;
/// 2. scalar warm replays, then `Memory::wipe` alone on the carveout;
/// 3. B=8 batched replays, traced only, then B−1 carveout clones alone.
///
/// The warm phase, the workload's own, runs until 80% of `seconds`; the
/// cold phase runs [`MIN_REPS`] pairs and the batch phase [`MIN_REPS`]
/// traced units. Returns the per-layer metrics and the
/// tracer holding every span.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Report, Tracer), Failure> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.8);
    let spec = workload.spec();
    let inputs = Inputs::new(&spec, seed);
    let mut tr = Tracer::new(true);
    let mut tally = Tally::default();
    let mut fetch_ms = Vec::new();

    let mut last = None;
    phase(&mut tr, "e2e.cold", Instant::now(), |tr, k| {
        let cold = cold_unit(&spec, &inputs, k % POOL, tr, &mut tally, &mut fetch_ms);
        if let Some(c) = cold.filter(|c| c.record.is_some()) {
            last = Some(c);
        }
    });
    let Some(Cold {
        vetted,
        mut dev,
        record: Some(record),
    }) = last
    else {
        return Err(tally
            .first_failure
            .unwrap_or_else(|| Failure::Pipeline("no cold start succeeded".into())));
    };

    let untraced = phase(&mut tr, "e2e.warm", deadline, |tr, k| {
        warm_unit(&mut dev, &vetted, &inputs, k % POOL, tr, &mut tally)
    });
    let profile = dev.replayer.last_profile();
    for _ in 0..MIN_REPS {
        tr.next_request();
        let s = tr.begin("gpu.wipe");
        dev.client.mem.borrow_mut().wipe();
        tr.end(s);
    }

    // No untraced twin: the batch unit's overhead is not reported.
    for b in 0..MIN_REPS {
        tr.next_request();
        let s = tr.begin("e2e.batch");
        batch_unit(&mut dev, &vetted, &inputs, b, &mut tr, &mut tally);
        tr.end(s);
    }
    for _ in 0..MIN_REPS {
        tr.next_request();
        let s = tr.begin("gpu.lane_clone");
        let lanes: Vec<grt_gpu::Memory> = (1..BATCH)
            .map(|_| dev.client.mem.borrow().clone())
            .collect();
        tr.end(s);
        drop(std::hint::black_box(lanes));
    }

    let med = |name: &str| median(&tr.durations_ms(name));
    // Per cold request: lowering without the fusion analysis it runs, and
    // the layers a registry fetch is made of.
    let fusion = tr.per_request_ms("ir.fusion_analyze");
    let compile = tr.per_request_ms("core.compile_from_ir");
    let lower: Vec<f64> = compile.iter().map(|(r, c)| c - fusion[r]).collect();
    let fetch_layers = [
        "core.record",
        "core.verify_parse",
        "ir.lift",
        "lint.lint_ir",
        "core.compile_from_ir",
        "attest.provenance",
    ]
    .map(|name| tr.per_request_ms(name));
    // A request that reached the provenance span ran every layer before it.
    let fetch_parts: Vec<f64> = fetch_layers[5]
        .keys()
        .map(|r| fetch_layers.iter().map(|layer| layer[r]).sum())
        .collect();
    // Each untraced fetch ran right after the traced cold unit it pairs
    // with, so a pairwise difference cancels slow stretches of host time.
    let fetch_residual: Vec<f64> = fetch_ms
        .iter()
        .zip(&fetch_parts)
        .map(|(fetch, parts)| fetch - parts)
        .collect();
    let root = "e2e.warm";
    let e2e = med(root);
    let untraced_p50 = median(&untraced);
    let tlb = profile.exec.tlb;
    let macs: u64 = profile.exec.per_kind.iter().map(|k| k.macs).sum();

    let metrics = vec![
        time("core.record_ms", med("core.record"), "ms"),
        time("core.verify_parse_ms", med("core.verify_parse"), "ms"),
        time("ir.lift_ms", med("ir.lift"), "ms"),
        time("lint.lint_ir_ms", med("lint.lint_ir"), "ms"),
        time("ir.fusion_analyze_ms", med("ir.fusion_analyze"), "ms"),
        time("core.lower_ms", median(&lower), "ms"),
        time("attest.provenance_ms", med("attest.provenance"), "ms"),
        time("core.first_replay_ms", med("core.first_replay"), "ms"),
        time("attest.chain_verify_ms", med("attest.chain_verify"), "ms"),
        time("serve.fetch_residual_ms", median(&fetch_residual), "ms"),
        time("core.replay_compiled_ms", med("core.replay_compiled"), "ms"),
        time("gpu.wipe_ms", med("gpu.wipe"), "ms"),
        time(
            "attest.receipt_verify_ms",
            med("attest.receipt_verify"),
            "ms",
        ),
        time("core.replay_batch_ms", med("core.replay_batch"), "ms"),
        time("gpu.lane_clone_ms", med("gpu.lane_clone"), "ms"),
        time(
            "attest.batch_receipt_verify_ms",
            med("attest.batch_receipt_verify"),
            "ms",
        ),
        time("trace.cold_unit_ms", med("e2e.cold"), "ms"),
        time("trace.warm_unit_ms", med("e2e.warm"), "ms"),
        time("trace.batch_unit_ms", med("e2e.batch"), "ms"),
        time("trace.residual_ms", median(&tr.residuals_ms(root)), "ms"),
        time("trace.untraced_ms", untraced_p50, "ms"),
        time(
            "trace.overhead_pct",
            (e2e / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
        count("core.replay.events", profile.events as f64, "count"),
        count("gpu.tlb.hits", tlb.hits as f64, "count"),
        count("gpu.tlb.misses", tlb.misses as f64, "count"),
        count(
            "gpu.tlb.hit_ratio",
            tlb.hits as f64 / (tlb.hits + tlb.misses).max(1) as f64,
            "ratio",
        ),
        count("gpu.macs", macs as f64, "count"),
        count("ir.copy_elems", record.copy_elems as f64, "count"),
        count("gpu.alias_elems", profile.exec.alias_elems as f64, "count"),
        count(
            "ir.fusion.chains_fused",
            f64::from(profile.fusion.chains_fused),
            "count",
        ),
        count(
            "core.record.blocking_rtts",
            record.blocking_rtts as f64,
            "count",
        ),
        count("core.record.sync_bytes", record.sync_bytes as f64, "bytes"),
        count(
            "modeled.replay_ms",
            profile.total.as_nanos() as f64 / 1e6,
            "ms",
        ),
        count(
            "modeled.record_ms",
            record.modeled_record_ns as f64 / 1e6,
            "ms",
        ),
    ];
    let samples = tr.durations_ms(root).len();
    Ok((
        Report {
            metrics,
            tally,
            samples,
        },
        tr,
    ))
}
