//! The workloads and the units of work the benchmark times: warm scalar
//! replays in the timed loop, and cold starts and B=8 batches in the
//! traced run.
//!
//! Every unit runs on one Mali-G71 MP8 device, as one closed-loop
//! client: each unit starts only after the previous one has finished and
//! been checked. Inputs are `test_input(spec, variant)` with variants
//! derived from the seed; their CPU reference outputs are computed once
//! in setup.

use crate::check::{
    check_output, f32_bytes, verify_batch, verify_cold, verify_scalar, Failure, Tally,
};
use crate::trace::Tracer;
use grt_attest::ProvenanceRecord;
use grt_core::compiled::{compile_from_ir, CompiledRecording};
use grt_core::replay::{workload_weights, Replayer, REPLAY_POLL_ITER_CAP};
use grt_core::session::{
    recording_trust_root, ClientDevice, RecordSession, RecorderMode, PROVISIONING_SECRET,
};
use grt_crypto::Sha256;
use grt_gpu::{GpuSku, ShaderOp};
use grt_lint::Linter;
use grt_ml::reference::{test_input, ReferenceNet};
use grt_ml::NetworkSpec;
use grt_net::NetConditions;
use grt_serve::{FetchOutcome, RecordingRegistry, RegistryConfig};
use std::rc::Rc;
use std::time::Instant;

/// Inputs per batched replay.
pub const BATCH: usize = 8;
/// Distinct inputs per run (two batches).
pub const POOL: usize = 2 * BATCH;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MNIST, scalar warm replay: carveout reset and receipts dominate.
    WarmSmall,
    /// ResNet12, scalar warm replay: kernels dominate.
    WarmLarge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::WarmSmall, Workload::WarmLarge];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSmall => "warm_small",
            Workload::WarmLarge => "warm_large",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The network the workload runs.
    pub fn spec(self) -> NetworkSpec {
        match self {
            Workload::WarmSmall => grt_ml::zoo::mnist(),
            Workload::WarmLarge => grt_ml::zoo::resnet12(),
        }
    }
}

/// The one SKU every workload runs on.
pub fn sku() -> GpuSku {
    GpuSku::mali_g71_mp8()
}

/// Seed-derived inputs with their staged bytes and CPU reference outputs.
pub struct Inputs {
    /// Input tensors.
    pub inputs: Vec<Vec<f32>>,
    /// Each input as the little-endian bytes the replayer digests.
    pub bytes: Vec<Vec<u8>>,
    /// `ReferenceNet` output for each input.
    pub reference: Vec<Vec<f32>>,
    /// Model parameters in recording slot order.
    pub weights: Vec<Vec<f32>>,
}

impl Inputs {
    /// [`POOL`] inputs for `spec`, derived from `seed`.
    pub fn new(spec: &NetworkSpec, seed: u64) -> Self {
        let net = ReferenceNet::new(spec.clone());
        let inputs: Vec<Vec<f32>> = (0..POOL as u64)
            .map(|i| test_input(spec, seed.wrapping_mul(1000).wrapping_add(i)))
            .collect();
        Inputs {
            bytes: inputs.iter().map(|x| f32_bytes(x)).collect(),
            reference: inputs.iter().map(|x| net.infer(x)).collect(),
            weights: workload_weights(spec),
            inputs,
        }
    }
}

/// A recording that passed verification, lint, and lowering, with its
/// signed provenance record and the lint report it binds.
pub struct Vetted {
    /// The compiled form warm replays run.
    pub compiled: Rc<CompiledRecording>,
    /// Provenance record replay receipts chain to.
    pub provenance: Rc<ProvenanceRecord>,
    /// The lint report JSON the provenance record digests.
    pub lint_json: String,
}

/// Record-side counts of one traced cold path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordCounts {
    /// Blocking round trips of the record run.
    pub blocking_rtts: u64,
    /// Memory-sync bytes of the record run, both directions.
    pub sync_bytes: u64,
    /// Modeled (virtual-clock) record delay, nanoseconds.
    pub modeled_record_ns: u64,
    /// Elements the lifted IR's copy instructions name, in-place
    /// (identity) copies included: the copy work the recording asks for.
    pub copy_elems: u64,
}

fn pipeline(e: impl std::fmt::Display) -> Failure {
    Failure::Pipeline(e.to_string())
}

/// One `RecordingRegistry::fetch` through a fresh one-entry registry:
/// record, verify, lift, lint, lower, and sign provenance in one call.
fn registry_fetch(spec: &NetworkSpec, sku: &GpuSku) -> Result<FetchOutcome, Failure> {
    let mut registry = RecordingRegistry::new(RegistryConfig::new(1));
    registry.fetch(spec, sku).map_err(pipeline)
}

impl From<FetchOutcome> for Vetted {
    fn from(f: FetchOutcome) -> Self {
        Vetted {
            compiled: f.compiled,
            provenance: f.provenance,
            lint_json: f.lint.to_json(),
        }
    }
}

/// Fetches the recording through a fresh one-entry registry.
pub fn fetch(spec: &NetworkSpec, sku: &GpuSku) -> Result<Vetted, Failure> {
    registry_fetch(spec, sku).map(Vetted::from)
}

/// What [`fetch`] does, one public layer call at a time, each in its own
/// span.
pub fn vet_traced(
    spec: &NetworkSpec,
    sku: &GpuSku,
    tr: &mut Tracer,
) -> Result<(Vetted, RecordCounts), Failure> {
    let s = tr.begin("core.record");
    let mut session = RecordSession::new(sku.clone(), NetConditions::wifi(), RecorderMode::OursMDS);
    let outcome = session.record(spec);
    // A registry fetch frees its record session before returning, too.
    drop(session);
    tr.end(s);
    let outcome = outcome.map_err(pipeline)?;

    let s = tr.begin("core.verify_parse");
    let parsed = outcome.recording.verify_and_parse(&recording_trust_root());
    tr.end(s);
    let parsed = parsed.ok_or_else(|| pipeline("recording signature"))?;

    let s = tr.begin("ir.lift");
    let ir = grt_core::ir::lift_recording(&parsed, sku.pte_quirk);
    tr.end(s);

    let s = tr.begin("lint.lint_ir");
    let report = Linter::new().lint_ir(&ir, sku, Some(spec));
    tr.end(s);
    if let Some(d) = report.first_error() {
        return Err(pipeline(format!("lint {}: {}", d.rule.id(), d.message)));
    }
    let copy_elems = ir
        .jobs
        .iter()
        .flat_map(|j| &j.descs)
        .flat_map(|d| &d.instrs)
        .map(|i| match i.op {
            ShaderOp::Copy { len, .. } => u64::from(len),
            _ => 0,
        })
        .sum();

    // `compile_from_ir` runs the fusion analysis itself; timing it alone
    // first lets the lowering's own time be reported apart from it.
    let s = tr.begin("ir.fusion_analyze");
    std::hint::black_box(grt_ir::fusion::analyze(&ir));
    tr.end(s);

    let s = tr.begin("core.compile_from_ir");
    let compiled = compile_from_ir(&parsed, ir, REPLAY_POLL_ITER_CAP);
    tr.end(s);
    let compiled = compiled.map_err(pipeline)?;

    let s = tr.begin("attest.provenance");
    let lint_json = report.to_json();
    let provenance = ProvenanceRecord::build(
        "registry",
        spec.name,
        sku.gpu_id,
        Sha256::digest(&outcome.recording.bytes),
        Sha256::digest(lint_json.as_bytes()),
        PROVISIONING_SECRET,
    );
    tr.end(s);

    let counts = RecordCounts {
        blocking_rtts: outcome.blocking_rtts,
        sync_bytes: outcome.sync_bytes,
        modeled_record_ns: outcome.delay.as_nanos(),
        copy_elems,
    };
    let vetted = Vetted {
        compiled: Rc::new(compiled),
        provenance: Rc::new(provenance),
        lint_json,
    };
    Ok((vetted, counts))
}

/// A fresh client device and a replayer chained to `provenance`.
pub struct Device {
    /// The device's hardware.
    pub client: ClientDevice,
    /// The replayer bound to it.
    pub replayer: Replayer,
}

impl Device {
    /// Builds the device and attaches the provenance chain.
    pub fn new(sku: &GpuSku, provenance: &ProvenanceRecord) -> Self {
        let clock = grt_sim::Clock::new();
        let stats = grt_sim::Stats::new();
        let client = ClientDevice::new(sku.clone(), &clock, &stats, PROVISIONING_SECRET);
        let mut replayer = Replayer::new(&client, Rc::new(Linter::new()));
        replayer.attach_provenance(provenance.digest());
        Device { client, replayer }
    }
}

/// One scalar warm replay of input `i`, its receipt check, and its
/// output check.
pub fn warm_unit(
    dev: &mut Device,
    vetted: &Vetted,
    inputs: &Inputs,
    i: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let s = tr.begin("core.replay_compiled");
    let r = dev
        .replayer
        .replay_compiled(&vetted.compiled, &inputs.inputs[i], &inputs.weights);
    tr.end(s);
    let result = r.map_err(pipeline).and_then(|(out, _)| {
        let s = tr.begin("attest.receipt_verify");
        let v = verify_scalar(dev.replayer.last_receipt(), &inputs.bytes[i], &out);
        tr.end(s);
        v.and_then(|()| check_output(&out, &inputs.reference[i]))
    });
    tally.add(1, result);
}

/// One B=8 batched replay of batch `b` of the pool, its batch receipt
/// check, and a per-lane output check.
pub fn batch_unit(
    dev: &mut Device,
    vetted: &Vetted,
    inputs: &Inputs,
    b: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let lanes = (b % (POOL / BATCH)) * BATCH..(b % (POOL / BATCH) + 1) * BATCH;
    let s = tr.begin("core.replay_batch");
    let r = dev.replayer.replay_compiled_batch(
        &vetted.compiled,
        &inputs.inputs[lanes.clone()],
        &inputs.weights,
    );
    tr.end(s);
    let outs = match r {
        Ok((outs, _)) if outs.len() == BATCH => outs,
        Ok(_) => return tally.add(BATCH, Err(Failure::Output)),
        Err(e) => return tally.add(BATCH, Err(pipeline(e))),
    };
    let s = tr.begin("attest.batch_receipt_verify");
    let v = verify_batch(
        dev.replayer.last_receipt(),
        &inputs.bytes[lanes.clone()],
        &outs,
    );
    tr.end(s);
    if let Err(f) = v {
        return tally.add(BATCH, Err(f));
    }
    for (out, reference) in outs.iter().zip(&inputs.reference[lanes]) {
        tally.add(1, check_output(out, reference));
    }
}

/// A completed cold start: the vetted recording and the device that ran
/// its first replay.
pub struct Cold {
    /// The recording as fetched (or vetted layer by layer).
    pub vetted: Vetted,
    /// The device the first replay ran on.
    pub dev: Device,
    /// Record-side counts (traced cold paths only).
    pub record: Option<RecordCounts>,
}

/// A cold start to the first verified inference of input `i`: fresh
/// registry (or, with tracing on, the same layers called one by one),
/// fresh device, first replay, full receipt-chain verification. Untraced
/// fetch times are appended to `fetch_ms`.
pub fn cold_unit(
    spec: &NetworkSpec,
    inputs: &Inputs,
    i: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
    fetch_ms: &mut Vec<f64>,
) -> Option<Cold> {
    let sku = sku();
    let vetted = if tr.enabled() {
        vet_traced(spec, &sku, tr).map(|(v, c)| (v, Some(c)))
    } else {
        // The lint report is serialised for the chain check after the
        // timer stops: the registry's own fetch does not serialise it.
        let t = Instant::now();
        let f = registry_fetch(spec, &sku);
        fetch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        f.map(|f| (Vetted::from(f), None))
    };
    let (vetted, record) = match vetted {
        Ok(v) => v,
        Err(f) => {
            tally.add(1, Err(f));
            return None;
        }
    };
    let mut dev = Device::new(&sku, &vetted.provenance);
    let s = tr.begin("core.first_replay");
    let r = dev
        .replayer
        .replay_compiled(&vetted.compiled, &inputs.inputs[i], &inputs.weights);
    tr.end(s);
    let result = r.map_err(pipeline).and_then(|(out, _)| {
        let s = tr.begin("attest.chain_verify");
        let v = verify_cold(
            dev.replayer.last_receipt(),
            &vetted.provenance,
            &vetted.lint_json,
            &inputs.bytes[i],
            &out,
        );
        tr.end(s);
        v.and_then(|()| check_output(&out, &inputs.reference[i]))
    });
    let ok = result.is_ok();
    tally.add(1, result);
    ok.then_some(Cold {
        vetted,
        dev,
        record,
    })
}
