//! Self-tests of the benchmark: tampered receipts and perturbed outputs
//! must be counted as failed operations, the traced run's counts must
//! repeat exactly for a seed, and both runs must emit exactly the metrics
//! `BENCHMARK.json` lists.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use grt_perfbench::check::{
    check_output, verify_batch, verify_cold, verify_scalar, Failure, Tally,
};
use grt_perfbench::run::{run, run_traced, Kind, Metric};
use grt_perfbench::trace::Tracer;
use grt_perfbench::workload::{
    batch_unit, fetch, sku, warm_unit, Device, Inputs, Vetted, Workload, BATCH,
};

fn mnist(seed: u64) -> (Inputs, Vetted, Device) {
    let spec = Workload::WarmSmall.spec();
    let inputs = Inputs::new(&spec, seed);
    let vetted = fetch(&spec, &sku()).expect("MNIST records and vets");
    let dev = Device::new(&sku(), &vetted.provenance);
    (inputs, vetted, dev)
}

#[test]
fn forged_receipts_are_counted_as_failed() {
    let (inputs, vetted, mut dev) = mnist(5);
    let (out, _) = dev
        .replayer
        .replay_compiled(&vetted.compiled, &inputs.inputs[0], &inputs.weights)
        .expect("replay");
    let genuine = dev.replayer.last_receipt().cloned().expect("receipt");
    let bytes = &inputs.bytes[0];
    assert_eq!(verify_scalar(Some(&genuine), bytes, &out), Ok(()));
    let cold = |r| verify_cold(r, &vetted.provenance, &vetted.lint_json, bytes, &out);
    assert_eq!(cold(Some(&genuine)), Ok(()));

    // Counters edited after signing; an output digest swapped in.
    let mut edited = genuine.clone();
    edited.counters.events += 1;
    let mut swapped = genuine.clone();
    swapped.output_digest[0] ^= 1;
    let mut tally = Tally::default();
    for forged in [&edited, &swapped] {
        for verdict in [verify_scalar(Some(forged), bytes, &out), cold(Some(forged))] {
            assert!(matches!(verdict, Err(Failure::Receipt(_))), "{verdict:?}");
            tally.add(1, verdict);
        }
    }
    tally.add(1, verify_scalar(None, bytes, &out));
    assert_eq!((tally.attempted, tally.failed), (5, 5));

    // A batch receipt presented for the wrong lane inputs.
    let lanes = &inputs.inputs[..BATCH];
    let (outs, _) = dev
        .replayer
        .replay_compiled_batch(&vetted.compiled, lanes, &inputs.weights)
        .expect("batched replay");
    let receipt = dev.replayer.last_receipt().cloned();
    assert_eq!(
        verify_batch(receipt.as_ref(), &inputs.bytes[..BATCH], &outs),
        Ok(())
    );
    let shifted = &inputs.bytes[1..=BATCH];
    assert!(matches!(
        verify_batch(receipt.as_ref(), shifted, &outs),
        Err(Failure::Receipt(_))
    ));
}

#[test]
fn perturbed_outputs_are_counted_as_failed() {
    let (mut inputs, vetted, mut dev) = mnist(6);
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    warm_unit(&mut dev, &vetted, &inputs, 0, &mut tr, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    // The output a replay returns, perturbed, fails both the reference
    // comparison and the receipt's output digest.
    let (mut out, _) = dev
        .replayer
        .replay_compiled(&vetted.compiled, &inputs.inputs[0], &inputs.weights)
        .expect("replay");
    out[0] += 1.0;
    assert_eq!(
        check_output(&out, &inputs.reference[0]),
        Err(Failure::Output)
    );
    let receipt = dev.replayer.last_receipt();
    assert!(verify_scalar(receipt, &inputs.bytes[0], &out).is_err());

    // Through the timed units: a reference that disagrees fails the
    // scalar unit, and fails exactly its own lane of a batch.
    inputs.reference[1][0] += 1.0;
    warm_unit(&mut dev, &vetted, &inputs, 1, &mut tr, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.first_failure, Some(Failure::Output));
    batch_unit(&mut dev, &vetted, &inputs, 0, &mut tr, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (2 + BATCH as u64, 2));

    // Staged input bytes that are not what the receipt committed to.
    inputs.bytes[2][0] ^= 1;
    warm_unit(&mut dev, &vetted, &inputs, 2, &mut tr, &mut tally);
    assert_eq!(tally.failed, 3);
}

fn counts(metrics: &[Metric]) -> Vec<(&'static str, u64)> {
    metrics
        .iter()
        .filter(|m| m.kind == Kind::Count)
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn traced_counts_repeat_exactly() {
    let traced = |seed| run_traced(Workload::WarmSmall, seed, 0.0).expect("traced run");
    let (a, _) = traced(3);
    let (b, tracer) = traced(3);
    assert_eq!(a.tally.failed, 0);
    assert!(counts(&a.metrics).len() >= 10);
    assert_eq!(counts(&a.metrics), counts(&b.metrics));
    assert!(tracer.spans().iter().any(|s| s.name == "ir.lift"));
}

/// The `"name"` values of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn runs_emit_exactly_the_listed_metrics() {
    let names = |m: &[Metric]| m.iter().map(|m| m.name.to_owned()).collect::<Vec<_>>();
    let untraced = run(Workload::WarmSmall, 1, 0.0).expect("untraced run");
    assert_eq!(untraced.tally.failed, 0);
    assert_eq!(names(&untraced.metrics), listed("end_to_end"));
    let (traced, _) = run_traced(Workload::WarmSmall, 1, 0.0).expect("traced run");
    assert_eq!(names(&traced.metrics), listed("per_layer"));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(listed("workloads"), workloads);
}
