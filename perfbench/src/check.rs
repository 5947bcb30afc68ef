//! Output and receipt checks. Every inference the benchmark times is
//! checked here; a check that fails counts the inference as failed and
//! never panics.

use grt_attest::{
    verify_batch_receipt_data, verify_chain, verify_receipt_data, ProvenanceRecord, ReplayReceipt,
};
use grt_core::session::PROVISIONING_SECRET;

/// Why one inference failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Record, vet, or replay returned an error.
    Pipeline(String),
    /// The replay succeeded but left no receipt.
    MissingReceipt,
    /// The receipt failed verification (the attest crate's stable code).
    Receipt(&'static str),
    /// The output differs from the CPU reference.
    Output,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Pipeline(e) => write!(f, "pipeline error: {e}"),
            Failure::MissingReceipt => write!(f, "no receipt"),
            Failure::Receipt(code) => write!(f, "receipt rejected [{code}]"),
            Failure::Output => write!(f, "output differs from the CPU reference"),
        }
    }
}

/// Same tolerance as `close()` in the repository's end-to-end tests.
pub fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() < 1e-3 * (1.0 + x.abs().max(y.abs())))
}

/// Little-endian bytes of an f32 tensor, as the replayer stages and
/// digests it.
pub fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Checks one output against its CPU reference.
pub fn check_output(output: &[f32], reference: &[f32]) -> Result<(), Failure> {
    if close(output, reference) {
        Ok(())
    } else {
        Err(Failure::Output)
    }
}

fn signed(receipt: Option<&ReplayReceipt>) -> Result<&ReplayReceipt, Failure> {
    let receipt = receipt.ok_or(Failure::MissingReceipt)?;
    if !receipt.verify(PROVISIONING_SECRET) {
        return Err(Failure::Receipt("receipt_signature"));
    }
    Ok(receipt)
}

/// Scalar warm replay: the receipt's signature, and its digests over the
/// staged input and the returned output.
pub fn verify_scalar(
    receipt: Option<&ReplayReceipt>,
    input_bytes: &[u8],
    output: &[f32],
) -> Result<(), Failure> {
    let receipt = signed(receipt)?;
    verify_receipt_data(receipt, input_bytes, &f32_bytes(output))
        .map_err(|e| Failure::Receipt(e.code()))
}

/// Batched replay: one receipt committing to every lane's input and to
/// the lane outputs concatenated in lane order.
pub fn verify_batch(
    receipt: Option<&ReplayReceipt>,
    input_lanes: &[Vec<u8>],
    outputs: &[Vec<f32>],
) -> Result<(), Failure> {
    let receipt = signed(receipt)?;
    let concat: Vec<u8> = outputs.iter().flat_map(|o| f32_bytes(o)).collect();
    verify_batch_receipt_data(receipt, input_lanes, &concat).map_err(|e| Failure::Receipt(e.code()))
}

/// First replay after a cold start: the full receipt chain against the
/// fetched provenance record and lint report, then the receipt's digests.
pub fn verify_cold(
    receipt: Option<&ReplayReceipt>,
    provenance: &ProvenanceRecord,
    lint_json: &str,
    input_bytes: &[u8],
    output: &[f32],
) -> Result<(), Failure> {
    let receipt = receipt.ok_or(Failure::MissingReceipt)?;
    verify_chain(receipt, provenance, lint_json, PROVISIONING_SECRET)
        .map_err(|e| Failure::Receipt(e.code()))?;
    verify_receipt_data(receipt, input_bytes, &f32_bytes(output))
        .map_err(|e| Failure::Receipt(e.code()))
}

/// Attempted and failed inference counts, with the first failure kept
/// for the error report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Inferences attempted.
    pub attempted: u64,
    /// Inferences whose replay, receipt, or output check failed.
    pub failed: u64,
    /// The first failure seen.
    pub first_failure: Option<Failure>,
}

impl Tally {
    /// Counts `inferences` attempts whose outcome is `result`: all of them
    /// fail together on `Err`.
    pub fn add(&mut self, inferences: usize, result: Result<(), Failure>) {
        let inferences = inferences as u64;
        self.attempted += inferences;
        if let Err(f) = result {
            self.failed += inferences;
            self.first_failure.get_or_insert(f);
        }
    }
}
