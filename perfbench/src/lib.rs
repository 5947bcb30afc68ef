//! Host wall-clock benchmark of the GR-T record → vet → compile → replay
//! pipeline. See `README.md` beside this crate for the workloads, the
//! metrics, and how to run it.

pub mod check;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
