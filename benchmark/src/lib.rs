//! # v10-benchmark — the benchmark of the V10 reproduction
//!
//! Four long-running workloads ([`workloads::Kind`]) exercise the
//! simulator's layers in different proportions. Each is generated
//! in-process from a seed, set up several times (timed apart from the
//! passes), run in interleaved timed passes, and then run once more as a
//! traced pass. The benchmark measures every layer from outside: it times
//! calls into the layers' public functions ([`trace`]), counts engine
//! events through the public `*_observed` entry points, and reads the
//! library's own reports. A counting global allocator (`src/alloc.rs`)
//! supplies heap figures.
//!
//! Every run passes a correctness gate: each pass's simulated outputs must
//! be bit-identical to the first pass's, the traced pass must reproduce
//! the untraced one, and the serving and fleet invariants must hold.
//!
//! See `README.md` next to this crate's manifest for the workloads, the
//! metrics, their bounds, and reference runs.

#![warn(missing_docs)]

mod alloc;
pub mod compare;
pub mod metrics;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
