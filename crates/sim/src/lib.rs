//! # v10-sim — simulation kernel for the V10 NPU multi-tenancy reproduction
//!
//! This crate provides the domain-neutral substrate shared by every other
//! crate in the workspace:
//!
//! * [`time`] — strongly-typed simulation time ([`Cycles`], [`CycleCount`],
//!   [`Micros`], [`Bytes`]) and clock-frequency conversions
//!   ([`Frequency`]).
//! * [`bandwidth`] — a water-filling (max-min fair) bandwidth allocator
//!   ([`WaterFilling`]) used to model HBM bandwidth sharing between
//!   concurrently executing operators and DMA prefetch flows.
//! * [`stats`] — exact latency statistics ([`LatencySummary`]: mean and
//!   interpolated p50/p95/p99) used by the metric collectors.
//! * [`rng`] — deterministic random sampling helpers (normal / lognormal via
//!   Box–Muller, bounded uniforms) on top of a seedable PRNG, so that every
//!   experiment in the workspace is reproducible from a seed.
//! * [`shard`] — deterministic cross-shard merge primitives for sharded
//!   fleet simulation ([`ShardMap`], [`EpochClock`], [`merge_messages`]):
//!   fixed core ownership plus a simulated-time total order on boundary
//!   messages, so an N-shard run replays the 1-shard event sequence
//!   bit for bit; and [`parallel_map_with`], the input-order thread
//!   fan-out the fleet plane and the bench sweeps share.
//! * [`convert`] — checked numeric conversions for cycle/byte accounting
//!   (exact integer→`f64`, saturating `f64`→integer), required by the
//!   `v10-lint` D3 rule in place of bare `as` casts.
//! * [`fault`] — deterministic fault injection: declarative [`FaultPlan`]s
//!   compiled into seeded, pre-sampled [`FaultInjector`] event streams that
//!   the engine crates replay bit-for-bit, plus fleet-scoped
//!   [`FleetFaultPlan`]s (shard crashes, region failures, link
//!   degrades/partitions) consumed at epoch boundaries by the fleet plane.
//! * [`repro`] — seed-replayable repro fixtures ([`ReproFixture`]) emitted
//!   by the adversarial property harness when it shrinks a violating
//!   scenario to a minimal coordinate tuple.
//! * [`error`] — the workspace-wide [`V10Error`] type returned by every
//!   fallible public constructor and runner in the higher-level crates.
//!
//! # Example
//!
//! ```
//! use v10_sim::{Frequency, Micros};
//!
//! // The paper's NPU runs at 700 MHz (Table 5): a 46 µs operator
//! // (Table 1) is 32 200 cycles, and back.
//! let clk = Frequency::mhz(700);
//! let cycles = clk.cycles_from_micros(Micros::new(46.0));
//! assert_eq!(cycles.as_u64(), 32_200);
//! assert!((clk.micros_from_cycles(cycles.as_u64()) - 46.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bandwidth;
pub mod convert;
pub mod error;
pub mod fault;
pub mod repro;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use bandwidth::{Flow, WaterFilling};
pub use error::{V10Error, V10Result};
pub use fault::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, FleetFaultEvent, FleetFaultKind,
    FleetFaultPlan,
};
pub use repro::{ReproFixture, ScenarioKnobs, REPRO_SCHEMA};
pub use rng::SimRng;
pub use shard::{merge_messages, parallel_map_with, DepartureMsg, EpochClock, ShardMap};
pub use stats::LatencySummary;
pub use time::{Bytes, CycleCount, Cycles, Frequency, Micros};
