//! Strongly-typed simulation time.
//!
//! All timing in the workspace is expressed in clock cycles of the simulated
//! NPU. [`CycleCount`] is a whole-cycle duration. [`Frequency`] converts
//! between wall-clock units (µs, ns) and cycles; the paper's NPU runs at
//! 700 MHz (Table 5).
//!
//! The engine clock itself is *fractional*: HBM rate-sharing advances
//! operators by `rate * dt` per step, so instants and horizons land between
//! integer cycles. [`Cycles`] is the typed quantity for that domain — a
//! newtype over the exact `f64` the engines compute with, so wrapping a
//! value in it is bit-neutral. [`Micros`] types the wall-clock microsecond
//! inputs (Table 1 operator lengths) and [`Bytes`] the byte quantities, so
//! unit confusion between the three domains is a type error rather than a
//! silent scaling bug (v10-lint rule **U1**).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration measured in cycles.
///
/// # Example
///
/// ```
/// use v10_sim::CycleCount;
/// let slice = CycleCount::new(32_768); // the paper's scheduler time slice
/// assert_eq!(slice + slice, CycleCount::new(65_536));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CycleCount(u64);

impl CycleCount {
    /// The empty duration.
    pub const ZERO: CycleCount = CycleCount(0);

    /// Creates a duration of `cycles` cycles.
    #[must_use]
    pub const fn new(cycles: u64) -> Self {
        CycleCount(cycles)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the duration as a floating-point cycle count (for rate math).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        crate::convert::u64_to_f64(self.0)
    }

    /// Saturating subtraction of two durations.
    #[must_use]
    pub fn saturating_sub(self, rhs: CycleCount) -> CycleCount {
        CycleCount(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for CycleCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for CycleCount {
    type Output = CycleCount;
    fn add(self, rhs: CycleCount) -> CycleCount {
        CycleCount(self.0 + rhs.0)
    }
}

impl AddAssign for CycleCount {
    fn add_assign(&mut self, rhs: CycleCount) {
        self.0 += rhs.0;
    }
}

impl Sub for CycleCount {
    type Output = CycleCount;
    fn sub(self, rhs: CycleCount) -> CycleCount {
        CycleCount(self.0 - rhs.0)
    }
}

impl std::iter::Sum for CycleCount {
    fn sum<I: Iterator<Item = CycleCount>>(iter: I) -> CycleCount {
        iter.fold(CycleCount::ZERO, |a, b| a + b)
    }
}

/// A clock frequency, used to convert between wall-clock time and cycles.
///
/// # Example
///
/// ```
/// use v10_sim::{Frequency, Micros};
/// let clk = Frequency::mhz(700);
/// // Table 1 of the paper quotes operator lengths in µs; 10 µs = 7000 cycles.
/// assert_eq!(clk.cycles_from_micros(Micros::new(10.0)).as_u64(), 7_000);
/// assert!((clk.micros_from_cycles(7_000) - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero — a zero-frequency clock cannot advance.
    /// unit: `hz` is hertz (cycles per second).
    #[must_use]
    pub fn hz(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be positive");
        Frequency { hz }
    }

    /// Creates a frequency from megahertz.
    /// unit: `mhz` is megahertz.
    #[must_use]
    pub fn mhz(mhz: u64) -> Self {
        Frequency::hz(mhz * 1_000_000)
    }

    /// Returns the frequency in hertz.
    #[must_use]
    pub const fn as_hz(self) -> u64 {
        self.hz
    }

    /// Converts a typed microsecond duration to cycles (rounded to
    /// nearest).
    #[must_use]
    pub fn cycles_from_micros(self, micros: Micros) -> CycleCount {
        CycleCount::new(crate::convert::f64_to_u64_round(
            micros.as_f64() * crate::convert::u64_to_f64(self.hz) / 1e6,
        ))
    }

    /// Converts a cycle count to microseconds.
    ///
    /// unit: return value is wall-clock µs.
    #[must_use]
    pub fn micros_from_cycles(self, cycles: u64) -> f64 {
        crate::convert::u64_to_f64(cycles) * 1e6 / crate::convert::u64_to_f64(self.hz)
    }

    /// Converts a cycle count to seconds.
    ///
    /// unit: return value is wall-clock seconds.
    #[must_use]
    pub fn seconds_from_cycles(self, cycles: u64) -> f64 {
        crate::convert::u64_to_f64(cycles) / crate::convert::u64_to_f64(self.hz)
    }

    /// Bytes per cycle for a link of `bytes_per_second` at this clock.
    ///
    /// Used to express the HBM bandwidth (330 GB/s in Table 5) in the
    /// simulator's native bytes/cycle unit.
    ///
    /// unit: `bytes_per_second` is bytes per wall-clock second; the return
    /// value is bytes per simulated cycle.
    #[must_use]
    pub fn bytes_per_cycle(self, bytes_per_second: f64) -> f64 {
        bytes_per_second / crate::convert::u64_to_f64(self.hz)
    }
}

impl Default for Frequency {
    /// The paper's NPU clock: 700 MHz (Table 5).
    fn default() -> Self {
        Frequency::mhz(700)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

/// A quantity of simulated time on the engines' *fractional* clock, in
/// cycles.
///
/// The step loops advance workloads by `rate * dt` under HBM rate-sharing,
/// so engine instants and horizons are genuinely fractional — a `u64`
/// [`CycleCount`] cannot carry them without changing results. `Cycles` wraps the
/// exact `f64` the engines compute with: constructing one and reading it
/// back with [`as_f64`](Cycles::as_f64) is the identity on bits, which is
/// what keeps the typed-unit migration digest-neutral.
///
/// The constructor debug-asserts finiteness (engine time is always finite;
/// NaN/∞ would poison every downstream comparison); the integer exit points
/// saturate exactly like [`crate::convert::f64_to_u64`].
///
/// # Example
///
/// ```
/// use v10_sim::Cycles;
///
/// let t = Cycles::new(1_000.25) + Cycles::new(0.75);
/// assert_eq!(t.as_f64(), 1_001.0);
/// assert_eq!(t.as_u64(), 1_001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Cycles(f64);

impl Cycles {
    /// Zero cycles — the simulation origin and the empty span.
    pub const ZERO: Cycles = Cycles(0.0);

    /// Wraps a fractional cycle value. Debug-asserts the value is finite;
    /// release builds wrap unconditionally (the assert documents the
    /// engine-clock invariant, it does not guard reachable code).
    /// unit: `cycles` is fractional NPU cycles.
    #[must_use]
    pub fn new(cycles: f64) -> Self {
        debug_assert!(cycles.is_finite(), "Cycles must be finite, got {cycles}");
        Cycles(cycles)
    }

    /// The raw fractional value — zero-cost, bit-identical to what was
    /// wrapped.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Saturating integer exit point: truncates toward zero, clamps
    /// negatives to 0, maps NaN to 0 (see [`crate::convert::f64_to_u64`]).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        crate::convert::f64_to_u64(self.0)
    }

    /// Total order over the wrapped values (IEEE-754 `totalOrder`), the
    /// determinism-safe comparison for sorting (v10-lint rule **F1**).
    #[must_use]
    pub fn total_cmp(&self, other: &Cycles) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

/// A wall-clock duration in microseconds — the unit the paper quotes
/// operator and request lengths in (Table 1) before [`Frequency`] converts
/// them onto the simulated clock.
///
/// # Example
///
/// ```
/// use v10_sim::{Frequency, Micros};
///
/// let clk = Frequency::mhz(700);
/// assert_eq!(clk.cycles_from_micros(Micros::new(10.0)).as_u64(), 7_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Micros(f64);

impl Micros {
    /// Zero microseconds.
    pub const ZERO: Micros = Micros(0.0);

    /// Wraps a microsecond value. Debug-asserts the value is finite and
    /// non-negative (durations in the workload zoo are always both).
    /// unit: `micros` is microseconds of wall time being modeled.
    #[must_use]
    pub fn new(micros: f64) -> Self {
        debug_assert!(
            micros.is_finite() && micros >= 0.0,
            "Micros must be finite and non-negative, got {micros}"
        );
        Micros(micros)
    }

    /// The raw microsecond value — zero-cost.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} µs", self.0)
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

/// A byte quantity (context-table storage, HBM traffic).
///
/// # Example
///
/// ```
/// use v10_sim::Bytes;
///
/// const ROW: Bytes = Bytes::new(22); // one Fig. 11 context-table row
/// assert_eq!((ROW + ROW).as_u64(), 44);
/// assert_eq!(ROW.to_string(), "22 B");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Wraps a byte count (`const`, so published tables can be constants).
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// The raw byte count — zero-cost.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as an exact float (debug-asserted ≤ 2^53) for
    /// rate math.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        crate::convert::u64_to_f64(self.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_count_sum_over_iterator() {
        let total: CycleCount = (1..=4).map(CycleCount::new).sum();
        assert_eq!(total, CycleCount::new(10));
    }

    #[test]
    fn frequency_micros_roundtrip() {
        let clk = Frequency::mhz(700);
        let c = clk.cycles_from_micros(Micros::new(46.0));
        assert_eq!(c.as_u64(), 32_200);
        let us = clk.micros_from_cycles(c.as_u64());
        assert!((us - 46.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_wraps_bit_identically() {
        for v in [0.0, 0.5, 1e-9, 123_456.789, 9.0e15] {
            assert_eq!(Cycles::new(v).as_f64().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn cycles_integer_exits_saturate() {
        assert_eq!(Cycles::new(42.9).as_u64(), 42);
        assert_eq!(Cycles::new(-3.0).as_u64(), 0);
    }

    #[test]
    fn cycles_arithmetic_and_order() {
        let mut t = Cycles::new(10.25);
        t += Cycles::new(0.75);
        assert_eq!(t, Cycles::new(11.0));
        assert_eq!(t - Cycles::new(1.0), Cycles::new(10.0));
        assert!(Cycles::new(1.0) < Cycles::new(2.0));
        assert_eq!(
            Cycles::new(1.0).total_cmp(&Cycles::new(2.0)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite")]
    fn cycles_rejects_nan_in_debug() {
        let _ = Cycles::new(f64::NAN);
    }

    #[test]
    fn micros_and_bytes_roundtrip() {
        assert_eq!(Micros::new(10.0).as_f64(), 10.0);
        assert_eq!((Micros::new(3.0) + Micros::new(4.0)).as_f64(), 7.0);
        assert_eq!(Micros::new(2.5).to_string(), "2.5 µs");
        assert_eq!(Bytes::new(43).as_u64(), 43);
        assert_eq!(Bytes::new(43).as_f64(), 43.0);
        assert_eq!(Bytes::new(43).to_string(), "43 B");
        let total: Bytes = [Bytes::new(1), Bytes::new(2)].into_iter().sum();
        assert_eq!(total, Bytes::new(3));
    }

    #[test]
    fn default_frequency_is_700_mhz() {
        assert_eq!(Frequency::default().as_hz(), 700_000_000);
    }

    #[test]
    fn bytes_per_cycle_matches_table5_hbm() {
        // 330 GB/s at 700 MHz = ~471.43 B/cycle.
        let clk = Frequency::mhz(700);
        let bpc = clk.bytes_per_cycle(330e9);
        assert!((bpc - 471.428).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::hz(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CycleCount::new(7).to_string(), "7 cycles");
        assert_eq!(Frequency::mhz(700).to_string(), "700 MHz");
    }
}
