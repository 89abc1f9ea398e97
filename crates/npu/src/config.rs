//! The simulated NPU configuration (Table 5 of the paper).

use std::fmt;

use v10_sim::{Frequency, V10Error, V10Result};

/// Side length N of each (square) systolic array (Table 5: 128×128).
const SA_DIM: u32 = 128;

/// HBM bandwidth per SA/VU pair in bytes per second (Table 5: 330 GB/s).
const HBM_BANDWIDTH_BYTES_PER_SEC: f64 = 330e9;

/// Cycles one VU context switch costs (PC + register save/restore).
const VU_SWITCH_CYCLES: u64 = 64;

/// Configuration of one simulated NPU core.
///
/// Defaults to the paper's Table 5. Use [`NpuConfig::builder`] for the
/// evaluation sweeps (§5.7–§5.9), which set the FU count, the vector
/// memory and the time slice; the SA size, the 700 MHz clock, the HBM
/// bandwidth and the VU switch cost are Table 5's in every configuration.
///
/// # Example
///
/// ```
/// use v10_npu::NpuConfig;
///
/// // Fig. 23 sweeps the scheduler time slice; Fig. 24 the vector memory.
/// let cfg = NpuConfig::builder()
///     .time_slice_cycles(4_096)
///     .vmem_bytes(8 << 20)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.time_slice_cycles(), 4_096);
/// assert_eq!(cfg.vmem_bytes(), 8 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpuConfig {
    fu_count: u32,
    vmem_bytes: u64,
    time_slice_cycles: u64,
}

impl NpuConfig {
    /// The paper's Table 5 configuration: one 128×128 SA and one 8×128×2 VU
    /// at 700 MHz, 32 MB vector memory, 330 GB/s HBM, 32768-cycle scheduler
    /// time slice.
    #[must_use]
    pub fn table5() -> Self {
        NpuConfig::builder().finish()
    }

    /// Starts building a configuration from the Table 5 defaults.
    #[must_use]
    pub fn builder() -> NpuConfigBuilder {
        NpuConfigBuilder {
            fu_count: 1,
            vmem_bytes: 32 << 20,
            time_slice_cycles: 32_768,
        }
    }

    /// Side length N of each (square) systolic array.
    #[must_use]
    pub fn sa_dim(&self) -> u32 {
        SA_DIM
    }

    /// Number of SAs — and, symmetrically, of VUs — in the core. The paper's
    /// scalability study pairs them: (1,1), (2,2), (4,4), (8,8) (Fig. 25).
    #[must_use]
    pub fn fu_count(&self) -> u32 {
        self.fu_count
    }

    /// The core clock.
    #[must_use]
    pub fn frequency(&self) -> Frequency {
        Frequency::default()
    }

    /// On-chip vector-memory capacity in bytes.
    #[must_use]
    pub fn vmem_bytes(&self) -> u64 {
        self.vmem_bytes
    }

    /// Vector-memory bytes available to each of `workloads` collocated
    /// tenants under §3.6's even partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is zero.
    #[must_use]
    pub fn vmem_partition_bytes(&self, workloads: usize) -> u64 {
        assert!(workloads > 0, "need at least one workload");
        self.vmem_bytes / workloads as u64
    }

    /// Aggregate HBM bandwidth in bytes/cycle. Scales with the FU count
    /// (§5.9: "NPU hardware designers scale the HBM bandwidth with the
    /// increasing number of SAs/VUs to balance compute and memory").
    #[must_use]
    pub fn hbm_bytes_per_cycle(&self) -> f64 {
        self.frequency()
            .bytes_per_cycle(HBM_BANDWIDTH_BYTES_PER_SEC)
            * self.fu_count as f64
    }

    /// The operator scheduler's preemption-timer period in cycles
    /// (Table 5: 32768 ≈ 46 µs; swept in Fig. 23).
    #[must_use]
    pub fn time_slice_cycles(&self) -> u64 {
        self.time_slice_cycles
    }

    /// Cycles one SA context switch costs under the checkpoint/replay
    /// protocol: `3 × sa_dim` (§3.3; 384 cycles at N = 128, validated by
    /// the functional model in `v10-systolic`).
    #[must_use]
    pub fn sa_switch_cycles(&self) -> u64 {
        3 * SA_DIM as u64
    }

    /// Cycles one VU context switch costs (PC + register save/restore).
    #[must_use]
    pub fn vu_switch_cycles(&self) -> u64 {
        VU_SWITCH_CYCLES
    }

    /// On-chip context bytes per preempted SA operator: `6 × sa_dim²`
    /// (96 KB at N = 128, §3.3).
    #[must_use]
    pub fn sa_context_bytes(&self) -> u64 {
        6 * SA_DIM as u64 * SA_DIM as u64
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        NpuConfig::table5()
    }
}

impl fmt::Display for NpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NPU core: {}x {}x{} SA + {}x VU @ {}, {} MB vmem, {:.0} GB/s HBM, {}-cycle slice",
            self.fu_count,
            SA_DIM,
            SA_DIM,
            self.fu_count,
            self.frequency(),
            self.vmem_bytes >> 20,
            HBM_BANDWIDTH_BYTES_PER_SEC * self.fu_count as f64 / 1e9,
            self.time_slice_cycles
        )
    }
}

/// Builder for [`NpuConfig`] (C-BUILDER). Starts from Table 5 and sets the
/// three values the evaluation sweeps; the rest stay at Table 5.
#[derive(Debug, Clone, Copy)]
pub struct NpuConfigBuilder {
    fu_count: u32,
    vmem_bytes: u64,
    time_slice_cycles: u64,
}

impl NpuConfigBuilder {
    /// Sets the number of SA/VU pairs in the core (Fig. 25). Validated by
    /// [`Self::build`].
    #[must_use]
    pub fn fu_count(mut self, count: u32) -> Self {
        self.fu_count = count;
        self
    }

    /// Sets the vector-memory capacity (Fig. 24 sweeps 8–64 MB). Validated
    /// by [`Self::build`].
    #[must_use]
    pub fn vmem_bytes(mut self, bytes: u64) -> Self {
        self.vmem_bytes = bytes;
        self
    }

    /// Sets the scheduler time slice in cycles (Fig. 23 sweeps
    /// 512–1048576). Validated by [`Self::build`].
    #[must_use]
    pub fn time_slice_cycles(mut self, cycles: u64) -> Self {
        self.time_slice_cycles = cycles;
        self
    }

    /// Validates and finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the FU count,
    /// vector-memory capacity, or time slice is zero.
    pub fn build(self) -> V10Result<NpuConfig> {
        let invalid = |message: &str| V10Error::invalid("NpuConfigBuilder::build", message);
        if self.fu_count == 0 {
            return Err(invalid("need at least one SA/VU pair"));
        }
        if self.vmem_bytes == 0 {
            return Err(invalid("vector memory must be non-empty"));
        }
        if self.time_slice_cycles == 0 {
            return Err(invalid("time slice must be positive"));
        }
        Ok(self.finish())
    }

    /// The configuration as set, unvalidated: [`build`](Self::build) once
    /// it has checked the fields, and [`NpuConfig::table5`] on the Table 5
    /// defaults (`table5_defaults` pins them valid).
    fn finish(self) -> NpuConfig {
        NpuConfig {
            fu_count: self.fu_count,
            vmem_bytes: self.vmem_bytes,
            time_slice_cycles: self.time_slice_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_defaults() {
        let c = NpuConfig::table5();
        assert_eq!(c.sa_dim(), 128);
        assert_eq!(c.fu_count(), 1);
        assert_eq!(c.frequency().as_hz(), 700_000_000);
        assert_eq!(c.vmem_bytes(), 32 << 20);
        assert_eq!(c.time_slice_cycles(), 32_768);
        assert!((c.hbm_bytes_per_cycle() - 330e9 / 700e6).abs() < 1e-9);
        assert_eq!(NpuConfig::default(), c);
        assert_eq!(
            NpuConfig::builder().build().unwrap(),
            c,
            "defaults are valid"
        );
    }

    #[test]
    fn switch_costs_match_section_3_3() {
        let c = NpuConfig::table5();
        assert_eq!(c.sa_switch_cycles(), 384);
        assert_eq!(c.sa_context_bytes(), 96 * 1024);
        assert!(c.vu_switch_cycles() < c.sa_switch_cycles());
    }

    #[test]
    fn time_slice_is_about_46_micros() {
        let c = NpuConfig::table5();
        let us = c.frequency().micros_from_cycles(c.time_slice_cycles());
        assert!((us - 46.8).abs() < 0.2, "slice = {us} µs");
    }

    #[test]
    fn hbm_bandwidth_scales_with_fu_count() {
        for n in [1u32, 2, 4, 8] {
            let c = NpuConfig::builder().fu_count(n).build().unwrap();
            let expected = n as f64 * 330e9 / 700e6;
            assert!((c.hbm_bytes_per_cycle() - expected).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn vmem_partitioning_is_even() {
        let c = NpuConfig::table5();
        assert_eq!(c.vmem_partition_bytes(1), 32 << 20);
        assert_eq!(c.vmem_partition_bytes(2), 16 << 20);
        assert_eq!(c.vmem_partition_bytes(4), 8 << 20);
    }

    #[test]
    fn builder_overrides_stick() {
        let c = NpuConfig::builder()
            .fu_count(2)
            .vmem_bytes(8 << 20)
            .time_slice_cycles(512)
            .build()
            .unwrap();
        assert_eq!(c.fu_count(), 2);
        assert_eq!(c.vmem_bytes(), 8 << 20);
        assert_eq!(c.time_slice_cycles(), 512);
    }

    #[test]
    fn display_summarizes_core() {
        let s = NpuConfig::table5().to_string();
        assert!(s.contains("128x128"));
        assert!(s.contains("32 MB"));
        assert!(s.contains("330 GB/s"));
    }

    #[test]
    fn invalid_builder_inputs_rejected_at_build() {
        let err = NpuConfig::builder()
            .time_slice_cycles(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("time slice"), "{err}");
        let err = NpuConfig::builder().fu_count(0).build().unwrap_err();
        assert!(err.to_string().contains("SA/VU pair"), "{err}");
        let err = NpuConfig::builder().vmem_bytes(0).build().unwrap_err();
        assert!(err.to_string().contains("vector memory"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn zero_workload_partition_rejected() {
        let _ = NpuConfig::table5().vmem_partition_bytes(0);
    }
}
