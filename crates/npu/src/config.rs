//! The simulated NPU configuration (Table 5 of the paper).

use std::fmt;

use v10_sim::{Frequency, V10Error, V10Result};

/// Configuration of one simulated NPU core.
///
/// Defaults to the paper's Table 5. Use [`NpuConfig::builder`] for the
/// evaluation sweeps (§5.7–§5.9).
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
    sa_dim: u32,
    fu_count: u32,
    frequency: Frequency,
    vmem_bytes: u64,
    hbm_capacity_bytes: u64,
    hbm_bandwidth_bytes_per_sec: f64,
    time_slice_cycles: u64,
    vu_switch_cycles: u64,
}

impl NpuConfig {
    /// The paper's Table 5 configuration: one 128×128 SA and one 8×128×2 VU
    /// at 700 MHz, 32 MB vector memory, 32 GB / 330 GB/s HBM, 32768-cycle
    /// scheduler time slice.
    #[must_use]
    pub fn table5() -> Self {
        NpuConfig::builder().finish()
    }

    /// Starts building a configuration from the Table 5 defaults.
    #[must_use]
    pub fn builder() -> NpuConfigBuilder {
        NpuConfigBuilder {
            sa_dim: 128,
            fu_count: 1,
            frequency: Frequency::default(),
            vmem_bytes: 32 << 20,
            hbm_capacity_bytes: 32 << 30,
            hbm_bandwidth_bytes_per_sec: 330e9,
            time_slice_cycles: 32_768,
            vu_switch_cycles: 64,
        }
    }

    /// Side length N of each (square) systolic array.
    #[must_use]
    pub fn sa_dim(&self) -> u32 {
        self.sa_dim
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
        self.frequency
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

    /// Off-chip HBM capacity in bytes.
    #[must_use]
    pub fn hbm_capacity_bytes(&self) -> u64 {
        self.hbm_capacity_bytes
    }

    /// Aggregate HBM bandwidth in bytes/cycle. Scales with the FU count
    /// (§5.9: "NPU hardware designers scale the HBM bandwidth with the
    /// increasing number of SAs/VUs to balance compute and memory").
    #[must_use]
    pub fn hbm_bytes_per_cycle(&self) -> f64 {
        self.frequency
            .bytes_per_cycle(self.hbm_bandwidth_bytes_per_sec)
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
        3 * self.sa_dim as u64
    }

    /// Cycles one VU context switch costs (PC + register save/restore).
    #[must_use]
    pub fn vu_switch_cycles(&self) -> u64 {
        self.vu_switch_cycles
    }

    /// On-chip context bytes per preempted SA operator: `6 × sa_dim²`
    /// (96 KB at N = 128, §3.3).
    #[must_use]
    pub fn sa_context_bytes(&self) -> u64 {
        6 * self.sa_dim as u64 * self.sa_dim as u64
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
            self.sa_dim,
            self.sa_dim,
            self.fu_count,
            self.frequency,
            self.vmem_bytes >> 20,
            self.hbm_bandwidth_bytes_per_sec * self.fu_count as f64 / 1e9,
            self.time_slice_cycles
        )
    }
}

/// Builder for [`NpuConfig`] (C-BUILDER). Starts from Table 5.
#[derive(Debug, Clone, Copy)]
pub struct NpuConfigBuilder {
    sa_dim: u32,
    fu_count: u32,
    frequency: Frequency,
    vmem_bytes: u64,
    hbm_capacity_bytes: u64,
    hbm_bandwidth_bytes_per_sec: f64,
    time_slice_cycles: u64,
    vu_switch_cycles: u64,
}

impl NpuConfigBuilder {
    /// Sets the systolic-array side length. Validated by [`Self::build`].
    #[must_use]
    pub fn sa_dim(mut self, dim: u32) -> Self {
        self.sa_dim = dim;
        self
    }

    /// Sets the number of SA/VU pairs in the core (Fig. 25). Validated by
    /// [`Self::build`].
    #[must_use]
    pub fn fu_count(mut self, count: u32) -> Self {
        self.fu_count = count;
        self
    }

    /// Sets the core clock frequency.
    #[must_use]
    pub fn frequency(mut self, f: Frequency) -> Self {
        self.frequency = f;
        self
    }

    /// Sets the vector-memory capacity (Fig. 24 sweeps 8–64 MB). Validated
    /// by [`Self::build`].
    #[must_use]
    pub fn vmem_bytes(mut self, bytes: u64) -> Self {
        self.vmem_bytes = bytes;
        self
    }

    /// Sets the HBM capacity.
    #[must_use]
    pub fn hbm_capacity_bytes(mut self, bytes: u64) -> Self {
        self.hbm_capacity_bytes = bytes;
        self
    }

    /// Sets the per-FU-pair HBM bandwidth in bytes/second. Validated by
    /// [`Self::build`].
    #[must_use]
    // v10-lint: allow(S1) the one setter of a Table 5 parameter the HBM model reads; deleting it would freeze the bandwidth and leave `build`'s check unreachable
    pub fn hbm_bandwidth_bytes_per_sec(mut self, bw: f64) -> Self {
        self.hbm_bandwidth_bytes_per_sec = bw;
        self
    }

    /// Sets the scheduler time slice in cycles (Fig. 23 sweeps
    /// 512–1048576). Validated by [`Self::build`].
    #[must_use]
    pub fn time_slice_cycles(mut self, cycles: u64) -> Self {
        self.time_slice_cycles = cycles;
        self
    }

    /// Sets the VU context-switch cost in cycles.
    #[must_use]
    pub fn vu_switch_cycles(mut self, cycles: u64) -> Self {
        self.vu_switch_cycles = cycles;
        self
    }

    /// Validates and finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the SA dimension, FU count,
    /// vector-memory capacity, or time slice is zero, or if the HBM
    /// bandwidth is not finite and positive.
    pub fn build(self) -> V10Result<NpuConfig> {
        let invalid = |message: String| V10Error::InvalidArgument {
            context: "NpuConfigBuilder::build",
            message,
        };
        if self.sa_dim == 0 {
            return Err(invalid("SA dimension must be positive".into()));
        }
        if self.fu_count == 0 {
            return Err(invalid("need at least one SA/VU pair".into()));
        }
        if self.vmem_bytes == 0 {
            return Err(invalid("vector memory must be non-empty".into()));
        }
        if !(self.hbm_bandwidth_bytes_per_sec.is_finite() && self.hbm_bandwidth_bytes_per_sec > 0.0)
        {
            return Err(invalid(format!(
                "bandwidth must be positive, got {}",
                self.hbm_bandwidth_bytes_per_sec
            )));
        }
        if self.time_slice_cycles == 0 {
            return Err(invalid("time slice must be positive".into()));
        }
        Ok(self.finish())
    }

    /// The configuration as set, unvalidated: [`build`](Self::build) once
    /// it has checked the fields, and [`NpuConfig::table5`] on the Table 5
    /// defaults (`table5_defaults` pins them valid).
    fn finish(self) -> NpuConfig {
        NpuConfig {
            sa_dim: self.sa_dim,
            fu_count: self.fu_count,
            frequency: self.frequency,
            vmem_bytes: self.vmem_bytes,
            hbm_capacity_bytes: self.hbm_capacity_bytes,
            hbm_bandwidth_bytes_per_sec: self.hbm_bandwidth_bytes_per_sec,
            time_slice_cycles: self.time_slice_cycles,
            vu_switch_cycles: self.vu_switch_cycles,
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
        assert_eq!(c.hbm_capacity_bytes(), 32 << 30);
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
            .sa_dim(64)
            .fu_count(2)
            .vmem_bytes(8 << 20)
            .time_slice_cycles(512)
            .vu_switch_cycles(16)
            .build()
            .unwrap();
        assert_eq!(c.sa_dim(), 64);
        assert_eq!(c.sa_switch_cycles(), 192);
        assert_eq!(c.fu_count(), 2);
        assert_eq!(c.vmem_bytes(), 8 << 20);
        assert_eq!(c.time_slice_cycles(), 512);
        assert_eq!(c.vu_switch_cycles(), 16);
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
        let err = NpuConfig::builder().sa_dim(0).build().unwrap_err();
        assert!(err.to_string().contains("SA dimension"), "{err}");
        let err = NpuConfig::builder().fu_count(0).build().unwrap_err();
        assert!(err.to_string().contains("SA/VU pair"), "{err}");
        let err = NpuConfig::builder().vmem_bytes(0).build().unwrap_err();
        assert!(err.to_string().contains("vector memory"), "{err}");
        for bad_bw in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = NpuConfig::builder()
                .hbm_bandwidth_bytes_per_sec(bad_bw)
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("bandwidth"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn zero_workload_partition_rejected() {
        let _ = NpuConfig::table5().vmem_partition_bytes(0);
    }
}
