//! Shared-HBM bandwidth arbitration and accounting.
//!
//! Every concurrently executing operator streams its tensors through the
//! core's HBM interface. The arbiter grants each active flow a max-min fair
//! share of the peak bandwidth ([`v10_sim::WaterFilling`]); operators whose
//! demand is not met slow down proportionally — the mechanism behind the
//! paper's observation that collocation can *oversubscribe* HBM (the
//! `DLRM+RsNt` priority anomaly in §5.6) — and the moved-bytes counter feeds
//! the bandwidth-utilization results (Figs. 7, 16c, 24).

use v10_sim::{Flow, V10Error, V10Result, WaterFilling};

/// Bandwidth arbiter + bytes-moved accounting for one core's HBM interface.
///
/// # Example
///
/// ```
/// use v10_npu::HbmArbiter;
/// use v10_sim::Flow;
///
/// let mut hbm = HbmArbiter::new(100.0).expect("valid peak"); // bytes/cycle
/// // Two operators demand 80 B/cycle each: each is granted 50, i.e. runs
/// // at 62.5% speed if fully memory-bound.
/// let mut flows = [Flow::new(80.0), Flow::new(80.0)];
/// hbm.progress_rates(&mut flows);
/// assert_eq!(flows.map(|f| f.factor()), [0.625, 0.625]);
/// hbm.record_bytes(1_000.0);
/// assert_eq!(hbm.bytes_moved(), 1_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct HbmArbiter {
    allocator: WaterFilling,
    bytes_moved: f64,
}

impl HbmArbiter {
    /// Creates an arbiter over `peak_bytes_per_cycle` of bandwidth.
    ///
    /// unit: `peak_bytes_per_cycle` is in bytes per NPU clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if the peak is not finite and
    /// non-negative.
    pub fn new(peak_bytes_per_cycle: f64) -> V10Result<Self> {
        if !(peak_bytes_per_cycle.is_finite() && peak_bytes_per_cycle >= 0.0) {
            return Err(V10Error::invalid(
                "HbmArbiter::new",
                format!(
                    "peak bandwidth must be finite and non-negative, got {peak_bytes_per_cycle}"
                ),
            ));
        }
        Ok(HbmArbiter {
            allocator: WaterFilling::new(peak_bytes_per_cycle),
            bytes_moved: 0.0,
        })
    }

    /// Peak bandwidth in bytes/cycle.
    #[must_use]
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.allocator.capacity()
    }

    /// Computes each flow's progress rate in `(0, 1]` cycles-per-cycle,
    /// `min(1, granted / demanded)`, in place: it is the flow's
    /// [`Flow::factor`]. Flows demand bytes per cycle; zero-demand flows
    /// always run at full rate. The engines' step loops call this whenever
    /// their set of in-flight demands changes, over one array they keep.
    #[inline]
    pub fn progress_rates(&self, flows: &mut [Flow]) {
        self.allocator.fill(flows);
    }

    /// Records `bytes` as moved (called by the engine as operators make
    /// progress).
    ///
    /// unit: `bytes` is a byte count (may be fractional mid-step).
    #[inline]
    pub fn record_bytes(&mut self, bytes: f64) {
        debug_assert!(bytes >= 0.0);
        self.bytes_moved += bytes;
    }

    /// Total bytes moved since construction (or the last reset).
    #[must_use]
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }
}

#[cfg(test)]
impl HbmArbiter {
    /// [`progress_rates`](Self::progress_rates) over `(id, bytes_per_cycle)`
    /// demands, as `(id, rate)` pairs in input order (`out` cleared first).
    fn progress_rates_into(&mut self, flows: &[(usize, f64)], out: &mut Vec<(usize, f64)>) {
        let mut filled: Vec<Flow> = flows.iter().map(|&(_, d)| Flow::new(d)).collect();
        self.progress_rates(&mut filled);
        out.clear();
        out.extend(
            flows
                .iter()
                .zip(&filled)
                .map(|(&(id, _), f)| (id, f.factor())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates_at(peak: f64, flows: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        HbmArbiter::new(peak)
            .unwrap()
            .progress_rates_into(flows, &mut out);
        out
    }

    #[test]
    fn uncontended_flows_run_full_speed() {
        let rates = rates_at(471.4, &[(0, 100.0), (1, 200.0)]);
        assert_eq!(rates, vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn oversubscription_slows_proportionally() {
        let rates = rates_at(100.0, &[(0, 150.0), (1, 50.0)]);
        // Flow 1 (small) fully satisfied; flow 0 gets the remaining 50.
        assert!((rates[0].1 - 50.0 / 150.0).abs() < 1e-9);
        assert!((rates[1].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_is_full_rate_even_with_zero_capacity() {
        let rates = rates_at(0.0, &[(7, 0.0)]);
        assert_eq!(rates, vec![(7, 1.0)]);
    }

    #[test]
    fn accounting_accumulates() {
        let mut hbm = HbmArbiter::new(100.0).unwrap();
        hbm.record_bytes(300.0);
        hbm.record_bytes(200.0);
        assert_eq!(hbm.bytes_moved(), 500.0);
    }

    #[test]
    fn non_finite_peak_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = HbmArbiter::new(bad).unwrap_err();
            assert!(err.to_string().contains("peak bandwidth"), "{err}");
        }
    }
}
