//! Tenant lifecycle: timed admissions and admission schedules.
//!
//! The paper's evaluation replays a *fixed* set of collocated workloads to
//! completion. Real serving is open-loop: tenants arrive over time, submit
//! a bounded request stream, and depart, freeing their context-table slot
//! for the next arrival (PREMA's dynamic task-arrival model). An
//! [`AdmissionSchedule`] is the executor-facing form of that process — a
//! time-ordered list of [`Admission`]s — and every executor consumes one:
//! the classic closed-loop entry points are thin wrappers that build an
//! admit-everything-at-cycle-0 schedule of resident tenants.

use v10_sim::{V10Error, V10Result};

use crate::engine::WorkloadSpec;

/// One tenant arrival: which workload arrives, when, and how many requests
/// it will submit before departing.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    spec: WorkloadSpec,
    at: f64,
    requests: usize,
    resident: bool,
}

impl Admission {
    /// A tenant arriving at cycle `at_cycles` that departs after completing
    /// `requests` inference requests.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `at_cycles` is negative or
    /// not finite, or if `requests` is zero.
    pub fn new(spec: WorkloadSpec, at_cycles: f64, requests: usize) -> V10Result<Self> {
        if !(at_cycles.is_finite() && at_cycles >= 0.0) {
            return Err(V10Error::invalid(
                "Admission::new",
                format!("arrival cycle must be finite and non-negative, got {at_cycles}"),
            ));
        }
        if requests == 0 {
            return Err(V10Error::invalid(
                "Admission::new",
                "need at least one request per tenant",
            ));
        }
        Ok(Admission {
            spec,
            at: at_cycles,
            requests,
            resident: false,
        })
    }

    /// Marks the tenant resident: it keeps executing (and its slot stays
    /// occupied) after its request quota, until the whole run ends. This is
    /// the closed-loop steady-state methodology — every tenant keeps the
    /// core loaded while slower tenants catch up to their quotas.
    #[must_use]
    pub fn resident(mut self) -> Self {
        self.resident = true;
        self
    }

    /// The arriving workload.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Arrival time in cycles.
    #[must_use]
    pub fn at_cycles(&self) -> f64 {
        self.at
    }

    /// Requests the tenant submits before departing (its quota).
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Does the tenant stay resident after meeting its quota?
    #[must_use]
    pub fn is_resident(&self) -> bool {
        self.resident
    }

    /// The arriving workload, by value: seating moves its label and trace
    /// source into the tenancy instead of copying them.
    pub(crate) fn into_spec(self) -> WorkloadSpec {
        self.spec
    }
}

/// A time-ordered admission schedule: the input to the open-loop serving
/// entry points ([`crate::design::serve_design_stressed_observed`] and the
/// calls into it).
///
/// Entries are stably sorted by arrival time, so same-instant arrivals keep
/// their submission order — the property that makes the closed-loop wrapper
/// (everything at cycle 0) reproduce the historical fixed-set runs bit for
/// bit.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionSchedule {
    entries: Vec<Admission>,
}

impl AdmissionSchedule {
    /// Builds a schedule from `entries`, sorting them by arrival time
    /// (stable: ties keep submission order).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `entries` is empty.
    pub fn new(mut entries: Vec<Admission>) -> V10Result<Self> {
        if entries.is_empty() {
            return Err(V10Error::invalid(
                "AdmissionSchedule::new",
                "need at least one admission",
            ));
        }
        entries.sort_by(|a, b| a.at.total_cmp(&b.at));
        Ok(AdmissionSchedule { entries })
    }

    /// The closed-loop schedule: every workload admitted at cycle 0 as a
    /// resident tenant with the same request quota — the fixed-set replay
    /// the paper evaluates.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `specs` is empty or
    /// `requests` is zero.
    pub fn closed_loop(specs: &[WorkloadSpec], requests: usize) -> V10Result<Self> {
        if specs.is_empty() {
            return Err(V10Error::invalid(
                "AdmissionSchedule::closed_loop",
                "need at least one workload",
            ));
        }
        Self::new(
            specs
                .iter()
                .map(|s| Admission::new(s.clone(), 0.0, requests).map(Admission::resident))
                .collect::<V10Result<Vec<_>>>()?,
        )
    }

    /// The admissions, in arrival order.
    #[must_use]
    pub fn entries(&self) -> &[Admission] {
        &self.entries
    }

    /// Number of admissions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: empty schedules are unconstructible.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_isa::{FuKind, OpDesc, RequestTrace};

    fn spec(label: &str) -> WorkloadSpec {
        WorkloadSpec::new(
            label,
            RequestTrace::new(vec![OpDesc::builder(FuKind::Sa)
                .compute_cycles(100)
                .build()])
            .unwrap(),
        )
    }

    #[test]
    fn admissions_sort_stably_by_arrival() {
        let s = AdmissionSchedule::new(vec![
            Admission::new(spec("late"), 500.0, 1).unwrap(),
            Admission::new(spec("first"), 0.0, 1).unwrap(),
            Admission::new(spec("second"), 0.0, 1).unwrap(),
        ])
        .unwrap();
        let labels: Vec<&str> = s.entries().iter().map(|a| a.spec().label()).collect();
        assert_eq!(labels, vec!["first", "second", "late"]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn closed_loop_admits_everyone_resident_at_cycle_zero() {
        let s = AdmissionSchedule::closed_loop(&[spec("a"), spec("b")], 4).unwrap();
        assert_eq!(s.len(), 2);
        for a in s.entries() {
            assert_eq!(a.at_cycles(), 0.0);
            assert_eq!(a.requests(), 4);
            assert!(a.is_resident());
        }
        assert_eq!(s.entries()[0].spec().label(), "a");
    }

    #[test]
    fn empty_schedule_rejected() {
        let err = AdmissionSchedule::new(vec![]).unwrap_err();
        assert!(err.to_string().contains("at least one admission"), "{err}");
        let err = AdmissionSchedule::closed_loop(&[], 1).unwrap_err();
        assert!(err.to_string().contains("at least one workload"), "{err}");
    }

    #[test]
    fn bad_arrival_time_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = Admission::new(spec("w"), bad, 1).unwrap_err();
            assert!(err.to_string().contains("non-negative"), "{err}");
        }
    }

    #[test]
    fn zero_request_quota_rejected() {
        let err = Admission::new(spec("w"), 0.0, 0).unwrap_err();
        assert!(err.to_string().contains("at least one request"), "{err}");
        let err = AdmissionSchedule::closed_loop(&[spec("w")], 0).unwrap_err();
        assert!(err.to_string().contains("at least one request"), "{err}");
    }

    #[test]
    fn admission_accessors() {
        let a = Admission::new(spec("w"), 123.0, 7).unwrap();
        assert_eq!(a.spec().label(), "w");
        assert_eq!(a.at_cycles(), 123.0);
        assert_eq!(a.requests(), 7);
        assert!(!a.is_resident());
        assert!(a.clone().resident().is_resident());
    }
}
