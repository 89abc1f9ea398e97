//! The adversarial property harness: a shrinking minimizer over
//! seed-derived scenario knobs.
//!
//! The harness is deliberately *knob-generic*: `v10-core` cannot depend on
//! `v10-workloads` (the dependency points the other way), so the harness
//! never sees a scenario — it sees a [`ScenarioKnobs`] triple (defined in
//! `v10-sim`, below both crates) and a caller check closure that
//! regenerates the scenario from its seed at those knobs, serves it, and
//! returns the violated invariants. Because the
//! generators are prefix-stable in every knob, any knob setting the
//! shrinker tries replays a sub-scenario of the original, and the whole
//! minimization is a pure function of `(seed, initial knobs)` — the
//! property that makes a six-field repro fixture sufficient to replay it.
//!
//! The algorithm is a fixpoint of per-dimension binary searches, in a
//! fixed order (tenants, then fault prefix, then horizon), each keeping
//! the *smallest still-violating* value. Passes repeat until none of the
//! three dimensions shrinks further or the evaluation budget runs out.
//! Every evaluation is recorded in the shrink trace, so two runs of the
//! same violating scenario produce byte-identical traces.

use v10_sim::{ScenarioKnobs, V10Result};

/// Horizon shrink granularity: the search probes multiples of 1/64 of the
/// *initial* horizon, so the horizon dimension converges like the discrete
/// ones instead of compounding forever.
const HORIZON_STEPS: u64 = 64;

/// One recorded shrink evaluation: which dimension was being searched,
/// the candidate knobs, and whether the scenario still violated.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkStep {
    /// `"initial"`, `"tenants"`, `"fault-prefix"`, or `"horizon"`.
    pub dimension: &'static str,
    /// The candidate knobs evaluated.
    pub candidate: ScenarioKnobs,
    /// Did the candidate still violate?
    pub violated: bool,
}

/// The result of a shrink: the minimal still-violating knobs, the
/// violations they produce, and the full deterministic search trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkReport {
    initial: ScenarioKnobs,
    minimal: ScenarioKnobs,
    violations: Vec<String>,
    trace: Vec<ShrinkStep>,
    evaluations: usize,
    budget_exhausted: bool,
}

impl ShrinkReport {
    /// The knobs the shrink started from.
    #[must_use]
    pub fn initial(&self) -> ScenarioKnobs {
        self.initial
    }

    /// The smallest still-violating knobs found.
    #[must_use]
    pub fn minimal(&self) -> ScenarioKnobs {
        self.minimal
    }

    /// The violations the minimal scenario produces.
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Every evaluation the search made, in order.
    #[must_use]
    pub fn trace(&self) -> &[ShrinkStep] {
        &self.trace
    }

    /// Total check-closure evaluations (== `trace().len()`).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Did the search stop on budget rather than at a fixpoint?
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }
}

/// The property harness: drives a caller-supplied scenario check and
/// shrinks violating scenarios to minimal repros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropertyHarness {
    max_evaluations: usize,
}

impl Default for PropertyHarness {
    fn default() -> Self {
        PropertyHarness::new()
    }
}

impl PropertyHarness {
    /// A harness with the default evaluation budget (256 checks per
    /// shrink — generous for three binary-searched dimensions).
    #[must_use]
    pub fn new() -> Self {
        PropertyHarness {
            max_evaluations: 256,
        }
    }

    /// Overrides the evaluation budget.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `budget` is zero.
    #[cfg(test)]
    pub(crate) fn with_max_evaluations(mut self, budget: usize) -> V10Result<Self> {
        if budget == 0 {
            return Err(v10_sim::V10Error::invalid(
                "PropertyHarness::with_max_evaluations",
                "need at least one evaluation",
            ));
        }
        self.max_evaluations = budget;
        Ok(self)
    }

    /// Evaluates `check` at `initial`; on violation, shrinks to a minimal
    /// still-violating [`ScenarioKnobs`] and returns the report. A clean
    /// initial scenario returns `Ok(None)`.
    ///
    /// `check` regenerates and serves the scenario at the candidate knobs,
    /// returning the violated invariants (empty = clean). It must be
    /// deterministic; given that, the whole shrink — minimal knobs,
    /// violations, and trace — is deterministic too.
    ///
    /// # Errors
    ///
    /// Propagates knob validation and any error `check` returns (a serve
    /// *error* is a broken driver, not a violation, and aborts the
    /// shrink).
    pub fn shrink<F>(&self, initial: ScenarioKnobs, mut check: F) -> V10Result<Option<ShrinkReport>>
    where
        F: FnMut(&ScenarioKnobs) -> V10Result<Vec<String>>,
    {
        let initial = ScenarioKnobs::new(
            initial.tenants,
            initial.horizon_cycles,
            initial.fault_prefix,
        )?;
        let mut trace = Vec::new();
        let mut evaluations = 0usize;

        let initial_violations = {
            evaluations += 1;
            let v = check(&initial)?;
            trace.push(ShrinkStep {
                dimension: "initial",
                candidate: initial,
                violated: !v.is_empty(),
            });
            v
        };
        if initial_violations.is_empty() {
            return Ok(None);
        }

        let mut best = initial;
        let mut best_violations = initial_violations;
        let mut budget_exhausted = false;
        // Horizon position in 1/HORIZON_STEPS units of the initial horizon;
        // monotone non-increasing across passes, which is what makes the
        // fixpoint loop terminate.
        let mut best_k = HORIZON_STEPS;

        // Fixpoint over per-dimension binary searches. Each `probe` call
        // burns budget; when it runs out we stop where we are — `best` is
        // always a verified violating setting.
        'passes: loop {
            let pass_entry = best;

            // ---- Dimension 1: tenants in [1, best.tenants].
            let mut lo = 1usize;
            let mut hi = best.tenants;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let candidate = ScenarioKnobs {
                    tenants: mid,
                    ..best
                };
                let Some(violated) = self.probe(
                    "tenants",
                    &candidate,
                    &mut check,
                    &mut trace,
                    &mut evaluations,
                    &mut best_violations,
                )?
                else {
                    budget_exhausted = true;
                    break 'passes;
                };
                if violated {
                    hi = mid;
                    best = candidate;
                } else {
                    lo = mid + 1;
                }
            }

            // ---- Dimension 2: fault prefix in [0, best.fault_prefix].
            let mut lo = 0usize;
            let mut hi = best.fault_prefix;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let candidate = ScenarioKnobs {
                    fault_prefix: mid,
                    ..best
                };
                let Some(violated) = self.probe(
                    "fault-prefix",
                    &candidate,
                    &mut check,
                    &mut trace,
                    &mut evaluations,
                    &mut best_violations,
                )?
                else {
                    budget_exhausted = true;
                    break 'passes;
                };
                if violated {
                    hi = mid;
                    best = candidate;
                } else {
                    lo = mid + 1;
                }
            }

            // ---- Dimension 3: horizon, probed at k/HORIZON_STEPS of the
            // initial horizon for the minimal still-violating k in
            // [1, best_k].
            let mut lo = 1u64;
            let mut hi = best_k;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let candidate = ScenarioKnobs {
                    horizon_cycles: initial.horizon_cycles * (mid as f64) / (HORIZON_STEPS as f64),
                    ..best
                };
                let Some(violated) = self.probe(
                    "horizon",
                    &candidate,
                    &mut check,
                    &mut trace,
                    &mut evaluations,
                    &mut best_violations,
                )?
                else {
                    budget_exhausted = true;
                    break 'passes;
                };
                if violated {
                    hi = mid;
                    best = candidate;
                    best_k = mid;
                } else {
                    lo = mid + 1;
                }
            }

            if best == pass_entry {
                break; // fixpoint: a full pass shrank nothing
            }
        }

        Ok(Some(ShrinkReport {
            initial,
            minimal: best,
            violations: best_violations,
            trace,
            evaluations,
            budget_exhausted,
        }))
    }

    /// Evaluates one candidate, recording the step. `Ok(None)` means the
    /// budget is exhausted (the candidate was *not* evaluated).
    #[allow(clippy::too_many_arguments)]
    fn probe<F>(
        &self,
        dimension: &'static str,
        candidate: &ScenarioKnobs,
        check: &mut F,
        trace: &mut Vec<ShrinkStep>,
        evaluations: &mut usize,
        best_violations: &mut Vec<String>,
    ) -> V10Result<Option<bool>>
    where
        F: FnMut(&ScenarioKnobs) -> V10Result<Vec<String>>,
    {
        if *evaluations >= self.max_evaluations {
            return Ok(None);
        }
        *evaluations += 1;
        let violations = check(candidate)?;
        let violated = !violations.is_empty();
        trace.push(ShrinkStep {
            dimension,
            candidate: *candidate,
            violated,
        });
        if violated {
            *best_violations = violations;
        }
        Ok(Some(violated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(tenants: usize, horizon: f64, faults: usize) -> ScenarioKnobs {
        ScenarioKnobs {
            tenants,
            horizon_cycles: horizon,
            fault_prefix: faults,
        }
    }

    #[test]
    fn clean_scenarios_return_none() {
        let harness = PropertyHarness::new();
        let report = harness
            .shrink(knobs(8, 1.0e7, 4), |_| Ok(Vec::new()))
            .unwrap();
        assert!(report.is_none());
    }

    #[test]
    fn shrinks_to_the_known_minimum() {
        // Violation iff tenants >= 3 and fault_prefix >= 2: the shrinker
        // must land exactly on (3, _, 2) and shrink the horizon to its
        // smallest probed fraction (which never affects this predicate).
        let harness = PropertyHarness::new();
        let report = harness
            .shrink(knobs(16, 6.4e7, 8), |k| {
                Ok(if k.tenants >= 3 && k.fault_prefix >= 2 {
                    vec!["synthetic-violation".to_string()]
                } else {
                    Vec::new()
                })
            })
            .unwrap()
            .expect("initial scenario violates");
        assert_eq!(report.minimal().tenants, 3);
        assert_eq!(report.minimal().fault_prefix, 2);
        assert!(report.minimal().horizon_cycles < 6.4e7 / 32.0);
        assert_eq!(report.violations(), ["synthetic-violation".to_string()]);
        assert!(!report.budget_exhausted());
        assert_eq!(report.evaluations(), report.trace().len());
    }

    #[test]
    fn shrinking_is_deterministic() {
        let run = || {
            PropertyHarness::new()
                .shrink(knobs(12, 3.0e7, 6), |k| {
                    Ok(if k.tenants >= 5 && k.horizon_cycles >= 1.0e6 {
                        vec![format!("needs-{}", 5)]
                    } else {
                        Vec::new()
                    })
                })
                .unwrap()
                .expect("violates")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same inputs must shrink identically");
        assert_eq!(a.minimal().tenants, 5);
    }

    #[test]
    fn budget_exhaustion_keeps_a_verified_violation() {
        let harness = PropertyHarness::new().with_max_evaluations(3).unwrap();
        let report = harness
            .shrink(knobs(1024, 1.0e8, 512), |k| {
                Ok(if k.tenants >= 2 {
                    vec!["wide".to_string()]
                } else {
                    Vec::new()
                })
            })
            .unwrap()
            .expect("violates");
        assert!(report.budget_exhausted());
        assert!(report.evaluations() <= 3);
        // Whatever it stopped on, it is a real violation.
        assert!(report.minimal().tenants >= 2);
        assert_eq!(report.violations(), ["wide".to_string()]);
    }

    #[test]
    fn check_errors_propagate() {
        let harness = PropertyHarness::new();
        let err = harness
            .shrink(knobs(4, 1.0e6, 0), |_| {
                Err(v10_sim::V10Error::invalid("test", "driver broke"))
            })
            .unwrap_err();
        assert!(err.to_string().contains("driver broke"), "{err}");
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let harness = PropertyHarness::new();
        assert!(harness
            .shrink(knobs(0, 1.0e6, 0), |_| Ok(Vec::new()))
            .is_err());
        assert!(harness
            .shrink(knobs(1, f64::NAN, 0), |_| Ok(Vec::new()))
            .is_err());
        assert!(PropertyHarness::new().with_max_evaluations(0).is_err());
    }
}
