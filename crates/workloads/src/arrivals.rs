//! Open-loop tenant arrival processes.
//!
//! The paper's evaluation replays fixed workload sets; a serving NPU
//! instead sees an *open-loop* stream: tenants arrive over time (Poisson
//! inter-arrivals at some offered load), submit a bounded request stream
//! with think time between requests, and depart. [`OpenLoopProcess`]
//! samples such a stream deterministically from a seed — the same process
//! description always compiles to the same [`TimedArrival`] list, so
//! serving experiments replay bit-for-bit.
//!
//! This crate knows nothing about executors; callers turn each
//! [`TimedArrival`] into an admission for the serving engine (label +
//! trace + arrival cycle + request quota map 1:1 onto
//! `v10_core::Admission`). Think time is compiled into the trace itself:
//! the first operator's dispatch gap — the host-side stall the engine
//! already models before an operator issues — is extended by the session's
//! think gap, so the tenant idles that long before every request without
//! occupying a functional unit.

use v10_isa::{OpDesc, RequestTrace};
use v10_sim::{SimRng, V10Error, V10Result};

use crate::model::Model;

/// One sampled tenant arrival: who arrives, when, and how much work they
/// bring.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedArrival {
    label: String,
    model: Model,
    trace: RequestTrace,
    at_cycles: f64,
    requests: usize,
}

impl TimedArrival {
    /// A hand-built arrival (most arrivals come from
    /// [`OpenLoopProcess::sample`]; this is for scripted scenarios like the
    /// admission-control example).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `at_cycles` is negative or
    /// not finite, or `requests` is zero.
    pub fn new(
        label: impl Into<String>,
        model: Model,
        trace: RequestTrace,
        at_cycles: f64,
        requests: usize,
    ) -> V10Result<Self> {
        if !(at_cycles.is_finite() && at_cycles >= 0.0) {
            return Err(V10Error::invalid(
                "TimedArrival::new",
                format!("arrival time must be finite and non-negative, got {at_cycles}"),
            ));
        }
        if requests == 0 {
            return Err(V10Error::invalid(
                "TimedArrival::new",
                "a tenant must submit at least one request",
            ));
        }
        Ok(TimedArrival {
            label: label.into(),
            model,
            trace,
            at_cycles,
            requests,
        })
    }

    /// A unique label for the tenancy, e.g. `"BERT#3"`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The arriving model.
    #[must_use]
    pub fn model(&self) -> Model {
        self.model
    }

    /// The tenant's per-request trace (think time folded into the first
    /// operator's dispatch gap).
    #[must_use]
    pub fn trace(&self) -> &RequestTrace {
        &self.trace
    }

    /// Arrival time in cycles.
    #[must_use]
    pub fn at_cycles(&self) -> f64 {
        self.at_cycles
    }

    /// Requests the tenant submits before departing.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests
    }
}

/// A deterministic open-loop arrival process over a set of models.
///
/// Arrivals are Poisson (exponential inter-arrival times with the
/// configured mean); each arrival picks a model uniformly at random,
/// synthesizes its calibrated trace with a per-arrival seed, and submits a
/// fixed number of requests separated by an exponentially distributed
/// think gap sampled once per session.
///
/// # Example
///
/// ```
/// use v10_workloads::{Model, OpenLoopProcess};
///
/// let process = OpenLoopProcess::new(&[Model::Bert, Model::Ncf], 2.0e6, 7)
///     .expect("positive rate");
/// let a = process.sample(10).expect("non-empty sample");
/// let b = process.sample(10).expect("non-empty sample");
/// assert_eq!(a, b, "same seed, same stream");
/// assert!(a.windows(2).all(|w| w[0].at_cycles() <= w[1].at_cycles()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopProcess {
    models: Vec<Model>,
    mean_interarrival_cycles: f64,
    mean_think_cycles: f64,
    requests_per_session: usize,
    seed: u64,
}

impl OpenLoopProcess {
    /// A process over `models` with the given mean inter-arrival time in
    /// cycles (the offered load is its reciprocal) and RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `models` is empty or
    /// `mean_interarrival_cycles` is not finite and positive (a zero mean
    /// would be an infinite arrival rate).
    pub fn new(models: &[Model], mean_interarrival_cycles: f64, seed: u64) -> V10Result<Self> {
        if models.is_empty() {
            return Err(V10Error::invalid(
                "OpenLoopProcess::new",
                "need at least one model to draw arrivals from",
            ));
        }
        if !(mean_interarrival_cycles.is_finite() && mean_interarrival_cycles > 0.0) {
            return Err(V10Error::invalid(
                "OpenLoopProcess::new",
                format!(
                    "mean inter-arrival time must be finite and positive, got \
                     {mean_interarrival_cycles}"
                ),
            ));
        }
        Ok(OpenLoopProcess {
            models: models.to_vec(),
            mean_interarrival_cycles,
            mean_think_cycles: 0.0,
            requests_per_session: 4,
            seed,
        })
    }

    /// Sets the mean think time in cycles between a tenant's requests
    /// (default 0: back-to-back requests).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `cycles` is negative or not
    /// finite.
    pub fn with_think_cycles(mut self, cycles: f64) -> V10Result<Self> {
        if !(cycles.is_finite() && cycles >= 0.0) {
            return Err(V10Error::invalid(
                "OpenLoopProcess::with_think_cycles",
                format!("think time must be finite and non-negative, got {cycles}"),
            ));
        }
        self.mean_think_cycles = cycles;
        Ok(self)
    }

    /// Sets how many requests each tenant submits before departing
    /// (default 4).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `requests` is zero.
    pub fn with_requests_per_session(mut self, requests: usize) -> V10Result<Self> {
        if requests == 0 {
            return Err(V10Error::invalid(
                "OpenLoopProcess::with_requests_per_session",
                "need at least one request per session",
            ));
        }
        self.requests_per_session = requests;
        Ok(self)
    }

    /// The mean inter-arrival time in cycles.
    #[must_use]
    pub fn mean_interarrival_cycles(&self) -> f64 {
        self.mean_interarrival_cycles
    }

    /// The mean think time between requests in cycles.
    #[must_use]
    pub fn mean_think_cycles(&self) -> f64 {
        self.mean_think_cycles
    }

    /// Requests per tenant session.
    #[must_use]
    pub fn requests_per_session(&self) -> usize {
        self.requests_per_session
    }

    /// Samples the first `count` arrivals of the process, in arrival order.
    /// Deterministic: the same process samples the same stream.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `count` is zero.
    pub fn sample(&self, count: usize) -> V10Result<Vec<TimedArrival>> {
        if count == 0 {
            return Err(V10Error::invalid(
                "OpenLoopProcess::sample",
                "need at least one arrival",
            ));
        }
        let mut rng = SimRng::seed_from(self.seed);
        let mut now = 0.0;
        let mut arrivals = Vec::with_capacity(count);
        for i in 0..count {
            now += rng.exponential(self.mean_interarrival_cycles);
            arrivals.push(draw_session(
                &mut rng,
                &self.models,
                self.mean_think_cycles,
                self.requests_per_session,
                i,
                now,
            ));
        }
        Ok(arrivals)
    }
}

/// Draws the per-arrival session payload (model pick, trace, think gap)
/// from the process RNG. Shared by [`OpenLoopProcess`] and
/// [`MmppProcess`] so both consume the stream identically: a single-state
/// MMPP is bit-for-bit the Poisson process.
fn draw_session(
    rng: &mut SimRng,
    models: &[Model],
    mean_think_cycles: f64,
    requests: usize,
    index: usize,
    at_cycles: f64,
) -> TimedArrival {
    let model = models[rng.index(models.len())];
    // Each session draws its trace and think gap from its own
    // stream, so changing the think-time configuration never
    // perturbs the arrival times, model picks, or traces.
    let mut session = SimRng::seed_from(rng.next_u64());
    let trace_seed = session.next_u64();
    let think = if mean_think_cycles > 0.0 {
        session.exponential(mean_think_cycles) as u64
    } else {
        0
    };
    let trace = with_think_gap(&model.default_profile().synthesize(trace_seed), think);
    TimedArrival {
        label: format!("{}#{index}", model.abbrev()),
        model,
        trace,
        at_cycles,
        requests,
    }
}

/// Decorrelates the state-dwell stream from the arrival stream, so dwell
/// draws never perturb arrival gaps, model picks, or traces.
const MMPP_DWELL_SALT: u64 = 0x4D4D_5050; // "MMPP"

/// Hard cap on state transitions skipped between two consecutive arrivals;
/// past it the dwell configuration is degenerate (vanishing dwell times
/// against huge arrival gaps) and sampling reports an error instead of
/// spinning.
const MMPP_MAX_CROSSINGS_PER_ARRIVAL: usize = 65_536;

/// One state of a Markov-modulated Poisson process: an arrival rate (as a
/// mean inter-arrival gap) plus the mean exponential dwell time the
/// process spends in the state per visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppState {
    mean_interarrival_cycles: f64,
    mean_dwell_cycles: f64,
}

impl MmppState {
    /// A validated state.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless both means are finite
    /// and positive.
    pub fn new(mean_interarrival_cycles: f64, mean_dwell_cycles: f64) -> V10Result<Self> {
        if !(mean_interarrival_cycles.is_finite() && mean_interarrival_cycles > 0.0) {
            return Err(V10Error::invalid(
                "MmppState::new",
                format!(
                    "mean inter-arrival time must be finite and positive, \
                     got {mean_interarrival_cycles}"
                ),
            ));
        }
        if !(mean_dwell_cycles.is_finite() && mean_dwell_cycles > 0.0) {
            return Err(V10Error::invalid(
                "MmppState::new",
                format!("mean dwell time must be finite and positive, got {mean_dwell_cycles}"),
            ));
        }
        Ok(MmppState {
            mean_interarrival_cycles,
            mean_dwell_cycles,
        })
    }

    /// Mean inter-arrival gap while the process is in this state.
    #[must_use]
    pub fn mean_interarrival_cycles(&self) -> f64 {
        self.mean_interarrival_cycles
    }

    /// Mean exponential dwell time per visit to this state.
    #[must_use]
    pub fn mean_dwell_cycles(&self) -> f64 {
        self.mean_dwell_cycles
    }
}

/// A deterministic Markov-modulated Poisson arrival process: the arrival
/// rate is piecewise-constant, switching between [`MmppState`]s in cycle
/// order with exponentially distributed dwell times.
///
/// Two independent seeded streams keep the process well-behaved:
///
/// * the **arrival stream** draws inter-arrival gaps and session payloads
///   exactly like [`OpenLoopProcess`] — with a single state the two
///   processes emit bit-identical [`TimedArrival`] schedules;
/// * the **dwell stream** (salted from the same seed) draws state dwell
///   times, so reshaping the modulation never perturbs session traces.
///
/// A gap that would cross a state boundary is redrawn from the boundary
/// under the new state's rate — valid by the memorylessness of the
/// exponential, and what makes the single-state case exact.
///
/// # Example
///
/// ```
/// use v10_workloads::{MmppProcess, Model, OpenLoopProcess};
///
/// // One state == plain Poisson, bit for bit.
/// let mmpp = MmppProcess::single_state(&[Model::Bert], 2.0e6, 7).expect("valid process");
/// let poisson = OpenLoopProcess::new(&[Model::Bert], 2.0e6, 7).expect("valid process");
/// assert_eq!(mmpp.sample(8).expect("samples"), poisson.sample(8).expect("samples"));
///
/// // A 2x flash crowd doubles the arrival rate during bursts.
/// let crowd = MmppProcess::flash_crowd(&[Model::Bert], 2.0e6, 2.0, 1.0e7, 7)
///     .expect("valid process");
/// assert_eq!(crowd.states().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MmppProcess {
    models: Vec<Model>,
    states: Vec<MmppState>,
    mean_think_cycles: f64,
    requests_per_session: usize,
    seed: u64,
}

impl MmppProcess {
    /// A process over `models` walking `states` in cycle order, starting in
    /// the first state.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `models` or `states` is
    /// empty.
    pub fn new(models: &[Model], states: &[MmppState], seed: u64) -> V10Result<Self> {
        if models.is_empty() {
            return Err(V10Error::invalid(
                "MmppProcess::new",
                "need at least one model to draw arrivals from",
            ));
        }
        if states.is_empty() {
            return Err(V10Error::invalid(
                "MmppProcess::new",
                "need at least one modulation state",
            ));
        }
        Ok(MmppProcess {
            models: models.to_vec(),
            states: states.to_vec(),
            mean_think_cycles: 0.0,
            requests_per_session: 4,
            seed,
        })
    }

    /// The degenerate single-state process: exactly the Poisson stream
    /// [`OpenLoopProcess`] emits for the same arguments (same seed, same
    /// arrivals, bit for bit).
    ///
    /// # Errors
    ///
    /// As [`MmppProcess::new`] plus [`MmppState::new`] validation.
    pub fn single_state(
        models: &[Model],
        mean_interarrival_cycles: f64,
        seed: u64,
    ) -> V10Result<Self> {
        // The dwell mean is irrelevant with one state (the dwell stream is
        // never drawn); any valid value works.
        let state = MmppState::new(mean_interarrival_cycles, 1.0)?;
        MmppProcess::new(models, &[state], seed)
    }

    /// A flash-crowd process: baseline load at `base_mean_interarrival_cycles`
    /// punctuated by bursts during which the arrival rate is multiplied by
    /// `burst_factor` (the mean gap divided by it). Both phases dwell
    /// `mean_dwell_cycles` on average.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] unless `burst_factor` is finite
    /// and ≥ 1, plus [`MmppState::new`] validation of the means.
    pub fn flash_crowd(
        models: &[Model],
        base_mean_interarrival_cycles: f64,
        burst_factor: f64,
        mean_dwell_cycles: f64,
        seed: u64,
    ) -> V10Result<Self> {
        if !(burst_factor.is_finite() && burst_factor >= 1.0) {
            return Err(V10Error::invalid(
                "MmppProcess::flash_crowd",
                format!("burst factor must be finite and >= 1, got {burst_factor}"),
            ));
        }
        let calm = MmppState::new(base_mean_interarrival_cycles, mean_dwell_cycles)?;
        let burst = MmppState::new(
            base_mean_interarrival_cycles / burst_factor,
            mean_dwell_cycles,
        )?;
        MmppProcess::new(models, &[calm, burst], seed)
    }

    /// A diurnal process alternating between a busy "day" phase (mean gap
    /// `day_mean_interarrival_cycles`) and a quiet "night" phase, each
    /// dwelling `mean_dwell_cycles` on average per half-period.
    ///
    /// # Errors
    ///
    /// Propagates [`MmppState::new`] / [`MmppProcess::new`] validation.
    pub fn diurnal(
        models: &[Model],
        day_mean_interarrival_cycles: f64,
        night_mean_interarrival_cycles: f64,
        mean_dwell_cycles: f64,
        seed: u64,
    ) -> V10Result<Self> {
        let day = MmppState::new(day_mean_interarrival_cycles, mean_dwell_cycles)?;
        let night = MmppState::new(night_mean_interarrival_cycles, mean_dwell_cycles)?;
        MmppProcess::new(models, &[day, night], seed)
    }

    /// Sets the mean think time in cycles between a tenant's requests
    /// (default 0: back-to-back requests).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `cycles` is negative or not
    /// finite.
    pub fn with_think_cycles(mut self, cycles: f64) -> V10Result<Self> {
        if !(cycles.is_finite() && cycles >= 0.0) {
            return Err(V10Error::invalid(
                "MmppProcess::with_think_cycles",
                format!("think time must be finite and non-negative, got {cycles}"),
            ));
        }
        self.mean_think_cycles = cycles;
        Ok(self)
    }

    /// Sets how many requests each tenant submits before departing
    /// (default 4).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `requests` is zero.
    pub fn with_requests_per_session(mut self, requests: usize) -> V10Result<Self> {
        if requests == 0 {
            return Err(V10Error::invalid(
                "MmppProcess::with_requests_per_session",
                "need at least one request per session",
            ));
        }
        self.requests_per_session = requests;
        Ok(self)
    }

    /// The modulation states, in cycle order.
    #[must_use]
    pub fn states(&self) -> &[MmppState] {
        &self.states
    }

    /// The mean think time between requests in cycles.
    #[must_use]
    pub fn mean_think_cycles(&self) -> f64 {
        self.mean_think_cycles
    }

    /// Requests per tenant session.
    #[must_use]
    pub fn requests_per_session(&self) -> usize {
        self.requests_per_session
    }

    /// Samples the first `count` arrivals of the process, in arrival order.
    /// Deterministic: the same process samples the same stream.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `count` is zero, or if the
    /// dwell configuration is so degenerate that an arrival gap skips more
    /// than 65 536 state transitions.
    pub fn sample(&self, count: usize) -> V10Result<Vec<TimedArrival>> {
        if count == 0 {
            return Err(V10Error::invalid(
                "MmppProcess::sample",
                "need at least one arrival",
            ));
        }
        let mut rng = SimRng::seed_from(self.seed);
        let mut dwell = SimRng::seed_from(self.seed ^ MMPP_DWELL_SALT);
        let mut state = 0usize;
        // With one state the process never leaves it; leaving the dwell
        // stream untouched is what makes this case exactly Poisson.
        let mut state_end = if self.states.len() == 1 {
            f64::INFINITY
        } else {
            dwell.exponential(self.states[state].mean_dwell_cycles)
        };
        let mut now = 0.0;
        let mut arrivals = Vec::with_capacity(count);
        for i in 0..count {
            let mut crossings = 0usize;
            loop {
                let gap = rng.exponential(self.states[state].mean_interarrival_cycles);
                if now + gap <= state_end {
                    now += gap;
                    break;
                }
                // The gap crosses a modulation boundary: move to the
                // boundary and redraw under the next state's rate
                // (memorylessness makes the restart exact).
                now = state_end;
                state = (state + 1) % self.states.len();
                state_end = now + dwell.exponential(self.states[state].mean_dwell_cycles);
                crossings += 1;
                if crossings > MMPP_MAX_CROSSINGS_PER_ARRIVAL {
                    return Err(V10Error::invalid(
                        "MmppProcess::sample",
                        "dwell times are vanishingly small against the arrival gaps; \
                         raise mean_dwell_cycles",
                    ));
                }
            }
            arrivals.push(draw_session(
                &mut rng,
                &self.models,
                self.mean_think_cycles,
                self.requests_per_session,
                i,
                now,
            ));
        }
        Ok(arrivals)
    }
}

/// Extends the first operator's dispatch gap by `gap` cycles — the
/// compiled form of per-request think time.
fn with_think_gap(trace: &RequestTrace, gap: u64) -> RequestTrace {
    if gap == 0 {
        return trace.clone();
    }
    let mut ops = trace.ops().to_vec();
    let first = ops[0];
    ops[0] = OpDesc::builder(first.kind())
        .compute_cycles(first.compute_cycles())
        .hbm_bytes(first.hbm_bytes())
        .vmem_bytes(first.vmem_bytes())
        .flops(first.flops())
        .instr_count(first.instr_count())
        .dispatch_gap_cycles(first.dispatch_gap_cycles() + gap)
        .build();
    RequestTrace::new(ops).expect("rebuilt trace keeps its operators")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process() -> OpenLoopProcess {
        OpenLoopProcess::new(&[Model::Bert, Model::Ncf, Model::ResNet], 1.0e6, 42).unwrap()
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = process().sample(20).unwrap();
        let b = process().sample(20).unwrap();
        assert_eq!(a, b);
        // A different seed gives a different stream.
        let c = OpenLoopProcess::new(&[Model::Bert, Model::Ncf, Model::ResNet], 1.0e6, 43)
            .unwrap()
            .sample(20)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_ordered_with_plausible_spacing() {
        let arrivals = process().sample(200).unwrap();
        assert_eq!(arrivals.len(), 200);
        let mut prev = 0.0;
        for a in &arrivals {
            assert!(a.at_cycles() > prev, "arrival times strictly increase");
            prev = a.at_cycles();
        }
        // Mean spacing within 20% of the configured mean over 200 draws.
        let mean = prev / 200.0;
        assert!(
            (mean - 1.0e6).abs() / 1.0e6 < 0.2,
            "mean inter-arrival {mean}"
        );
    }

    #[test]
    fn arrivals_draw_from_the_model_set() {
        let models = [Model::Bert, Model::Ncf];
        let arrivals = OpenLoopProcess::new(&models, 1.0e6, 5)
            .unwrap()
            .sample(50)
            .unwrap();
        assert!(arrivals.iter().all(|a| models.contains(&a.model())));
        // Both models appear over 50 draws.
        for m in models {
            assert!(arrivals.iter().any(|a| a.model() == m), "{m:?} never drawn");
        }
        // Labels are unique per arrival.
        let labels: std::collections::BTreeSet<&str> =
            arrivals.iter().map(TimedArrival::label).collect();
        assert_eq!(labels.len(), arrivals.len());
    }

    #[test]
    fn think_time_extends_first_op_dispatch_gap() {
        let without = process().sample(10).unwrap();
        let with = process()
            .with_think_cycles(500_000.0)
            .unwrap()
            .sample(10)
            .unwrap();
        let mut extended = 0;
        for (a, b) in without.iter().zip(&with) {
            let base = a.trace().ops()[0].dispatch_gap_cycles();
            let thought = b.trace().ops()[0].dispatch_gap_cycles();
            assert!(thought >= base);
            if thought > base {
                extended += 1;
            }
            // Only the first operator changes.
            assert_eq!(a.trace().ops().len(), b.trace().ops().len());
        }
        assert!(extended > 5, "think gaps should usually be non-zero");
    }

    #[test]
    fn session_quota_is_carried() {
        let arrivals = process()
            .with_requests_per_session(9)
            .unwrap()
            .sample(3)
            .unwrap();
        assert!(arrivals.iter().all(|a| a.requests() == 9));
    }

    #[test]
    fn hand_built_arrival_validates_inputs() {
        let trace = Model::Bert.default_profile().synthesize(1);
        let a = TimedArrival::new("BERT#x", Model::Bert, trace.clone(), 5.0e6, 2).unwrap();
        assert_eq!(a.label(), "BERT#x");
        assert_eq!(a.requests(), 2);
        for bad_at in [-1.0, f64::NAN, f64::INFINITY] {
            let err = TimedArrival::new("b", Model::Bert, trace.clone(), bad_at, 2).unwrap_err();
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
        }
        let err = TimedArrival::new("b", Model::Bert, trace, 0.0, 0).unwrap_err();
        assert!(err.to_string().contains("at least one request"), "{err}");
    }

    #[test]
    fn zero_rate_process_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = OpenLoopProcess::new(&[Model::Bert], bad, 0).unwrap_err();
            assert!(err.to_string().contains("finite and positive"), "{err}");
        }
    }

    #[test]
    fn empty_model_set_rejected() {
        let err = OpenLoopProcess::new(&[], 1.0e6, 0).unwrap_err();
        assert!(err.to_string().contains("at least one model"), "{err}");
    }

    #[test]
    fn bad_think_time_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = process().with_think_cycles(bad).unwrap_err();
            assert!(err.to_string().contains("non-negative"), "{err}");
        }
    }

    #[test]
    fn zero_session_requests_rejected() {
        let err = process().with_requests_per_session(0).unwrap_err();
        assert!(err.to_string().contains("at least one request"), "{err}");
    }

    #[test]
    fn zero_sample_count_rejected() {
        let err = process().sample(0).unwrap_err();
        assert!(err.to_string().contains("at least one arrival"), "{err}");
    }

    #[test]
    fn mmpp_validates_inputs() {
        let err = MmppProcess::new(&[], &[MmppState::new(1.0, 1.0).unwrap()], 0).unwrap_err();
        assert!(err.to_string().contains("at least one model"), "{err}");
        let err = MmppProcess::new(&[Model::Bert], &[], 0).unwrap_err();
        assert!(err.to_string().contains("at least one modulation"), "{err}");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(MmppState::new(bad, 1.0).is_err(), "interarrival {bad}");
            assert!(MmppState::new(1.0, bad).is_err(), "dwell {bad}");
        }
        for bad in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert!(
                MmppProcess::flash_crowd(&[Model::Bert], 1.0e6, bad, 1.0e6, 0).is_err(),
                "burst factor {bad}"
            );
        }
        let p = MmppProcess::single_state(&[Model::Bert], 1.0e6, 0).unwrap();
        assert!(p.clone().with_think_cycles(-1.0).is_err());
        assert!(p.clone().with_requests_per_session(0).is_err());
        assert!(p.sample(0).is_err());
    }

    #[test]
    fn mmpp_multi_state_sampling_is_deterministic() {
        let crowd = MmppProcess::flash_crowd(
            &[Model::Bert, Model::Ncf, Model::ResNet],
            1.0e6,
            4.0,
            5.0e6,
            0xD1CE,
        )
        .unwrap();
        let a = crowd.sample(40).unwrap();
        let b = crowd.sample(40).unwrap();
        assert_eq!(a, b, "same process, same stream");
        let mut prev = 0.0;
        for x in &a {
            assert!(x.at_cycles() > prev, "arrival times strictly increase");
            prev = x.at_cycles();
        }
    }

    #[test]
    fn flash_crowd_raises_the_arrival_rate() {
        // Averaged over many arrivals, a strong flash crowd compresses the
        // timeline relative to the single-state baseline.
        let base = MmppProcess::single_state(&[Model::Bert], 1.0e6, 9)
            .unwrap()
            .sample(300)
            .unwrap();
        let crowd = MmppProcess::flash_crowd(&[Model::Bert], 1.0e6, 8.0, 20.0e6, 9)
            .unwrap()
            .sample(300)
            .unwrap();
        let last = |v: &[TimedArrival]| v.last().unwrap().at_cycles();
        assert!(
            last(&crowd) < last(&base),
            "crowd {} vs base {}",
            last(&crowd),
            last(&base)
        );
    }

    #[test]
    fn diurnal_alternates_between_two_states() {
        let p = MmppProcess::diurnal(&[Model::Bert], 1.0e6, 16.0e6, 8.0e6, 3).unwrap();
        assert_eq!(p.states().len(), 2);
        assert_eq!(p.states()[0].mean_interarrival_cycles(), 1.0e6);
        assert_eq!(p.states()[1].mean_interarrival_cycles(), 16.0e6);
        assert_eq!(p.states()[0].mean_dwell_cycles(), 8.0e6);
        assert!(p.sample(30).is_ok());
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;

    /// The headline MMPP property: with a single state, the process is the
    /// Poisson [`OpenLoopProcess`] bit for bit — same seed, identical
    /// arrival schedule (times, labels, traces, quotas) — across random
    /// seeds, rates, think times, and quotas.
    #[test]
    fn single_state_mmpp_is_exactly_poisson() {
        let mut rng = SimRng::seed_from(0x3A3A);
        let models = [Model::Bert, Model::Ncf, Model::Mnist, Model::Dlrm];
        for case in 0..32 {
            let seed = rng.next_u64();
            let mean = rng.uniform(1.0e5, 1.0e7);
            let think = if case % 2 == 0 {
                0.0
            } else {
                rng.uniform(1.0e4, 1.0e6)
            };
            let requests = 1 + rng.index(6);
            let count = 1 + rng.index(24);

            let poisson = OpenLoopProcess::new(&models, mean, seed)
                .unwrap()
                .with_think_cycles(think)
                .unwrap()
                .with_requests_per_session(requests)
                .unwrap()
                .sample(count)
                .unwrap();
            let mmpp = MmppProcess::single_state(&models, mean, seed)
                .unwrap()
                .with_think_cycles(think)
                .unwrap()
                .with_requests_per_session(requests)
                .unwrap()
                .sample(count)
                .unwrap();

            assert_eq!(poisson.len(), mmpp.len(), "case {case}");
            for (p, m) in poisson.iter().zip(&mmpp) {
                assert_eq!(
                    p.at_cycles().to_bits(),
                    m.at_cycles().to_bits(),
                    "case {case}: arrival time drifted"
                );
                assert_eq!(p, m, "case {case}: arrival payload drifted");
            }
        }
    }

    /// Multi-state sampling stays deterministic and time-ordered over random
    /// state machines.
    #[test]
    fn random_mmpp_machines_sample_cleanly() {
        let mut rng = SimRng::seed_from(0x004D_4D50);
        let models = [Model::Mnist, Model::Ncf];
        for case in 0..32 {
            let seed = rng.next_u64();
            let n_states = 1 + rng.index(4);
            let states: Vec<MmppState> = (0..n_states)
                .map(|_| {
                    MmppState::new(rng.uniform(1.0e5, 4.0e6), rng.uniform(5.0e5, 2.0e7)).unwrap()
                })
                .collect();
            let process = MmppProcess::new(&models, &states, seed).unwrap();
            let a = process.sample(20).unwrap();
            let b = process.sample(20).unwrap();
            assert_eq!(a, b, "case {case}: replay drifted");
            let mut prev = 0.0;
            for x in &a {
                assert!(x.at_cycles() > prev, "case {case}: times must increase");
                prev = x.at_cycles();
            }
        }
    }
}
