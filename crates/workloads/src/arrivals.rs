//! Open-loop tenant arrival processes.
//!
//! The paper's evaluation replays fixed workload sets; a serving NPU
//! instead sees an *open-loop* stream: tenants arrive over time (Poisson
//! inter-arrivals at some offered load), submit a bounded request stream
//! with think time between requests, and depart. [`MmppProcess`] samples
//! such a stream deterministically from a seed — the same process
//! description always compiles to the same [`TimedArrival`] list, so
//! serving experiments replay bit-for-bit. Its rate may be modulated (a
//! flash crowd, a diurnal cycle); with one state it is plain Poisson,
//! which [`OpenLoopProcess`] names. Sampling draws every session on the
//! calling thread and then synthesizes the sessions' traces on all
//! cores; the stream does not depend on how many.
//!
//! This crate knows nothing about executors; callers turn each
//! [`TimedArrival`] into an admission for the serving engine (label +
//! trace + arrival cycle + request quota map 1:1 onto
//! `v10_core::Admission`). Think time is compiled into the trace itself:
//! the first operator's dispatch gap — the host-side stall the engine
//! already models before an operator issues — is extended by the session's
//! think gap, so the tenant idles that long before every request without
//! occupying a functional unit.

use std::num::NonZeroUsize;

use v10_isa::RequestTrace;
use v10_sim::{parallel_map_with, SimRng, V10Error, V10Result};

use crate::model::Model;
use crate::profile::ModelProfile;

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
    /// [`MmppProcess::sample`]; this is for scripted scenarios like the
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

/// Decorrelates the state-dwell stream from the arrival stream, so dwell
/// draws never perturb arrival gaps, model picks, or traces.
const MMPP_DWELL_SALT: u64 = 0x4D4D_5050; // "MMPP"

/// Hard cap on state transitions skipped between two consecutive arrivals;
/// past it the dwell configuration is degenerate (vanishing dwell times
/// against huge arrival gaps) and sampling reports an error instead of
/// spinning.
const MMPP_MAX_CROSSINGS_PER_ARRIVAL: usize = 65_536;

/// Fewest sessions [`MmppProcess::sample`] gives a synthesis thread: a
/// millisecond or more of trace building for most models, against tens of
/// microseconds to start and join a thread.
const MIN_SESSIONS_PER_THREAD: usize = 256;

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

/// A deterministic open-loop arrival process over a set of models: a
/// Markov-modulated Poisson process whose arrival rate is
/// piecewise-constant, switching between [`MmppState`]s in cycle order
/// with exponentially distributed dwell times. With one state
/// ([`new`](Self::new)) it is plain Poisson.
///
/// Each arrival picks a model uniformly at random, synthesizes its
/// calibrated trace with a per-arrival seed, and submits a fixed number of
/// requests separated by an exponentially distributed think gap sampled
/// once per session. Two independent seeded streams keep the process
/// well-behaved:
///
/// * the **arrival stream** draws inter-arrival gaps and session payloads;
/// * the **dwell stream** (salted from the same seed) draws state dwell
///   times, so reshaping the modulation never perturbs session traces.
///
/// A gap that would cross a state boundary is redrawn from the boundary
/// under the new state's rate — valid by the memorylessness of the
/// exponential. A one-state process never crosses a boundary and never
/// draws a dwell time.
///
/// # Example
///
/// ```
/// use v10_workloads::{MmppProcess, Model};
///
/// let poisson = MmppProcess::new(&[Model::Bert, Model::Ncf], 2.0e6, 7).expect("valid process");
/// let a = poisson.sample(10).expect("non-empty sample");
/// assert_eq!(a, poisson.sample(10).expect("non-empty sample"), "same seed, same stream");
/// assert!(a.windows(2).all(|w| w[0].at_cycles() <= w[1].at_cycles()));
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

/// The plain Poisson process: a one-state [`MmppProcess`], built by
/// [`MmppProcess::new`]. Callers that mean no modulation, the benchmark
/// package among them, spell this name.
pub type OpenLoopProcess = MmppProcess;

impl MmppProcess {
    /// The Poisson process over `models` with the given mean inter-arrival
    /// time in cycles (the offered load is its reciprocal) and RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `models` is empty or
    /// `mean_interarrival_cycles` is not finite and positive (a zero mean
    /// would be an infinite arrival rate).
    pub fn new(models: &[Model], mean_interarrival_cycles: f64, seed: u64) -> V10Result<Self> {
        // The dwell mean is irrelevant with one state (the dwell stream is
        // never drawn); any valid value works.
        let state = MmppState::new(mean_interarrival_cycles, 1.0)?;
        MmppProcess::modulated(models, &[state], seed)
    }

    /// A process over `models` walking `states` in cycle order, starting in
    /// the first state.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `models` or `states` is
    /// empty.
    pub fn modulated(models: &[Model], states: &[MmppState], seed: u64) -> V10Result<Self> {
        if models.is_empty() {
            return Err(V10Error::invalid(
                "MmppProcess::modulated",
                "need at least one model to draw arrivals from",
            ));
        }
        if states.is_empty() {
            return Err(V10Error::invalid(
                "MmppProcess::modulated",
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
        MmppProcess::modulated(models, &[calm, burst], seed)
    }

    /// A diurnal process alternating between a busy "day" phase (mean gap
    /// `day_mean_interarrival_cycles`) and a quiet "night" phase, each
    /// dwelling `mean_dwell_cycles` on average per half-period.
    ///
    /// # Errors
    ///
    /// Propagates [`MmppState::new`] / [`MmppProcess::modulated`] validation.
    pub fn diurnal(
        models: &[Model],
        day_mean_interarrival_cycles: f64,
        night_mean_interarrival_cycles: f64,
        mean_dwell_cycles: f64,
        seed: u64,
    ) -> V10Result<Self> {
        let day = MmppState::new(day_mean_interarrival_cycles, mean_dwell_cycles)?;
        let night = MmppState::new(night_mean_interarrival_cycles, mean_dwell_cycles)?;
        MmppProcess::modulated(models, &[day, night], seed)
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

    /// Samples the first `count` arrivals of the process, in arrival order.
    /// Deterministic: the same process samples the same stream, on any
    /// host.
    ///
    /// The sessions' traces are synthesized on up to
    /// [`std::thread::available_parallelism`] threads, each given at least
    /// 256 sessions; smaller samples stay on the calling thread. The thread
    /// count never changes the stream.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `count` is zero, or if the
    /// dwell configuration is so degenerate that an arrival gap skips more
    /// than 65 536 state transitions.
    pub fn sample(&self, count: usize) -> V10Result<Vec<TimedArrival>> {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.sample_on(count, cpus.min(count / MIN_SESSIONS_PER_THREAD).max(1))
    }

    /// [`sample`](Self::sample) with the traces synthesized on `threads`
    /// threads. Two passes: the draw pass walks the seeded streams
    /// sequentially, exactly as a one-pass sampler would, and records each
    /// session's draws; the synthesis pass builds every session's trace
    /// from its own draws, a pure function of them, over contiguous blocks
    /// of sessions, and returns the blocks in arrival order. The stream is
    /// therefore the same at every thread count.
    pub(crate) fn sample_on(&self, count: usize, threads: usize) -> V10Result<Vec<TimedArrival>> {
        if count == 0 {
            return Err(V10Error::invalid(
                "MmppProcess::sample",
                "need at least one arrival",
            ));
        }
        // Calibrated once per call and shared by every session.
        let profiles: Vec<ModelProfile> = self.models.iter().map(|m| m.default_profile()).collect();
        let draws = self.draw_sessions(count, &profiles)?;
        let block = count.div_ceil(threads.max(1));
        let blocks = parallel_map_with(threads, draws.chunks(block), |sessions| {
            sessions
                .iter()
                .map(|d| TimedArrival {
                    label: format!("{}#{}", d.profile.model().abbrev(), d.index),
                    model: d.profile.model(),
                    trace: d.profile.synthesize_session(d.trace_seed, d.think_cycles),
                    at_cycles: d.at_cycles,
                    requests: self.requests_per_session,
                })
                .collect::<Vec<_>>()
        });
        Ok(blocks.into_iter().flatten().collect())
    }

    /// The draw pass: every session's arrival time, model, trace seed and
    /// think gap, drawn in arrival order from the process's two streams.
    fn draw_sessions<'p>(
        &self,
        count: usize,
        profiles: &'p [ModelProfile],
    ) -> V10Result<Vec<SessionDraw<'p>>> {
        let state_at = |i: usize| {
            self.states.get(i).ok_or_else(|| {
                V10Error::invalid("MmppProcess::sample", "modulation state out of range")
            })
        };
        let mut rng = SimRng::seed_from(self.seed);
        let mut dwell = SimRng::seed_from(self.seed ^ MMPP_DWELL_SALT);
        let mut state = 0usize;
        // With one state the process never leaves it; leaving the dwell
        // stream untouched is what makes this case exactly Poisson.
        let mut state_end = if self.states.len() == 1 {
            f64::INFINITY
        } else {
            dwell.exponential(state_at(state)?.mean_dwell_cycles)
        };
        let mut now = 0.0;
        let mut draws = Vec::with_capacity(count);
        for index in 0..count {
            let mut crossings = 0usize;
            loop {
                let gap = rng.exponential(state_at(state)?.mean_interarrival_cycles);
                if now + gap <= state_end {
                    now += gap;
                    break;
                }
                // The gap crosses a modulation boundary: move to the
                // boundary and redraw under the next state's rate
                // (memorylessness makes the restart exact).
                now = state_end;
                state = (state + 1) % self.states.len();
                state_end = now + dwell.exponential(state_at(state)?.mean_dwell_cycles);
                crossings += 1;
                if crossings > MMPP_MAX_CROSSINGS_PER_ARRIVAL {
                    return Err(V10Error::invalid(
                        "MmppProcess::sample",
                        "dwell times are vanishingly small against the arrival gaps; \
                         raise mean_dwell_cycles",
                    ));
                }
            }
            let profile = rng
                .choose(profiles)
                .ok_or_else(|| V10Error::invalid("MmppProcess::sample", "no model to draw from"))?;
            // Each session draws its trace and think gap from its own
            // stream, so changing the think-time configuration never
            // perturbs the arrival times, model picks, or traces.
            let mut session = SimRng::seed_from(rng.next_u64());
            let trace_seed = session.next_u64();
            let think_cycles = if self.mean_think_cycles > 0.0 {
                session.exponential(self.mean_think_cycles) as u64
            } else {
                0
            };
            draws.push(SessionDraw {
                index,
                at_cycles: now,
                profile,
                trace_seed,
                think_cycles,
            });
        }
        Ok(draws)
    }
}

/// One session's draws: everything the synthesis pass needs to build its
/// arrival.
struct SessionDraw<'p> {
    /// Position in the stream (the label's suffix).
    index: usize,
    at_cycles: f64,
    /// The drawn model's calibrated default profile.
    profile: &'p ModelProfile,
    trace_seed: u64,
    /// Think gap folded into the first operator's dispatch gap.
    think_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process() -> MmppProcess {
        MmppProcess::new(&[Model::Bert, Model::Ncf, Model::ResNet], 1.0e6, 42).unwrap()
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = process().sample(20).unwrap();
        let b = process().sample(20).unwrap();
        assert_eq!(a, b);
        // A different seed gives a different stream.
        let c = MmppProcess::new(&[Model::Bert, Model::Ncf, Model::ResNet], 1.0e6, 43)
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
        let arrivals = MmppProcess::new(&models, 1.0e6, 5)
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
            let err = MmppProcess::new(&[Model::Bert], bad, 0).unwrap_err();
            assert!(err.to_string().contains("finite and positive"), "{err}");
        }
    }

    #[test]
    fn empty_model_set_rejected() {
        let err = MmppProcess::new(&[], 1.0e6, 0).unwrap_err();
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
        let err = MmppProcess::modulated(&[], &[MmppState::new(1.0, 1.0).unwrap()], 0).unwrap_err();
        assert!(err.to_string().contains("at least one model"), "{err}");
        let err = MmppProcess::modulated(&[Model::Bert], &[], 0).unwrap_err();
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
        // timeline relative to the Poisson baseline.
        let base = MmppProcess::new(&[Model::Bert], 1.0e6, 9)
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

    /// A one-state process never draws from its dwell stream, so its
    /// stream is plain Poisson whatever the state's dwell mean — across
    /// random seeds, rates, dwell means, think times, and quotas.
    #[test]
    fn one_state_stream_ignores_the_dwell_mean() {
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
            let state = MmppState::new(mean, rng.uniform(1.0, 1.0e9)).unwrap();
            let sample = |process: MmppProcess| {
                process
                    .with_think_cycles(think)
                    .unwrap()
                    .with_requests_per_session(requests)
                    .unwrap()
                    .sample(count)
                    .unwrap()
            };
            assert_eq!(
                sample(MmppProcess::new(&models, mean, seed).unwrap()),
                sample(MmppProcess::modulated(&models, &[state], seed).unwrap()),
                "case {case}"
            );
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
            let process = MmppProcess::modulated(&models, &states, seed).unwrap();
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

#[cfg(test)]
mod sampler_tests {
    use super::*;
    use v10_isa::FuKind;

    /// FNV-1a over every field of `arrivals` that reaches the serving
    /// engine: arrival-time bits, model, quota, label, and each operator.
    fn stream_digest(arrivals: &[TimedArrival]) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for a in arrivals {
            let model = Model::ALL.iter().position(|&m| m == a.model()).unwrap();
            eat(&a.at_cycles().to_bits().to_le_bytes());
            eat(&(model as u64).to_le_bytes());
            eat(&(a.requests() as u64).to_le_bytes());
            eat(&(a.label().len() as u64).to_le_bytes());
            eat(a.label().as_bytes());
            eat(&(a.trace().ops().len() as u64).to_le_bytes());
            for op in a.trace().ops() {
                eat(&[match op.kind() {
                    FuKind::Sa => 0,
                    FuKind::Vu => 1,
                }]);
                eat(&op.compute_cycles().to_le_bytes());
                eat(&op.hbm_bytes().to_le_bytes());
                eat(&op.vmem_bytes().to_le_bytes());
                eat(&op.flops().to_le_bytes());
                eat(&op.instr_count().to_le_bytes());
                eat(&op.dispatch_gap_cycles().to_le_bytes());
            }
        }
        h
    }

    /// The processes the sampler tests draw from: Poisson and flash crowd,
    /// each without and with think time.
    fn processes(models: &[Model], seed: u64) -> Vec<MmppProcess> {
        let poisson = MmppProcess::new(models, 1.5e6, seed).unwrap();
        let crowd = MmppProcess::flash_crowd(models, 2.0e6, 4.0, 1.0e7, seed).unwrap();
        [poisson, crowd]
            .into_iter()
            .flat_map(|p| [p.clone(), p.with_think_cycles(4.0e5).unwrap()])
            .collect()
    }

    // `assert!(a == b)`, not `assert_eq!`: a mismatch would print
    // thousands of traces.
    #[test]
    fn streams_are_equal_at_every_thread_count() {
        let models = [Model::Mnist, Model::Bert, Model::EfficientNet];
        for (case, process) in processes(&models, 0x7EAD).iter().enumerate() {
            for count in [1, 7, 2_000] {
                let one = process.sample_on(count, 1).unwrap();
                assert_eq!(one.len(), count);
                for threads in [2, 3, 8] {
                    assert!(
                        process.sample_on(count, threads).unwrap() == one,
                        "case {case}: {count} arrivals on {threads} threads"
                    );
                }
                assert!(process.sample(count).unwrap() == one, "case {case}");
            }
        }
    }

    /// Digest of two fixed-seed streams of 600 arrivals, pinned from the
    /// one-pass sampler that preceded the two-pass one: any bit the
    /// sampler moves fails here.
    const PINNED_STREAM_DIGEST: u64 = 0x475A_50DA_FC79_59B8;

    #[test]
    fn streams_match_the_pinned_digest() {
        let poisson = MmppProcess::new(&Model::ALL, 1.5e6, 0x5EED_2026)
            .unwrap()
            .with_think_cycles(4.0e5)
            .unwrap()
            .with_requests_per_session(3)
            .unwrap();
        let crowd = MmppProcess::flash_crowd(
            &[Model::Bert, Model::Dlrm, Model::Mnist, Model::Ncf],
            2.0e6,
            4.0,
            1.0e7,
            0xF1A5_4C20,
        )
        .unwrap();
        let digest = |sample: &dyn Fn(&MmppProcess) -> Vec<TimedArrival>| {
            let mut both = sample(&poisson);
            both.extend(sample(&crowd));
            stream_digest(&both)
        };
        assert_eq!(
            digest(&|p| p.sample(600).unwrap()),
            PINNED_STREAM_DIGEST,
            "at the host's thread count"
        );
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                digest(&|p| p.sample_on(600, threads).unwrap()),
                PINNED_STREAM_DIGEST,
                "on {threads} threads"
            );
        }
    }
}
