//! Seed-replayable repro fixtures for the adversarial property harness.
//!
//! When the harness shrinks a violating scenario it does **not** dump the
//! scenario itself — every scenario in the workspace is a pure function of
//! `(master seed, profile, case, knobs)`, so a repro only needs those
//! coordinates. A [`ReproFixture`] is that coordinate tuple plus the name
//! of the violated invariant, rendered as a small flat JSON object that is
//! checked into `tests/fixtures/` and replayed as an ordinary `cargo test`
//! (re-derive the scenario from the seed, re-run the checks, assert clean).
//!
//! The horizon travels as raw `f64` bits so a fixture replays the exact
//! arrival stream that was shrunk, not a decimal approximation of it.
//!
//! # Example
//!
//! ```
//! use v10_sim::{ReproFixture, ScenarioKnobs};
//!
//! let knobs = ScenarioKnobs::new(3, 2.0e7, 0).expect("valid knobs");
//! let fixture = ReproFixture::new(0xC0FFEE, "adversarial", "priority-inversion")
//!     .with_knobs(knobs)
//!     .with_invariant("watchdog-no-silent-drop");
//! let text = fixture.to_json();
//! let back = ReproFixture::parse(&text).expect("round-trips");
//! assert_eq!(back.master_seed(), 0xC0FFEE);
//! assert_eq!(back.knobs(), knobs);
//! ```

use crate::error::{V10Error, V10Result};

/// The shrinkable scenario dimensions. The scenario generators
/// (`v10_workloads::AdversaryGen`) take them, the property harness
/// (`v10_core::PropertyHarness`) binary-searches each one, and a
/// [`ReproFixture`] records where the search ended. Because generation is
/// prefix-stable in all three, any knob setting below the defaults replays
/// a sub-scenario of the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioKnobs {
    /// Tenant arrivals to generate (≥ 1).
    pub tenants: usize,
    /// Arrival horizon in cycles: arrivals past it are dropped (the first
    /// tenant is clamped to the horizon instead, so a scenario is never
    /// empty). Must be finite and positive.
    pub horizon_cycles: f64,
    /// How many of the case's pre-sampled fault events to keep, in global
    /// time order (saturates at the case's event count).
    pub fault_prefix: usize,
}

impl ScenarioKnobs {
    /// Validated knobs.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `tenants` is zero or the
    /// horizon is not finite and positive.
    pub fn new(tenants: usize, horizon_cycles: f64, fault_prefix: usize) -> V10Result<Self> {
        if tenants == 0 {
            return Err(V10Error::invalid(
                "ScenarioKnobs::new",
                "need at least one tenant",
            ));
        }
        if !(horizon_cycles.is_finite() && horizon_cycles > 0.0) {
            return Err(V10Error::invalid(
                "ScenarioKnobs::new",
                format!("horizon must be finite and positive, got {horizon_cycles}"),
            ));
        }
        Ok(ScenarioKnobs {
            tenants,
            horizon_cycles,
            fault_prefix,
        })
    }
}

/// The fixture schema marker; bump on any incompatible format change.
pub const REPRO_SCHEMA: &str = "v10-adversary-repro/1";

/// One minimized, seed-replayable repro: the coordinates that re-derive a
/// historically violating scenario, plus the invariant it violated.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproFixture {
    master_seed: u64,
    profile: String,
    case: String,
    knobs: ScenarioKnobs,
    invariant: String,
}

impl ReproFixture {
    /// A fixture at the given scenario coordinates with default knobs
    /// (1 tenant, zero horizon, empty fault prefix).
    #[must_use]
    pub fn new(master_seed: u64, profile: impl Into<String>, case: impl Into<String>) -> Self {
        ReproFixture {
            master_seed,
            profile: profile.into(),
            case: case.into(),
            knobs: ScenarioKnobs {
                tenants: 1,
                horizon_cycles: 0.0,
                fault_prefix: 0,
            },
            invariant: String::new(),
        }
    }

    /// Sets the shrunk knobs: tenant count, arrival horizon, and the number
    /// of fault-plan events kept (the shrinker's fault-event prefix).
    #[must_use]
    pub fn with_knobs(mut self, knobs: ScenarioKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Names the invariant the original (pre-fix) run violated.
    #[must_use]
    pub fn with_invariant(mut self, invariant: impl Into<String>) -> Self {
        self.invariant = invariant.into();
        self
    }

    /// The master seed the scenario derives from.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The scenario profile label (e.g. `"adversarial"`).
    #[must_use]
    pub fn profile(&self) -> &str {
        &self.profile
    }

    /// The scenario case label (e.g. `"priority-inversion"`).
    #[must_use]
    pub fn case(&self) -> &str {
        &self.case
    }

    /// The shrunk knobs; the horizon round-trips bit-exactly. Not
    /// validated: a fixture with default knobs carries a zero horizon.
    #[must_use]
    pub fn knobs(&self) -> ScenarioKnobs {
        self.knobs
    }

    /// The violated invariant's name.
    #[must_use]
    pub fn invariant(&self) -> &str {
        &self.invariant
    }

    /// Renders the fixture as its canonical flat JSON object (stable key
    /// order, one key per line), byte-identical for equal fixtures.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{REPRO_SCHEMA}\",\n  \"master_seed\": {},\n  \
             \"profile\": \"{}\",\n  \"case\": \"{}\",\n  \"tenants\": {},\n  \
             \"horizon_cycles_bits\": {},\n  \"horizon_cycles\": {},\n  \
             \"fault_prefix\": {},\n  \"invariant\": \"{}\"\n}}\n",
            self.master_seed,
            escape(&self.profile),
            escape(&self.case),
            self.knobs.tenants,
            self.knobs.horizon_cycles.to_bits(),
            self.knobs.horizon_cycles,
            self.knobs.fault_prefix,
            escape(&self.invariant),
        )
    }

    /// Parses a fixture rendered by [`to_json`](Self::to_json). The parser
    /// accepts any whitespace layout but requires the flat shape: one JSON
    /// object of string and unsigned-integer fields. The human-readable
    /// `horizon_cycles` field is ignored on read — only the bit-exact
    /// `horizon_cycles_bits` feeds replay.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] on malformed input, a missing
    /// field, or a schema mismatch.
    pub fn parse(text: &str) -> V10Result<Self> {
        let fields = parse_flat_object(text)?;
        let str_field = |key: &str| -> V10Result<String> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, FlatValue::Str(s))) => Ok(s.clone()),
                Some((_, FlatValue::Num(_))) => {
                    Err(parse_err(format!("field \"{key}\" must be a string")))
                }
                None => Err(parse_err(format!("missing field \"{key}\""))),
            }
        };
        let num_field = |key: &str| -> V10Result<u64> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, FlatValue::Num(n))) => Ok(*n),
                Some((_, FlatValue::Str(_))) => Err(parse_err(format!(
                    "field \"{key}\" must be an unsigned integer"
                ))),
                None => Err(parse_err(format!("missing field \"{key}\""))),
            }
        };
        let schema = str_field("schema")?;
        if schema != REPRO_SCHEMA {
            // An unknown *version* of our own schema family is its own
            // failure: the file is a repro fixture, just one this build
            // cannot replay faithfully. Name it so nobody "fixes" the error
            // by silently defaulting the fields.
            let family = REPRO_SCHEMA
                .rsplit_once('/')
                .map_or(REPRO_SCHEMA, |(family, _)| family);
            if schema.rsplit_once('/').map(|(f, _)| f) == Some(family) {
                return Err(parse_err(format!(
                    "unknown schema version \"{schema}\"; this build replays only \
                     \"{REPRO_SCHEMA}\""
                )));
            }
            return Err(parse_err(format!(
                "schema \"{schema}\" is not \"{REPRO_SCHEMA}\""
            )));
        }
        Ok(ReproFixture {
            master_seed: num_field("master_seed")?,
            profile: str_field("profile")?,
            case: str_field("case")?,
            knobs: ScenarioKnobs {
                tenants: crate::convert::usize_from_u64(num_field("tenants")?),
                horizon_cycles: f64::from_bits(num_field("horizon_cycles_bits")?),
                fault_prefix: crate::convert::usize_from_u64(num_field("fault_prefix")?),
            },
            invariant: str_field("invariant")?,
        })
    }
}

fn parse_err(detail: impl Into<String>) -> V10Error {
    V10Error::invalid("ReproFixture::parse", detail)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A scalar in the flat fixture object.
enum FlatValue {
    Str(String),
    Num(u64),
}

/// Parses one flat JSON object of string / unsigned-integer / decimal
/// fields into `(key, value)` pairs in document order. Decimal numbers
/// (the advisory `horizon_cycles` field) are skipped rather than parsed —
/// replay only consumes the integer bit patterns.
fn parse_flat_object(text: &str) -> V10Result<Vec<(String, FlatValue)>> {
    let mut chars = text.chars().peekable();
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err(parse_err("expected '{' opening the fixture object"));
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err(parse_err("expected a quoted key or '}'")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(parse_err(format!("expected ':' after key \"{key}\"")));
        }
        skip_ws(&mut chars);
        match chars.peek() {
            Some('"') => {
                let value = parse_string(&mut chars)?;
                fields.push((key, FlatValue::Str(value)));
            }
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                let mut fractional = false;
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        digits.push(c);
                        chars.next();
                    } else if c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
                        fractional = true;
                        chars.next();
                    } else {
                        break;
                    }
                }
                if !fractional {
                    let n = digits.parse::<u64>().map_err(|e| {
                        parse_err(format!("field \"{key}\": bad integer {digits:?}: {e}"))
                    })?;
                    fields.push((key, FlatValue::Num(n)));
                }
                // Fractional values (the advisory horizon echo) are skipped.
            }
            _ => return Err(parse_err(format!("field \"{key}\": unsupported value"))),
        }
        skip_ws(&mut chars);
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some('}') => {}
            _ => return Err(parse_err("expected ',' or '}' after a field")),
        }
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> V10Result<String> {
    if chars.next() != Some('"') {
        return Err(parse_err("expected '\"' opening a string"));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                other => {
                    return Err(parse_err(format!(
                        "unsupported escape {other:?} in a string"
                    )))
                }
            },
            Some(c) => out.push(c),
            None => return Err(parse_err("unterminated string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> ReproFixture {
        ReproFixture::new(0xDEAD_BEEF, "adversarial", "hysteresis-beat")
            .with_knobs(ScenarioKnobs::new(5, 1.25e7, 3).unwrap())
            .with_invariant("auditor-clean")
    }

    #[test]
    fn round_trips_bit_exactly() {
        let f = fixture();
        let back = ReproFixture::parse(&f.to_json()).unwrap();
        assert_eq!(back, f);
        let knobs = back.knobs();
        assert_eq!(knobs.horizon_cycles.to_bits(), 1.25e7f64.to_bits());
        assert_eq!(back.master_seed(), 0xDEAD_BEEF);
        assert_eq!(back.profile(), "adversarial");
        assert_eq!(back.case(), "hysteresis-beat");
        assert_eq!(knobs.tenants, 5);
        assert_eq!(knobs.fault_prefix, 3);
        assert_eq!(back.invariant(), "auditor-clean");
    }

    #[test]
    fn rendering_is_stable() {
        assert_eq!(fixture().to_json(), fixture().to_json());
        assert!(fixture().to_json().contains(REPRO_SCHEMA));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(ReproFixture::parse("").is_err());
        assert!(ReproFixture::parse("{").is_err());
        assert!(ReproFixture::parse("{\"schema\": \"wrong/9\"}").is_err());
        assert!(ReproFixture::parse("{\"schema\": 3}").is_err());
        let missing = "{\"schema\": \"v10-adversary-repro/1\"}";
        assert!(ReproFixture::parse(missing).is_err(), "missing fields");
        let bad_value = "{\"schema\": \"v10-adversary-repro/1\", \"master_seed\": [1]}";
        assert!(ReproFixture::parse(bad_value).is_err());
    }

    #[test]
    fn unknown_schema_version_is_a_typed_error_not_a_default() {
        // Same family, future version: must be rejected with the dedicated
        // version message, never parsed into a fixture with default knobs.
        let future = fixture()
            .to_json()
            .replace("\"v10-adversary-repro/1\"", "\"v10-adversary-repro/2\"");
        let err = ReproFixture::parse(&future).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown schema version"), "{msg}");
        assert!(msg.contains("v10-adversary-repro/2"), "{msg}");
        // A foreign schema keeps the generic mismatch message.
        let foreign = fixture()
            .to_json()
            .replace("\"v10-adversary-repro/1\"", "\"someone-elses-schema/1\"");
        let err = ReproFixture::parse(&foreign).unwrap_err();
        let msg = err.to_string();
        assert!(!msg.contains("unknown schema version"), "{msg}");
        assert!(msg.contains("is not"), "{msg}");
        // The current version still round-trips bit-exactly.
        assert_eq!(
            ReproFixture::parse(&fixture().to_json()).unwrap(),
            fixture()
        );
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let f = ReproFixture::new(1, "a\"b\\c", "line\nbreak");
        let back = ReproFixture::parse(&f.to_json()).unwrap();
        assert_eq!(back.profile(), "a\"b\\c");
        assert_eq!(back.case(), "line\nbreak");
    }
}
