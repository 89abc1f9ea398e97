//! Fixture: seeds exactly three S1 violations (lines 7, 33 and 42) when
//! scanned as a sim crate's library file next to a caller of its live
//! items.

/// Named by nothing but this file's own test module: dead public surface.
#[must_use]
pub fn fixture_test_only() -> u32 {
    1
}

/// Called from another file, so it is live.
#[must_use]
pub fn fixture_used_elsewhere() -> u32 {
    2
}

/// Test-only as well, but kept on purpose.
#[must_use]
// v10-lint: allow(S1) fixture: a documented entry point kept for its tests
pub fn fixture_kept() -> u32 {
    3
}

/// A tally whose getter shares its field's name.
pub struct FixtureTally {
    fixture_count: u32,
}

impl FixtureTally {
    /// Named elsewhere only as a field — read as `self.fixture_count`,
    /// declared and initialised as `fixture_count:` — so it is dead too.
    #[must_use]
    pub fn fixture_count(&self) -> u32 {
        self.fixture_count
    }
}

mod reexports {
    /// Named elsewhere only by the `pub use` below: a re-export is not a
    /// use, so it is dead too.
    #[must_use]
    pub fn fixture_reexported() -> u32 {
        5
    }

    /// Re-exported under an alias that a caller uses, so it is live.
    #[must_use]
    pub fn fixture_renamed() -> u32 {
        6
    }
}

pub use reexports::{fixture_reexported, fixture_renamed as fixture_alias};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_function_answers() {
        assert_eq!(
            fixture_test_only() + fixture_used_elsewhere() + fixture_kept(),
            6
        );
        let tally = FixtureTally { fixture_count: 4 };
        assert_eq!(tally.fixture_count(), 4);
    }
}
