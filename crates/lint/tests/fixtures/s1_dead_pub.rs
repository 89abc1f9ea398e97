//! Fixture: seeds exactly one S1 violation (line 6) when scanned as a sim
//! crate's library file next to a caller of `fixture_used_elsewhere`.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_function_answers() {
        assert_eq!(
            fixture_test_only() + fixture_used_elsewhere() + fixture_kept(),
            6
        );
    }
}
