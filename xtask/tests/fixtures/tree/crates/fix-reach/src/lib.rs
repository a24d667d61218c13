//! Seeded `over-public` baits on `pub fn`s (three flagged) beside reached ones.

/// Named nowhere else: flagged.
pub fn orphan() -> u32 {
    1
}

/// Named only by this file's tests: flagged.
pub fn tested_only() -> u32 {
    2
}

/// Named only in this doc comment, [`mentioned_only`], and a string:
/// flagged.
pub fn mentioned_only() -> &'static str {
    "mentioned_only"
}

/// Named from `tests/`: not flagged.
pub fn used_by_tests() -> u32 {
    3
}

/// Named from `examples/`: not flagged.
pub fn used_by_examples() -> u32 {
    4
}

/// Named from `benchmark/src/`: not flagged.
pub fn used_by_benchmark() -> u32 {
    5
}

/// Crate-visible items are rustc's `dead_code` business: not flagged.
pub(crate) fn crate_only() -> u32 {
    6
}

/// Named from `tests/`, as well as called in this file: not flagged.
pub fn called_here() -> u32 {
    crate_only()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helper() -> u32 {
        tested_only()
    }

    #[test]
    fn t() {
        assert_eq!(test_helper(), 2);
    }
}
