//! Seeded `over-public` baits (two flagged) beside `pub` items that stay
//! `pub` because something outside the crate's library needs them.

mod inner;

/// Re-exported by `pub use`: not flagged.
pub use inner::Reexported;

/// Named only inside this crate: flagged.
pub fn crate_helper() -> u32 {
    7
}

/// Its one field is read only by this file's tests: flagged.
pub struct Counter {
    pub hits: u64,
}

/// Named in the signature of `make_token`, which stays `pub`: not flagged.
pub struct Token;

/// Named from this crate's `tests/`: not flagged.
pub fn make_token() -> Token {
    let _ = crate_helper();
    Token
}

/// Named only by this crate's `src/bin/` target: not flagged.
pub fn used_by_bin() -> u32 {
    8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_field() {
        let c = Counter { hits: 1 };
        assert_eq!(c.hits, 1);
    }
}
