//! Fixture: seeded `pub-without-caller` violations, in a two-file tree.
//!
//! Not compiled — lint corpus only. The lint reads this file as library
//! code (it sits under a `src/` directory) and `../tests/calls.rs` as its
//! only caller, so the tree is checked as a whole:
//! `sflint --check crates/analyze/fixtures/pub_without_caller`.

/// Called from `tests/calls.rs`: no finding.
pub fn called_helper(x: u64) -> u64 {
    x + 1
}

/// VIOLATION: only this file calls it, and the caller's comment and
/// string that name it do not count.
pub fn orphan_helper(x: u64) -> u64 {
    called_helper(x) * ORPHAN_LIMIT
}

/// VIOLATION: a constant only its own file reads.
pub const ORPHAN_LIMIT: u64 = 8;

/// VIOLATION: a free function the caller names only as a method of its
/// own type, which cannot call this one.
pub fn method_named(x: u64) -> u64 {
    x * 2
}

/// Crate-visible items are rustc's `dead_code` business: no finding.
pub(crate) fn internal() -> u64 {
    orphan_helper(ORPHAN_LIMIT)
}

#[cfg(test)]
mod tests {
    /// Test code is exempt: no finding.
    pub fn test_only_helper() {}
}
