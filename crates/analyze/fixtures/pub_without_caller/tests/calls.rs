//! Fixture: the one caller of `../src/lib.rs`.
//!
//! Not compiled — lint corpus only.

fn main() {
    // orphan_helper(1) in a comment is not a call.
    let name = "orphan_helper";
    assert_eq!(fixture::called_helper(1), 2, "{name}");
}
