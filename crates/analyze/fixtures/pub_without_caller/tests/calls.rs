//! Fixture: the one caller of `../src/lib.rs`.
//!
//! Not compiled — lint corpus only.

struct Counter(u64);

impl Counter {
    // A method of the same name: neither its declaration nor its calls
    // call the free `method_named` of `../src/lib.rs`.
    fn method_named(&self) -> u64 {
        self.0
    }
}

fn main() {
    // orphan_helper(1) in a comment is not a call.
    let name = "orphan_helper";
    assert_eq!(fixture::called_helper(1), 2, "{name}");
    assert_eq!(Counter(1).method_named(), 1);
}
