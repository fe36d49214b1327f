//! Known-bad fixture for the `nondet-*` family: every pattern the rule
//! must flag, one per line, in non-test code. NOT compiled — input for
//! the analyzer's tests only.

use std::collections::HashMap;
use std::collections::HashSet;

fn clock() -> std::time::Instant {
    std::time::Instant::now()
}

fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

fn host_threads() -> Option<String> {
    std::env::var("THREADS").ok()
}

fn escape_the_pool() {
    std::thread::spawn(|| {});
}

fn escape_the_pool_by_builder() {
    let _ = std::thread::Builder::new().spawn(|| {});
}

// In a string or comment the same tokens must NOT fire:
// HashMap, Instant::now, thread::spawn
const PROSE: &str = "HashMap Instant::now env::var thread::spawn";

#[cfg(test)]
mod tests {
    // Inside a test module everything is allowed.
    use std::collections::HashMap;

    fn fine() {
        let _ = std::time::Instant::now();
        let _: HashMap<u32, u32> = HashMap::new();
    }
}
