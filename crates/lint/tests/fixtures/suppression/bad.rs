//! suppression fixture: malformed, unknown, and stale allows.

/// A missing reason leaves both the allow and the finding live.
pub fn missing_reason(x: f64) -> bool {
    // ucore-lint: allow(float-eq)
    x == 0.25
}

/// An unknown rule name is itself a finding, and suppresses nothing.
pub fn unknown_rule(x: f64) -> bool {
    // ucore-lint: allow(no-such-rule): reasons do not save unknown rules
    x == 0.75
}

/// A stale allow with nothing underneath to suppress.
// ucore-lint: allow(float-eq): stale — nothing below compares floats
pub fn stale() -> u32 {
    7
}
