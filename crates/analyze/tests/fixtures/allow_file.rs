//! Allow-file fixture: a file-wide directive silences every occurrence of
//! the named rule, so this file expects zero violations.

// fpb-lint: allow-file(panic_freedom)

pub fn first(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn parse(s: &str) -> u64 {
    s.parse().expect("numeric input")
}

pub fn never() -> ! {
    unreachable!("no caller reaches this")
}
