//! Seeded `nondet_taint` violations: nondeterminism sources on call
//! chains into metrics/report emission.

pub struct Metrics {
    pub cycles: u64,
}

impl Metrics {
    pub fn render(&self) -> String {
        let tag = worker_tag();
        let buckets = bucket_count();
        let t = elapsed_cycles();
        format!("cycles={} tag={tag} buckets={buckets} t={t}", self.cycles)
    }
}

fn worker_tag() -> String {
    let id = std::thread::current().id(); //~ nondet_taint
    format!("{id:?}")
}

fn bucket_count() -> usize {
    let m = std::collections::HashMap::<u32, u32>::new(); //~ nondet_taint
    m.len()
}

fn elapsed_cycles() -> u64 {
    let _t = std::time::Instant::now(); //~ nondet_taint
    0
}

fn unused_clock() -> bool {
    // Not reachable from a metrics/report sink: the source is recorded
    // but taint never fires.
    let _t = std::time::SystemTime::now();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_in_tests_never_count() {
        let _ = std::time::Instant::now();
        let m = Metrics { cycles: 1 };
        assert!(!m.render().is_empty());
    }
}
