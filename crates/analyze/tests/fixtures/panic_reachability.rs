//! Seeded `panic_reachability` violations: panic sites on call chains
//! from the engine's fallible entry points (`System::try_run` /
//! `System::try_step`). Never compiled — the `fixtures/` directory is
//! excluded from cargo targets and from the workspace scan. Lines
//! expected to violate carry a trailing tilde marker naming the rule.

pub struct System {
    depth: u32,
}

pub enum SimError {
    Deadlock,
}

impl System {
    pub fn try_run(&mut self) -> Result<(), SimError> {
        self.advance();
        Ok(())
    }

    pub fn try_step(&mut self) -> Result<bool, SimError> {
        self.depth = self.checked_step();
        Ok(self.depth > 0)
    }

    fn advance(&mut self) {
        self.commit_round();
    }

    fn commit_round(&mut self) {
        if self.depth == 0 {
            panic!("scheduling deadlock"); //~ panic_reachability
        }
        self.depth -= 1;
    }

    fn checked_step(&mut self) -> u32 {
        self.depth.checked_sub(1).expect("depth underflow") //~ panic_reachability
    }
}

fn orphan_helper() {
    // Not reachable from try_run/try_step, so panic_reachability stays
    // silent even though the site is recorded.
    unreachable!("never called from the engine");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_in_tests_never_count() {
        let mut s = System { depth: 1 };
        assert!(!s.try_step().unwrap());
    }
}
