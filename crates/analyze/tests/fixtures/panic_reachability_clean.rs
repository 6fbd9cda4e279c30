//! Clean twin of `panic_reachability.rs`: the engine entry points reach
//! only total code; the panic sites live in the `run`/`step` wrappers,
//! which call the entry points but are never called by them. Must
//! produce zero findings.

pub struct System {
    depth: u32,
}

pub enum SimError {
    Deadlock,
}

impl System {
    pub fn run(&mut self) {
        if self.try_run().is_err() {
            panic!("deadlock");
        }
    }

    pub fn step(&mut self) -> bool {
        self.try_step().ok().expect("deadlock")
    }

    pub fn try_run(&mut self) -> Result<(), SimError> {
        self.advance()
    }

    pub fn try_step(&mut self) -> Result<bool, SimError> {
        self.depth = self.depth.saturating_sub(1);
        Ok(self.depth > 0)
    }

    fn advance(&mut self) -> Result<(), SimError> {
        if self.depth == 0 {
            return Err(SimError::Deadlock);
        }
        self.depth -= 1;
        Ok(())
    }
}
