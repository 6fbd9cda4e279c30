//! Clean twin of `token_leak.rs`: the same acquisition shapes with every
//! grant consumed on every exit path. Must produce zero findings.

pub struct Ledger {
    budget: u64,
}

pub struct Grant(pub u64);

impl Ledger {
    pub fn try_grant_flat(&mut self, want: u64) -> Option<Grant> {
        (want <= self.budget).then(|| Grant(want))
    }

    pub fn try_grant_chips(&mut self, per_chip: &[u64]) -> Option<Grant> {
        let want = per_chip.iter().sum();
        (want <= self.budget).then(|| Grant(want))
    }
}

fn spend(_g: Grant) {}
fn stash(_g: Option<Grant>) {}

pub fn spends_at_end_of_scope(l: &mut Ledger) {
    let g = l.try_grant_flat(4);
    if let Some(grant) = g {
        spend(grant);
    }
}

pub fn consumes_before_the_early_return(l: &mut Ledger, cond: bool) -> Option<Grant> {
    let g = l.try_grant_flat(4);
    if cond {
        return g;
    }
    g
}

pub fn acquires_after_the_fallible_step(
    l: &mut Ledger,
    input: Result<u64, ()>,
) -> Result<u64, ()> {
    let v = input?;
    if let Some(grant) = l.try_grant_flat(v) {
        spend(grant);
    }
    Ok(v)
}

pub fn every_match_arm_consumes(l: &mut Ledger, cond: bool) {
    let g = l.try_grant_flat(4);
    match cond {
        true => {
            if let Some(grant) = g {
                spend(grant);
            }
        }
        false => {
            let _still_held = g;
        }
    }
}

pub fn if_let_header_arm_consumes(l: &mut Ledger) {
    if let Some(g) = l.try_grant_flat(4) {
        spend(g);
    }
}

pub fn chip_grant_flows_onward(l: &mut Ledger) {
    let g = l.try_grant_chips(&[1, 2]);
    stash(g);
}
