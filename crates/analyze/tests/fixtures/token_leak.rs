//! Seeded `token_leak` violations: every power-token acquisition must be
//! consumed (spent, returned, or propagated) on every exit path. Each
//! marker pins the acquisition line the rule reports.

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

pub fn drops_at_end_of_scope(l: &mut Ledger) {
    let g = l.try_grant_flat(4); //~ token_leak
    let _unrelated = 1 + 1;
}

pub fn leaks_on_early_return(l: &mut Ledger, cond: bool) {
    let g = l.try_grant_flat(4); //~ token_leak
    if cond {
        return;
    }
    if let Some(grant) = g {
        spend(grant);
    }
}

pub fn leaks_on_propagation(l: &mut Ledger, input: Result<u64, ()>) -> Result<u64, ()> {
    let g = l.try_grant_flat(4); //~ token_leak
    let v = input?;
    if let Some(grant) = g {
        spend(grant);
    }
    Ok(v)
}

pub fn discards_with_let_underscore(l: &mut Ledger) {
    let _ = l.try_grant_flat(4); //~ token_leak
}

pub fn leaks_in_one_match_arm(l: &mut Ledger, cond: bool) {
    let g = l.try_grant_flat(4); //~ token_leak
    match cond {
        true => drop(g),
        false => {}
    }
}

pub fn leaks_from_if_let_header(l: &mut Ledger) {
    if let Some(g) = l.try_grant_flat(4) { //~ token_leak
        let _size = 1;
    }
}

pub fn chip_grant_is_never_returned(l: &mut Ledger) {
    let s = l.try_grant_chips(&[1, 2]); //~ token_leak
    let _n = 2;
}

// Consuming shapes below must stay silent.

pub fn spends_its_grant(l: &mut Ledger) {
    if let Some(g) = l.try_grant_flat(4) {
        spend(g);
    }
}

pub fn returns_the_grant(l: &mut Ledger) -> Option<Grant> {
    l.try_grant_flat(4)
}

pub fn consumes_before_every_exit(l: &mut Ledger, cond: bool) -> Option<Grant> {
    let g = l.try_grant_flat(4);
    if cond {
        return g;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_is_exempt() {
        let mut l = Ledger { budget: 8 };
        let _g = l.try_grant_flat(4);
    }
}
