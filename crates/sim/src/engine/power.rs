//! Power arbitration: round-splitting caps derived from the scheme's
//! power policy, brownout window bookkeeping, and per-step activity
//! accounting. Token admission itself lives in
//! [`fpb_core::PowerManager`]; this stage owns everything around it.

use fpb_core::PowerPolicyConfig;
use fpb_types::Cycles;

use crate::bank::BankState;
use crate::inspect::{EventSink, LifecycleEvent, PowerOp};
use crate::scheme::Scheme;

use super::System;

/// Round-splitting caps for a power policy: a single round must be
/// admissible against an empty ledger. With chip budgets, the DIMM's raw
/// budget only yields `pt_dimm * e_lcp` usable tokens through the local
/// pumps. Returns `(cap_total, cap_chip)`.
pub(super) fn round_caps(policy: &PowerPolicyConfig) -> (Option<u64>, Option<u64>) {
    let cap_total = policy.pt_dimm.map(|pt| {
        if policy.enforce_chip_budget {
            ((pt as f64) * policy.e_lcp).floor().max(1.0) as u64
        } else {
            pt
        }
    });
    let cap_chip = if policy.enforce_chip_budget {
        Some((policy.chip_budget_millis() / 1000).max(1))
    } else {
        None
    };
    (cap_total, cap_chip)
}

impl<S: Scheme, E: EventSink> System<S, E> {
    /// Applies brownout window transitions due at the current time:
    /// withholds budget tokens at a window start, restores them at the
    /// end, and enters/leaves degraded mode when a window persists past
    /// `faults.degraded_after_cycles`.
    pub(super) fn update_brownout(&mut self) {
        let Some(inj) = self.faults.as_ref() else {
            return;
        };
        let active = inj.brownout_active(self.now);
        if active && !self.power.in_brownout() {
            self.power
                .begin_brownout(self.cfg.faults.brownout_budget_scale);
            self.brownout_since = Some(self.now);
            self.emit(LifecycleEvent::BrownoutStart { at: self.now.get() });
            // begin_brownout audits the ledger, so the stats snapshot
            // must be re-recorded (id 0 = no associated write).
            self.emit_power(0, PowerOp::BrownoutBegin, true);
        } else if !active && self.power.in_brownout() {
            self.power.end_brownout();
            self.brownout_since = None;
            self.degraded = false;
            self.emit(LifecycleEvent::BrownoutEnd { at: self.now.get() });
            self.emit_power(0, PowerOp::BrownoutEnd, true);
        }
        if let Some(since) = self.brownout_since {
            let threshold = self.cfg.faults.degraded_after_cycles;
            if threshold > 0 && self.now.saturating_sub(since).get() >= threshold {
                self.degraded = true;
            }
        }
    }

    /// Charges the interval `[now, until)` to the activity counters.
    pub(super) fn account(&mut self, until: Cycles) {
        if until > self.now {
            let writing = self
                .banks
                .iter()
                .any(|b| matches!(b.state, BankState::Writing { .. }));
            self.emit(LifecycleEvent::TimeAdvance {
                from: self.now.get(),
                to: until.get(),
                burst: self.burst,
                writing,
                brownout: self.power.in_brownout(),
                degraded: self.degraded,
            });
        }
    }
}
