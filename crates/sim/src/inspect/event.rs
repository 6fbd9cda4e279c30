//! The typed lifecycle event vocabulary and its wire codec.
//!
//! Every engine stage boundary emits exactly one [`LifecycleEvent`]; the
//! stream is a complete record of a run — the engine's [`crate::Metrics`]
//! are nothing but [`crate::Metrics::apply`] folded over it.
//!
//! The wire form is one ASCII line per event: a two-letter kind tag
//! followed by space-separated decimal fields (booleans as `0`/`1`,
//! write stages as two-letter codes). Like the metrics record encoding,
//! it is exact — `decode(encode(ev)) == ev` for every event — which is
//! what makes the recorded log a replayable artifact rather than a
//! human-only trace.

use std::fmt;

use crate::scheme::WriteStage;

/// Which scheme lifecycle hook produced a [`LifecycleEvent::SchemeDecision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeHook {
    /// [`crate::scheme::Scheme::on_admit`].
    Admit,
    /// [`crate::scheme::Scheme::on_iteration`].
    Iteration,
    /// [`crate::scheme::Scheme::on_read_arrival`].
    ReadArrival,
    /// [`crate::scheme::Scheme::on_release`].
    Release,
}

impl SchemeHook {
    fn code(self) -> &'static str {
        match self {
            SchemeHook::Admit => "a",
            SchemeHook::Iteration => "i",
            SchemeHook::ReadArrival => "r",
            SchemeHook::Release => "l",
        }
    }

    fn from_code(s: &str) -> Option<SchemeHook> {
        Some(match s {
            "a" => SchemeHook::Admit,
            "i" => SchemeHook::Iteration,
            "r" => SchemeHook::ReadArrival,
            "l" => SchemeHook::Release,
            _ => return None,
        })
    }
}

/// Which [`fpb_core::PowerManager`] call a [`LifecycleEvent::Power`]
/// snapshot was taken after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerOp {
    /// `try_admit` (round admission).
    Admit,
    /// `try_advance` (iteration-boundary re-budgeting).
    Advance,
    /// `release` (completion, pause, or cancellation).
    Release,
    /// `begin_brownout` (window start withholds tokens).
    BrownoutBegin,
    /// `end_brownout` (window end restores tokens).
    BrownoutEnd,
}

impl PowerOp {
    fn code(self) -> &'static str {
        match self {
            PowerOp::Admit => "a",
            PowerOp::Advance => "v",
            PowerOp::Release => "r",
            PowerOp::BrownoutBegin => "b",
            PowerOp::BrownoutEnd => "e",
        }
    }

    fn from_code(s: &str) -> Option<PowerOp> {
        Some(match s {
            "a" => PowerOp::Admit,
            "v" => PowerOp::Advance,
            "r" => PowerOp::Release,
            "b" => PowerOp::BrownoutBegin,
            "e" => PowerOp::BrownoutEnd,
            _ => return None,
        })
    }
}

/// Two-letter wire code for a [`WriteStage`].
pub fn stage_code(stage: WriteStage) -> &'static str {
    match stage {
        WriteStage::Queued => "qu",
        WriteStage::PreRead => "pr",
        WriteStage::Iterating => "it",
        WriteStage::TokenStalled => "ts",
        WriteStage::Paused => "pa",
        WriteStage::RoundPending => "rp",
        WriteStage::Backoff => "bo",
        WriteStage::Draining => "dr",
        WriteStage::Done => "dn",
    }
}

/// Inverse of [`stage_code`].
pub fn stage_from_code(s: &str) -> Option<WriteStage> {
    Some(match s {
        "qu" => WriteStage::Queued,
        "pr" => WriteStage::PreRead,
        "it" => WriteStage::Iterating,
        "ts" => WriteStage::TokenStalled,
        "pa" => WriteStage::Paused,
        "rp" => WriteStage::RoundPending,
        "bo" => WriteStage::Backoff,
        "dr" => WriteStage::Draining,
        "dn" => WriteStage::Done,
        _ => return None,
    })
}

/// One typed, serializable engine stage transition (or run-level marker).
///
/// Times are absolute simulation cycles; ids are the engine's per-run
/// [`fpb_core::WriteId`] values. The run's [`crate::Metrics`] are the
/// fold of the stream ([`crate::Metrics::apply`]), so the stream
/// *derives* the metrics rather than merely annotating them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// Run configuration, emitted once at construction. Carries exactly
    /// what the fold needs to build the run-shaped state (the wear
    /// tracker, the bank-mask width).
    RunStart {
        /// Core count.
        cores: u8,
        /// Instruction budget per core.
        instructions_per_core: u64,
        /// PCM chip count per DIMM.
        chips: u8,
        /// PCM bank count.
        banks: u8,
        /// Total line count (endurance-tracker geometry).
        total_lines: u64,
        /// Cells per chip per line (endurance-tracker geometry).
        cells_per_chip_per_line: u64,
        /// The run's root RNG seed (provenance only; replay never re-rolls).
        seed: u64,
    },
    /// Pre-step snapshot, emitted to a live sink at the top of every
    /// engine step — one [`crate::timeline::Timeline`] sample each. The
    /// metrics fold ignores it.
    StepSnapshot {
        /// Simulation time of the snapshot.
        at: u64,
        /// Bit `b` set iff bank `b` holds a write (first 64 banks).
        bank_mask: u64,
        /// Controller in write-burst mode?
        burst: bool,
        /// Write-queue depth.
        wrq: u64,
        /// Read-queue depth.
        rdq: u64,
    },
    /// Time advanced from `from` to `to` with the given activity flags
    /// (derives the four activity-cycle counters).
    TimeAdvance {
        /// Interval start.
        from: u64,
        /// Interval end.
        to: u64,
        /// Write burst active over the interval?
        burst: bool,
        /// At least one write iterating?
        writing: bool,
        /// Brownout window active?
        brownout: bool,
        /// Degraded (SLC-fallback) mode active?
        degraded: bool,
    },
    /// A write task was built for a dirty eviction.
    WriteCreated {
        /// The task's write id.
        id: u64,
        /// Target line address.
        line: u64,
        /// Target bank.
        bank: u8,
        /// Creation time.
        at: u64,
        /// Number of power-split rounds.
        rounds: u64,
        /// Issued in degraded (SLC) mode?
        degraded: bool,
    },
    /// A queued write to the same line was replaced by fresher data.
    WriteCoalesced {
        /// The replaced task's id.
        old_id: u64,
        /// The replacing task's id.
        new_id: u64,
        /// The shared line address.
        line: u64,
        /// Coalesce time.
        at: u64,
    },
    /// A write won token admission and left the write queue.
    WriteAdmitted {
        /// The admitted write.
        id: u64,
        /// Its bank.
        bank: u8,
        /// Admission time.
        at: u64,
        /// Cycles spent queued (arrival to this admission).
        queue_delay: u64,
    },
    /// A write-lifecycle stage transition (the engine's
    /// [`crate::scheme::WriteLifecycle`] checks, now recorded).
    Stage {
        /// The write moving between stages.
        id: u64,
        /// Its bank.
        bank: u8,
        /// Transition time.
        at: u64,
        /// Stage left.
        from: WriteStage,
        /// Stage entered.
        to: WriteStage,
    },
    /// A scheme lifecycle hook was consulted; `action` is the hook's
    /// enum discriminant (0 = first variant).
    SchemeDecision {
        /// Which hook ran.
        hook: SchemeHook,
        /// The chosen action's discriminant.
        action: u8,
        /// The write the decision concerns (0 for bank-level hooks with
        /// no task in flight).
        id: u64,
        /// The bank concerned.
        bank: u8,
        /// Decision time.
        at: u64,
    },
    /// Power-accounting snapshot taken immediately after a
    /// [`fpb_core::PowerManager`] call — the nine raw
    /// [`fpb_core::PowerStats`] counters plus the audit-violation count.
    /// Absolute values, not deltas (outstanding/peak are not additive).
    Power {
        /// The write the call concerned (0 for brownout edges).
        id: u64,
        /// Which manager call ran.
        op: PowerOp,
        /// Whether the call succeeded (always true for release/brownout).
        ok: bool,
        /// Call time.
        at: u64,
        /// `PowerStats::to_raw()` after the call.
        stats: [u64; 9],
        /// `PowerManager::audit_violations()` after the call.
        audit: u64,
    },
    /// A read was issued to its bank.
    ReadIssued {
        /// Requesting core (0 for background scrubs).
        core: u64,
        /// Target bank.
        bank: u8,
        /// Issue time.
        at: u64,
        /// Service latency charged (queue entry to data return).
        latency: u64,
        /// Background drift scrub (no core to wake)?
        scrub: bool,
    },
    /// A read completed and freed its bank.
    ReadDone {
        /// The bank freed.
        bank: u8,
        /// Completion time.
        at: u64,
        /// Background drift scrub?
        scrub: bool,
    },
    /// A write round closed successfully (verify passed or watchdog
    /// force-close).
    RoundClosed {
        /// The write whose round closed.
        id: u64,
        /// Its line.
        line: u64,
        /// Its bank.
        bank: u8,
        /// Close time.
        at: u64,
        /// Cells programmed by the round.
        cells: u64,
        /// Round ended early by write truncation?
        truncated: bool,
        /// Was this the task's last round (the line write completed)?
        final_round: bool,
        /// Cells programmed per chip (length = chip count).
        per_chip: Vec<u32>,
    },
    /// The endurance-triggered fault model marked lines stuck-at.
    StuckMarked {
        /// Newly stuck lines (the injector marks at most one per write).
        lines: u64,
        /// Mark time.
        at: u64,
    },
    /// A round's closing verify failed (injected).
    VerifyFailed {
        /// The failing write.
        id: u64,
        /// Its line.
        line: u64,
        /// Failure time.
        at: u64,
        /// Retries exhausted — the line was remapped and the round
        /// rewritten in SLC fallback?
        remapped: bool,
        /// Retry count after this failure's bookkeeping.
        retries: u64,
    },
    /// The controller watchdog force-closed a round.
    WatchdogTripped {
        /// The write force-closed.
        id: u64,
        /// Its bank.
        bank: u8,
        /// Trip time.
        at: u64,
    },
    /// A brownout window began (tokens withheld).
    BrownoutStart {
        /// Window start time.
        at: u64,
    },
    /// A brownout window ended (tokens restored).
    BrownoutEnd {
        /// Window end time.
        at: u64,
    },
    /// A core retired its instruction budget.
    CoreDone {
        /// The finished core.
        core: u64,
        /// Its retire time.
        at: u64,
    },
    /// The run finished; `at` is the final cycle count.
    RunEnd {
        /// Final elapsed cycles (max core retire time).
        at: u64,
    },
}

impl LifecycleEvent {
    /// The write id this event concerns, if any.
    pub fn write_id(&self) -> Option<u64> {
        match self {
            LifecycleEvent::WriteCreated { id, .. }
            | LifecycleEvent::WriteAdmitted { id, .. }
            | LifecycleEvent::Stage { id, .. }
            | LifecycleEvent::RoundClosed { id, .. }
            | LifecycleEvent::VerifyFailed { id, .. }
            | LifecycleEvent::WatchdogTripped { id, .. } => Some(*id),
            LifecycleEvent::WriteCoalesced { new_id, .. } => Some(*new_id),
            LifecycleEvent::SchemeDecision { id, .. } | LifecycleEvent::Power { id, .. }
                if *id != 0 =>
            {
                Some(*id)
            }
            _ => None,
        }
    }

    /// The simulation time this event carries, if any.
    pub fn at(&self) -> Option<u64> {
        match self {
            LifecycleEvent::RunStart { .. } => None,
            LifecycleEvent::StepSnapshot { at, .. }
            | LifecycleEvent::WriteCreated { at, .. }
            | LifecycleEvent::WriteCoalesced { at, .. }
            | LifecycleEvent::WriteAdmitted { at, .. }
            | LifecycleEvent::Stage { at, .. }
            | LifecycleEvent::SchemeDecision { at, .. }
            | LifecycleEvent::Power { at, .. }
            | LifecycleEvent::ReadIssued { at, .. }
            | LifecycleEvent::ReadDone { at, .. }
            | LifecycleEvent::RoundClosed { at, .. }
            | LifecycleEvent::StuckMarked { at, .. }
            | LifecycleEvent::VerifyFailed { at, .. }
            | LifecycleEvent::WatchdogTripped { at, .. }
            | LifecycleEvent::BrownoutStart { at }
            | LifecycleEvent::BrownoutEnd { at }
            | LifecycleEvent::CoreDone { at, .. }
            | LifecycleEvent::RunEnd { at } => Some(*at),
            LifecycleEvent::TimeAdvance { to, .. } => Some(*to),
        }
    }

    /// Encodes the event as its one-line wire form (no trailing newline).
    pub fn encode(&self) -> String {
        fn b(v: bool) -> u64 {
            v as u64
        }
        match self {
            LifecycleEvent::RunStart {
                cores,
                instructions_per_core,
                chips,
                banks,
                total_lines,
                cells_per_chip_per_line,
                seed,
            } => format!(
                "rs {cores} {instructions_per_core} {chips} {banks} {total_lines} \
                 {cells_per_chip_per_line} {seed}"
            ),
            LifecycleEvent::StepSnapshot {
                at,
                bank_mask,
                burst,
                wrq,
                rdq,
            } => format!("ss {at} {bank_mask} {} {wrq} {rdq}", b(*burst)),
            LifecycleEvent::TimeAdvance {
                from,
                to,
                burst,
                writing,
                brownout,
                degraded,
            } => format!(
                "ta {from} {to} {} {} {} {}",
                b(*burst),
                b(*writing),
                b(*brownout),
                b(*degraded)
            ),
            LifecycleEvent::WriteCreated {
                id,
                line,
                bank,
                at,
                rounds,
                degraded,
            } => format!("wc {id} {line} {bank} {at} {rounds} {}", b(*degraded)),
            LifecycleEvent::WriteCoalesced {
                old_id,
                new_id,
                line,
                at,
            } => format!("wx {old_id} {new_id} {line} {at}"),
            LifecycleEvent::WriteAdmitted {
                id,
                bank,
                at,
                queue_delay,
            } => format!("wa {id} {bank} {at} {queue_delay}"),
            LifecycleEvent::Stage {
                id,
                bank,
                at,
                from,
                to,
            } => format!(
                "st {id} {bank} {at} {} {}",
                stage_code(*from),
                stage_code(*to)
            ),
            LifecycleEvent::SchemeDecision {
                hook,
                action,
                id,
                bank,
                at,
            } => format!("sd {} {action} {id} {bank} {at}", hook.code()),
            LifecycleEvent::Power {
                id,
                op,
                ok,
                at,
                stats,
                audit,
            } => {
                let mut s = format!("pw {id} {} {} {at}", op.code(), b(*ok));
                for v in stats {
                    s.push(' ');
                    s.push_str(&v.to_string());
                }
                s.push(' ');
                s.push_str(&audit.to_string());
                s
            }
            LifecycleEvent::ReadIssued {
                core,
                bank,
                at,
                latency,
                scrub,
            } => format!("ri {core} {bank} {at} {latency} {}", b(*scrub)),
            LifecycleEvent::ReadDone { bank, at, scrub } => {
                format!("rd {bank} {at} {}", b(*scrub))
            }
            LifecycleEvent::RoundClosed {
                id,
                line,
                bank,
                at,
                cells,
                truncated,
                final_round,
                per_chip,
            } => {
                let mut s = format!(
                    "rc {id} {line} {bank} {at} {cells} {} {} {}",
                    b(*truncated),
                    b(*final_round),
                    per_chip.len()
                );
                for v in per_chip {
                    s.push(' ');
                    s.push_str(&v.to_string());
                }
                s
            }
            LifecycleEvent::StuckMarked { lines, at } => format!("sm {lines} {at}"),
            LifecycleEvent::VerifyFailed {
                id,
                line,
                at,
                remapped,
                retries,
            } => format!("vf {id} {line} {at} {} {retries}", b(*remapped)),
            LifecycleEvent::WatchdogTripped { id, bank, at } => {
                format!("wt {id} {bank} {at}")
            }
            LifecycleEvent::BrownoutStart { at } => format!("bs {at}"),
            LifecycleEvent::BrownoutEnd { at } => format!("be {at}"),
            LifecycleEvent::CoreDone { core, at } => format!("cd {core} {at}"),
            LifecycleEvent::RunEnd { at } => format!("re {at}"),
        }
    }

    /// Parses one wire line. Returns `None` on any malformation (unknown
    /// kind, wrong field count, non-integer field) — log readers treat
    /// that as a torn tail, never an error to unwrap.
    pub fn decode(line: &str) -> Option<LifecycleEvent> {
        let mut it = line.split_ascii_whitespace();
        let kind = it.next()?;
        let mut num = || it.next()?.parse::<u64>().ok();
        let ev = match kind {
            "rs" => LifecycleEvent::RunStart {
                cores: u8::try_from(num()?).ok()?,
                instructions_per_core: num()?,
                chips: u8::try_from(num()?).ok()?,
                banks: u8::try_from(num()?).ok()?,
                total_lines: num()?,
                cells_per_chip_per_line: num()?,
                seed: num()?,
            },
            "ss" => LifecycleEvent::StepSnapshot {
                at: num()?,
                bank_mask: num()?,
                burst: num()? != 0,
                wrq: num()?,
                rdq: num()?,
            },
            "ta" => LifecycleEvent::TimeAdvance {
                from: num()?,
                to: num()?,
                burst: num()? != 0,
                writing: num()? != 0,
                brownout: num()? != 0,
                degraded: num()? != 0,
            },
            "wc" => LifecycleEvent::WriteCreated {
                id: num()?,
                line: num()?,
                bank: u8::try_from(num()?).ok()?,
                at: num()?,
                rounds: num()?,
                degraded: num()? != 0,
            },
            "wx" => LifecycleEvent::WriteCoalesced {
                old_id: num()?,
                new_id: num()?,
                line: num()?,
                at: num()?,
            },
            "wa" => LifecycleEvent::WriteAdmitted {
                id: num()?,
                bank: u8::try_from(num()?).ok()?,
                at: num()?,
                queue_delay: num()?,
            },
            "st" => {
                let id = num()?;
                let bank = u8::try_from(num()?).ok()?;
                let at = num()?;
                let mut rest = line.split_ascii_whitespace().skip(4);
                LifecycleEvent::Stage {
                    id,
                    bank,
                    at,
                    from: stage_from_code(rest.next()?)?,
                    to: stage_from_code(rest.next()?)?,
                }
            }
            "sd" => {
                let mut rest = line.split_ascii_whitespace().skip(1);
                let hook = SchemeHook::from_code(rest.next()?)?;
                let mut num = move || rest.next()?.parse::<u64>().ok();
                LifecycleEvent::SchemeDecision {
                    hook,
                    action: u8::try_from(num()?).ok()?,
                    id: num()?,
                    bank: u8::try_from(num()?).ok()?,
                    at: num()?,
                }
            }
            "pw" => {
                let id = num()?;
                let op = PowerOp::from_code(line.split_ascii_whitespace().nth(2)?)?;
                let mut rest = line.split_ascii_whitespace().skip(3);
                let mut num = move || rest.next()?.parse::<u64>().ok();
                let ok = num()? != 0;
                let at = num()?;
                let mut stats = [0u64; 9];
                for slot in &mut stats {
                    *slot = num()?;
                }
                LifecycleEvent::Power {
                    id,
                    op,
                    ok,
                    at,
                    stats,
                    audit: num()?,
                }
            }
            "ri" => LifecycleEvent::ReadIssued {
                core: num()?,
                bank: u8::try_from(num()?).ok()?,
                at: num()?,
                latency: num()?,
                scrub: num()? != 0,
            },
            "rd" => LifecycleEvent::ReadDone {
                bank: u8::try_from(num()?).ok()?,
                at: num()?,
                scrub: num()? != 0,
            },
            "rc" => {
                let id = num()?;
                let line_addr = num()?;
                let bank = u8::try_from(num()?).ok()?;
                let at = num()?;
                let cells = num()?;
                let truncated = num()? != 0;
                let final_round = num()? != 0;
                let n = usize::try_from(num()?).ok()?;
                if n > 1 << 16 {
                    return None; // implausible chip count: refuse the allocation
                }
                let per_chip = (0..n)
                    .map(|_| num().and_then(|v| u32::try_from(v).ok()))
                    .collect::<Option<Vec<u32>>>()?;
                LifecycleEvent::RoundClosed {
                    id,
                    line: line_addr,
                    bank,
                    at,
                    cells,
                    truncated,
                    final_round,
                    per_chip,
                }
            }
            "sm" => LifecycleEvent::StuckMarked {
                lines: num()?,
                at: num()?,
            },
            "vf" => LifecycleEvent::VerifyFailed {
                id: num()?,
                line: num()?,
                at: num()?,
                remapped: num()? != 0,
                retries: num()?,
            },
            "wt" => LifecycleEvent::WatchdogTripped {
                id: num()?,
                bank: u8::try_from(num()?).ok()?,
                at: num()?,
            },
            "bs" => LifecycleEvent::BrownoutStart { at: num()? },
            "be" => LifecycleEvent::BrownoutEnd { at: num()? },
            "cd" => LifecycleEvent::CoreDone {
                core: num()?,
                at: num()?,
            },
            "re" => LifecycleEvent::RunEnd { at: num()? },
            _ => return None,
        };
        // Reject trailing junk: an event line is exactly its fields.
        let want = ev.encode();
        let got = line.split_ascii_whitespace().count();
        if got != want.split_ascii_whitespace().count() {
            return None;
        }
        Some(ev)
    }
}

impl fmt::Display for LifecycleEvent {
    /// Human-readable one-liner (the lineage/breakpoint rendering).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleEvent::RunStart {
                cores,
                banks,
                chips,
                seed,
                ..
            } => write!(
                f,
                "run-start: {cores} cores, {banks} banks, {chips} chips, seed {seed}"
            ),
            LifecycleEvent::StepSnapshot {
                at,
                wrq,
                rdq,
                burst,
                ..
            } => write!(
                f,
                "@{at} step: wrq={wrq} rdq={rdq}{}",
                if *burst { " BURST" } else { "" }
            ),
            LifecycleEvent::TimeAdvance { from, to, .. } => {
                write!(f, "@{from} time advances to {to}")
            }
            LifecycleEvent::WriteCreated {
                id,
                line,
                bank,
                at,
                rounds,
                degraded,
            } => write!(
                f,
                "@{at} write #{id} created: line {line} bank {bank}, {rounds} round(s){}",
                if *degraded { " DEGRADED(SLC)" } else { "" }
            ),
            LifecycleEvent::WriteCoalesced {
                old_id,
                new_id,
                line,
                at,
            } => {
                write!(
                    f,
                    "@{at} write #{old_id} coalesced into #{new_id} (line {line})"
                )
            }
            LifecycleEvent::WriteAdmitted {
                id,
                bank,
                at,
                queue_delay,
            } => write!(
                f,
                "@{at} write #{id} admitted to bank {bank} after {queue_delay} queued cycles"
            ),
            LifecycleEvent::Stage {
                id,
                bank,
                at,
                from,
                to,
            } => {
                write!(f, "@{at} write #{id} bank {bank}: {from:?} -> {to:?}")
            }
            LifecycleEvent::SchemeDecision {
                hook,
                action,
                id,
                bank,
                at,
            } => write!(
                f,
                "@{at} scheme {hook:?} hook on bank {bank} (write #{id}): action {action}"
            ),
            LifecycleEvent::Power { id, op, ok, at, .. } => write!(
                f,
                "@{at} power {op:?} for write #{id}: {}",
                if *ok { "granted" } else { "refused" }
            ),
            LifecycleEvent::ReadIssued {
                core,
                bank,
                at,
                latency,
                scrub,
            } => write!(
                f,
                "@{at} {} issued to bank {bank} (core {core}, latency {latency})",
                if *scrub { "scrub read" } else { "read" }
            ),
            LifecycleEvent::ReadDone { bank, at, scrub } => write!(
                f,
                "@{at} {} done on bank {bank}",
                if *scrub { "scrub read" } else { "read" }
            ),
            LifecycleEvent::RoundClosed {
                id,
                at,
                cells,
                truncated,
                final_round,
                ..
            } => write!(
                f,
                "@{at} write #{id} round closed: {cells} cells{}{}",
                if *truncated { ", truncated" } else { "" },
                if *final_round {
                    " (write complete)"
                } else {
                    ""
                }
            ),
            LifecycleEvent::StuckMarked { lines, at } => {
                write!(f, "@{at} {lines} line(s) marked stuck-at")
            }
            LifecycleEvent::VerifyFailed {
                id,
                line,
                at,
                remapped,
                retries,
            } => write!(
                f,
                "@{at} write #{id} verify FAILED on line {line}: {}",
                if *remapped {
                    "remapped to spare, SLC rewrite".to_string()
                } else {
                    format!("retry {retries}")
                }
            ),
            LifecycleEvent::WatchdogTripped { id, bank, at } => {
                write!(f, "@{at} watchdog force-closed write #{id} on bank {bank}")
            }
            LifecycleEvent::BrownoutStart { at } => write!(f, "@{at} brownout window begins"),
            LifecycleEvent::BrownoutEnd { at } => write!(f, "@{at} brownout window ends"),
            LifecycleEvent::CoreDone { core, at } => {
                write!(f, "@{at} core {core} retired its budget")
            }
            LifecycleEvent::RunEnd { at } => write!(f, "@{at} run complete"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LifecycleEvent> {
        vec![
            LifecycleEvent::RunStart {
                cores: 8,
                instructions_per_core: 40_000,
                chips: 8,
                banks: 8,
                total_lines: 65_536,
                cells_per_chip_per_line: 256,
                seed: 42,
            },
            LifecycleEvent::StepSnapshot {
                at: 10,
                bank_mask: 0b101,
                burst: true,
                wrq: 3,
                rdq: 0,
            },
            LifecycleEvent::TimeAdvance {
                from: 10,
                to: 25,
                burst: false,
                writing: true,
                brownout: false,
                degraded: true,
            },
            LifecycleEvent::WriteCreated {
                id: 7,
                line: 1234,
                bank: 2,
                at: 10,
                rounds: 2,
                degraded: true,
            },
            LifecycleEvent::WriteCoalesced {
                old_id: 3,
                new_id: 9,
                line: 55,
                at: 11,
            },
            LifecycleEvent::WriteAdmitted {
                id: 7,
                bank: 2,
                at: 12,
                queue_delay: 2,
            },
            LifecycleEvent::Stage {
                id: 7,
                bank: 2,
                at: 13,
                from: crate::scheme::WriteStage::Queued,
                to: crate::scheme::WriteStage::Iterating,
            },
            LifecycleEvent::SchemeDecision {
                hook: SchemeHook::ReadArrival,
                action: 1,
                id: 7,
                bank: 2,
                at: 14,
            },
            LifecycleEvent::Power {
                id: 7,
                op: PowerOp::Admit,
                ok: false,
                at: 15,
                stats: [1, 2, 3, 4, 5, 6, 7, 8, 9],
                audit: 1,
            },
            LifecycleEvent::ReadIssued {
                core: 3,
                bank: 1,
                at: 16,
                latency: 120,
                scrub: false,
            },
            LifecycleEvent::ReadDone {
                bank: 1,
                at: 17,
                scrub: true,
            },
            LifecycleEvent::RoundClosed {
                id: 7,
                line: 1234,
                bank: 2,
                at: 18,
                cells: 96,
                truncated: true,
                final_round: false,
                per_chip: vec![12, 0, 84],
            },
            LifecycleEvent::StuckMarked { lines: 1, at: 19 },
            LifecycleEvent::VerifyFailed {
                id: 7,
                line: 1234,
                at: 20,
                remapped: true,
                retries: 0,
            },
            LifecycleEvent::WatchdogTripped {
                id: 7,
                bank: 2,
                at: 21,
            },
            LifecycleEvent::BrownoutStart { at: 22 },
            LifecycleEvent::BrownoutEnd { at: 23 },
            LifecycleEvent::CoreDone { core: 5, at: 24 },
            LifecycleEvent::RunEnd { at: 25 },
        ]
    }

    #[test]
    fn wire_round_trip_is_exact() {
        for ev in samples() {
            let line = ev.encode();
            assert!(!line.contains('\n'), "single line: {line}");
            assert_eq!(LifecycleEvent::decode(&line), Some(ev.clone()), "{line}");
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert_eq!(LifecycleEvent::decode(""), None);
        assert_eq!(LifecycleEvent::decode("zz 1 2"), None);
        assert_eq!(LifecycleEvent::decode("ss 1 2 3"), None, "missing fields");
        assert_eq!(
            LifecycleEvent::decode("ss 1 2 3 4 5 6"),
            None,
            "trailing junk"
        );
        assert_eq!(
            LifecycleEvent::decode("st 1 2 3 xx it"),
            None,
            "bad stage code"
        );
        assert_eq!(
            LifecycleEvent::decode("wc 1 2 999 4 5 0"),
            None,
            "bank overflows u8"
        );
    }

    #[test]
    fn stage_codes_round_trip() {
        use crate::scheme::WriteStage::*;
        for s in [
            Queued,
            PreRead,
            Iterating,
            TokenStalled,
            Paused,
            RoundPending,
            Backoff,
            Draining,
            Done,
        ] {
            assert_eq!(stage_from_code(stage_code(s)), Some(s));
        }
        assert_eq!(stage_from_code("zz"), None);
    }

    #[test]
    fn display_is_single_line() {
        for ev in samples() {
            let text = ev.to_string();
            assert!(!text.is_empty() && !text.contains('\n'), "{text}");
        }
    }
}
