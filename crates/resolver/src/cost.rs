//! Validation cost accounting — the measurement instrument for
//! CVE-2023-50868.
//!
//! The CVE is an algorithmic-complexity attack: a malicious (or merely
//! non-compliant) zone with high NSEC3 iteration counts makes a validating
//! resolver spend `O(labels × iterations)` SHA-1 compressions per negative
//! response. Gruza et al. (WOOT '24) measured up to a 72× CPU instruction
//! blow-up; we reproduce the scaling law by counting the compressions
//! directly.

use std::cell::Cell;

use crate::policy::WorkBudget;

/// Accumulated work for one resolution (or one experiment).
///
/// A resolution's meter is created with its [`WorkBudget`], and
/// [`budget_exhausted`](CostMeter::budget_exhausted) reports when spending
/// has reached either allowance. The counters themselves are never clamped —
/// the meter stays an exact instrument; enforcement (aborting validation)
/// is the caller's job.
#[derive(Clone, Debug, Default)]
pub struct CostMeter {
    sha1_compressions: Cell<u64>,
    nsec3_hashes: Cell<u64>,
    signatures_verified: Cell<u64>,
    messages_sent: Cell<u64>,
    timeouts: Cell<u64>,
    retries: Cell<u64>,
    /// What this meter's resolution may spend (unlimited by default).
    budget: WorkBudget,
}

impl CostMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed meter for one resolution under `budget`.
    pub(crate) fn with_budget(budget: &WorkBudget) -> Self {
        CostMeter {
            budget: *budget,
            ..Self::default()
        }
    }

    /// Record the cost of one NSEC3 hash chain.
    pub(crate) fn add_nsec3_hash(&self, compressions: u64) {
        self.sha1_compressions
            .set(self.sha1_compressions.get() + compressions);
        self.nsec3_hashes.set(self.nsec3_hashes.get() + 1);
    }

    /// Record one signature verification.
    pub(crate) fn add_signature(&self) {
        self.signatures_verified
            .set(self.signatures_verified.get() + 1);
    }

    /// Record one network message sent.
    pub(crate) fn add_message(&self) {
        self.messages_sent.set(self.messages_sent.get() + 1);
    }

    /// Record one upstream exchange that ended in silence (all retries
    /// exhausted without a usable reply).
    pub(crate) fn add_timeout(&self) {
        self.timeouts.set(self.timeouts.get() + 1);
    }

    /// Record `n` extra attempts beyond the first for one exchange.
    pub(crate) fn add_retries(&self, n: u64) {
        self.retries.set(self.retries.get() + n);
    }

    /// Total SHA-1 compressions spent on NSEC3 hashing.
    pub fn sha1_compressions(&self) -> u64 {
        self.sha1_compressions.get()
    }

    /// Number of full NSEC3 hash chains computed.
    pub fn nsec3_hashes(&self) -> u64 {
        self.nsec3_hashes.get()
    }

    /// True when the budget's allowance is used up on either axis.
    /// Callers check this *before* the next unit of work, so a query
    /// overshoots by at most one hash chain or one verification.
    pub(crate) fn budget_exhausted(&self) -> bool {
        let over_compressions = self
            .budget
            .max_compressions
            .is_some_and(|limit| self.sha1_compressions.get() >= limit);
        let over_signatures = self
            .budget
            .max_signatures
            .is_some_and(|limit| self.signatures_verified.get() >= limit);
        over_compressions || over_signatures
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            sha1_compressions: self.sha1_compressions.get(),
            nsec3_hashes: self.nsec3_hashes.get(),
            signatures_verified: self.signatures_verified.get(),
            messages_sent: self.messages_sent.get(),
            timeouts: self.timeouts.get(),
            retries: self.retries.get(),
        }
    }
}

/// Immutable copy of a [`CostMeter`]'s counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    /// SHA-1 compression-function invocations for NSEC3 hashing.
    pub sha1_compressions: u64,
    /// NSEC3 hash chains computed.
    pub nsec3_hashes: u64,
    /// Signature verifications.
    pub signatures_verified: u64,
    /// Network messages sent.
    pub messages_sent: u64,
    /// Upstream exchanges that ended in silence (all retries exhausted).
    /// Zero on a fault-free network — scanners use this to tell genuine
    /// SERVFAIL verdicts apart from probe loss.
    pub timeouts: u64,
    /// Extra wire attempts beyond the first, summed over exchanges.
    pub retries: u64,
}

impl std::ops::Add for CostSnapshot {
    type Output = CostSnapshot;

    /// The work of two resolutions together.
    fn add(self, other: CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            sha1_compressions: self.sha1_compressions + other.sha1_compressions,
            nsec3_hashes: self.nsec3_hashes + other.nsec3_hashes,
            signatures_verified: self.signatures_verified + other.signatures_verified,
            messages_sent: self.messages_sent + other.messages_sent,
            timeouts: self.timeouts + other.timeouts,
            retries: self.retries + other.retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let m = CostMeter::new();
        m.add_nsec3_hash(101);
        m.add_nsec3_hash(101);
        m.add_signature();
        m.add_message();
        assert_eq!(m.sha1_compressions(), 202);
        assert_eq!(m.nsec3_hashes(), 2);
        assert_eq!(m.snapshot().signatures_verified, 1);
        assert_eq!(m.snapshot().messages_sent, 1);
    }

    #[test]
    fn budget_counts_this_meters_spend() {
        let m = CostMeter::with_budget(&WorkBudget {
            max_compressions: Some(100),
            max_signatures: Some(2),
        });
        assert!(!m.budget_exhausted());
        m.add_nsec3_hash(99);
        assert!(!m.budget_exhausted(), "99 < 100 allowance");
        m.add_nsec3_hash(1);
        assert!(m.budget_exhausted(), "100 >= 100 allowance");
        // Counters keep counting past the allowance: exact instrument.
        m.add_nsec3_hash(40);
        assert_eq!(m.sha1_compressions(), 140);
        // Another resolution's meter starts with its whole allowance.
        let next = CostMeter::with_budget(&WorkBudget {
            max_compressions: Some(100),
            max_signatures: Some(2),
        });
        assert!(!next.budget_exhausted());
    }

    #[test]
    fn budget_signature_axis_and_unlimited() {
        let m = CostMeter::with_budget(&WorkBudget::unlimited());
        m.add_nsec3_hash(1_000_000);
        for _ in 0..1000 {
            m.add_signature();
        }
        assert!(!m.budget_exhausted(), "unlimited budget never exhausts");
        let m = CostMeter::with_budget(&WorkBudget {
            max_compressions: None,
            max_signatures: Some(3),
        });
        m.add_signature();
        m.add_signature();
        assert!(!m.budget_exhausted());
        m.add_signature();
        assert!(m.budget_exhausted());
    }

    #[test]
    fn snapshot_sum() {
        let (a, b) = (CostMeter::new(), CostMeter::new());
        a.add_nsec3_hash(10);
        b.add_nsec3_hash(5);
        b.add_message();
        let sum = a.snapshot() + b.snapshot();
        assert_eq!(sum.sha1_compressions, 15);
        assert_eq!(sum.nsec3_hashes, 2);
        assert_eq!(sum.messages_sent, 1);
    }
}
