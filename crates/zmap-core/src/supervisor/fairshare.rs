//! Multi-tenant TX bandwidth admission and the restart backoff curve.
//!
//! The supervisor owns one link budget of `capacity_pps` (DESIGN.md
//! §10.3). Every active tenant is entitled to an equal slice
//! `capacity / tenants`, and a job's grant at admission is
//!
//! ```text
//! grant = min(demand,
//!             max(MIN_GRANT_PPS, min(tenant_budget − tenant_used,
//!                                    capacity − reserved)))
//! ```
//!
//! Grants are *reservations*, held until the job leaves and never
//! re-clamped: a running job's rate is part of the config digest its
//! checkpoint journals are bound to, so an early sole tenant may keep
//! more than a later equal split. `MIN_GRANT_PPS` is the progress
//! guarantee: a saturated link degrades to slow progress, not starvation,
//! oversubscribed by at most one minimum grant per admitted job.

/// Smallest rate any admitted job receives, regardless of contention.
const MIN_GRANT_PPS: u64 = 1;

/// First restart backoff; doubles per consecutive failure.
pub const BACKOFF_BASE_NS: u64 = 250_000_000;

/// Backoff ceiling.
pub const BACKOFF_CAP_NS: u64 = 8_000_000_000;

/// Handle for releasing a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GrantId(usize);

/// The reservation ledger, owned by the supervisor's event loop.
#[derive(Debug)]
pub(crate) struct FairShareLedger {
    capacity_pps: u64,
    /// `(tenant, pps)` by grant id; `None` once released.
    grants: Vec<Option<(String, u64)>>,
}

impl FairShareLedger {
    /// A ledger over one link budget.
    pub(crate) fn new(capacity_pps: u64) -> Self {
        FairShareLedger { capacity_pps: capacity_pps.max(1), grants: Vec::new() }
    }

    fn held(&self) -> impl Iterator<Item = &(String, u64)> {
        self.grants.iter().flatten()
    }

    /// Total pps currently reserved.
    fn reserved(&self) -> u64 {
        self.held().map(|g| g.1).sum()
    }

    /// Distinct tenants holding at least one grant.
    fn tenants(&self) -> usize {
        self.held().map(|g| g.0.as_str()).collect::<std::collections::BTreeSet<_>>().len()
    }

    fn tenant_used(&self, tenant: &str) -> u64 {
        self.held().filter(|g| g.0 == tenant).map(|g| g.1).sum()
    }

    /// Admits a job: reserves and returns its granted pps (≤ `demand`,
    /// ≥ [`MIN_GRANT_PPS`] when `demand` allows).
    pub(crate) fn admit(&mut self, tenant: &str, demand_pps: u64) -> (GrantId, u64) {
        let demand = demand_pps.max(1);
        let mut tenants_after = self.tenants() as u64;
        if self.tenant_used(tenant) == 0 {
            tenants_after += 1;
        }
        let tenant_budget = self.capacity_pps / tenants_after.max(1);
        let tenant_headroom = tenant_budget.saturating_sub(self.tenant_used(tenant));
        let link_headroom = self.capacity_pps.saturating_sub(self.reserved());
        let grant = demand.min(tenant_headroom.min(link_headroom).max(MIN_GRANT_PPS));
        self.grants.push(Some((tenant.to_string(), grant)));
        (GrantId(self.grants.len() - 1), grant)
    }

    /// Releases a grant (no-op for an unknown or already-released id).
    pub(crate) fn release(&mut self, id: GrantId) {
        if let Some(grant) = self.grants.get_mut(id.0) {
            *grant = None;
        }
    }
}

/// Capped exponential restart backoff: `BACKOFF_BASE_NS · 2^(failures−1)`,
/// clamped to [`BACKOFF_CAP_NS`]. Monotone non-decreasing in `failures`
/// and saturating — the properties the supervisor's convergence proof
/// leans on, enforced by proptest in `tests/supervisor_stress.rs`.
pub fn backoff_delay_ns(consecutive_failures: u32) -> u64 {
    let shift = consecutive_failures.saturating_sub(1).min(63);
    // saturating_mul, not shl: a shift can silently drop high bits.
    BACKOFF_BASE_NS.saturating_mul(1u64 << shift).min(BACKOFF_CAP_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sole_tenant_gets_the_whole_link() {
        let mut l = FairShareLedger::new(100_000);
        let (_, got) = l.admit("alice", 80_000);
        assert_eq!(got, 80_000, "demand below capacity is granted in full");
        let (_, more) = l.admit("alice", 80_000);
        assert_eq!(more, 20_000, "second job is clipped to the remaining link");
    }

    #[test]
    fn two_tenants_split_the_budget() {
        let mut l = FairShareLedger::new(100_000);
        let (_, a) = l.admit("alice", 100_000);
        assert_eq!(a, 100_000, "first tenant alone sees the full link");
        let (_, b) = l.admit("bob", 100_000);
        // Alice's reservation stands; Bob's tenant budget is the equal
        // split but the link has no headroom left — progress guarantee.
        assert_eq!(b, MIN_GRANT_PPS);

        let mut l = FairShareLedger::new(100_000);
        let (_, a) = l.admit("alice", 40_000);
        let (_, b) = l.admit("bob", 100_000);
        assert_eq!(a, 40_000);
        assert_eq!(b, 50_000, "bob is capped at the equal tenant split");
    }

    #[test]
    fn admission_never_starves() {
        let mut l = FairShareLedger::new(10);
        for i in 0..50 {
            let (_, got) = l.admit(&format!("t{i}"), 1_000);
            assert!(got >= MIN_GRANT_PPS, "job {i} starved");
        }
    }

    #[test]
    fn release_restores_headroom() {
        let mut l = FairShareLedger::new(1_000);
        let (id, a) = l.admit("alice", 1_000);
        assert_eq!(a, 1_000);
        assert_eq!(l.reserved(), 1_000);
        l.release(id);
        assert_eq!(l.reserved(), 0);
        assert_eq!(l.tenants(), 0);
        let (_, b) = l.admit("bob", 600);
        assert_eq!(b, 600);
        l.release(GrantId(999)); // unknown id: no-op
        assert_eq!(l.reserved(), 600);
    }

    #[test]
    fn backoff_is_exponential_then_capped() {
        let base = 250_000_000;
        let cap = 8_000_000_000;
        assert_eq!(backoff_delay_ns(1), base);
        assert_eq!(backoff_delay_ns(2), 2 * base);
        assert_eq!(backoff_delay_ns(3), 4 * base);
        assert_eq!(backoff_delay_ns(6), cap);
        assert_eq!(backoff_delay_ns(200), cap, "saturates, never wraps");
    }
}
