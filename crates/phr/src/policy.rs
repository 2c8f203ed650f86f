//! The patient's disclosure policy: which categories are shared with whom,
//! through which proxy.
//!
//! The policy is plain bookkeeping — the *enforcement* is cryptographic (a
//! grantee only ever receives re-encrypted ciphertexts of categories for which
//! a re-encryption key was issued) — but the patient needs a record of her own
//! decisions to manage and revoke them.

use crate::category::Category;
use std::collections::{BTreeMap, BTreeSet};
use tibpre_ibe::Identity;

/// One granted delegation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The category being shared.
    pub category: Category,
    /// The grantee (delegatee) identity.
    pub grantee: Identity,
    /// The name of the proxy holding the re-encryption key.
    pub proxy: String,
}

/// The patient's view of her active delegations.
#[derive(Debug, Default, Clone)]
pub struct DisclosurePolicy {
    grants: BTreeMap<Category, BTreeSet<(Identity, String)>>,
}

impl DisclosurePolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a grant.  Returns `false` if the identical grant already existed.
    pub(crate) fn add_grant(&mut self, category: Category, grantee: Identity, proxy: &str) -> bool {
        self.grants
            .entry(category)
            .or_default()
            .insert((grantee, proxy.to_string()))
    }

    /// Removes a grant.  Returns `true` if it existed.
    pub(crate) fn remove_grant(
        &mut self,
        category: &Category,
        grantee: &Identity,
        proxy: &str,
    ) -> bool {
        if let Some(set) = self.grants.get_mut(category) {
            let removed = set.remove(&(grantee.clone(), proxy.to_string()));
            if set.is_empty() {
                self.grants.remove(category);
            }
            removed
        } else {
            false
        }
    }

    /// Returns `true` if the grantee currently has access to the category
    /// (through any proxy).
    pub(crate) fn is_granted(&self, category: &Category, grantee: &Identity) -> bool {
        self.grants
            .get(category)
            .map(|set| set.iter().any(|(g, _)| g == grantee))
            .unwrap_or(false)
    }

    /// All active grants, flattened.
    pub fn grants(&self) -> Vec<Grant> {
        self.grants
            .iter()
            .flat_map(|(category, set)| {
                set.iter().map(move |(grantee, proxy)| Grant {
                    category: category.clone(),
                    grantee: grantee.clone(),
                    proxy: proxy.clone(),
                })
            })
            .collect()
    }

    /// Total number of active grants.
    pub fn grant_count(&self) -> usize {
        self.grants.values().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_revoke_lifecycle() {
        let mut policy = DisclosurePolicy::new();
        let doctor = Identity::new("doctor");
        let dietician = Identity::new("dietician");

        assert!(policy.add_grant(Category::IllnessHistory, doctor.clone(), "hospital-proxy"));
        assert!(!policy.add_grant(Category::IllnessHistory, doctor.clone(), "hospital-proxy"));
        assert!(policy.add_grant(
            Category::FoodStatistics,
            dietician.clone(),
            "wellness-proxy"
        ));

        assert!(policy.is_granted(&Category::IllnessHistory, &doctor));
        assert!(!policy.is_granted(&Category::IllnessHistory, &dietician));
        assert!(!policy.is_granted(&Category::Emergency, &doctor));
        assert_eq!(policy.grant_count(), 2);

        assert!(policy.remove_grant(&Category::IllnessHistory, &doctor, "hospital-proxy"));
        assert!(!policy.remove_grant(&Category::IllnessHistory, &doctor, "hospital-proxy"));
        assert!(!policy.is_granted(&Category::IllnessHistory, &doctor));
        assert_eq!(policy.grant_count(), 1);
    }

    #[test]
    fn duplicate_grants_do_not_double_count() {
        let mut policy = DisclosurePolicy::new();
        let doctor = Identity::new("doctor");
        assert!(policy.add_grant(Category::IllnessHistory, doctor.clone(), "proxy"));
        // The identical grant is reported as a no-op and counts stay stable.
        assert!(!policy.add_grant(Category::IllnessHistory, doctor.clone(), "proxy"));
        assert!(!policy.add_grant(Category::IllnessHistory, doctor.clone(), "proxy"));
        assert_eq!(policy.grant_count(), 1);
        // One revoke removes it entirely — the duplicates were never stored.
        assert!(policy.remove_grant(&Category::IllnessHistory, &doctor, "proxy"));
        assert_eq!(policy.grant_count(), 0);
        assert!(!policy.is_granted(&Category::IllnessHistory, &doctor));
    }

    #[test]
    fn revoking_nonexistent_grants_is_a_safe_no_op() {
        let mut policy = DisclosurePolicy::new();
        let doctor = Identity::new("doctor");
        // Empty policy: nothing to remove, for any category.
        assert!(!policy.remove_grant(&Category::Emergency, &doctor, "proxy"));
        // Populated category, wrong grantee / wrong proxy / wrong category.
        policy.add_grant(Category::Emergency, doctor.clone(), "proxy");
        assert!(!policy.remove_grant(&Category::Emergency, &Identity::new("stranger"), "proxy"));
        assert!(!policy.remove_grant(&Category::Emergency, &doctor, "other-proxy"));
        assert!(!policy.remove_grant(&Category::FoodStatistics, &doctor, "proxy"));
        // The real grant survived every failed revocation.
        assert!(policy.is_granted(&Category::Emergency, &doctor));
        assert_eq!(policy.grant_count(), 1);
    }

    #[test]
    fn grants_are_scoped_to_proxies() {
        let mut policy = DisclosurePolicy::new();
        let doctor = Identity::new("doctor");
        policy.add_grant(Category::Emergency, doctor.clone(), "proxy-us");
        policy.add_grant(Category::Emergency, doctor.clone(), "proxy-eu");
        assert_eq!(policy.grant_count(), 2);
        // Removing through one proxy keeps the other grant.
        assert!(policy.remove_grant(&Category::Emergency, &doctor, "proxy-us"));
        assert!(policy.is_granted(&Category::Emergency, &doctor));
        let grants = policy.grants();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].proxy, "proxy-eu");
    }
}
