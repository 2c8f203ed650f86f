//! The bounded cache the wire boundary and both delegatee mask tiers share:
//! two generations, so an entry in use is never evicted by a flood of others.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// At most `CAP` entries, in two generations of at most `CAP / 2`: a full
/// `young` becomes `old`, dropping the previous `old`, and a hit in `old` is
/// promoted — so an entry in use survives any number of fresh ones.  A set
/// is the map with `()` values.
#[derive(Debug)]
pub struct Generations<K, V, const CAP: usize> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
}

impl<K, V, const CAP: usize> Default for Generations<K, V, CAP> {
    fn default() -> Self {
        Generations {
            young: HashMap::new(),
            old: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq, V: Clone, const CAP: usize> Generations<K, V, CAP> {
    /// The value under `key`, promoted to the young generation if it was old.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        if let Some(hit) = self.young.get(key) {
            return Some(hit.clone());
        }
        let (key, hit) = self.old.remove_entry(key)?;
        self.insert(key, hit.clone());
        Some(hit)
    }

    /// Inserts into the young generation, retiring it first if it is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.young.len() >= CAP / 2 {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key, value);
    }

    /// Entries held across both generations.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 8;

    #[test]
    fn bounded_and_never_evicts_an_entry_in_use() {
        let mut cache = Generations::<u32, (), CAP>::default();
        assert!(cache.is_empty());
        cache.insert(u32::MAX, ());
        for i in 0..=10 * CAP as u32 {
            cache.insert(i, ());
            assert!(cache.young.len() <= CAP / 2);
            assert!(cache.len() <= CAP);
            assert!(cache.get(&u32::MAX).is_some(), "evicted after {i}");
        }
        // Nobody looking it up: the same flood does evict it.
        let mut cache = Generations::<u32, (), CAP>::default();
        cache.insert(u32::MAX, ());
        for i in 0..=CAP as u32 {
            cache.insert(i, ());
        }
        assert!(cache.get(&u32::MAX).is_none());
    }
}
