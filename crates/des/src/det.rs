//! # Deterministic containers — `DetMap` and `DetSet`
//!
//! `std::collections::HashMap` iterates in hash order, and hash order is
//! salted per-instance (`RandomState`): two maps holding the same entries
//! visit them in different orders, within one process and across runs. Any
//! simulation-visible code that iterates a hash map therefore leaks host
//! entropy into event order, float-accumulation order, and ultimately the
//! exported metrics — breaking the engine's core promise that runs are
//! byte-identical across executor thread counts and seeds (DESIGN.md §4.10,
//! rule R1; enforced by clippy's `disallowed_types`, see `clippy.toml`).
//!
//! ## Iteration-order contract
//!
//! `DetMap` (and `DetSet`, its keys-only wrapper) iterate in **insertion
//! order**, with one carve-out for removal: `remove` back-fills the vacated
//! slot with the entry from the *last* position (swap-remove, O(1)).
//! Re-inserting an existing key updates the value **in place** and keeps its
//! position. The visit order is thus a pure function of the sequence of
//! `insert`/`remove` calls — identical across runs, platforms, hash seeds,
//! and thread counts — and never a function of key hashes.
//!
//! Lookups stay O(1): an internal hash index maps keys to slot positions,
//! and that index is *never iterated* — iteration always walks the dense
//! slot vector.

#[expect(
    clippy::disallowed_types,
    reason = "the index is only probed by key, never iterated; iteration walks `slots`"
)]
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Index;

/// Insertion-ordered map with O(1) hashed lookups and deterministic
/// iteration (see the module docs for the exact order contract).
#[derive(Clone)]
pub struct DetMap<K, V> {
    /// Dense entry storage in deterministic order; the only thing iterated.
    slots: Vec<(K, V)>,
    /// Key → position in `slots`. Probed by key only.
    #[expect(clippy::disallowed_types, reason = "never iterated")]
    index: HashMap<K, usize>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            slots: Vec::new(),
            #[expect(clippy::disallowed_types, reason = "never iterated")]
            index: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V> DetMap<K, V> {
    pub fn new() -> Self {
        DetMap::default()
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Insert `value` under `key`. An existing key keeps its iteration
    /// position and the old value is returned; a new key appends at the end.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.get(&key) {
            Some(&i) => Some(std::mem::replace(&mut self.slots[i].1, value)),
            None => {
                self.index.insert(key.clone(), self.slots.len());
                self.slots.push((key, value));
                None
            }
        }
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&i| &self.slots[i].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.index.get(key) {
            Some(&i) => Some(&mut self.slots[i].1),
            None => None,
        }
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Remove `key`, back-filling its slot with the last entry (swap-remove,
    /// O(1)). The resulting order is still a pure function of the operation
    /// sequence.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        let (_, value) = self.slots.swap_remove(i);
        if let Some((moved, _)) = self.slots.get(i) {
            self.index.insert(moved.clone(), i);
        }
        Some(value)
    }

    /// Minimal entry API: `entry(k).or_insert(v)` / `.or_default()` /
    /// `.or_insert_with(f)`, mirroring the `std` idiom at the call sites the
    /// engine actually uses.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }

    /// Entries in deterministic order (module docs).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().map(|(k, v)| (k, v))
    }

    /// Entries in deterministic order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots.iter_mut().map(|(k, v)| (&*k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.slots.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().map(|(_, v)| v)
    }

    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
    }
}

/// A vacant-or-occupied handle from [`DetMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
}

impl<'a, K: Eq + Hash + Clone, V> Entry<'a, K, V> {
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.map.index.get(&self.key) {
            Some(&i) => i,
            None => {
                let i = self.map.slots.len();
                self.map.index.insert(self.key.clone(), i);
                self.map.slots.push((self.key, default()));
                i
            }
        };
        &mut self.map.slots[i].1
    }

    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

impl<K: Eq + Hash + Clone, V> Index<&K> for DetMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("DetMap: no entry for key")
    }
}

impl<K: Eq + Hash + Clone, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = DetMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Consume the map, yielding entries in the deterministic order.
    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter()
    }
}

/// Insertion-ordered set: [`DetMap`] keys with unit values; the same
/// iteration-order contract applies.
#[derive(Clone)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T> Default for DetSet<T> {
    fn default() -> Self {
        DetSet {
            map: DetMap::default(),
        }
    }
}

impl<T: Eq + Hash + Clone> DetSet<T> {
    pub fn new() -> Self {
        DetSet { map: DetMap::new() }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Insert `value`; `true` when it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }

    /// Remove `value` (swap-remove order carve-out, as in [`DetMap`]);
    /// `true` when it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }

    pub fn clear(&mut self) {
        self.map.clear()
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = DetSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_preserved() {
        let mut m = DetMap::new();
        for k in [30u32, 10, 20, 5] {
            m.insert(k, k * 2);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![30, 10, 20, 5]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![60, 20, 40, 10]);
    }

    #[test]
    fn reinsert_keeps_position_and_returns_old() {
        let mut m = DetMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.insert("a", 10), Some(1));
        let entries: Vec<(&str, i32)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(entries, vec![("a", 10), ("b", 2)]);
    }

    #[test]
    fn remove_swaps_in_last_entry() {
        let mut m = DetMap::new();
        for k in 0..4 {
            m.insert(k, k);
        }
        assert_eq!(m.remove(&1), Some(1));
        let keys: Vec<i32> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 3, 2], "last entry back-fills the hole");
        // Lookups still work after the swap.
        assert_eq!(m.get(&3), Some(&3));
        assert_eq!(m.get(&2), Some(&2));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn entry_api_matches_std_idiom() {
        let mut m: DetMap<u32, f64> = DetMap::new();
        *m.entry(7).or_insert(0.0) += 1.5;
        *m.entry(7).or_insert(0.0) += 1.5;
        assert_eq!(m.get(&7), Some(&3.0));
        let mut m2: DetMap<u32, Vec<u32>> = DetMap::new();
        m2.entry(1).or_default().push(9);
        assert_eq!(m2.get(&1), Some(&vec![9]));
        *m.entry(8).or_insert_with(|| 40.0) += 2.0;
        assert_eq!(m.get(&8), Some(&42.0));
    }

    #[test]
    fn order_is_a_pure_function_of_operations() {
        // Two maps fed the same operation sequence iterate identically, even
        // though their internal hash indices are salted differently.
        let ops: Vec<(bool, u64)> = vec![
            (true, 3),
            (true, 11),
            (true, 7),
            (false, 11),
            (true, 19),
            (true, 11),
            (false, 3),
        ];
        let build = || {
            let mut m = DetMap::new();
            for &(ins, k) in &ops {
                if ins {
                    m.insert(k, k as f64);
                } else {
                    m.remove(&k);
                }
            }
            m.keys().copied().collect::<Vec<u64>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn index_and_from_iterator() {
        let m: DetMap<u8, &str> = [(2, "two"), (1, "one")].into_iter().collect();
        assert_eq!(m[&2], "two");
        let keys: Vec<u8> = m.keys().copied().collect();
        assert_eq!(keys, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "no entry for key")]
    fn index_missing_panics() {
        let m: DetMap<u8, u8> = DetMap::new();
        let _ = m[&0];
    }

    #[test]
    fn set_basics() {
        let mut s = DetSet::new();
        assert!(s.insert("x"));
        assert!(!s.insert("x"), "duplicate insert reports absence");
        assert!(s.insert("y"));
        assert!(s.contains(&"x"));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec!["x", "y"]);
        assert!(s.remove(&"x"));
        assert!(!s.remove(&"x"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn into_iter_follows_slot_order() {
        let mut m = DetMap::new();
        m.insert(2, 'b');
        m.insert(1, 'a');
        let pairs: Vec<(i32, char)> = m.into_iter().collect();
        assert_eq!(pairs, vec![(2, 'b'), (1, 'a')]);
    }
}
