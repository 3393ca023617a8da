//! A small ordered map stored as one sorted `Vec<(K, V)>`.
//!
//! The per-session maps of the service (a session's streams, a playout
//! engine's streams, a client's in-flight requests) hold a handful of
//! entries each and live as long as the session does. A `BTreeMap` leaf
//! reserves eleven slots and keeps its empty root after the last `remove`,
//! so at two entries most of its allocation is slack. [`VecMap`] holds what
//! it contains: lookups are binary searches, and iteration is in key order,
//! exactly as a `BTreeMap`'s, so swapping one for the other changes no
//! output.
//!
//! Inserting a key in the middle shifts the entries after it, so the type
//! suits maps of a few dozen entries, or larger ones filled in key order.
//! It carries the `BTreeMap` subset the workspace uses.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;

/// An ordered map stored as a `Vec` of `(key, value)` pairs sorted by key,
/// each key at most once.
#[derive(Clone, PartialEq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> VecMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// An empty map with room for exactly `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        VecMap {
            entries: Vec::with_capacity(n),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Make room for exactly `additional` more entries (no rounding up).
    pub fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Give back the room no entry uses; an empty map frees its storage.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Remove every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.entries.iter())
    }

    /// Entries in key order, values mutable.
    pub fn iter_mut(&mut self) -> IterMut<'_, K, V> {
        IterMut(self.entries.iter_mut())
    }

    /// Keys in order.
    pub fn keys(&self) -> Keys<'_, K, V> {
        Keys(self.entries.iter())
    }

    /// Values in key order.
    pub fn values(&self) -> Values<'_, K, V> {
        Values(self.entries.iter())
    }

    /// Values in key order, mutable.
    pub fn values_mut(&mut self) -> ValuesMut<'_, K, V> {
        ValuesMut(self.entries.iter_mut())
    }

    /// Keep only the entries for which `keep` returns true, visiting them
    /// in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Index of `key`, or where it would be inserted.
    fn search<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.search(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// The value stored under `key`, mutable.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.search(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// True when `key` has an entry.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.search(key).is_ok()
    }

    /// Store `value` under `key`, returning the value it replaces. A key
    /// above every stored one is appended without shifting.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`'s entry, returning its value. The storage is kept, as
    /// a `BTreeMap` keeps its root: [`shrink_to_fit`](Self::shrink_to_fit)
    /// gives it back.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let i = self.search(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// `key`'s slot, filled or not, for in-place update or insertion.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let slot = self.search(&key);
        Entry {
            entries: &mut self.entries,
            slot,
            key,
        }
    }
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    /// Formats as a `BTreeMap` with the same entries does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, Q, V> Index<&Q> for VecMap<K, V>
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    type Output = V;

    /// The value under `key`.
    ///
    /// # Panics
    ///
    /// When the map has no entry for `key`, as `BTreeMap` does.
    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// A slot of a [`VecMap`], from [`VecMap::entry`].
pub struct Entry<'a, K, V> {
    entries: &'a mut Vec<(K, V)>,
    /// `Ok(index)` of the stored entry, or `Err(index)` to insert at.
    slot: Result<usize, usize>,
    key: K,
}

impl<'a, K, V> Entry<'a, K, V> {
    /// The stored value, inserting `value` first if there is none.
    pub fn or_insert(self, value: V) -> &'a mut V {
        self.or_insert_with(|| value)
    }

    /// The stored value, inserting `V::default()` first if there is none.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (self.key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }
}

/// Iterator over a [`VecMap`]'s entries in key order.
pub struct Iter<'a, K, V>(std::slice::Iter<'a, (K, V)>);

/// Iterator over a [`VecMap`]'s entries in key order, values mutable.
pub struct IterMut<'a, K, V>(std::slice::IterMut<'a, (K, V)>);

/// Iterator over a [`VecMap`]'s keys in order.
pub struct Keys<'a, K, V>(std::slice::Iter<'a, (K, V)>);

/// Iterator over a [`VecMap`]'s values in key order.
pub struct Values<'a, K, V>(std::slice::Iter<'a, (K, V)>);

/// Iterator over a [`VecMap`]'s values in key order, mutable.
pub struct ValuesMut<'a, K, V>(std::slice::IterMut<'a, (K, V)>);

/// Implements the iterator traits for one of the named iterators above, its
/// items made from each stored pair by `$map`.
macro_rules! pair_iter {
    ($name:ident, $item:ty, $map:expr) => {
        impl<'a, K, V> Iterator for $name<'a, K, V> {
            type Item = $item;
            fn next(&mut self) -> Option<$item> {
                self.0.next().map($map)
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                self.0.size_hint()
            }
        }
    };
}

pair_iter!(Iter, (&'a K, &'a V), |(k, v)| (k, v));
pair_iter!(IterMut, (&'a K, &'a mut V), |(k, v)| (&*k, v));
pair_iter!(Keys, &'a K, |(k, _)| k);
pair_iter!(Values, &'a V, |(_, v)| v);
pair_iter!(ValuesMut, &'a mut V, |(_, v)| v);

/// Clones without `K: Clone` or `V: Clone`.
impl<K, V> Clone for Values<'_, K, V> {
    fn clone(&self) -> Self {
        Values(self.0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn remove_of_the_last_entry_leaves_an_empty_map() {
        let mut m = VecMap::new();
        m.insert(3u32, "c");
        m.insert(1, "a");
        assert_eq!(m.remove(&3), Some("c"));
        assert_eq!(m.remove(&3), None);
        assert_eq!(m.remove(&1), Some("a"));
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.iter().next(), None);
        assert_eq!(m.get(&1), None);
        // The storage stays for the next insert, until it is given back.
        assert!(m.entries.capacity() > 0);
        m.shrink_to_fit();
        assert_eq!(m.entries.capacity(), 0);
        m.insert(2, "b");
        assert_eq!(m.iter().collect::<Vec<_>>(), [(&2, &"b")]);
    }

    #[test]
    fn insert_on_a_stored_key_replaces_its_value_in_place() {
        let mut m = VecMap::with_capacity(2);
        assert_eq!(m.insert(5u32, 50), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(5, 55), Some(50));
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.entries.capacity(),
            2,
            "a replace does not grow the storage"
        );
        assert_eq!(m[&5], 55);
        assert_eq!(m.iter().collect::<Vec<_>>(), [(&2, &20), (&5, &55)]);
    }

    #[test]
    fn debug_output_matches_a_btreemap() {
        let (mut v, mut b) = (VecMap::new(), BTreeMap::new());
        for (k, x) in [(2u8, 'b'), (1, 'a')] {
            v.insert(k, x);
            b.insert(k, x);
        }
        assert_eq!(format!("{v:?}"), format!("{b:?}"));
    }

    /// One step applied to both maps.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u32),
        Remove(u8),
        Entry(u8, u32),
        Retain(u8),
        GetMut(u8, u32),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..24, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..24).prop_map(Op::Remove),
            (0u8..24, any::<u32>()).prop_map(|(k, v)| Op::Entry(k, v)),
            (1u8..5).prop_map(Op::Retain),
            (0u8..24, any::<u32>()).prop_map(|(k, v)| Op::GetMut(k, v)),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `BTreeMap` is the spec: after every step, both maps answer
        /// `len`, `get` and ordered iteration alike, and each step returns
        /// what the spec's returns.
        #[test]
        fn vecmap_agrees_with_btreemap(ops in proptest::collection::vec(op(), 0..96)) {
            let mut fast: VecMap<u8, u32> = VecMap::new();
            let mut spec: BTreeMap<u8, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(fast.insert(k, v), spec.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(fast.remove(&k), spec.remove(&k)),
                    Op::Entry(k, v) => {
                        *fast.entry(k).or_insert(v) += 1;
                        *spec.entry(k).or_insert(v) += 1;
                        *fast.entry(k.wrapping_add(1)).or_default() ^= v;
                        *spec.entry(k.wrapping_add(1)).or_default() ^= v;
                    }
                    Op::Retain(m) => {
                        let keep = |k: &u8, v: &mut u32| {
                            *v = v.wrapping_mul(3);
                            !k.is_multiple_of(m)
                        };
                        fast.retain(keep);
                        spec.retain(keep);
                    }
                    Op::GetMut(k, v) => {
                        if let Some(x) = fast.get_mut(&k) {
                            *x = v;
                        }
                        if let Some(x) = spec.get_mut(&k) {
                            *x = v;
                        }
                    }
                    Op::Clear if fast.len() > 12 => {
                        fast.clear();
                        spec.clear();
                    }
                    Op::Clear => {}
                }
                prop_assert_eq!(fast.len(), spec.len());
                prop_assert!(fast.iter().eq(spec.iter()));
                prop_assert!(fast.keys().eq(spec.keys()));
                prop_assert!(fast.values().eq(spec.values()));
                for k in 0u8..=25 {
                    prop_assert_eq!(fast.get(&k), spec.get(&k));
                    prop_assert_eq!(fast.contains_key(&k), spec.contains_key(&k));
                }
            }
        }
    }
}
