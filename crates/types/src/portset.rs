//! Compact bitsets over switch ports.
//!
//! A multicast cell's destination set ("fanout set") is the central data
//! object of the paper: the whole point of the address-cell/data-cell queue
//! structure is to avoid one queue per possible destination set (there are
//! `2^N - 1` of them). We represent a destination set as a bitset with two
//! inline 64-bit words — enough for switches up to 128×128 with zero heap
//! traffic — spilling to a heap vector only for larger research
//! configurations.

use core::fmt;

use crate::PortId;

const INLINE_WORDS: usize = 2;


#[derive(Clone, Debug)]
enum Repr {
    /// Ports 0..128 as a fixed pair of words.
    Inline([u64; INLINE_WORDS]),
    /// Arbitrarily many ports; invariant: `len >= INLINE_WORDS` and the
    /// vector never shrinks (absent high words are treated as zero when
    /// comparing, so we normalise on mutation instead — see `normalise`).
    Heap(Vec<u64>),
}

/// A set of port indices, stored as a bitset.
///
/// `PortSet` does not record the switch size `N`; it is simply a set of
/// small integers. Operations that need the universe (like
/// [`PortSet::complement`]) take `N` explicitly.
///
/// # Examples
///
/// ```
/// use fifoms_types::{PortId, PortSet};
///
/// let mut dests = PortSet::new();
/// dests.insert(PortId(0));
/// dests.insert(PortId(5));
/// assert_eq!(dests.len(), 2);
/// assert!(dests.contains(PortId(5)));
/// assert_eq!(dests.iter().map(|p| p.index()).collect::<Vec<_>>(), vec![0, 5]);
/// ```
#[derive(Clone)]
pub struct PortSet {
    repr: Repr,
}

impl PartialEq for PortSet {
    /// Content equality: trailing zero words are insignificant, so a set
    /// that spilled to the heap and had its high ports removed again still
    /// equals its inline twin.
    fn eq(&self, other: &PortSet) -> bool {
        let (a, b) = (self.words(), other.words());
        let common = a.len().min(b.len());
        a[..common] == b[..common]
            && a[common..].iter().all(|&w| w == 0)
            && b[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for PortSet {}

impl core::hash::Hash for PortSet {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        // Hash only up to the last nonzero word so equal sets hash equally.
        let words = self.words();
        let significant = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        words[..significant].hash(state);
    }
}

impl Default for PortSet {
    fn default() -> Self {
        PortSet::new()
    }
}

impl PortSet {
    /// The empty set.
    #[inline]
    pub fn new() -> PortSet {
        PortSet {
            repr: Repr::Inline([0; INLINE_WORDS]),
        }
    }

    /// A set containing exactly one port.
    #[inline]
    pub fn singleton(port: PortId) -> PortSet {
        let mut s = PortSet::new();
        s.insert(port);
        s
    }

    /// An empty set that holds ports `0..n` without reallocating. Above
    /// the inline limit the words are allocated here, up front, so a
    /// scratch set sized once never touches the heap again.
    pub fn with_capacity(n: usize) -> PortSet {
        let mut s = PortSet::new();
        if n > 0 {
            s.words_mut_with((n - 1) / 64);
        }
        s
    }

    /// The set `{0, 1, ..., n-1}`.
    pub fn all(n: usize) -> PortSet {
        let mut s = PortSet::new();
        s.fill(n);
        s
    }

    /// Make this set `{0, 1, ..., n-1}` in place, reusing its storage.
    #[inline]
    pub fn fill(&mut self, n: usize) {
        self.clear();
        if n == 0 {
            return;
        }
        let words = self.words_mut_with((n - 1) / 64);
        let (full, rest) = (n / 64, n % 64);
        for w in &mut words[..full] {
            *w = u64::MAX;
        }
        if rest > 0 {
            words[full] = (1 << rest) - 1;
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(v) => v,
        }
    }

    /// Ensure word `idx` exists and return mutable access to all words.
    #[inline]
    fn words_mut_with(&mut self, idx: usize) -> &mut [u64] {
        if idx >= self.words().len() {
            self.grow(idx + 1);
        }
        match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(v) => v,
        }
    }

    /// Widen the set to `needed` words, spilling to the heap. Kept out of
    /// line so the word operations inline to their no-growth fast path.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, needed: usize) {
        match &mut self.repr {
            Repr::Inline(w) => {
                let mut v = vec![0u64; needed.max(INLINE_WORDS)];
                v[..INLINE_WORDS].copy_from_slice(w);
                self.repr = Repr::Heap(v);
            }
            Repr::Heap(v) => v.resize(needed.max(v.len()), 0),
        }
    }

    /// Insert a port; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, port: PortId) -> bool {
        let (w, b) = (port.index() / 64, port.index() % 64);
        let words = self.words_mut_with(w);
        let newly = words[w] & (1 << b) == 0;
        words[w] |= 1 << b;
        newly
    }

    /// Remove every port, keeping any heap capacity for reuse (so a set
    /// that is cleared and refilled every slot stays allocation-free).
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(ws) => *ws = [0; INLINE_WORDS],
            Repr::Heap(v) => v.iter_mut().for_each(|w| *w = 0),
        }
    }

    /// Remove a port; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, port: PortId) -> bool {
        let (w, b) = (port.index() / 64, port.index() % 64);
        let words = match &mut self.repr {
            Repr::Inline(ws) => &mut ws[..],
            Repr::Heap(v) => &mut v[..],
        };
        if w >= words.len() {
            return false;
        }
        let present = words[w] & (1 << b) != 0;
        words[w] &= !(1 << b);
        present
    }

    /// Whether `port` is in the set.
    #[inline]
    pub fn contains(&self, port: PortId) -> bool {
        let (w, b) = (port.index() / 64, port.index() % 64);
        self.words().get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of ports in the set (the packet's *fanout* when this is a
    /// destination set).
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The smallest port in the set, if any.
    #[inline]
    pub fn first(&self) -> Option<PortId> {
        for (i, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(PortId::new(i * 64 + w.trailing_zeros() as usize));
            }
        }
        None
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &PortSet) {
        let olen = other.words().len();
        if olen > 0 {
            let words = self.words_mut_with(olen - 1);
            // Copy out to avoid aliasing issues: other may be self? Rust
            // borrow rules forbid that call pattern, so direct loop is fine.
            for (i, &ow) in other.words().iter().enumerate() {
                words[i] |= ow;
            }
        }
    }

    /// In-place intersection.
    #[inline]
    pub fn intersect_with(&mut self, other: &PortSet) {
        let ow = other.words();
        let words = match &mut self.repr {
            Repr::Inline(ws) => &mut ws[..],
            Repr::Heap(v) => &mut v[..],
        };
        for (i, w) in words.iter_mut().enumerate() {
            *w &= ow.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place set difference (`self \ other`).
    #[inline]
    pub fn difference_with(&mut self, other: &PortSet) {
        let ow = other.words();
        let words = match &mut self.repr {
            Repr::Inline(ws) => &mut ws[..],
            Repr::Heap(v) => &mut v[..],
        };
        for (i, w) in words.iter_mut().enumerate() {
            *w &= !ow.get(i).copied().unwrap_or(0);
        }
    }

    /// Union, by value.
    pub fn union(&self, other: &PortSet) -> PortSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Intersection, by value.
    pub fn intersect(&self, other: &PortSet) -> PortSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Set difference `self \ other`, by value.
    pub fn difference(&self, other: &PortSet) -> PortSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Whether the two sets share any port.
    pub fn intersects(&self, other: &PortSet) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether every port of `self` is in `other`.
    pub fn is_subset_of(&self, other: &PortSet) -> bool {
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words().get(i).copied().unwrap_or(0) == 0)
    }

    /// The complement within the universe `{0..n}`.
    pub fn complement(&self, n: usize) -> PortSet {
        let mut out = PortSet::new();
        for i in 0..n {
            let p = PortId::new(i);
            if !self.contains(p) {
                out.insert(p);
            }
        }
        out
    }

    /// Remove and return the smallest port, if any.
    pub fn pop_first(&mut self) -> Option<PortId> {
        let p = self.first()?;
        self.remove(p);
        Some(p)
    }

    /// Iterate ports in ascending order.
    #[inline]
    pub fn iter(&self) -> PortSetIter<'_> {
        PortSetIter {
            words: self.words(),
            word_idx: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }
}

impl FromIterator<usize> for PortSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = PortSet::new();
        for p in iter {
            s.insert(PortId::new(p));
        }
        s
    }
}

impl FromIterator<PortId> for PortSet {
    fn from_iter<T: IntoIterator<Item = PortId>>(iter: T) -> Self {
        let mut s = PortSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl<'a> IntoIterator for &'a PortSet {
    type Item = PortId;
    type IntoIter = PortSetIter<'a>;
    fn into_iter(self) -> PortSetIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|p| p.index())).finish()
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", p.index())?;
        }
        write!(f, "}}")
    }
}

/// Ascending-order iterator over the ports of a [`PortSet`].
pub struct PortSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for PortSetIter<'_> {
    type Item = PortId;

    #[inline]
    fn next(&mut self) -> Option<PortId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(PortId::new(self.word_idx * 64 + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.current.count_ones() as usize
            + self.words[(self.word_idx + 1).min(self.words.len())..]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PortSetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_set_properties() {
        let s = PortSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.first(), None);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(format!("{s}"), "{}");
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = PortSet::new();
        assert!(s.insert(PortId(3)));
        assert!(!s.insert(PortId(3)));
        assert!(s.contains(PortId(3)));
        assert!(!s.contains(PortId(4)));
        assert!(s.remove(PortId(3)));
        assert!(!s.remove(PortId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn singleton_and_all() {
        let s = PortSet::singleton(PortId(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.first(), Some(PortId(7)));
        let a = PortSet::all(16);
        assert_eq!(a.len(), 16);
        assert!(a.contains(PortId(0)));
        assert!(a.contains(PortId(15)));
        assert!(!a.contains(PortId(16)));
    }

    #[test]
    fn clear_empties_inline_and_heap_sets() {
        let mut inline = PortSet::all(16);
        inline.clear();
        assert!(inline.is_empty());
        assert_eq!(inline, PortSet::new());
        let mut spilled = PortSet::singleton(PortId(200));
        spilled.insert(PortId(3));
        spilled.clear();
        assert!(spilled.is_empty());
        assert_eq!(spilled, PortSet::new());
        spilled.insert(PortId(200)); // refill reuses the spilled words
        assert_eq!(spilled.len(), 1);
    }

    #[test]
    fn with_capacity_is_empty_and_fills_in_place() {
        for n in [0usize, 1, 64, 70, 128, 129, 200, 256] {
            let mut s = PortSet::with_capacity(n);
            assert!(s.is_empty());
            assert_eq!(s, PortSet::new());
            s.fill(n);
            assert_eq!(s.len(), n);
            assert_eq!(s, (0..n).collect::<PortSet>());
            assert_eq!(s, PortSet::all(n));
            // Refilling a smaller universe clears the high ports.
            s.fill(n / 2);
            assert_eq!(s, (0..n / 2).collect::<PortSet>());
        }
    }

    #[test]
    fn heap_spill_beyond_128() {
        let mut s = PortSet::new();
        s.insert(PortId(5));
        s.insert(PortId(300));
        assert!(s.contains(PortId(5)));
        assert!(s.contains(PortId(300)));
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.iter().map(|p| p.index()).collect::<Vec<_>>(),
            vec![5, 300]
        );
        assert!(s.remove(PortId(300)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn inline_heap_mixed_ops() {
        // inline set vs heap set interop in all binary operations
        let small: PortSet = [1usize, 2, 3].into_iter().collect();
        let big: PortSet = [2usize, 200].into_iter().collect();
        assert_eq!(small.union(&big).len(), 4);
        assert_eq!(small.intersect(&big).len(), 1);
        assert_eq!(small.difference(&big).len(), 2);
        assert_eq!(big.difference(&small).len(), 1);
        assert!(small.intersects(&big));
        assert!(!small.is_subset_of(&big));
        assert!(PortSet::singleton(PortId(2)).is_subset_of(&big));
        // heap on the left, inline on the right
        let mut h = big.clone();
        h.intersect_with(&small);
        assert_eq!(h, PortSet::singleton(PortId(2)));
    }

    #[test]
    fn complement_within_universe() {
        let s: PortSet = [0usize, 2].into_iter().collect();
        let c = s.complement(4);
        assert_eq!(c, [1usize, 3].into_iter().collect());
        assert!(s.union(&c).len() == 4);
        assert!(!s.intersects(&c));
    }

    #[test]
    fn pop_first_drains_in_order() {
        let mut s: PortSet = [9usize, 1, 64, 5].into_iter().collect();
        let mut out = vec![];
        while let Some(p) = s.pop_first() {
            out.push(p.index());
        }
        assert_eq!(out, vec![1, 5, 9, 64]);
    }

    #[test]
    fn display_and_debug() {
        let s: PortSet = [2usize, 0].into_iter().collect();
        assert_eq!(format!("{s}"), "{0,2}");
        assert_eq!(format!("{s:?}"), "{0, 2}");
    }

    #[test]
    fn equality_across_reprs() {
        // A heap set whose high ports were removed again must equal (and hash
        // like) its inline twin: equality is by content, not representation.
        let mut a = PortSet::new();
        a.insert(PortId(1));
        a.insert(PortId(300)); // spills to heap
        a.remove(PortId(300));
        let b = PortSet::singleton(PortId(1));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &PortSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn exact_size_iterator() {
        let s: PortSet = [0usize, 63, 64, 127].into_iter().collect();
        let it = s.iter();
        assert_eq!(it.len(), 4);
        let mut it = s.iter();
        it.next();
        assert_eq!(it.len(), 3);
    }

    /// Reference-model strategy: arbitrary small sets of ports < 200 so we
    /// exercise both the inline and heap representations.
    fn ports() -> impl Strategy<Value = BTreeSet<usize>> {
        proptest::collection::btree_set(0usize..200, 0..32)
    }

    fn to_portset(m: &BTreeSet<usize>) -> PortSet {
        m.iter().copied().collect()
    }

    proptest! {
        #[test]
        fn prop_matches_btreeset_membership(model in ports(), probe in 0usize..220) {
            let s = to_portset(&model);
            prop_assert_eq!(s.contains(PortId::new(probe)), model.contains(&probe));
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(s.is_empty(), model.is_empty());
            prop_assert_eq!(s.first().map(|p| p.index()), model.first().copied());
        }

        #[test]
        fn prop_iteration_is_sorted_and_complete(model in ports()) {
            let s = to_portset(&model);
            let got: Vec<usize> = s.iter().map(|p| p.index()).collect();
            let want: Vec<usize> = model.iter().copied().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_binary_ops_match_model(a in ports(), b in ports()) {
            let (sa, sb) = (to_portset(&a), to_portset(&b));
            let union: BTreeSet<_> = a.union(&b).copied().collect();
            let inter: BTreeSet<_> = a.intersection(&b).copied().collect();
            let diff: BTreeSet<_> = a.difference(&b).copied().collect();
            prop_assert_eq!(sa.union(&sb), to_portset(&union));
            prop_assert_eq!(sa.intersect(&sb), to_portset(&inter));
            prop_assert_eq!(sa.difference(&sb), to_portset(&diff));
            prop_assert_eq!(sa.intersects(&sb), !inter.is_empty());
            prop_assert_eq!(sa.is_subset_of(&sb), a.is_subset(&b));
        }

        #[test]
        fn prop_insert_remove_round_trip(model in ports(), p in 0usize..220) {
            let mut s = to_portset(&model);
            let newly = s.insert(PortId::new(p));
            prop_assert_eq!(newly, !model.contains(&p));
            prop_assert!(s.contains(PortId::new(p)));
            let removed = s.remove(PortId::new(p));
            prop_assert!(removed);
            prop_assert_eq!(s.len(), model.len() - usize::from(model.contains(&p)));
        }

        #[test]
        fn prop_complement_partitions_universe(model in ports()) {
            let s = to_portset(&model);
            let c = s.complement(200);
            prop_assert!(!s.intersects(&c));
            prop_assert_eq!(s.union(&c).len(), 200 - model.iter().filter(|&&p| p >= 200).count());
        }
    }
}
