//! [`PerSub`]: a vector indexed by subflow that keeps up to two entries
//! inline.
//!
//! Almost every connection in this workspace has two subflows (WiFi + LTE),
//! and every piece of per-subflow state used to be its own two-element
//! `Vec`: a separate heap chunk, hence a separate cache line, first-touched
//! on each event of a connection that has fallen out of cache. In a
//! population run that was ~9 % of wall time and 80 bytes of `malloc` chunks
//! per recorded request (DESIGN.md §9, "Memory ledger"). `PerSub` holds the
//! one- and two-subflow shapes in place and spills to a `Vec` from the
//! third entry on, so the 4-subflow topology of Fig 15 still works.
//!
//! It dereferences to a slice; everything but construction (`push`,
//! `collect`, [`PerSub::from_elem`]) is the slice API.

use std::ops::{Deref, DerefMut};

/// One variant per inline length, so no filler value (and no `Default`
/// bound) is needed for the unused slot and `unsafe` stays forbidden.
/// `Heap` always holds at least three entries.
#[derive(Clone)]
enum Repr<T> {
    Zero,
    One([T; 1]),
    Two([T; 2]),
    Heap(Vec<T>),
}

/// A per-subflow vector: up to two entries inline, heap beyond.
#[derive(Clone)]
pub struct PerSub<T>(Repr<T>);

impl<T> PerSub<T> {
    /// An empty vector.
    pub const fn new() -> Self {
        PerSub(Repr::Zero)
    }

    /// `n` clones of `v`.
    pub fn from_elem(v: T, n: usize) -> Self
    where
        T: Clone,
    {
        std::iter::repeat_n(v, n).collect()
    }

    /// Append an entry; the third one moves the contents to the heap.
    pub fn push(&mut self, v: T) {
        self.0 = match std::mem::replace(&mut self.0, Repr::Zero) {
            Repr::Zero => Repr::One([v]),
            Repr::One([a]) => Repr::Two([a, v]),
            Repr::Two([a, b]) => Repr::Heap(vec![a, b, v]),
            Repr::Heap(mut h) => {
                h.push(v);
                Repr::Heap(h)
            }
        };
    }
}

impl<T> Deref for PerSub<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Zero => &[],
            Repr::One(a) => a,
            Repr::Two(a) => a,
            Repr::Heap(h) => h,
        }
    }
}

impl<T> DerefMut for PerSub<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Zero => &mut [],
            Repr::One(a) => a,
            Repr::Two(a) => a,
            Repr::Heap(h) => h,
        }
    }
}

impl<T> Default for PerSub<T> {
    fn default() -> Self {
        PerSub::new()
    }
}

impl<T> FromIterator<T> for PerSub<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = PerSub::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a PerSub<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut PerSub<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: PartialEq> PartialEq for PerSub<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PerSub<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_on_the_third_entry_and_stays_a_slice() {
        let mut v = PerSub::new();
        assert!(v.is_empty());
        for i in 0..5u64 {
            v.push(i);
            assert_eq!(v.len() as u64, i + 1);
            assert_eq!(matches!(v.0, Repr::Heap(_)), i >= 2);
        }
        assert_eq!(&*v, &[0, 1, 2, 3, 4]);
        v[1] = 9;
        assert_eq!(v.iter().sum::<u64>(), 18);
        assert_eq!(PerSub::from_elem(7u8, 2), [7u8, 7].into_iter().collect());
    }
}
