//! A fixed-size bit set for activity tracking.

/// A set of indices below a fixed bound, stored as 64-bit words.
///
/// The simulator keeps one per group of like components (ports, banks,
/// networks, PEs) to remember which of them have work. Loops then visit
/// only the members, in ascending index order, so any arbitration that
/// depends on the visiting order is unchanged, and a group with no work
/// costs one word test per 64 components.
///
/// # Example
///
/// ```
/// use simkit::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(70);
/// s.insert(3);
/// assert_eq!(s.next_from(0), Some(3));
/// assert_eq!(s.next_from(4), Some(70));
/// s.remove(70);
/// assert_eq!(s.next_from(4), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Box<[u64]>,
    bound: usize,
}

impl BitSet {
    /// An empty set of indices below `bound`.
    pub fn new(bound: usize) -> Self {
        BitSet {
            words: vec![0; bound.div_ceil(64)].into_boxed_slice(),
            bound,
        }
    }

    /// The set of every index below `bound`.
    pub fn full(bound: usize) -> Self {
        let mut s = Self::new(bound);
        for (w, word) in s.words.iter_mut().enumerate() {
            let left = bound - w * 64;
            *word = if left >= 64 {
                u64::MAX
            } else {
                (1 << left) - 1
            };
        }
        s
    }

    /// Adds `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the bound.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.bound, "index {i} out of bounds");
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Removes `i` (a no-op when absent).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// `true` when the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of 64-bit words backing the set.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Word `w` of the set: bit `b` is member `64 * w + b`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// The smallest member at or above `from`. Looping on
    /// `next_from(i + 1)` visits members in ascending order while the
    /// body mutates the set: members added above the current one are
    /// still visited, members removed before they are reached are not.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        if w >= self.words.len() {
            return None;
        }
        let mut bits = self.words[w] & (u64::MAX << (from & 63));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == self.words.len() {
                return None;
            }
            bits = self.words[w];
        }
    }
}

/// Runs `body` once per member of a [`BitSet`], in ascending order, with
/// the member bound to `i`:
///
/// ```
/// # use simkit::{for_each_member, BitSet};
/// let mut set = BitSet::new(8);
/// set.insert(2);
/// set.insert(5);
/// let mut seen = Vec::new();
/// for_each_member!(set, i => {
///     set.remove(i);
///     seen.push(i);
/// });
/// assert_eq!(seen, vec![2, 5]);
/// assert!(set.is_empty());
/// ```
///
/// Each 64-member word is read once, when the walk reaches it, so the body
/// may mutate the set (removing the current member is the common case)
/// and anything else it can reach. Changes to the word being walked are
/// not seen; use [`BitSet::next_from`] when members added above the
/// current one must be visited in the same walk.
#[macro_export]
macro_rules! for_each_member {
    ($set:expr, $i:ident => $body:block) => {
        for w in 0..$set.num_words() {
            let mut bits = $set.word(w);
            while bits != 0 {
                let $i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sets_exactly_the_bound() {
        for bound in [0, 1, 63, 64, 65, 130] {
            let s = BitSet::full(bound);
            let mut members = Vec::new();
            for_each_member!(s, i => {
                members.push(i);
            });
            assert_eq!(members, (0..bound).collect::<Vec<_>>(), "bound {bound}");
        }
    }

    #[test]
    fn next_from_crosses_words_and_sees_later_inserts() {
        let mut s = BitSet::new(200);
        s.insert(5);
        s.insert(190);
        let mut seen = Vec::new();
        let mut next = 0;
        while let Some(i) = s.next_from(next) {
            next = i + 1;
            seen.push(i);
            if i == 5 {
                s.insert(64); // above the cursor: visited
                s.insert(2); // below the cursor: not visited
                s.remove(190); // removed before reached: not visited
            }
        }
        assert_eq!(seen, vec![5, 64]);
        s.clear();
        assert!(s.is_empty());
    }
}
