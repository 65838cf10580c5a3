//! A set of core indices as a bitset, walked in ascending core order.
//!
//! The event-driven stepper keeps the cores that can act this cycle in
//! such sets (cores not parked on a load miss; cores with stores in
//! their persist machinery), so a cycle visits only those cores — and
//! still in index order, which the reference stepper's shared-resource
//! arbitration depends on.

/// An ordered set of core indices.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoreSet {
    words: Vec<u64>,
}

impl CoreSet {
    /// An empty set able to hold cores `0..n`.
    pub(crate) fn new(n: usize) -> CoreSet {
        CoreSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, ci: usize) {
        self.words[ci / 64] |= 1 << (ci % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, ci: usize) {
        self.words[ci / 64] &= !(1 << (ci % 64));
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> Members<'_> {
        Members {
            words: &self.words,
            w: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member `>= from`. Walking `first_from(0)`,
    /// `first_from(c + 1)`, … visits members in ascending order and
    /// sees every change made to members above the current one.
    #[inline]
    pub(crate) fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

/// Iterator over a [`CoreSet`]'s members, ascending.
pub(crate) struct Members<'a> {
    words: &'a [u64],
    w: usize,
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.w * 64 + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_members_in_order_across_words() {
        let mut s = CoreSet::new(130);
        for ci in [129, 0, 64, 63, 5] {
            s.insert(ci);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 129]);
        let mut walked = Vec::new();
        let mut next = s.first_from(0);
        while let Some(ci) = next {
            walked.push(ci);
            next = s.first_from(ci + 1);
        }
        assert_eq!(walked, vec![0, 5, 63, 64, 129]);
        s.remove(63);
        assert_eq!(s.first_from(6), Some(64));
        assert_eq!(s.first_from(130), None);
        s.clear();
        assert_eq!(s.first_from(0), None);
    }
}
