//! A dense square bit matrix used for happens-before reachability, with
//! per-row nonzero word bounds.
//!
//! Happens-before edges always point forward in the trace, so row `i` of a
//! relation matrix is empty below (roughly) word `i/64` and — early in the
//! fixpoint — often empty above some frontier too. Every row carries a
//! conservative `[lo, hi)` word range containing all of its nonzero words;
//! row operations skip the all-zero prefix and suffix entirely. The engine
//! counts `word_ops` as words *actually touched* under these bounds and
//! `skipped_words` as the words the bounds let it skip.
//!
//! The bounds are an over-approximation (words inside the range may be
//! zero, words outside never are) and depend on the operation order, so
//! they are deliberately excluded from equality: two matrices compare equal
//! iff their dimensions and bit contents match.

use std::fmt;

use crate::simd;

/// A square boolean matrix backed by `u64` words, storing one row per graph
/// node. Row `i` holds the set of nodes `j` with an edge (or derived
/// ordering) `i → j`.
#[derive(Clone)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    /// Per-row first possibly-nonzero word index.
    lo: Vec<u32>,
    /// Per-row one-past-last possibly-nonzero word index (`lo == hi` ⇔ the
    /// row is known empty).
    hi: Vec<u32>,
}

impl PartialEq for BitMatrix {
    /// Bounds are an order-dependent over-approximation; equality is over
    /// the logical contents only.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.bits == other.bits
    }
}

impl Eq for BitMatrix {}

impl BitMatrix {
    /// Creates an `n × n` matrix of zeros.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
            lo: vec![0; n],
            hi: vec![0; n],
        }
    }

    /// Side length of the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has zero rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of 64-bit words backing one row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    #[inline]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.words_per_row;
        start..start + self.words_per_row
    }

    /// The conservative `[lo, hi)` word range of row `i`'s nonzero words.
    /// `lo == hi` means the row is empty.
    #[inline]
    pub fn row_bounds(&self, i: usize) -> (usize, usize) {
        (self.lo[i] as usize, self.hi[i] as usize)
    }

    /// Grows row `i`'s bounds to cover word range `[wlo, whi)`.
    #[inline]
    fn widen(&mut self, i: usize, wlo: usize, whi: usize) {
        if wlo >= whi {
            return;
        }
        if self.lo[i] == self.hi[i] {
            self.lo[i] = wlo as u32;
            self.hi[i] = whi as u32;
        } else {
            self.lo[i] = self.lo[i].min(wlo as u32);
            self.hi[i] = self.hi[i].max(whi as u32);
        }
    }

    /// Sets bit `(i, j)`. Returns `true` if the bit was newly set.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        let w = j / 64;
        let word = &mut self.bits[i * self.words_per_row + w];
        let mask = 1u64 << (j % 64);
        let was = *word & mask != 0;
        *word |= mask;
        if !was {
            self.widen(i, w, w + 1);
        }
        !was
    }

    /// Tests bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Returns row `i` as a word slice.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[self.row_range(i)]
    }

    /// Word `w` of row `i` — the single-load column probe used by the
    /// NOPRE scan.
    #[inline]
    pub fn row_word(&self, i: usize, w: usize) -> u64 {
        self.bits[i * self.words_per_row + w]
    }

    /// Split-borrows rows `src` (shared) and `dst` (mutable).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    #[inline]
    fn src_dst_rows(&mut self, src: usize, dst: usize) -> (&[u64], &mut [u64]) {
        assert_ne!(src, dst, "source and destination rows must differ");
        let w = self.words_per_row;
        let (s, d) = (src * w, dst * w);
        if s < d {
            let (head, tail) = self.bits.split_at_mut(d);
            (&head[s..s + w], &mut tail[..w])
        } else {
            let (head, tail) = self.bits.split_at_mut(s);
            (&tail[..w], &mut head[d..d + w])
        }
    }

    /// ORs row `src` into row `dst`, touching only `src`'s bounded word
    /// range. Returns `true` if `dst` changed. Self-merge is a no-op.
    pub fn or_row_into(&mut self, src: usize, dst: usize) -> bool {
        if src == dst {
            return false;
        }
        let (slo, shi) = self.row_bounds(src);
        if slo >= shi {
            return false;
        }
        let (src_row, dst_row) = self.src_dst_rows(src, dst);
        let changed = simd::or_into(&mut dst_row[slo..shi], &src_row[slo..shi]);
        if changed {
            self.widen(dst, slo, shi);
        }
        changed
    }

    /// ORs `(self.row(src) | with.row(src)) & !mask` into row `dst`,
    /// invoking `on_new` with the position of every bit this newly sets.
    /// Touches only the union of the two source rows' bounded ranges;
    /// returns the number of words touched.
    ///
    /// This is the TRANS-MT composition step: `self` is the cross-thread
    /// matrix (holding both `src` and `dst` rows), `with` the same-thread
    /// matrix, and `mask` the bit set of nodes on `dst`'s own thread, whose
    /// orderings must not be recorded cross-thread.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or the matrices differ in size.
    pub fn or_union_masked_into(
        &mut self,
        src: usize,
        with: &BitMatrix,
        mask: &[u64],
        dst: usize,
        mut on_new: impl FnMut(usize),
    ) -> usize {
        assert_eq!(self.words_per_row, with.words_per_row, "size mismatch");
        let (alo, ahi) = self.row_bounds(src);
        let (blo, bhi) = with.row_bounds(src);
        let (lo, hi) = match (alo < ahi, blo < bhi) {
            (false, false) => return 0,
            (true, false) => (alo, ahi),
            (false, true) => (blo, bhi),
            (true, true) => (alo.min(blo), ahi.max(bhi)),
        };
        let with_row = with.row(src);
        let (src_row, dst_row) = self.src_dst_rows(src, dst);
        let changed = simd::union_masked_collect(
            &src_row[lo..hi],
            &with_row[lo..hi],
            &mask[lo..hi],
            &mut dst_row[lo..hi],
            lo,
            &mut on_new,
        );
        if changed {
            self.widen(dst, lo, hi);
        }
        hi - lo
    }

    /// Iterates over the set bit positions of row `i`, scanning only its
    /// bounded word range.
    pub fn iter_row(&self, i: usize) -> BitIter<'_> {
        let (lo, hi) = self.row_bounds(i);
        BitIter::with_offset(&self.row(i)[lo..hi], lo)
    }

    /// Calls `f` with every set bit position of row `i` in ascending order,
    /// scanning only the bounded word range — the eager, chunked counterpart
    /// of [`BitMatrix::iter_row`] for the frontier-seeding hot path.
    pub fn for_each_set_in_row(&self, i: usize, f: impl FnMut(usize)) {
        let (lo, hi) = self.row_bounds(i);
        simd::for_each_set(&self.row(i)[lo..hi], lo, f);
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        simd::count_ones(&self.bits)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BitMatrix({}x{}, {} bits set)",
            self.n,
            self.n,
            self.count_ones()
        )?;
        if self.n <= 32 {
            for i in 0..self.n {
                let row: String = (0..self.n)
                    .map(|j| if self.get(i, j) { '1' } else { '.' })
                    .collect();
                writeln!(f, "  {i:>3} {row}")?;
            }
        }
        Ok(())
    }
}

/// Iterator over set bit positions of a word slice.
#[derive(Debug, Clone)]
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    offset: usize,
    current: u64,
}

impl<'a> BitIter<'a> {
    /// Creates an iterator over the set bits of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        Self::with_offset(words, 0)
    }

    /// Creates an iterator over the set bits of `words`, reporting
    /// positions as if the slice started at word `offset` of a larger row
    /// (used to iterate a row through its nonzero bounds).
    pub fn with_offset(words: &'a [u64], offset: usize) -> Self {
        BitIter {
            words,
            word_idx: 0,
            offset,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.offset + self.word_idx) * 64 + bit)
    }
}

/// A standalone bit set sized for `n` node ids, used for thread masks and
/// the engine's dirty-node marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates a set over ids `0..n`, initially empty.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Tests membership of `i`.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .map(|w| w & (1u64 << (i % 64)) != 0)
            .unwrap_or(false)
    }

    /// Removes every member (the backing storage is retained).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over members.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter::new(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut m = BitMatrix::new(130);
        assert!(!m.get(3, 127));
        assert!(m.set(3, 127));
        assert!(!m.set(3, 127)); // already set
        assert!(m.get(3, 127));
        assert!(!m.get(127, 3));
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn or_row_into_merges_rows() {
        let mut m = BitMatrix::new(70);
        m.set(0, 5);
        m.set(0, 65);
        m.set(1, 7);
        assert!(m.or_row_into(0, 1));
        assert!(m.get(1, 5) && m.get(1, 65) && m.get(1, 7));
        assert!(!m.or_row_into(0, 1)); // second time: no change
        assert!(!m.or_row_into(0, 0)); // self-merge is a no-op
    }

    #[test]
    fn or_row_into_works_in_both_directions() {
        let mut m = BitMatrix::new(10);
        m.set(5, 1);
        assert!(m.or_row_into(5, 2)); // src after dst
        assert!(m.get(2, 1));
        m.set(0, 3);
        assert!(m.or_row_into(0, 7)); // src before dst
        assert!(m.get(7, 3));
    }

    #[test]
    fn row_bounds_track_nonzero_words() {
        let mut m = BitMatrix::new(64 * 5);
        assert_eq!(m.row_bounds(3), (0, 0)); // empty row
        m.set(3, 130); // word 2
        assert_eq!(m.row_bounds(3), (2, 3));
        m.set(3, 300); // word 4
        assert_eq!(m.row_bounds(3), (2, 5));
        m.set(3, 10); // word 0
        assert_eq!(m.row_bounds(3), (0, 5));
        // Bounds propagate through row merges.
        m.set(7, 70); // word 1
        m.or_row_into(3, 7);
        let (lo, hi) = m.row_bounds(7);
        assert!(lo == 0 && hi == 5);
    }

    #[test]
    fn bounds_are_conservative_and_excluded_from_eq() {
        let mut a = BitMatrix::new(200);
        let mut b = BitMatrix::new(200);
        // Same final contents, different op orders → possibly different
        // bounds, still equal.
        a.set(0, 150);
        a.set(0, 3);
        b.set(0, 3);
        b.set(0, 150);
        b.set(1, 9);
        b.or_row_into(1, 0); // widens row 0's bounds conservatively
        a.set(0, 9);
        a.set(1, 9);
        assert_eq!(a, b);
        // Every nonzero word is inside the bounds.
        for m in [&a, &b] {
            for i in 0..m.len() {
                let (lo, hi) = m.row_bounds(i);
                for (w, word) in m.row(i).iter().enumerate() {
                    if *word != 0 {
                        assert!(lo <= w && w < hi, "word {w} outside [{lo},{hi})");
                    }
                }
            }
        }
    }

    #[test]
    fn or_union_masked_into_composes_and_reports_new_bits() {
        let n = 130;
        let mut mt = BitMatrix::new(n);
        let mut st = BitMatrix::new(n);
        let mut mask = BitSet::new(n);
        mask.insert(7); // "same thread" bit: must not be recorded
        mt.set(5, 70);
        st.set(5, 7);
        st.set(5, 128);
        mt.set(2, 5);
        let mut new_bits = Vec::new();
        let touched = mt.or_union_masked_into(5, &st, mask.words(), 2, |b| new_bits.push(b));
        assert!(touched >= 2, "words touched spans both source rows");
        new_bits.sort_unstable();
        assert_eq!(
            new_bits,
            vec![70, 128],
            "7 masked out, 5 already set? no: 5 is dst bit"
        );
        assert!(mt.get(2, 70) && mt.get(2, 128));
        assert!(!mt.get(2, 7), "masked bit stays clear");
        // Re-running adds nothing.
        let mut again = Vec::new();
        mt.or_union_masked_into(5, &st, mask.words(), 2, |b| again.push(b));
        assert!(again.is_empty());
    }

    #[test]
    fn or_union_masked_into_empty_sources_touches_nothing() {
        let mut mt = BitMatrix::new(70);
        let st = BitMatrix::new(70);
        let mask = BitSet::new(70);
        let touched = mt.or_union_masked_into(3, &st, mask.words(), 1, |_| panic!("no new bits"));
        assert_eq!(touched, 0);
    }

    #[test]
    fn iter_row_yields_sorted_positions() {
        let mut m = BitMatrix::new(200);
        for j in [0, 63, 64, 128, 199] {
            m.set(2, j);
        }
        let got: Vec<usize> = m.iter_row(2).collect();
        assert_eq!(got, vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn iter_row_respects_offset_bounds() {
        let mut m = BitMatrix::new(300);
        m.set(1, 170);
        m.set(1, 290);
        assert_eq!(m.row_bounds(1), (2, 5));
        assert_eq!(m.iter_row(1).collect::<Vec<_>>(), vec![170, 290]);
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(100);
        assert!(!s.contains(99));
        s.insert(99);
        s.insert(0);
        assert!(s.contains(99) && s.contains(0) && !s.contains(50));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 99]);
        s.clear();
        assert!(!s.contains(99) && s.iter().next().is_none());
    }

    #[test]
    fn for_each_set_in_row_matches_iter_row() {
        let mut m = BitMatrix::new(300);
        for j in [1, 64, 130, 131, 299] {
            m.set(2, j);
        }
        let mut got = Vec::new();
        m.for_each_set_in_row(2, |b| got.push(b));
        assert_eq!(got, m.iter_row(2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = BitMatrix::new(0);
        assert!(m.is_empty());
        assert_eq!(m.count_ones(), 0);
    }
}
