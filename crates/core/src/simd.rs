//! Chunked word kernels for the bit-matrix hot path.
//!
//! Every kernel the closure engine spends its time in — row OR, masked
//! union-OR with new-bit collection, range-tracked OR, population count and
//! set-bit scan — lives here in two forms:
//!
//! * a **chunked** form processing `LANES` (= 4) words per step with a
//!   scalar tail. The chunk bodies are straight-line, branch-light loops
//!   over fixed-width arrays, the shape LLVM's autovectorizer reliably
//!   turns into 256-bit SIMD on x86-64 and NEON pairs on aarch64 — without
//!   `unsafe`, nightly intrinsics or any dependency (the crate forbids
//!   unsafe code);
//! * a `_scalar` **reference** form, one word at a time, kept `pub` so the
//!   differential tests (`tests/simd_kernels.rs`, the unit tests below) can
//!   pin the chunked form bit-identical to it.
//!
//! The kernels are *pure slice transforms*: they neither count `word_ops`
//! nor touch row bounds. Callers ([`BitMatrix`](crate::bitmatrix::BitMatrix),
//! the streaming column store) slice rows to their nonzero `[lo, hi)`
//! bounds first and do their own accounting, so swapping scalar loops for
//! these kernels cannot change any deterministic counter — only the time
//! per word.

/// Words processed per chunk step. Four `u64`s match one AVX2 register and
/// two NEON registers; wider chunks only add tail overhead on the short
/// rows the engine mostly sees.
const LANES: usize = 4;

/// ORs `src` into `dst` element-wise over their common prefix. Returns
/// `true` iff `dst` changed (some bit of `src` was not already set).
pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    // `added` accumulates src-bits missing from dst, one accumulator per
    // lane so the chunk body carries no cross-lane dependency.
    let mut added = [0u64; LANES];
    let mut d_chunks = dst.chunks_exact_mut(LANES);
    let mut s_chunks = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d_chunks).zip(&mut s_chunks) {
        for l in 0..LANES {
            added[l] |= sc[l] & !dc[l];
            dc[l] |= sc[l];
        }
    }
    let mut tail = 0u64;
    for (dw, sw) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        tail |= sw & !*dw;
        *dw |= sw;
    }
    added.iter().fold(tail, |acc, &a| acc | a) != 0
}

/// Scalar reference for [`or_into`].
pub fn or_into_scalar(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (dw, sw) in dst.iter_mut().zip(src) {
        let new = *dw | *sw;
        changed |= new != *dw;
        *dw = new;
    }
    changed
}

/// ORs `src` into `dst` and reports the exact word range that changed as
/// `Some((wlo, whi))` (`whi` one past the last changed word), or `None` if
/// nothing changed. Indices are relative to the slices.
pub fn or_into_track(dst: &mut [u64], src: &[u64]) -> Option<(usize, usize)> {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let (mut wlo, mut whi) = (usize::MAX, 0usize);
    let mut base = 0usize;
    let mut d_chunks = dst.chunks_exact_mut(LANES);
    let mut s_chunks = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d_chunks).zip(&mut s_chunks) {
        let mut added = [0u64; LANES];
        for l in 0..LANES {
            added[l] = sc[l] & !dc[l];
            dc[l] |= sc[l];
        }
        // Range bookkeeping only runs for chunks that changed something,
        // keeping the common all-covered chunk branch-free.
        if added.iter().any(|&a| a != 0) {
            for (l, &a) in added.iter().enumerate() {
                if a != 0 {
                    wlo = wlo.min(base + l);
                    whi = base + l + 1;
                }
            }
        }
        base += LANES;
    }
    for (dw, sw) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        if sw & !*dw != 0 {
            wlo = wlo.min(base);
            whi = base + 1;
        }
        *dw |= sw;
        base += 1;
    }
    (wlo < whi).then_some((wlo, whi))
}

/// Scalar reference for [`or_into_track`].
pub fn or_into_track_scalar(dst: &mut [u64], src: &[u64]) -> Option<(usize, usize)> {
    let (mut wlo, mut whi) = (usize::MAX, 0usize);
    for (w, (dw, sw)) in dst.iter_mut().zip(src).enumerate() {
        let new = *dw | *sw;
        if new != *dw {
            wlo = wlo.min(w);
            whi = w + 1;
        }
        *dw = new;
    }
    (wlo < whi).then_some((wlo, whi))
}

/// The TRANS-MT composition kernel: ORs `(a[w] | b[w]) & !mask[w]` into
/// `dst[w]`, invoking `on_new` with `(word_offset + w) * 64 + bit` for
/// every bit this newly sets, in ascending position order. Words of `dst`
/// that gain no bit are left unwritten. Returns `true` iff `dst` changed.
///
/// All four slices must have equal length (the caller slices them to the
/// union of the two source rows' bounds).
pub fn union_masked_collect(
    a: &[u64],
    b: &[u64],
    mask: &[u64],
    dst: &mut [u64],
    word_offset: usize,
    mut on_new: impl FnMut(usize),
) -> bool {
    debug_assert!(a.len() == dst.len() && b.len() == dst.len() && mask.len() == dst.len());
    let mut changed = false;
    let mut base = 0usize;
    let mut d_chunks = dst.chunks_exact_mut(LANES);
    let mut a_chunks = a.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    let mut m_chunks = mask.chunks_exact(LANES);
    for (((dc, ac), bc), mc) in (&mut d_chunks)
        .zip(&mut a_chunks)
        .zip(&mut b_chunks)
        .zip(&mut m_chunks)
    {
        let mut val = [0u64; LANES];
        let mut added = [0u64; LANES];
        for l in 0..LANES {
            val[l] = (ac[l] | bc[l]) & !mc[l];
            added[l] = val[l] & !dc[l];
        }
        // The bit-drain is rare and inherently scalar; keep it out of the
        // vectorizable chunk body behind one any-lane test.
        if added.iter().any(|&x| x != 0) {
            changed = true;
            for l in 0..LANES {
                let mut add = added[l];
                if add != 0 {
                    dc[l] |= val[l];
                    while add != 0 {
                        on_new((word_offset + base + l) * 64 + add.trailing_zeros() as usize);
                        add &= add - 1;
                    }
                }
            }
        }
        base += LANES;
    }
    for (((dw, aw), bw), mw) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(a_chunks.remainder())
        .zip(b_chunks.remainder())
        .zip(m_chunks.remainder())
    {
        let val = (aw | bw) & !mw;
        let mut add = val & !*dw;
        if add != 0 {
            changed = true;
            *dw |= val;
            while add != 0 {
                on_new((word_offset + base) * 64 + add.trailing_zeros() as usize);
                add &= add - 1;
            }
        }
        base += 1;
    }
    changed
}

/// Scalar reference for [`union_masked_collect`].
pub fn union_masked_collect_scalar(
    a: &[u64],
    b: &[u64],
    mask: &[u64],
    dst: &mut [u64],
    word_offset: usize,
    mut on_new: impl FnMut(usize),
) -> bool {
    let mut changed = false;
    for (w, dw) in dst.iter_mut().enumerate() {
        let val = (a[w] | b[w]) & !mask[w];
        let mut added = val & !*dw;
        if added != 0 {
            changed = true;
            *dw |= val;
            while added != 0 {
                on_new((word_offset + w) * 64 + added.trailing_zeros() as usize);
                added &= added - 1;
            }
        }
    }
    changed
}

/// Total set bits in `words`.
pub fn count_ones(words: &[u64]) -> usize {
    let mut lanes = [0usize; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            lanes[l] += c[l].count_ones() as usize;
        }
    }
    let tail: usize = chunks.remainder().iter().map(|w| w.count_ones() as usize).sum();
    lanes.iter().sum::<usize>() + tail
}

/// Scalar reference for [`count_ones`].
pub fn count_ones_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `f` with `(word_offset + w) * 64 + bit` for every set bit of
/// `words`, in ascending position order — the watcher/frontier row scan.
/// Chunks that are entirely zero are skipped with one branch.
pub fn for_each_set(words: &[u64], word_offset: usize, mut f: impl FnMut(usize)) {
    let mut base = 0usize;
    let mut chunks = words.chunks_exact(LANES);
    for c in &mut chunks {
        if c.iter().any(|&w| w != 0) {
            for (l, &w) in c.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    f((word_offset + base + l) * 64 + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
        }
        base += LANES;
    }
    for &w in chunks.remainder() {
        let mut w = w;
        while w != 0 {
            f((word_offset + base) * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
        base += 1;
    }
}

/// Scalar reference for [`for_each_set`].
pub fn for_each_set_scalar(words: &[u64], word_offset: usize, mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f((word_offset + w) * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift word stream for edge-case fuzzing without an
    /// RNG dependency.
    fn words(seed: u64, len: usize, density: u32) -> Vec<u64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                let mut w = 0u64;
                for _ in 0..density {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    w |= 1u64 << (s % 64);
                }
                w
            })
            .collect()
    }

    /// Lengths covering empty, sub-chunk, exact-chunk and unaligned tails.
    const LENS: [usize; 8] = [0, 1, 3, 4, 5, 8, 13, 67];

    #[test]
    fn or_into_matches_scalar_and_reports_change() {
        for len in LENS {
            for (sa, sb) in [(1, 2), (3, 3), (9, 4)] {
                let src = words(sa, len, 6);
                let base = words(sb, len, 6);
                let mut d1 = base.clone();
                let mut d2 = base.clone();
                let c1 = or_into(&mut d1, &src);
                let c2 = or_into_scalar(&mut d2, &src);
                assert_eq!(d1, d2, "len={len}");
                assert_eq!(c1, c2, "len={len}");
                // Idempotent re-run never reports change.
                assert!(!or_into(&mut d1, &src), "len={len}");
            }
        }
    }

    #[test]
    fn or_into_track_matches_scalar_exactly() {
        for len in LENS {
            let src = words(5, len, 4);
            let base = words(11, len, 4);
            let mut d1 = base.clone();
            let mut d2 = base;
            assert_eq!(
                or_into_track(&mut d1, &src),
                or_into_track_scalar(&mut d2, &src),
                "len={len}"
            );
            assert_eq!(d1, d2, "len={len}");
            assert_eq!(or_into_track(&mut d1, &src), None, "len={len}");
        }
    }

    #[test]
    fn or_into_track_single_word_change_is_tight() {
        let mut dst = vec![0u64; 9];
        let mut src = vec![0u64; 9];
        src[6] = 0b100;
        assert_eq!(or_into_track(&mut dst, &src), Some((6, 7)));
    }

    #[test]
    fn union_masked_collect_matches_scalar_bits_and_order() {
        for len in LENS {
            let a = words(21, len, 5);
            let b = words(22, len, 5);
            let mask = words(23, len, 3);
            let base = words(24, len, 2);
            let mut d1 = base.clone();
            let mut d2 = base;
            let mut n1 = Vec::new();
            let mut n2 = Vec::new();
            let c1 = union_masked_collect(&a, &b, &mask, &mut d1, 7, |p| n1.push(p));
            let c2 = union_masked_collect_scalar(&a, &b, &mask, &mut d2, 7, |p| n2.push(p));
            assert_eq!(d1, d2, "len={len}");
            assert_eq!(c1, c2, "len={len}");
            assert_eq!(n1, n2, "new-bit order must match, len={len}");
            assert!(n1.windows(2).all(|w| w[0] < w[1]), "ascending, len={len}");
        }
    }

    #[test]
    fn union_masked_collect_never_sets_masked_bits() {
        let a = vec![u64::MAX; 5];
        let b = vec![u64::MAX; 5];
        let mask = vec![0xAAAA_AAAA_AAAA_AAAAu64; 5];
        let mut dst = vec![0u64; 5];
        union_masked_collect(&a, &b, &mask, &mut dst, 0, |_| {});
        assert!(dst.iter().all(|&w| w == !0xAAAA_AAAA_AAAA_AAAAu64));
    }

    #[test]
    fn count_ones_matches_scalar() {
        for len in LENS {
            let base = words(32, len, 8);
            assert_eq!(count_ones(&base), count_ones_scalar(&base), "len={len}");
        }
    }

    #[test]
    fn for_each_set_matches_scalar_in_order() {
        for len in LENS {
            let w = words(41, len, 5);
            let mut p1 = Vec::new();
            let mut p2 = Vec::new();
            for_each_set(&w, 3, |p| p1.push(p));
            for_each_set_scalar(&w, 3, |p| p2.push(p));
            assert_eq!(p1, p2, "len={len}");
            assert!(p1.windows(2).all(|x| x[0] < x[1]), "len={len}");
        }
    }

    #[test]
    fn kernels_accept_shorter_src_than_dst() {
        // or_into operates on the common prefix — the streaming column
        // store ORs short predecessor columns into longer ones.
        let mut dst = vec![0u64; 10];
        let src = vec![u64::MAX; 4];
        assert!(or_into(&mut dst, &src));
        assert_eq!(count_ones(&dst), 4 * 64);
    }
}
