//! Property suite for the `core::simd` chunked bit kernels.
//!
//! Every vector kernel ships with a scalar reference implementation; these
//! tests pin them bit-identical — results, change reports, callback
//! orders — on proptest-generated random rows and on the `[lo, hi)` edge
//! shapes the engine feeds them (empty spans, single words, lengths
//! around the 4-word chunk boundary where the scalar tail kicks in).

use proptest::prelude::*;

use droidracer::core::simd;

/// Lengths covering every tail shape: empty, sub-chunk, exact chunks,
/// chunk+tail, a long row, and a 4096-word row where the chunk loop
/// dominates the scalar tail.
const EDGE_LENS: [usize; 10] = [0, 1, 2, 3, 4, 5, 8, 13, 131, 4096];

/// Deterministic xorshift64* fill with roughly `density` bits per word.
fn fill(seed: u64, len: usize, density: u32) -> Vec<u64> {
    let mut s = seed.max(1);
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

fn assert_all_kernels_agree(a: &[u64], b: &[u64], mask: &[u64], offset: usize, context: &str) {
    let n = a.len().min(b.len()).min(mask.len());

    let (mut v, mut s) = (b.to_vec(), b.to_vec());
    assert_eq!(
        simd::or_into(&mut v, a),
        simd::or_into_scalar(&mut s, a),
        "{context}: or_into changed-flag"
    );
    assert_eq!(v, s, "{context}: or_into bits");

    let (mut v, mut s) = (b.to_vec(), b.to_vec());
    assert_eq!(
        simd::or_into_track(&mut v, a),
        simd::or_into_track_scalar(&mut s, a),
        "{context}: or_into_track range"
    );
    assert_eq!(v, s, "{context}: or_into_track bits");

    let (mut v, mut s) = (vec![0u64; n], vec![0u64; n]);
    let (mut nv, mut ns) = (Vec::new(), Vec::new());
    assert_eq!(
        simd::union_masked_collect(&a[..n], &b[..n], &mask[..n], &mut v, offset, |bit| {
            nv.push(bit)
        }),
        simd::union_masked_collect_scalar(&a[..n], &b[..n], &mask[..n], &mut s, offset, |bit| {
            ns.push(bit)
        }),
        "{context}: union_masked_collect changed-flag"
    );
    assert_eq!(v, s, "{context}: union_masked_collect bits");
    assert_eq!(nv, ns, "{context}: union_masked_collect new-bit order");
    let sorted = {
        let mut c = nv.clone();
        c.sort_unstable();
        c
    };
    assert_eq!(nv, sorted, "{context}: new bits must arrive ascending");

    assert_eq!(
        simd::count_ones(a),
        simd::count_ones_scalar(a),
        "{context}: count_ones"
    );

    let (mut bv, mut bs) = (Vec::new(), Vec::new());
    simd::for_each_set(a, offset, |bit| bv.push(bit));
    simd::for_each_set_scalar(a, offset, |bit| bs.push(bit));
    assert_eq!(bv, bs, "{context}: for_each_set order");
}

/// Every edge length × a few densities, including all-zero and all-one
/// words — the `[lo, hi)` shapes the engine slices out of matrix rows.
#[test]
fn edge_lengths_and_densities_agree() {
    for &len in &EDGE_LENS {
        for density in [0u32, 1, 8, 64] {
            let a = fill(0x9E37 + len as u64, len, density);
            let b = fill(0xD1B5 + len as u64, len, density.max(1) / 2);
            let mask = fill(0x8CB9 + len as u64, len, density / 2);
            let context = format!("len={len} density={density}");
            assert_all_kernels_agree(&a, &b, &mask, len % 7, &context);
        }
    }
}

/// Mismatched slice lengths: kernels operate on the common prefix.
#[test]
fn short_source_prefix_semantics_agree() {
    let long = fill(1, 13, 8);
    let short = fill(2, 5, 8);
    let (mut v, mut s) = (long.clone(), long.clone());
    assert_eq!(
        simd::or_into(&mut v, &short),
        simd::or_into_scalar(&mut s, &short)
    );
    assert_eq!(v, s);
    assert_eq!(v[5..], long[5..], "words past the source must be untouched");

    let (mut v, mut s) = (short.clone(), short.clone());
    assert_eq!(
        simd::or_into_track(&mut v, &long),
        simd::or_into_track_scalar(&mut s, &long)
    );
    assert_eq!(v, s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random rows of arbitrary length and content: vector ≡ scalar for
    /// every kernel, including callback orders.
    #[test]
    fn random_rows_agree(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
        mask in proptest::collection::vec(any::<u64>(), 0..40),
        offset in 0usize..1000,
    ) {
        assert_all_kernels_agree(&a, &b, &mask, offset, "proptest");
    }

    /// The tracked change range is exact: re-ORing the reported `[lo, hi)`
    /// sub-slice alone reproduces the full OR.
    #[test]
    fn tracked_range_is_exact(
        src in proptest::collection::vec(any::<u64>(), 1..32),
        dst in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut full = dst.clone();
        let range = simd::or_into_track(&mut full, &src);
        match range {
            None => prop_assert_eq!(&full, &dst, "no-change report must mean no change"),
            Some((lo, hi)) => {
                prop_assert!(lo < hi);
                let mut partial = dst.clone();
                let n = partial.len().min(src.len());
                prop_assert!(hi <= n);
                simd::or_into(&mut partial[lo..hi], &src[lo..hi]);
                prop_assert_eq!(partial, full, "changed words escaped the reported range");
            }
        }
    }
}
