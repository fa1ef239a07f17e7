//! Durability tests for the result store: golden digest pins (cache keys
//! must never drift across refactors — a drift silently invalidates every
//! persisted cache in the fleet) and write-ahead-log recovery under a
//! torn tail at *every* byte offset.

use droidracer_core::{ExitClass, JobReport, JobSpec};
use droidracer_server::{job_key, wal_record_ranges, Fnv64, WalStore};

use proptest::prelude::*;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// The published FNV-1a 64 test vectors plus this repo's own `job_key`
/// pins. These values are load-bearing: they key every persisted cache
/// entry and every WAL record checksum. If this test fails, the hash
/// changed — which means every deployed cache silently misses and every
/// WAL record fails its checksum. Do not re-pin without a migration story.
#[test]
fn digests_are_pinned_forever() {
    // Standard FNV-1a 64 vectors.
    assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);

    // job_key = fnv(spec ++ 0x00 ++ trace).
    assert_eq!(job_key("", b""), 0xaf63_bd4c_8601_b7df);
    assert_eq!(job_key("spec", b"trace"), 0xd09a_7dcf_fcbe_9967);

    // The everyday key: a default spec over a minimal trace header. This
    // also pins JobSpec::to_token — a token change is a key change.
    assert_eq!(
        JobSpec::default().to_token(),
        "v1:droidracer:merge:strict:ops=-:bits=-:dl=-"
    );
    assert_eq!(
        job_key(&JobSpec::default().to_token(), b"droidracer-trace v1\n"),
        0x4b21_1fe5_2059_9508
    );
}

fn report(tag: &str) -> JobReport {
    JobReport::aborted(ExitClass::Invalid, tag)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("store-wal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `n` records through a real WalStore and returns the raw log.
fn build_wal(dir: &std::path::Path, n: usize) -> (std::path::PathBuf, Vec<u8>) {
    let path = dir.join("cache.txt");
    {
        let (mut store, _) = WalStore::open(&path).unwrap();
        for i in 0..n {
            store
                .insert(i as u64, report(&format!("record {i}")))
                .unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// The contract `kill -9` holds the WAL to, checked exhaustively: truncate
/// the log at EVERY byte offset and replay. Whatever the offset, open
/// never fails, every record wholly before the cut is recovered, nothing
/// after the cut survives, and the store accepts appends afterwards.
#[test]
fn torn_tail_at_every_byte_offset_recovers_the_durable_prefix() {
    let dir = scratch("every-offset");
    let (_, full) = build_wal(&dir, 4);
    let ranges = wal_record_ranges(&full);
    assert_eq!(ranges.len(), 4);

    for cut in 0..=full.len() {
        let case = dir.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&case).unwrap();
        let path = case.join("cache.txt");
        std::fs::write(&path, &full[..cut]).unwrap();

        let (mut store, _diags) = WalStore::open(&path).unwrap_or_else(|e| {
            panic!("open must survive a tear at byte {cut}: {e}");
        });
        // A record survives iff its whole encoding — body plus the
        // trailing newline at `r.end` — fits under the cut.
        let expect: Vec<u64> = ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| r.end < cut)
            .map(|(i, _)| i as u64)
            .collect();
        for i in 0..4u64 {
            let got = store.get(i);
            if expect.contains(&i) {
                assert_eq!(
                    got,
                    Some(&report(&format!("record {i}"))),
                    "cut {cut} key {i}"
                );
            } else {
                assert_eq!(
                    got, None,
                    "cut {cut} key {i} must not survive a tear before it"
                );
            }
        }
        // The truncated log is a clean append point: insert, reopen, both
        // the old prefix and the new record are there.
        store.insert(99, report("post-tear")).unwrap();
        drop(store);
        let (reopened, diags) = WalStore::open(&path).unwrap();
        assert!(
            diags.is_empty(),
            "cut {cut}: second open must be clean: {diags:?}"
        );
        assert_eq!(reopened.len(), expect.len() + 1, "cut {cut}");
        assert_eq!(reopened.get(99), Some(&report("post-tear")), "cut {cut}");
        std::fs::remove_dir_all(&case).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random junk (not just a truncation — arbitrary garbage) appended to
    /// a healthy log: open never fails or panics, and every whole record
    /// is still recovered. The garbage can at worst masquerade as the
    /// start of one more record; it can never corrupt the replayed prefix.
    #[test]
    fn junk_tails_never_break_replay(
        junk in proptest::collection::vec(any::<u8>(), 1..120),
        n in 1usize..4,
    ) {
        let dir = scratch(&format!("junk-{n}-{}", junk.len()));
        let (path, mut bytes) = build_wal(&dir, n);
        bytes.extend_from_slice(&junk);
        std::fs::write(&path, &bytes).unwrap();
        let (store, _diags) = WalStore::open(&path).unwrap();
        for i in 0..n as u64 {
            // All original records recovered — unless the junk happened to
            // parse as a structurally-valid record that overwrote a key,
            // which requires forging a 16-hex-digit checksum; with random
            // bytes that is out of reach.
            prop_assert_eq!(store.get(i), Some(&report(&format!("record {i}"))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Store round-trip under tearing, driven by proptest: random record
    /// sets, random cut, the durable prefix survives.
    #[test]
    fn random_cuts_recover_a_prefix(
        tags in proptest::collection::vec("[a-z]{1,12}", 1..5),
        cut_frac in 0u32..1001,
    ) {
        let dir = scratch(&format!("cutprop-{}-{cut_frac}", tags.len()));
        let path = dir.join("cache.txt");
        {
            let (mut store, _) = WalStore::open(&path).unwrap();
            for (i, tag) in tags.iter().enumerate() {
                store.insert(i as u64, report(tag)).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let ranges = wal_record_ranges(&full);
        let cut = (full.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (store, _) = WalStore::open(&path).unwrap();
        let survivors = ranges.iter().filter(|r| r.end < cut).count();
        prop_assert_eq!(store.len(), survivors);
        for (i, tag) in tags.iter().enumerate().take(survivors) {
            prop_assert_eq!(store.get(i as u64), Some(&report(tag)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
