//! The input pool: corpus apps re-simulated under scheduler seeds derived
//! from `--seed`, their planted race truth, and the request order.

use std::collections::BTreeMap;

use droidracer_apps::{CorpusEntry, RaceCategory};
use droidracer_core::{ExitClass, JobReport};
use droidracer_server::Fnv64;
use droidracer_trace::to_text;

/// Variants `0..TIMED_VARIANTS` of every app feed the timed requests. The
/// variants of one app differ in size by a few percent, so four give the
/// spread of the corpus while keeping a lap short enough that every trace
/// is timed several times in a run.
pub const TIMED_VARIANTS: u64 = 4;
/// The variant warm-up requests use; it is outside the timed set.
pub const WARMUP_VARIANT: u64 = TIMED_VARIANTS;

/// One trace of the pool.
pub struct Item {
    /// The app it was simulated from.
    pub app: &'static str,
    /// Its scheduler-seed variant.
    pub variant: u64,
    /// The trace in the text format.
    pub text: String,
    /// Planted field → category: what every report of this trace must say.
    pub truth: BTreeMap<String, RaceCategory>,
}

/// The traces of one run, grouped into rounds of one variant of every app.
pub struct Pool {
    /// `items[r][a]` is app `a` under round `r`'s variant.
    pub items: Vec<Vec<Item>>,
}

/// SplitMix64: a fixed, well-mixed step for seeds and shuffles.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scheduler seed of `app` (its corpus position) under `variant`, for
/// the benchmark seed `seed`.
pub fn scheduler_seed(seed: u64, app: usize, variant: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ app as u64) ^ variant)
}

impl Pool {
    /// Simulates every entry under each of `variants`, one round per
    /// variant.
    ///
    /// # Errors
    ///
    /// Fails when a simulation does not complete.
    pub fn generate(entries: &[CorpusEntry], seed: u64, variants: &[u64]) -> Result<Pool, String> {
        let mut items = Vec::with_capacity(variants.len());
        for &variant in variants {
            let mut round = Vec::with_capacity(entries.len());
            for (app, entry) in entries.iter().enumerate() {
                let mut entry = entry.clone();
                entry.seed = scheduler_seed(seed, app, variant);
                let trace = entry
                    .generate_trace()
                    .map_err(|e| format!("{} variant {variant}: {e}", entry.name))?;
                round.push(Item {
                    app: entry.name,
                    variant,
                    text: to_text(&trace),
                    truth: entry
                        .truth
                        .iter()
                        .map(|(f, t)| (f.clone(), t.category))
                        .collect(),
                });
            }
            items.push(round);
        }
        Ok(Pool { items })
    }

    /// A digest of every trace text, in pool order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for item in self.items.iter().flatten() {
            h.update(item.text.as_bytes());
            h.update(b"\0");
        }
        h.finish()
    }

    /// Total trace bytes.
    pub fn bytes(&self) -> usize {
        self.items.iter().flatten().map(|i| i.text.len()).sum()
    }
}

/// Checks `report` against the planted truth: it completed with races, and
/// its representative (field → category) set is exactly the planted one.
///
/// # Errors
///
/// Describes the first difference.
pub fn check_truth(item: &Item, report: &JobReport) -> Result<(), String> {
    if report.exit != ExitClass::Races {
        return Err(format!(
            "{} v{}: exit {} instead of races",
            item.app, item.variant, report.exit
        ));
    }
    let mut measured = BTreeMap::new();
    for race in &report.races {
        // A location renders as `object.field` and field names may hold
        // dots: the field is the longest planted name the location ends
        // with after a dot.
        let field = item
            .truth
            .keys()
            .filter(|f| {
                race.loc
                    .strip_suffix(f.as_str())
                    .is_some_and(|object| object.ends_with('.'))
            })
            .max_by_key(|f| f.len())
            .cloned()
            .unwrap_or_else(|| race.loc.clone());
        if measured.insert(field, race.category).is_some() {
            return Err(format!(
                "{} v{}: {} reported twice",
                item.app, item.variant, race.loc
            ));
        }
    }
    if measured != item.truth {
        return Err(format!(
            "{} v{}: reported {measured:?}, planted {:?}",
            item.app, item.variant, item.truth
        ));
    }
    Ok(())
}

/// The request order: lap after lap over the rounds, each lap in a fresh
/// seeded order of rounds and of apps within a round, so every lap is the
/// same multiset of requests.
pub struct Order {
    seed: u64,
    lap: u64,
    rounds: usize,
    apps: usize,
    queue: Vec<Vec<(usize, usize)>>,
}

impl Order {
    /// The order over a pool of `rounds` × `apps` items.
    pub fn new(seed: u64, rounds: usize, apps: usize) -> Self {
        Order {
            seed,
            lap: 0,
            rounds,
            apps,
            queue: Vec::new(),
        }
    }

    /// The next round: `(round, app)` positions, one per app.
    pub fn next_round(&mut self) -> Vec<(usize, usize)> {
        if self.queue.is_empty() {
            let mut rng = splitmix(self.seed ^ splitmix(self.lap));
            let mut rounds: Vec<usize> = (0..self.rounds).collect();
            shuffle(&mut rounds, &mut rng);
            for r in rounds.into_iter().rev() {
                let mut apps: Vec<usize> = (0..self.apps).collect();
                shuffle(&mut apps, &mut rng);
                self.queue.push(apps.into_iter().map(|a| (r, a)).collect());
            }
            self.lap += 1;
        }
        self.queue.pop().expect("a lap has at least one round")
    }

    /// Whether the next round starts a lap: every position was issued
    /// equally often.
    pub fn at_lap_start(&self) -> bool {
        self.queue.is_empty()
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut u64) {
    for i in (1..v.len()).rev() {
        *rng = splitmix(*rng);
        v.swap(i, (*rng % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Vec<CorpusEntry> {
        vec![
            droidracer_apps::aard_dictionary(),
            droidracer_apps::facebook(),
        ]
    }

    #[test]
    fn the_same_seed_gives_the_same_pool_and_another_seed_another() {
        let entries = small_corpus();
        let a = Pool::generate(&entries, 7, &[0, 1]).unwrap();
        let b = Pool::generate(&entries, 7, &[0, 1]).unwrap();
        let c = Pool::generate(&entries, 8, &[0, 1]).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.items[0][0].text, a.items[1][0].text, "variants differ");
        assert_eq!(scheduler_seed(7, 1, 3), scheduler_seed(7, 1, 3));
        assert_ne!(scheduler_seed(7, 1, 3), scheduler_seed(7, 3, 1));
    }

    #[test]
    fn every_lap_is_the_same_multiset_in_a_seeded_order() {
        let lap = |order: &mut Order| {
            let mut seen: Vec<(usize, usize)> = (0..4).flat_map(|_| order.next_round()).collect();
            let as_issued = seen.clone();
            seen.sort_unstable();
            (as_issued, seen)
        };
        let mut order = Order::new(3, 4, 5);
        assert!(order.at_lap_start());
        order.next_round();
        assert!(!order.at_lap_start());
        let mut order = Order::new(3, 4, 5);
        let (first, first_set) = lap(&mut order);
        assert!(order.at_lap_start());
        let (second, second_set) = lap(&mut order);
        let all: Vec<(usize, usize)> = (0..4).flat_map(|r| (0..5).map(move |a| (r, a))).collect();
        assert_eq!(first_set, all);
        assert_eq!(second_set, all);
        assert_ne!(first, second, "laps are reshuffled");
        assert_eq!(
            lap(&mut Order::new(3, 4, 5)).0,
            first,
            "the order is seeded"
        );
    }
}
