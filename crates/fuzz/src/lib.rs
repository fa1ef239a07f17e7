//! # droidracer-fuzz
//!
//! Coverage-guided differential fuzzing for the happens-before engine, with
//! schedule-replay race witnessing.
//!
//! One fuzz iteration:
//!
//! 1. [`gen`] draws a random program (threads, loopers, posts — plain,
//!    delayed and front-of-queue — locks, fork/join, lifecycle enables)
//!    from a seeded RNG, biased by coverage feedback.
//! 2. The program runs under `sim` with a seeded random scheduler,
//!    producing a feasible trace and its decision vector.
//! 3. [`oracle`] checks the trace against the oracle stack: the closure
//!    against the rules as written (`droidracer_core::spec`), DJIT⁺ vs
//!    FastTrack, internal HB invariants and the classification partition.
//! 4. The streaming engine re-analyzes the trace online at a seeded
//!    random chunk size ([`oracle::check_stream`]): streamed ≡ batch.
//! 5. [`witness`] tries to *manifest* each co-enabled/delayed race by
//!    finding a schedule that reorders the racing pair, replaying decision
//!    vectors through [`droidracer_sim::ScriptedScheduler`].
//! 6. [`corpus`] folds the iteration's feature set into the coverage map
//!    that biases step 1 of later iterations.
//!
//! Failing inputs are minimized by [`shrink`](mod@shrink) and written as
//! plain-text regression traces. The whole session is a pure function of
//! [`FuzzConfig::seed`] (when no wall-clock budget cuts it short), and
//! every failure report prints the seeds needed to reproduce it.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod inject;
pub mod oracle;
pub mod shrink;
pub mod witness;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use droidracer_core::{HbConfig, RaceCategory};
use droidracer_obs::MetricsRegistry;
use droidracer_sim::{run, RandomScheduler, SimConfig};
use droidracer_trace::Trace;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use corpus::{features_of, Coverage};
use gen::{generate, ComponentTag, GenBias, GenConfig, ProgramSpec};
use oracle::{check_trace, Divergence, DivergenceKind};
use shrink::shrink;
use witness::witness_race;

/// Parameters of one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the entire session is a function of it.
    pub seed: u64,
    /// Iterations to run.
    pub iters: u64,
    /// Optional wall-clock cutoff (checked between iterations).
    pub time_budget: Option<Duration>,
    /// Schedules to try when witnessing one race.
    pub witness_budget: usize,
    /// Races to attempt witnessing per iteration (the rest are recorded as
    /// unattempted, not unwitnessed).
    pub witness_races_per_iter: usize,
    /// Program size bounds.
    pub gen: GenConfig,
    /// Whether to minimize failing inputs (disabled by self-tests that
    /// exercise the unshrunk path).
    pub shrink_failures: bool,
    /// Stop the session after this many failures.
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xD201D,
            iters: 200,
            time_budget: None,
            witness_budget: 48,
            witness_races_per_iter: 3,
            gen: GenConfig::default(),
            shrink_failures: true,
            max_failures: 5,
        }
    }
}

/// One oracle failure, with everything needed to reproduce and debug it.
#[derive(Debug)]
pub struct Failure {
    /// Iteration number (0-based).
    pub iteration: u64,
    /// The session's master seed.
    pub master_seed: u64,
    /// The per-run scheduler seed.
    pub sched_seed: u64,
    /// Divergences the oracle stack reported.
    pub divergences: Vec<Divergence>,
    /// The failing trace as produced.
    pub trace: Trace,
    /// The minimized trace, when shrinking ran and succeeded.
    pub shrunk: Option<Trace>,
    /// The minimized program spec, when shrinking ran and succeeded.
    pub shrunk_spec: Option<ProgramSpec>,
}

/// Aggregated results of a fuzzing session.
#[derive(Debug)]
pub struct FuzzReport {
    /// The master seed the session ran under.
    pub seed: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Runs that reached quiescence (the rest blocked or hit the step cap —
    /// still analyzed; partial traces are feasible too).
    pub completed_runs: u64,
    /// Total trace operations checked.
    pub total_ops: u64,
    /// Races found across all iterations.
    pub races_found: u64,
    /// Successfully witnessed races per category.
    pub witnessed: BTreeMap<RaceCategory, u64>,
    /// Witness attempts that found no reordering schedule, per category.
    pub unwitnessed: BTreeMap<RaceCategory, u64>,
    /// Oracle failures (empty on a healthy engine).
    pub failures: Vec<Failure>,
    /// Feature coverage accumulated over the session.
    pub coverage: Coverage,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// Total oracle divergences across all failures.
    pub fn oracle_divergences(&self) -> usize {
        self.failures.iter().map(|f| f.divergences.len()).sum()
    }

    /// Total witnessed races.
    pub fn total_witnessed(&self) -> u64 {
        self.witnessed.values().sum()
    }

    /// Total failed witness attempts.
    pub fn total_unwitnessed(&self) -> u64 {
        self.unwitnessed.values().sum()
    }

    /// Exports the session counters into `registry` under the `fuzz.`
    /// prefix (written into the `droidracer fuzz --profile` export).
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_add("fuzz.iterations", self.iterations);
        registry.counter_add("fuzz.completed_runs", self.completed_runs);
        registry.counter_add("fuzz.trace_ops", self.total_ops);
        registry.counter_add("fuzz.races", self.races_found);
        registry.counter_add("fuzz.witnessed", self.total_witnessed());
        registry.counter_add("fuzz.unwitnessed", self.total_unwitnessed());
        registry.counter_add("fuzz.oracle_divergences", self.oracle_divergences() as u64);
        registry.counter_add("stream.divergences", self.stream_divergences() as u64);
    }

    /// Total streamed-vs-batch divergences across all failures (the layer-5
    /// differential; any one fails the session like every other divergence).
    pub fn stream_divergences(&self) -> usize {
        self.failures
            .iter()
            .flat_map(|f| &f.divergences)
            .filter(|d| d.kind == DivergenceKind::StreamedVsBatch)
            .count()
    }

    /// Renders a human-readable session summary; every failure line leads
    /// with the seeds needed to reproduce it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: seed 0x{seed:X}, {iters} iterations, {ops} trace ops, {secs:.2}s",
            seed = self.seed,
            iters = self.iterations,
            ops = self.total_ops,
            secs = self.elapsed.as_secs_f64(),
        );
        let _ = writeln!(
            out,
            "  runs: {done} completed / {iters}; races: {races} \
             (witnessed {w}, unwitnessed {u})",
            done = self.completed_runs,
            iters = self.iterations,
            races = self.races_found,
            w = self.total_witnessed(),
            u = self.total_unwitnessed(),
        );
        for cat in RaceCategory::all() {
            let w = self.witnessed.get(&cat).copied().unwrap_or(0);
            let u = self.unwitnessed.get(&cat).copied().unwrap_or(0);
            if w + u > 0 {
                let _ = writeln!(out, "    {}: witnessed {w}, unwitnessed {u}", cat.label());
            }
        }
        if self.failures.is_empty() {
            let _ = writeln!(out, "  oracle divergences: 0");
        } else {
            let _ = writeln!(
                out,
                "  ORACLE DIVERGENCES: {} across {} failing inputs",
                self.oracle_divergences(),
                self.failures.len()
            );
            for f in &self.failures {
                let _ = writeln!(
                    out,
                    "  failure at iteration {it}: reproduce with \
                     --seed 0x{seed:X} (scheduler seed 0x{sched:X}), \
                     {n} ops{shrunk}",
                    it = f.iteration,
                    seed = f.master_seed,
                    sched = f.sched_seed,
                    n = f.trace.len(),
                    shrunk = match &f.shrunk {
                        Some(t) => format!(", shrunk to {} ops", t.len()),
                        None => String::new(),
                    },
                );
                for d in &f.divergences {
                    let _ = writeln!(out, "    {d}");
                }
            }
        }
        let rare: Vec<&str> = self
            .coverage
            .entries()
            .filter(|(f, _)| self.coverage.is_rare(f))
            .map(|(f, _)| f)
            .collect();
        if !rare.is_empty() {
            let _ = writeln!(out, "  rare features (boosted): {}", rare.join(", "));
        }
        out
    }
}

/// Derives generation weights from coverage: each feature seen in fewer
/// than ~10% of iterations gets its weight tripled, steering later
/// iterations toward the constructs (and thus the engine rules) the session
/// has under-exercised.
pub fn bias_from_coverage(coverage: &Coverage) -> GenBias {
    let mut bias = GenBias::default();
    if coverage.iterations() < 10 {
        return bias; // not enough signal yet
    }
    let boost = |w: u32, rare: bool| if rare { w * 3 } else { w };
    bias.cancel = boost(bias.cancel, coverage.is_rare("gen.cancel"));
    bias.idle = boost(bias.idle, coverage.is_rare("gen.idle"));
    bias.delayed_post = boost(bias.delayed_post, coverage.is_rare("op.post.delayed"));
    bias.front_post = boost(bias.front_post, coverage.is_rare("op.post.front"));
    bias.lock = boost(bias.lock, coverage.is_rare("gen.lock"));
    bias.fork = boost(bias.fork, coverage.is_rare("gen.fork"));
    // FIFO/NOPRE only fire with enough posts in flight.
    bias.post = boost(
        bias.post,
        coverage.is_rare("rule.fifo") || coverage.is_rare("rule.nopre"),
    );
    if coverage.is_rare("gen.enable_gate") {
        bias.enable_gate_pct = (bias.enable_gate_pct * 2).min(90);
    }
    for tag in ComponentTag::all() {
        if coverage.is_rare(&format!("gen.component.{}", tag.label())) {
            bias.set_component_pct(tag, (bias.component_pct(tag) * 3).min(60));
        }
    }
    bias
}

/// Runs a fuzzing session with the production engine configuration on both
/// oracle sides.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_fuzz_with_engines(config, HbConfig::new(), HbConfig::new())
}

/// Runs a fuzzing session with separate configurations for the engine and
/// for the spec it is checked against — the hook the injected-mutation
/// self-test uses to prove each divergence path reachable.
pub fn run_fuzz_with_engines(config: &FuzzConfig, engine: HbConfig, spec: HbConfig) -> FuzzReport {
    let start = Instant::now();
    let mut master = SmallRng::seed_from_u64(config.seed);
    let mut coverage = Coverage::new();
    let mut report = FuzzReport {
        seed: config.seed,
        iterations: 0,
        completed_runs: 0,
        total_ops: 0,
        races_found: 0,
        witnessed: BTreeMap::new(),
        unwitnessed: BTreeMap::new(),
        failures: Vec::new(),
        coverage: Coverage::new(),
        elapsed: Duration::ZERO,
    };
    let sim_config = SimConfig { max_steps: 20_000 };

    for iteration in 0..config.iters {
        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        if report.failures.len() >= config.max_failures {
            break;
        }
        report.iterations += 1;

        // Everything this iteration needs is drawn from the master RNG in a
        // fixed order, so iteration k is reproducible from the seed alone.
        let bias = bias_from_coverage(&coverage);
        let program_spec = generate(&mut master, &config.gen, &bias);
        let sched_seed = master.next_u64();
        let mut witness_rng = SmallRng::seed_from_u64(master.next_u64());
        // Streaming differential parameters, drawn after the seeds above so
        // older sessions' RNG prefixes are unchanged.
        let stream_chunk = 1 + (master.next_u64() % 97) as usize;
        let stream_summarize = master.next_u64() & 1 == 1;

        let program = match program_spec.lower() {
            Ok(p) => p,
            Err(e) => {
                // The generator guarantees lowerable specs; reaching this
                // is itself a bug worth reporting.
                report.failures.push(Failure {
                    iteration,
                    master_seed: config.seed,
                    sched_seed,
                    divergences: vec![Divergence {
                        kind: DivergenceKind::Infeasible,
                        detail: format!("generated spec failed to lower: {e:?}"),
                    }],
                    trace: Trace::default(),
                    shrunk: None,
                    shrunk_spec: None,
                });
                continue;
            }
        };
        let mut sched = RandomScheduler::from_rng(SmallRng::seed_from_u64(sched_seed));
        let result = match run(&program, &mut sched, &sim_config) {
            Ok(r) => r,
            Err(e) => {
                report.failures.push(Failure {
                    iteration,
                    master_seed: config.seed,
                    sched_seed,
                    divergences: vec![Divergence {
                        kind: DivergenceKind::Infeasible,
                        detail: format!("generated program failed to run: {e:?}"),
                    }],
                    trace: Trace::default(),
                    shrunk: None,
                    shrunk_spec: None,
                });
                continue;
            }
        };
        if result.completed {
            report.completed_runs += 1;
        }
        report.total_ops += result.trace.len() as u64;

        let oracle_report = check_trace(&result.trace, engine, spec);
        report.races_found += oracle_report.races.len() as u64;
        coverage.record(&features_of(
            Some(&program_spec),
            &result.trace,
            &oracle_report,
        ));

        let mut divergences = oracle_report.divergences.clone();

        // Layer 5: streamed ≡ batch at a seeded random chunk size.
        divergences.extend(oracle::check_stream(
            &result.trace,
            engine,
            stream_chunk,
            stream_summarize,
            &oracle_report,
        ));

        // Witnessing: attempt to manifest the single-threaded reorderable
        // races; replay mismatches surface as divergences.
        if divergences.is_empty() {
            let mut attempted = 0usize;
            for (race, category) in &oracle_report.races {
                if !matches!(category, RaceCategory::CoEnabled | RaceCategory::Delayed) {
                    continue;
                }
                if attempted >= config.witness_races_per_iter {
                    break;
                }
                attempted += 1;
                match witness_race(
                    &program,
                    &result.trace,
                    &oracle_report.stripped,
                    &result.decisions,
                    race,
                    &mut witness_rng,
                    config.witness_budget,
                ) {
                    Ok(outcome) => {
                        let bucket = if outcome.witnessed {
                            &mut report.witnessed
                        } else {
                            &mut report.unwitnessed
                        };
                        *bucket.entry(*category).or_insert(0) += 1;
                    }
                    Err(d) => divergences.push(d),
                }
            }
        }

        if !divergences.is_empty() {
            let kinds = divergences.iter().map(|d| d.kind).collect();
            let (shrunk, shrunk_spec) = if config.shrink_failures {
                match shrink(&program_spec, sched_seed, engine, spec, &kinds) {
                    Some(r) => (Some(r.trace), Some(r.spec)),
                    None => (None, None),
                }
            } else {
                (None, None)
            };
            report.failures.push(Failure {
                iteration,
                master_seed: config.seed,
                sched_seed,
                divergences,
                trace: result.trace,
                shrunk,
                shrunk_spec,
            });
        }
    }

    report.coverage = coverage;
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64, iters: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            iters,
            witness_budget: 16,
            witness_races_per_iter: 1,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn healthy_engine_survives_a_fuzz_session() {
        let report = run_fuzz(&small_config(0xD201D, 60));
        assert_eq!(report.oracle_divergences(), 0, "{}", report.render());
        assert_eq!(report.iterations, 60);
        assert!(report.total_ops > 0);
        // A generator that stops reaching a component path would leave the
        // oracles nothing to check there.
        for tag in ComponentTag::all() {
            let feature = format!("gen.component.{}", tag.label());
            assert!(
                report.coverage.count(&feature) > 0,
                "{feature} never generated"
            );
        }
    }

    #[test]
    fn streamed_layer_stays_quiet_and_exports_its_counter() {
        let report = run_fuzz(&small_config(0xD201D, 40));
        assert_eq!(report.stream_divergences(), 0, "{}", report.render());
        let mut registry = MetricsRegistry::new();
        report.export_metrics(&mut registry);
        assert_eq!(registry.counter("stream.divergences"), Some(0));
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        let a = run_fuzz(&small_config(42, 25));
        let b = run_fuzz(&small_config(42, 25));
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.races_found, b.races_found);
        assert_eq!(a.completed_runs, b.completed_runs);
        assert_eq!(a.witnessed, b.witnessed);
        assert_eq!(a.unwitnessed, b.unwitnessed);
        let feats = |r: &FuzzReport| {
            r.coverage
                .entries()
                .map(|(f, c)| (f.to_string(), c))
                .collect::<Vec<_>>()
        };
        assert_eq!(feats(&a), feats(&b));
    }

    #[test]
    fn metrics_export_uses_the_fuzz_prefix() {
        let report = run_fuzz(&small_config(7, 20));
        let mut registry = MetricsRegistry::new();
        report.export_metrics(&mut registry);
        assert_eq!(registry.counter("fuzz.iterations"), Some(20));
        assert_eq!(registry.counter("fuzz.oracle_divergences"), Some(0));
        assert!(registry.counter("fuzz.witnessed").is_some());
        assert!(registry.counter("fuzz.unwitnessed").is_some());
    }

    #[test]
    fn render_reports_the_seed() {
        let report = run_fuzz(&small_config(0xABC, 10));
        assert!(report.render().contains("0xABC"));
    }
}
