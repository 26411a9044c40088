//! The tsbus campaign benchmark.
//!
//! ```text
//! campaign-bench --workload <paper_sweep|chaos_storm|shard_tier|standing_space>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one thread. A workload is a fixed list of trials made
//! from the seed; the benchmark sets it up (median of several set-ups),
//! then runs closed-loop passes over the trials — each trial starts when
//! the previous one finished — until `--seconds` have gone by, checking
//! every trial's simulated results. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics with the tracing overhead. The last
//! stdout line is one JSON object; see `README.md` for every metric.

mod chaos_storm;
mod outcome;
mod paper_sweep;
mod reference;
mod replay;
mod shard_tier;
mod stack;
mod standing_space;
#[cfg(test)]
mod tests;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use outcome::{Counts, Digest, Outcome};
use replay::Replay;
use stack::{Layer, Ledger, Stack};

/// Workload names, in report order.
const WORKLOADS: [&str; 4] = ["paper_sweep", "chaos_storm", "shard_tier", "standing_space"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// An untraced run executes each trial this many times on average, at
/// least. Repeats do the same simulated work, so they differ only by host
/// interference, and a trial's host time is its fastest repeat.
const MIN_REPEATS: usize = 3;
/// Every second untraced pass is a refinement pass: it re-runs only the
/// trials whose best host time per kernel event is more than this factor
/// above the median trial's, the ones most likely not yet timed free of
/// interference (all of them when none is).
const REFINE_ABOVE: f64 = 1.1;

/// Workload size: `Full` is the benchmark, `Small` the shrunken variant
/// the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    #[cfg(test)]
    Small,
}

/// A workload's generated inputs.
enum Inputs {
    Paper(Vec<paper_sweep::Point>),
    Chaos(Vec<u64>),
    Shard(Vec<shard_tier::Trial>),
    Standing(standing_space::Plan),
}

impl Inputs {
    fn generate(workload: &str, seed: u64, size: Size) -> Option<Inputs> {
        let full = size == Size::Full;
        Some(match workload {
            "paper_sweep" => Inputs::Paper(paper_sweep::points(seed, if full { 16 } else { 2 })),
            "chaos_storm" => Inputs::Chaos(if full {
                chaos_storm::trial_seeds(seed, 95, 3)
            } else {
                chaos_storm::trial_seeds(seed, 1, 3)
            }),
            "shard_tier" => Inputs::Shard(shard_tier::trials(seed, if full { 100 } else { 4 })),
            "standing_space" => Inputs::Standing(standing_space::plan(
                seed,
                if full {
                    standing_space::Size {
                        population: 20_000,
                        trials: 120,
                        ops_per_trial: 200,
                    }
                } else {
                    standing_space::Size {
                        population: 300,
                        trials: 4,
                        ops_per_trial: 40,
                    }
                },
            )),
            _ => return None,
        })
    }

    /// Trials in the list.
    fn trials(&self) -> usize {
        match self {
            Inputs::Paper(points) => points.len(),
            Inputs::Chaos(seeds) => seeds.len(),
            Inputs::Shard(trials) => trials.len(),
            Inputs::Standing(plan) => plan.trials(),
        }
    }

    /// Leading trials whose inputs do not depend on the seed.
    fn pinned(&self) -> usize {
        match self {
            Inputs::Paper(_) => paper_sweep::table4_cells().len(),
            Inputs::Chaos(_) => chaos_storm::REFERENCE_TRIALS.len(),
            Inputs::Shard(_) => 1,
            Inputs::Standing(_) => 0,
        }
    }

    /// The warm-up: checks the self-assembled topology against the
    /// library entry point on every pinned trial.
    fn warm_up(&self) -> Result<(), String> {
        let pinned = self.pinned();
        match self {
            Inputs::Paper(points) => points[..pinned]
                .iter()
                .try_for_each(paper_sweep::library_check),
            Inputs::Chaos(seeds) => seeds[..pinned]
                .iter()
                .try_for_each(|&s| chaos_storm::library_check(s)),
            Inputs::Shard(trials) => trials[..pinned]
                .iter()
                .try_for_each(shard_tier::library_check),
            Inputs::Standing(plan) => {
                // No library entry point: the topology is the benchmark's own.
                let mut session = standing_space::Session::new(plan, &Stack::plain());
                let events = session.advance(0);
                let out = session.outcome(0, events);
                match out.violations.first() {
                    Some(v) => Err(v.clone()),
                    None => Ok(()),
                }
            }
        }
    }

    /// One closed-loop pass over the trials in `only` (all when `None`;
    /// `standing_space` trials share one session and always run in full):
    /// each trial's index, host seconds and outcome.
    fn pass(&self, stack: &Stack, only: Option<&[usize]>) -> Vec<(usize, f64, Outcome)> {
        fn each<T>(
            items: &[T],
            only: Option<&[usize]>,
            stack: &Stack,
            run: impl Fn(&T, &Stack) -> Outcome,
        ) -> Vec<(usize, f64, Outcome)> {
            let all: Vec<usize> = (0..items.len()).collect();
            only.unwrap_or(&all)
                .iter()
                .map(|&i| {
                    stack.set_trial(i);
                    let started = Instant::now();
                    let out = run(&items[i], stack);
                    (i, started.elapsed().as_secs_f64(), out)
                })
                .collect()
        }
        match self {
            Inputs::Paper(points) => each(points, only, stack, paper_sweep::run),
            Inputs::Chaos(seeds) => each(seeds, only, stack, |&s, st| chaos_storm::run(s, st)),
            Inputs::Shard(trials) => each(trials, only, stack, shard_tier::run),
            Inputs::Standing(plan) => {
                // Writing the population is per-pass preparation. All
                // trials share one space, so the replay keeps them together.
                stack.set_trial(0);
                let mut session = stack.untimed(|| standing_space::Session::new(plan, stack));
                (0..plan.trials())
                    .map(|t| {
                        let started = Instant::now();
                        let events = session.advance(t);
                        let secs = started.elapsed().as_secs_f64();
                        (t, secs, session.outcome(t, events))
                    })
                    .collect()
            }
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: reference::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Linear-interpolated quantile of a sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Folds per-trial digests.
fn pass_digest(outcomes: &[Outcome], range: std::ops::Range<usize>) -> Digest {
    outcomes[range]
        .iter()
        .fold(Digest::new(), |d, o| d.fold(o.digest))
}

fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Everything the run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    /// Host seconds of full untraced and traced passes.
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Host seconds of each untraced execution, per trial.
    trial_s: Vec<Vec<f64>>,
    /// The first pass's outcomes: the simulated results every later
    /// execution must reproduce.
    first: Vec<Outcome>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    replay: Replay,
}

impl Run {
    /// Checks one pass against its invariants and the first pass.
    fn check_pass(&mut self, pass: &[(usize, f64, Outcome)]) {
        self.attempted += pass.len() as u64;
        for (i, _, out) in pass {
            let mismatch = self
                .first
                .get(*i)
                .is_some_and(|f| f.digest != out.digest || f.events != out.events);
            if !out.violations.is_empty() || mismatch {
                self.failed += 1;
                if self.problems.len() < 8 {
                    self.problems.push(if mismatch {
                        format!("trial {i}: results differ from the first pass")
                    } else {
                        out.violations.join("; ")
                    });
                }
            }
        }
    }

    /// The trials a refinement pass re-runs, in list order (`None`: all).
    fn refine_subset(&self) -> Option<Vec<usize>> {
        let per_event: Vec<f64> = self
            .trial_s
            .iter()
            .zip(&self.first)
            .map(|(times, out)| fastest(times) / out.events.max(1) as f64)
            .collect();
        let cut = REFINE_ABOVE * quantile(&sorted(per_event.clone()), 0.5);
        let picked: Vec<usize> = (0..per_event.len())
            .filter(|&i| per_event[i] > cut)
            .collect();
        (!picked.is_empty()).then_some(picked)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();

    // Set-up: generate the inputs, then the warm-up trial (which also
    // checks the topology against the library). Repeated at instants
    // spread over the run, so the median spans the host's noise.
    let setup = |run: &mut Run| {
        let started = Instant::now();
        let inputs = Inputs::generate(&args.workload, args.seed, Size::Full)
            .expect("workload name validated");
        if let Err(e) = inputs.warm_up() {
            run.problems.push(e);
            run.failed += 1;
        }
        run.attempted += 1;
        run.setup_s.push(started.elapsed().as_secs_f64());
        inputs
    };
    let inputs = setup(&mut run);
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let traced_stack = Stack::traced(Rc::clone(&ledger));
    let started = Instant::now();
    let mut traced_passes = 0u64;
    let mut passes = 0usize;
    loop {
        while run.setup_s.len() < SETUP_REPEATS
            && started.elapsed().as_secs_f64()
                >= args.seconds * run.setup_s.len() as f64 / SETUP_REPEATS as f64
        {
            setup(&mut run);
        }
        // A traced run alternates full untraced and traced passes; an
        // untraced one alternates full and refinement passes.
        let traced = args.trace && run.plain_walls.len() > traced_passes as usize;
        let refine = !args.trace && passes % 2 == 1;
        let subset = if refine { run.refine_subset() } else { None };
        passes += 1;
        let stack = if traced {
            traced_stack.clone()
        } else {
            Stack::plain()
        };
        let pass = inputs.pass(&stack, subset.as_deref());
        let wall: f64 = pass.iter().map(|(_, s, _)| s).sum();
        run.check_pass(&pass);
        if traced {
            traced_passes += 1;
            run.traced_walls.push(wall);
            let stream = std::mem::take(&mut ledger.borrow_mut().delivered);
            run.replay += replay::replay(&stream);
        } else {
            if pass.len() == inputs.trials() {
                run.plain_walls.push(wall);
            }
            for (i, secs, _) in &pass {
                match run.trial_s.get_mut(*i) {
                    Some(times) => times.push(*secs),
                    None => run.trial_s.push(vec![*secs]),
                }
            }
        }
        if run.first.is_empty() {
            run.first = pass.into_iter().map(|(_, _, out)| out).collect();
        }
        let executions: usize = run.trial_s.iter().map(Vec::len).sum();
        let enough = if args.trace {
            traced_passes > 0
        } else {
            executions >= MIN_REPEATS * run.first.len()
        };
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    while run.setup_s.len() < SETUP_REPEATS {
        setup(&mut run);
    }

    // Reference digests: the pinned trials always, the whole pass for
    // the seeds with a committed reference.
    let pinned = pass_digest(&run.first, 0..inputs.pinned());
    let full = pass_digest(&run.first, 0..run.first.len());
    if let Some(want) = reference::pinned(&args.workload) {
        if want != pinned.0 {
            run.failed += 1;
            run.problems.push(format!(
                "pinned trials digest {:016x} differs from the committed {want:016x}",
                pinned.0
            ));
        }
    }
    if let Some(want) = reference::seeded(&args.workload, args.seed) {
        if want != full.0 {
            run.failed += 1;
            run.problems.push(format!(
                "pass digest {:016x} differs from the committed {want:016x}",
                full.0
            ));
        }
    }

    let first: Vec<&Outcome> = run.first.iter().collect();
    let events: u64 = first.iter().map(|o| o.events).sum();
    let latencies = sorted(
        first
            .iter()
            .flat_map(|o| o.op_latency_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect(),
    );
    let completed = latencies.len() as f64;
    let attempted_ops: u64 = first.iter().map(|o| o.ops_attempted).sum();
    let ok_ops: u64 = first.iter().map(|o| o.ops_ok).sum();
    let mut counts = Counts::default();
    for o in &first {
        counts += o.counts;
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let l = ledger.borrow();
        let per_pass = |v: u64| v as f64 / traced_passes as f64;
        let handles: u64 = l.self_ns.iter().sum();
        let kernel_ns = per_pass(l.run_ns.saturating_sub(handles));
        // Layer host time as a share of the driven host time: absent
        // layers read 0 as a ratio, not as a time.
        let share = |layer: Layer| ratio(l.layer_ns(layer) as f64, l.run_ns as f64);
        let r = &run.replay;
        let plain_wall = quantile(&sorted(run.plain_walls.clone()), 0.5);
        let traced_wall = quantile(&sorted(run.traced_walls.clone()), 0.5);
        metrics.extend([
            ("des.events", events as f64, "count"),
            ("des.self_ms", kernel_ns / 1e6, "ms"),
            ("des.ns_per_event", ratio(kernel_ns, events as f64), "ns"),
            ("des.pending_peak", l.pending_peak as f64, "count"),
            (
                "tpwire.dispatches",
                per_pass(l.layer_dispatches(Layer::Tpwire)),
                "count",
            ),
            ("tpwire.self_share", share(Layer::Tpwire), "ratio"),
            ("tpwire.txn", counts.txn as f64, "count"),
            ("tpwire.polls", counts.polls as f64, "count"),
            (
                "tpwire.poll_share",
                ratio(counts.polls as f64, counts.txn as f64),
                "ratio",
            ),
            ("tpwire.retries", counts.bus_retries as f64, "count"),
            ("tpwire.backoff_bits", counts.backoff_bits as f64, "bits"),
            (
                "tpwire.utilization",
                ratio(counts.utilization_sum, counts.buses as f64),
                "ratio",
            ),
            ("endpoint.self_share", share(Layer::Endpoint), "ratio"),
            ("client.self_share", share(Layer::Client), "ratio"),
            (
                "client.reply_timeouts",
                counts.reply_timeouts as f64,
                "count",
            ),
            ("server.self_share", share(Layer::Server), "ratio"),
            ("server.dedup_replays", counts.dedup_replays as f64, "count"),
            ("space.ops", counts.space_ops as f64, "count"),
            ("space.misses", counts.space_misses as f64, "count"),
            (
                "space.ns_per_op",
                ratio(r.space_ns as f64, r.space_ops as f64),
                "ns",
            ),
            (
                "codec.bytes_per_op",
                ratio(r.bytes as f64, r.requests as f64),
                "B",
            ),
            (
                "codec.encode_ns_per_msg",
                ratio(r.encode_ns as f64, r.messages as f64),
                "ns",
            ),
            (
                "codec.decode_ns_per_msg",
                ratio(r.decode_ns as f64, r.messages as f64),
                "ns",
            ),
            ("proto.retries", counts.proto_retries as f64, "count"),
            ("proto.stale_replies", counts.stale_replies as f64, "count"),
            ("proto.fast_fails", counts.fast_fails as f64, "count"),
            ("proto.parked_subops", counts.parked_subops as f64, "count"),
            (
                "proto.useful_ratio",
                ratio(ok_ops as f64, counts.attempts as f64),
                "ratio",
            ),
            ("supervise.trips", counts.trips as f64, "count"),
            ("supervise.probes", counts.probes as f64, "count"),
            ("chaos.wasted_bits", counts.wasted_bits as f64, "bits"),
            ("router.self_share", share(Layer::Router), "ratio"),
            (
                "router.subreqs_per_op",
                ratio(counts.subreqs as f64, completed),
                "count",
            ),
            (
                "router.quorum_failures",
                counts.quorum_failures as f64,
                "count",
            ),
            ("router.read_repairs", counts.read_repairs as f64, "count"),
            (
                "trace.overhead",
                ratio(traced_wall, plain_wall) - 1.0,
                "ratio",
            ),
        ]);
        print_layer_table(&args.workload, &l, traced_passes, kernel_ns);
    } else {
        // Each trial's host time is its fastest untraced repeat.
        let trial_ms = sorted(run.trial_s.iter().map(|t| fastest(t) * 1e3).collect());
        metrics.extend([
            ("setup_s", quantile(&sorted(run.setup_s.clone()), 0.5), "s"),
            ("wall_s", trial_ms.iter().sum::<f64>() / 1e3, "s"),
            ("trial_ms_p50", quantile(&trial_ms, 0.5), "ms"),
            ("trial_ms_p90", quantile(&trial_ms, 0.9), "ms"),
            (
                "events_per_op",
                ratio(events as f64, completed),
                "events/op",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("sim_op_ms_p50", quantile(&latencies, 0.5), "sim-ms"),
            ("sim_op_ms_p90", quantile(&latencies, 0.9), "sim-ms"),
            (
                "sim_op_ok_ratio",
                ratio(ok_ops as f64, attempted_ops as f64),
                "ratio",
            ),
        ]);
    }

    println!(
        "workload {} seed {} (default {}, held-out {}) trace {}: {} trials/pass, {} untraced + {} traced passes, {} trials timed",
        args.workload,
        args.seed,
        reference::DEFAULT_SEED,
        reference::HELD_OUT_SEED,
        u8::from(args.trace),
        run.first.len(),
        run.plain_walls.len(),
        traced_passes,
        run.trial_s.len(),
    );
    let walls: Vec<String> = run.plain_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("untraced pass walls (s): {}", walls.join(" "));
    println!(
        "digest pinned {:016x} pass {:016x}; check_fail_ratio {}",
        pinned.0,
        full.0,
        ratio(run.failed as f64, run.attempted as f64)
    );
    for problem in &run.problems {
        println!("CHECK FAILED: {problem}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }

    let correct = run.failed == 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints where a traced pass's host time went, layer by layer.
fn print_layer_table(workload: &str, ledger: &Ledger, passes: u64, kernel_ns: f64) {
    let per_pass = |v: u64| v as f64 / passes as f64;
    let run_ns = per_pass(ledger.run_ns);
    let mut rows: Vec<(&str, f64, f64)> = Layer::ALL
        .iter()
        .map(|&l| {
            (
                l.name(),
                per_pass(ledger.layer_dispatches(l)),
                per_pass(ledger.layer_ns(l)),
            )
        })
        .filter(|&(_, d, _)| d > 0.0)
        .collect();
    rows.push(("des (kernel)", 0.0, kernel_ns));
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("per-layer host time, {workload}, per traced pass:");
    println!(
        "  {:<14} {:>12} {:>12} {:>8}",
        "layer", "dispatches", "self ms", "share"
    );
    for (name, dispatches, ns) in &rows {
        println!(
            "  {name:<14} {dispatches:>12.0} {:>12.3} {:>7.1}%",
            ns / 1e6,
            100.0 * ratio(*ns, run_ns)
        );
    }
    if let Some((name, _, ns)) = rows.first() {
        println!(
            "hottest layer on {workload}: {name} ({:.1}% of driven host time)",
            100.0 * ratio(*ns, run_ns)
        );
    }
}
