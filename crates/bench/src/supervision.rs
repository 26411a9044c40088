//! The `--supervision on|off` axis shared by `fig_fault_sweep`, `chaos`
//! and `campaign`: what the self-healing bus supervision buys under
//! randomized fault storms.
//!
//! Each point runs one `tsbus_core::chaos` trial — a seed-derived burst
//! channel plus crash/chain-break schedule against the scripted write/take
//! workload — with bus supervision (per-slave health tracking, circuit
//! breakers, quarantine probing, degraded-mode rebalancing) either off
//! (the seed behaviour, bit-for-bit) or on. The sweep compares the **bit
//! periods wasted on failure handling**: backoff waits plus one timeout
//! window per retry. Supervision wins by fast-failing requests against
//! quarantined slaves instead of burning the retry/backoff schedule into
//! every outage, at the price of probe traffic and fenced-off (quickly
//! failed) requests during quarantine.
//!
//! Two supervision invariants ride along as violations and are asserted
//! here: no request is ever issued to a slave whose breaker is Open, and
//! rebalancing conserves the lane assignment.
//!
//! The sweep prints nothing when `"on"` is not among the selected modes —
//! `--supervision off` keeps every binary's output byte-identical to the
//! unsupervised baseline.

use tsbus_core::{run_chaos_trial, ChaosConfig, ChaosTrial};
use tsbus_faults::SupervisionConfig;
use tsbus_lab::{run_campaign, Campaign, CampaignReport, ExecOpts, Grid, GridPoint, Metrics};

use crate::render_table;
use crate::storm::Batch;

/// Strips `--supervision on|off|both` (default `both`) from an argument
/// list; the remaining arguments go to the next parser in the chain.
#[must_use]
pub fn supervision_axis_from_args(args: Vec<String>) -> (Vec<&'static str>, Vec<String>) {
    crate::strip_mode_axis("--supervision", args)
}

/// One supervision comparison row: `label`, then the batch's violations,
/// open issues, bus retries, wasted bits, fast fails, probes and
/// rebalances.
#[must_use]
pub fn supervision_row(label: &str, t: &Batch) -> Vec<String> {
    let mut row = vec![label.to_owned()];
    row.extend(
        [
            "violations",
            "open_issues",
            "bus_retries",
            "wasted_bits",
            "fast_fails",
            "probes",
            "rebalances",
        ]
        .map(|m| t.total(m).to_string()),
    );
    row
}

fn to_metrics(t: &ChaosTrial) -> Metrics {
    Metrics::new()
        .u64("violations", t.violations.len() as u64)
        .u64("open_issues", t.open_issues)
        .u64("fast_fails", t.fast_fails)
        .u64("client_fast_fails", t.client_fast_fails)
        .u64("probes", t.probes)
        .u64("rebalances", t.rebalances)
        .u64("bus_retries", t.bus_retries)
        .u64("wasted_bits", t.wasted_bits)
        .bool("finished", t.finished)
}

/// Runs the supervision ablation as a campaign named `name` over `seeds`,
/// prints the comparison table, asserts the supervision invariants, and
/// returns the report — or `None` (printing nothing) when `"on"` is not
/// among `modes`.
///
/// When both modes are present, additionally asserts that supervision
/// strictly reduces the batch's wasted bit periods.
///
/// # Panics
///
/// Panics on result-store I/O errors, on a supervised invariant violation,
/// or when supervision fails to pay for itself across the batch.
pub fn run_supervision_sweep(
    name: &str,
    modes: &[&'static str],
    opts: &ExecOpts,
    seeds: &[u64],
) -> Option<CampaignReport<GridPoint>> {
    if !modes.contains(&"on") {
        return None;
    }
    #[allow(clippy::cast_possible_wrap)]
    let seed_axis: Vec<i64> = seeds.iter().map(|s| *s as i64).collect();
    let campaign = Campaign::new(
        name,
        Grid::new()
            .axis("supervision", modes.to_vec())
            .axis("seed", seed_axis)
            .points(),
    );
    let report = run_campaign(&campaign, opts, GridPoint::key, |point, _ctx| {
        let cfg = ChaosConfig {
            supervision: (point.str("supervision") == "on").then(SupervisionConfig::conservative),
            ..ChaosConfig::default()
        };
        to_metrics(&run_chaos_trial(&cfg, point.i64("seed") as u64))
    })
    .expect("result store I/O");

    let mut totals: Vec<(&str, Batch)> = modes.iter().map(|m| (*m, Batch::default())).collect();
    for p in &report.points {
        let slot = totals
            .iter_mut()
            .find(|(mode, _)| *mode == p.point.str("supervision"))
            .expect("every point's mode is in the sweep");
        slot.1.add(p.single());
    }

    let rows: Vec<Vec<String>> = totals
        .iter()
        .map(|(mode, t)| {
            let mut row = supervision_row(mode, t);
            row.push(format!("{}/{}", t.total("finished"), t.seeds));
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "supervision",
                "violations",
                "open issues",
                "bus retries",
                "wasted bits",
                "fast fails",
                "probes",
                "rebalances",
                "finished",
            ],
            &rows
        )
    );

    let on = &totals
        .iter()
        .find(|(m, _)| *m == "on")
        .expect("checked above")
        .1;
    assert_eq!(
        on.total("violations"),
        0,
        "supervised trials must stay violation-free across the batch"
    );
    assert_eq!(
        on.total("open_issues"),
        0,
        "no request may ever be issued to an Open slave"
    );
    if let Some((_, off)) = totals.iter().find(|(m, _)| *m == "off") {
        assert!(
            on.total("wasted_bits") < off.total("wasted_bits"),
            "supervision must strictly reduce wasted bit periods over the \
             batch ({} supervised vs {} unsupervised)",
            on.total("wasted_bits"),
            off.total("wasted_bits"),
        );
        println!(
            "Supervision pays for itself: {} bit periods wasted on failure\n\
             handling vs {} without it ({} fast-fails, {} probes, {} rebalances\n\
             across {} seeds), with zero open-issue and conservation breaches.\n",
            on.total("wasted_bits"),
            off.total("wasted_bits"),
            on.total("fast_fails"),
            on.total("probes"),
            on.total("rebalances"),
            on.seeds,
        );
    } else {
        println!(
            "Supervised batch clean: zero violations and zero open issues\n\
             across {} seeds ({} fast-fails, {} probes, {} rebalances).\n",
            on.seeds,
            on.total("fast_fails"),
            on.total("probes"),
            on.total("rebalances"),
        );
    }
    Some(report)
}
