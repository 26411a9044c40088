//! `campaign` — regenerate the whole sweep-figure set in one invocation.
//!
//! ```text
//! cargo run -p tsbus-bench --release --bin campaign -- \
//!     [--threads N] [--seeds N] [--seed S] [--cache-dir DIR] \
//!     [--obs-snapshot FILE]
//! ```
//!
//! Runs every sweep-style figure as a `tsbus-lab` campaign over one
//! shared thread pool:
//!
//! 1. the §5 CBR × wiring scan (`fig_cbr_sweep`),
//! 2. the §3.2 wire-count case study (`fig_scaling`) — both the very
//!    campaigns those binaries run (`tsbus_bench::figures`), so one cache
//!    directory serves all three,
//! 3. the burst-density fault sweep — **seed-replicated**: `--seeds N`
//!    runs N independent Gilbert-Elliott realizations per point (seed
//!    streams derived from the campaign master seed) and reports
//!    mean ± 95% CI completion time across them.
//!
//! With `--cache-dir` every point's measurement lands in a config-hash
//! JSONL store: a re-run skips everything unchanged, and the full
//! long-format results are also exported through the ASCII/CSV/JSONL
//! emitters under `<cache-dir>/exports/`.
//!
//! With `--obs-snapshot FILE` the run finishes by capturing the unified
//! observability registry of one fixed-seed reference case study and
//! writing its textual snapshot to `FILE`. Because every simulation is
//! single-threaded and seed-pinned, that file is byte-identical across
//! `--threads` settings — CI diffs two captures to prove it.

use std::time::Instant;
use tsbus_bench::dedup_cost::{dedup_axis_from_args, run_dedup_cost_sweep};
use tsbus_bench::figures::{run_cbr_scan, run_wire_scaling};
use tsbus_bench::render_table;
use tsbus_bench::supervision::{run_supervision_sweep, supervision_axis_from_args};
use tsbus_bench::workload::{burst_bus, burst_channel, patient_policy, run_stream_workload};
use tsbus_core::{run_case_study_observed, CaseStudyConfig};
use tsbus_faults::FaultSchedule;
use tsbus_lab::{
    run_campaign, snapshot_to_metrics, AsciiEmitter, Campaign, CampaignReport, CsvEmitter, Emitter,
    ExecOpts, Grid, GridPoint, JsonlEmitter, Metrics,
};

const DEFAULT_MASTER_SEED: u64 = 20030415; // the paper's conference date

fn export<P>(report: &CampaignReport<P>, opts: &ExecOpts) {
    let Some(dir) = &opts.cache_dir else { return };
    let exports = dir.join("exports");
    if let Err(e) = std::fs::create_dir_all(&exports) {
        eprintln!("warning: cannot create {}: {e}", exports.display());
        return;
    }
    let outputs = [
        (AsciiEmitter.extension(), AsciiEmitter.format(report)),
        (CsvEmitter.extension(), CsvEmitter.format(report)),
        (JsonlEmitter.extension(), JsonlEmitter.format(report)),
    ];
    for (ext, text) in outputs {
        let path = exports.join(format!("{}.{ext}", report.name));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn footer<P>(report: &CampaignReport<P>) {
    // Deterministic facts on stdout (CI diffs and greps it); wall-clock
    // timing goes to stderr so reruns stay byte-identical.
    println!(
        "[{}] {} points, {} simulated / {} cached\n",
        report.name,
        report.points.len(),
        report.simulated,
        report.cached,
    );
    eprintln!(
        "[{}] {:.2} s wall-clock",
        report.name,
        report.elapsed.as_secs_f64()
    );
}

fn main() {
    let (sup_modes, rest) = supervision_axis_from_args(std::env::args().skip(1).collect());
    let (dedup_modes, args) = dedup_axis_from_args(rest);
    let opts = args.exec_opts();
    let master_seed = args.seed.unwrap_or(DEFAULT_MASTER_SEED);
    let started = Instant::now();
    println!(
        "Campaign run: threads={}, seeds={}, master seed={}, cache={}\n",
        if opts.threads == 0 {
            "auto".to_owned()
        } else {
            opts.threads.to_string()
        },
        args.seeds,
        master_seed,
        opts.cache_dir
            .as_ref()
            .map_or_else(|| "off".to_owned(), |d| d.display().to_string()),
    );

    // ---- 1. §5 CBR × wiring scan (deterministic; single replication) ----
    println!("(1) CBR load sweep — middleware time vs background traffic (lease = 160 s)");
    let report = run_cbr_scan(&opts);
    export(&report, &opts);
    footer(&report);

    // ---- 2. §3.2 wire-count case study (deterministic) ----
    println!("(2) n-wire scaling — case-study middleware time (CBR 0.3 B/s)");
    let report = run_wire_scaling(&opts);
    export(&report, &opts);
    footer(&report);

    // ---- 3. burst-density fault sweep, seed-replicated ----
    let campaign = Campaign::new(
        "fig_fault_sweep_replicated",
        Grid::new()
            .axis("gap", [800.0, 400.0, 200.0, 100.0])
            .points(),
    )
    .with_seed(master_seed)
    .with_replications(args.seeds);
    let report = run_campaign(&campaign, &opts, GridPoint::key, |point, ctx| {
        let params = burst_bus(Some(burst_channel(point.f64("gap"))), patient_policy());
        let o = run_stream_workload(params, 30, 64, ctx.seed);
        Metrics::new()
            .u64("delivered", o.delivered)
            .u64("retries", o.retries)
            .f64("elapsed_ms", o.elapsed * 1e3)
    })
    .expect("result store I/O");
    println!(
        "(3) burst-density fault sweep — {} Gilbert-Elliott realizations per point",
        args.seeds
    );
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            let time = &p.summary["elapsed_ms"];
            let retries = &p.summary["retries"];
            vec![
                format!("{:.0} frames", p.point.f64("gap")),
                format!("{:.2} ± {:.2} ms", time.mean, time.ci95),
                format!("{:.2} ms", time.stddev),
                format!("{:.1}", retries.mean),
                time.n.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "gap between bursts",
                "completion (mean ± 95% CI)",
                "stddev",
                "mean retries",
                "n",
            ],
            &rows
        )
    );
    // Denser bursts must cost more time on average (the fig_fault_sweep
    // monotonicity claim, now across seed replications).
    let means: Vec<f64> = report
        .points
        .iter()
        .map(|p| p.summary["elapsed_ms"].mean)
        .collect();
    for pair in means.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "mean completion time must degrade with burst density ({:.3} then {:.3})",
            pair[0],
            pair[1],
        );
    }
    export(&report, &opts);
    footer(&report);

    // ---- 4. exactly-once cost axis (dedup off vs on, --dedup filter) ----
    println!("(4) exactly-once cost — bytes on the wire and middleware time");
    let report = run_dedup_cost_sweep("campaign_dedup_cost", &dedup_modes, &opts, master_seed);
    export(&report, &opts);
    footer(&report);

    // ---- 5. bus supervision ablation (--supervision filter) ----
    // Skipped entirely under `--supervision off` so the default-off output
    // stays byte-identical to the unsupervised baseline.
    if sup_modes.contains(&"on") {
        println!("(5) bus supervision — wasted bus time with circuit breakers off vs on");
        let seeds: Vec<u64> = (0..16).collect();
        if let Some(report) =
            run_supervision_sweep("campaign_supervision", &sup_modes, &opts, &seeds)
        {
            export(&report, &opts);
            footer(&report);
        }
    }

    // ---- optional: reference registry capture for determinism checks ----
    if let Some(path) = &args.obs_snapshot {
        let (result, snapshot) = run_case_study_observed(
            &CaseStudyConfig::table4_reference().with_cbr_rate(0.3),
            &FaultSchedule::new(),
            master_seed,
        );
        if result.trace_dropped > 0 {
            println!(
                "warning: reference capture dropped {} trace events",
                result.trace_dropped
            );
        }
        if let Err(e) = std::fs::write(path, snapshot.to_text()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!(
                "[obs] wrote {} metrics to {}",
                snapshot_to_metrics(&snapshot).names().len(),
                path.display()
            );
        }
    }

    println!("Figure set regenerated.");
    eprintln!(
        "Figure set regenerated in {:.2} s wall-clock.",
        started.elapsed().as_secs_f64()
    );
}
