//! Figure — burst-error severity × master retry policy.
//!
//! Two questions the uniform-error ablation cannot answer:
//!
//! 1. How does completion time degrade as burst errors get worse, when the
//!    retry machinery is allowed to wait bursts out?
//! 2. Does *when* you retry matter? The Gilbert-Elliott channel corrupts
//!    frames in clusters, so an immediate resend hammers into the same
//!    burst that killed the original — while an exponential backoff lets
//!    simulated time pass until the channel has likely recovered.
//!
//! The sweep runs a fixed stream workload (messages node 1 → node 2,
//! `tsbus_bench::workload`) under a burst channel of growing severity,
//! then pits the seed's immediate-resend policy against fixed and
//! exponential backoff on a harsh channel where every in-burst frame is
//! lost. A third sweep prices the exactly-once layer on the case-study
//! exchange — bytes on the wire and middleware time, dedup off vs on,
//! filtered by `--dedup on|off|both`. A fourth sweep prices the bus
//! supervision layer (circuit breakers + degraded-mode rebalancing) on
//! the chaos storms, filtered by `--supervision on|off|both` — with
//! `--supervision off` the sweep is skipped and the output stays
//! byte-identical to the unsupervised baseline. All sweeps run as
//! `tsbus-lab` campaigns on the reference seed (23), so the tables are
//! reproducible; `--threads` / `--cache-dir` apply as usual.
//!
//! Severity is swept as burst *density* (shorter good sojourns between
//! bursts) at 100% in-burst loss, not as the in-burst loss rate. Partial
//! in-burst loss is non-monotone by nature: occasional mid-burst successes
//! reset the exponential backoff to its shortest wait, so a 75%-loss burst
//! can cost more wall time than a 100%-loss one the master skips over with
//! a few long waits.

use tsbus_bench::dedup_cost::{dedup_axis_from_args, run_dedup_cost_sweep};
use tsbus_bench::render_table;
use tsbus_bench::supervision::{run_supervision_sweep, supervision_axis_from_args};
use tsbus_bench::workload::{
    burst_bus, burst_channel, patient_policy, run_stream_workload, Outcome, REFERENCE_SEED,
};
use tsbus_faults::{Backoff, RetryParams, RetryPolicy};
use tsbus_lab::{run_campaign, Campaign, Metrics, PointResult};

const MESSAGES: u64 = 30;
const LEN: usize = 64;

fn to_metrics(o: &Outcome) -> Metrics {
    Metrics::new()
        .u64("delivered", o.delivered)
        .u64("retries", o.retries)
        .u64("failures", o.failures)
        .u64("backoff_events", o.backoff_events)
        .bool("intact", o.intact)
        .f64("elapsed", o.elapsed)
}

fn main() {
    let (sup_modes, rest) = supervision_axis_from_args(std::env::args().skip(1).collect());
    let (dedup_modes, args) = dedup_axis_from_args(rest);
    let opts = args.exec_opts();

    println!("Fault sweep 1 — burst density under a patient (exponential) policy\n");
    // Points are plain `Option<f64>` mean-good gaps — campaigns are not
    // tied to grids; any point type with a canonical key works.
    let severities: Vec<Option<f64>> =
        vec![None, Some(800.0), Some(400.0), Some(200.0), Some(100.0)];
    let campaign = Campaign::new("fig_fault_sweep_density", severities);
    let report = run_campaign(
        &campaign,
        &opts,
        |p| p.map_or_else(|| "gap=clean".to_owned(), |g| format!("gap={g:?}")),
        |p, _ctx| {
            let params = burst_bus(p.map(burst_channel), patient_policy());
            let o = run_stream_workload(params, MESSAGES, LEN, REFERENCE_SEED);
            to_metrics(&o)
        },
    )
    .expect("result store I/O");

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for PointResult { point, reps, .. } in &report.points {
        let m = &reps[0];
        let delivered = m.get_i64("delivered");
        assert_eq!(
            delivered as u64, MESSAGES,
            "the patient policy must deliver everything at mean good run {point:?}"
        );
        assert!(m.get_bool("intact"), "delivered streams must be byte-exact");
        let elapsed = m.get_f64("elapsed");
        times.push(elapsed);
        rows.push(vec![
            point.map_or_else(|| "clean".to_owned(), |g| format!("{g:.0} frames")),
            format!(
                "{:.2}%",
                point.map_or(0.0, |g| burst_channel(g).mean_error_rate()) * 100.0
            ),
            m.get_i64("retries").to_string(),
            m.get_i64("backoff_events").to_string(),
            m.get_i64("failures").to_string(),
            format!("{delivered}/{MESSAGES}"),
            format!("{:.2} ms", elapsed * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "gap between bursts",
                "mean error rate",
                "retries",
                "backoff waits",
                "hard failures",
                "delivered",
                "completion time",
            ],
            &rows
        )
    );
    for pair in times.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "completion time must degrade monotonically with burst severity \
             ({:.3} ms then {:.3} ms)",
            pair[0] * 1e3,
            pair[1] * 1e3,
        );
    }
    println!(
        "Completion time degrades monotonically with burst severity; every\n\
         message still lands because the backoff outlives the bursts.\n"
    );

    println!("Fault sweep 2 — retry policy on a harsh channel (100% in-burst loss)\n");
    let policies: Vec<(&str, RetryPolicy)> = vec![
        ("immediate x3 (seed)", RetryPolicy::immediate(3)),
        (
            "fixed 64 bits x3",
            RetryPolicy::uniform(RetryParams {
                max_retries: 3,
                backoff: Backoff::Fixed { bits: 64 },
            }),
        ),
        (
            "exponential 256..1024 x3",
            RetryPolicy::uniform(RetryParams {
                max_retries: 3,
                backoff: Backoff::Exponential {
                    base_bits: 256,
                    cap_bits: 1024,
                },
            }),
        ),
    ];
    let campaign = Campaign::new("fig_fault_sweep_policy", policies);
    let report = run_campaign(
        &campaign,
        &opts,
        |(name, _)| format!("policy={name}"),
        |(_, policy), _ctx| {
            let params = burst_bus(Some(burst_channel(100.0)), *policy);
            let o = run_stream_workload(params, MESSAGES, LEN, REFERENCE_SEED);
            to_metrics(&o)
        },
    )
    .expect("result store I/O");

    let mut rows = Vec::new();
    let mut delivered = Vec::new();
    for PointResult {
        point: (name, _),
        reps,
        ..
    } in &report.points
    {
        let m = &reps[0];
        delivered.push(m.get_i64("delivered"));
        let elapsed = m.get_f64("elapsed");
        rows.push(vec![
            (*name).to_owned(),
            m.get_i64("retries").to_string(),
            m.get_i64("backoff_events").to_string(),
            m.get_i64("failures").to_string(),
            format!("{}/{}", m.get_i64("delivered"), MESSAGES),
            if elapsed.is_nan() {
                "-".to_owned()
            } else {
                format!("{:.2} ms", elapsed * 1e3)
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "retry policy",
                "retries",
                "backoff waits",
                "hard failures",
                "delivered",
                "time to last delivery",
            ],
            &rows
        )
    );
    assert!(
        delivered[2] > delivered[0],
        "exponential backoff must recover messages the immediate policy loses \
         ({} vs {})",
        delivered[2],
        delivered[0],
    );
    println!(
        "Same retry budget, different clocks: immediate resends die inside the\n\
         burst that killed the first attempt, while exponential backoff waits\n\
         long enough for the Gilbert-Elliott channel to leave the bad state.\n"
    );

    println!("Fault sweep 3 — what the exactly-once layer costs (--dedup axis)\n");
    run_dedup_cost_sweep(
        "fig_fault_sweep_dedup_cost",
        &dedup_modes,
        &opts,
        REFERENCE_SEED,
    );

    // Skipped entirely under `--supervision off`, keeping the sweep's
    // default-off output byte-identical to the unsupervised baseline.
    if sup_modes.contains(&"on") {
        println!("Fault sweep 4 — bus supervision under chaos storms (--supervision axis)\n");
        let seeds: Vec<u64> = (0..16).collect();
        run_supervision_sweep("fig_fault_sweep_supervision", &sup_modes, &opts, &seeds);
    }
}
