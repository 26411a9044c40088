//! The `--dedup on|off` axis shared by `fig_fault_sweep` and `campaign`:
//! what the exactly-once layer costs on the case-study exchange.
//!
//! The request-identity envelope is not free — every identified request
//! carries an id and a cumulative ack on the wire, and the client arms
//! reply timeouts that can re-send requests the bus would eventually have
//! delivered anyway. This sweep runs the §5 case study (write → idle →
//! take, background CBR) under growing burst severity with the layer off
//! and on, and tables the two costs the ISSUE names: bytes on the wire
//! and service (middleware) time.
//!
//! Both binaries accept `--dedup on|off|both` (default `both`) ahead of
//! the usual lab flags; the filter restricts which modes are swept.

use tsbus_core::{run_case_study_observed, CaseStudyConfig, RecoveryPolicy};
use tsbus_des::SimDuration;
use tsbus_faults::FaultSchedule;
use tsbus_lab::{
    run_campaign, Campaign, CampaignReport, ExecOpts, Grid, GridPoint, LabArgs, Metrics,
};

use crate::workload::burst_channel;
use crate::{fmt_secs, render_table};

/// Burst severities the cost table sweeps (0 = clean channel), matching
/// the density sweep's mean good-run lengths.
pub(crate) const COST_GAPS: [f64; 3] = [0.0, 800.0, 200.0];

/// Strips a leading-or-anywhere `--dedup on|off|both` from `args`,
/// handing everything else to [`LabArgs::parse`]. Returns the
/// exactly-once modes to sweep alongside the parsed lab flags. Binaries
/// strip other axes (e.g. `--supervision`) off the command line first.
///
/// Exits with usage on a malformed value, like the lab parser does.
#[must_use]
pub fn dedup_axis_from_args(args: Vec<String>) -> (Vec<&'static str>, LabArgs) {
    let (modes, rest) = crate::strip_mode_axis("--dedup", args);
    match LabArgs::parse(rest) {
        Ok(args) => (modes, args),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The case-study configuration one cost point runs: the Table 4
/// exchange on a 9600 bit/s bus (the 800 bit/s reference leaves ~15 s of
/// lease margin — too tight to price anything without tripping the
/// out-of-time cliff), CBR 0.3 B/s, an end-to-end recovery policy with a
/// reply timeout, a burst channel of the given mean good gap (0 = clean),
/// and the exactly-once layer on or off.
fn cost_config(gap: f64, dedup: bool) -> CaseStudyConfig {
    let mut bus = CaseStudyConfig::table4_reference()
        .bus
        .with_bit_rate(9600.0);
    if gap > 0.0 {
        bus = bus.with_burst_error(burst_channel(gap));
    }
    let mut cfg = CaseStudyConfig::table4_reference()
        .with_cbr_rate(0.3)
        .with_bus(bus)
        .with_recovery(
            RecoveryPolicy::new(4, SimDuration::from_millis(200))
                .with_reply_timeout(SimDuration::from_secs(60)),
        );
    if dedup {
        cfg = cfg.with_exactly_once();
    }
    cfg
}

/// Runs the exactly-once cost sweep as a campaign named `name`, prints
/// the table, and returns the report (for export/footer handling).
/// `modes` comes from [`dedup_axis_from_args`].
///
/// # Panics
///
/// Panics on result-store I/O errors, like every campaign entry point.
pub fn run_dedup_cost_sweep(
    name: &str,
    modes: &[&'static str],
    opts: &ExecOpts,
    seed: u64,
) -> CampaignReport<GridPoint> {
    let campaign = Campaign::new(
        name,
        Grid::new()
            .axis("gap", COST_GAPS)
            .axis("dedup", modes.to_vec())
            .points(),
    )
    .with_seed(seed);
    let report = run_campaign(&campaign, opts, GridPoint::key, |point, ctx| {
        let cfg = cost_config(point.f64("gap"), point.str("dedup") == "on");
        let (r, _) = run_case_study_observed(&cfg, &FaultSchedule::new(), ctx.seed);
        let mut m = Metrics::new()
            .bool("out_of_time", r.out_of_time)
            .u64("bytes_relayed", r.bus_bytes_relayed)
            .u64("bus_retries", r.bus_retries)
            .u64("dedup_replays", r.dedup_replays)
            .u64("reply_timeouts", r.reply_timeouts);
        if let Some(t) = r.middleware_time {
            m = m.f64("middleware_time", t.as_secs_f64());
        }
        m
    })
    .expect("result store I/O");

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            let m = p.single();
            let gap = p.point.f64("gap");
            vec![
                if gap > 0.0 {
                    format!("{gap:.0} frames")
                } else {
                    "clean".to_owned()
                },
                p.point.str("dedup").to_owned(),
                m.get_i64("bytes_relayed").to_string(),
                if m.get_bool("out_of_time") {
                    "OoT".to_owned()
                } else {
                    fmt_secs(m.get_f64("middleware_time"))
                },
                m.get_i64("bus_retries").to_string(),
                m.get_i64("dedup_replays").to_string(),
                m.get_i64("reply_timeouts").to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "gap between bursts",
                "dedup",
                "bytes on wire",
                "middleware time",
                "bus retries",
                "server replays",
                "reply timeouts",
            ],
            &rows
        )
    );
    // The envelope must actually cost bytes. Only the clean channel is a
    // controlled comparison — under bursts, aborted transactions and
    // retry timing shift what gets relayed in either direction.
    if modes.len() == 2 {
        let (off, on) = (report.points[0].single(), report.points[1].single());
        assert!(
            on.get_i64("bytes_relayed") > off.get_i64("bytes_relayed"),
            "the exactly-once envelope must cost wire bytes on a clean channel",
        );
        let extra_bytes = on.get_i64("bytes_relayed") - off.get_i64("bytes_relayed");
        println!(
            "Clean-channel price of exactly-once: {extra_bytes} extra bytes on the\n\
             wire (ids + cumulative acks on every request) and the service time\n\
             above. Under bursts the timing of retries dominates both columns.\n"
        );
    }
    report
}
