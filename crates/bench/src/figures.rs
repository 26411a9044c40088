//! The case-study campaigns that both a figure binary and `campaign`
//! run: the §5 CBR × wiring scan (`fig_cbr_sweep`) and the §3.2
//! wire-count case study (`fig_scaling`).
//!
//! Each campaign name has exactly one definition here — its grid, the
//! metrics it records and the table it prints — so the result cache
//! holds the same metric set whichever binary wrote it, and a warm cache
//! serves every binary that shares the name. Each function prints its
//! table to stdout and `<campaign>: N simulated / M cached` to stderr,
//! and returns the report for the caller's export and footer.

use tsbus_core::{run_case_study, CaseStudyConfig};
use tsbus_lab::{run_campaign, Campaign, CampaignReport, ExecOpts, Grid, GridPoint, Metrics};
use tsbus_tpwire::Wiring;

use crate::{fmt_secs, log_cache_use, render_table};

/// The CBR rates (B/s) the §5 scan covers.
const CBR_RATES: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0];

/// The scan's wiring axis, by the names its cache keys use.
pub const WIRINGS: [&str; 2] = ["1-wire", "2-wire"];

/// The mode A (parallel data lines) wiring with `lines` data lines.
///
/// # Panics
///
/// Panics if `lines` is zero or beyond what the wiring supports.
#[must_use]
pub fn mode_a_wiring(lines: u8) -> Wiring {
    if lines == 1 {
        Wiring::Single
    } else {
        Wiring::parallel_data(lines).expect("lines >= 2")
    }
}

/// The wiring an `"<n>-wire"` axis name stands for: mode A with `n`
/// data lines.
///
/// # Panics
///
/// Panics on any other name.
#[must_use]
pub fn wiring_of(name: &str) -> Wiring {
    let lines = name
        .strip_suffix("-wire")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unknown wiring '{name}'"));
    mode_a_wiring(lines)
}

/// Runs the §5 scan as the campaign `fig_cbr_sweep`: the Table 4
/// reference case study at every CBR rate × wiring, printed as one row
/// per rate (`OoT` where the take misses its lease).
///
/// # Panics
///
/// Panics on result-store I/O errors.
pub fn run_cbr_scan(opts: &ExecOpts) -> CampaignReport<GridPoint> {
    let base = CaseStudyConfig::table4_reference();
    let campaign = Campaign::new(
        "fig_cbr_sweep",
        Grid::new()
            .axis("cbr", CBR_RATES)
            .axis("wiring", WIRINGS)
            .points(),
    );
    let report = run_campaign(&campaign, opts, GridPoint::key, |point, _ctx| {
        let bus = base.bus.with_wiring(wiring_of(point.str("wiring")));
        let result = run_case_study(&base.with_bus(bus).with_cbr_rate(point.f64("cbr")));
        let mut m = Metrics::new().bool("out_of_time", result.out_of_time);
        if let Some(t) = result.middleware_time {
            m = m.f64("middleware_time", t.as_secs_f64());
        }
        m.u64("space_writes", result.space_writes)
            .u64("space_takes", result.space_takes)
            .u64("space_misses", result.space_misses)
            .u64("space_expirations", result.space_expirations)
            .u64("trace_dropped", result.trace_dropped)
    })
    .expect("result store I/O");
    log_cache_use(&report);

    // Pivot the long-format report into the figure's wiring columns.
    let mut by_point = report.points.iter();
    let rows: Vec<Vec<String>> = CBR_RATES
        .iter()
        .map(|cbr| {
            let mut row = vec![format!("{cbr}")];
            for _ in WIRINGS {
                let m = by_point.next().expect("grid covers cbr x wiring").single();
                row.push(if m.get_bool("out_of_time") {
                    "OoT".to_owned()
                } else {
                    fmt_secs(m.get_f64("middleware_time"))
                });
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_table(&["CBR (B/s)", "1-wire", "2-wire"], &rows)
    );
    report
}

/// Runs the §3.2 case study as the campaign `fig_scaling_case_study`:
/// the Table 4 reference case study at CBR 0.3 B/s on 1–4 mode A wires.
///
/// # Panics
///
/// Panics on result-store I/O errors, or if the case study does not
/// finish at some wire count.
pub fn run_wire_scaling(opts: &ExecOpts) -> CampaignReport<GridPoint> {
    let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
    let campaign = Campaign::new(
        "fig_scaling_case_study",
        Grid::new().axis("wires", 1u8..=4).points(),
    );
    let report = run_campaign(&campaign, opts, GridPoint::key, |point, _ctx| {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let lines = point.i64("wires") as u8;
        let result = run_case_study(&cfg.with_bus(cfg.bus.with_wiring(mode_a_wiring(lines))));
        let time = result
            .middleware_time
            .expect("case study finishes at every wire count");
        Metrics::new()
            .f64("middleware_time", time.as_secs_f64())
            .bool("out_of_time", result.out_of_time)
    })
    .expect("result store I/O");
    log_cache_use(&report);

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|point| {
            let m = point.single();
            vec![
                point.point.i64("wires").to_string(),
                fmt_secs(m.get_f64("middleware_time")),
                if m.get_bool("out_of_time") {
                    "yes"
                } else {
                    "no"
                }
                .to_owned(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["wires (mode A)", "middleware time", "out of time?"],
            &rows
        )
    );
    report
}
