//! §5 — the out-of-time traffic threshold.
//!
//! The paper reports that "by increasing the traffic on the communication
//! channel through the increase of the CBR value, the take operation does
//! not positively result after a measured threshold of data traffic". This
//! sweep measures that threshold for the 1-wire and 2-wire buses: a fine
//! CBR scan plus a bisection of the exact crossover.
//!
//! The CBR × wiring scan runs as the `tsbus-lab` campaign
//! `tsbus_bench::figures::run_cbr_scan` defines (every grid point is an
//! independent deterministic simulation; `campaign` runs the same one), so
//! it accepts the standard `--threads` / `--cache-dir` flags; the bisection
//! is adaptive (each step depends on the last) and stays a serial loop.

use tsbus_bench::figures::{run_cbr_scan, wiring_of, WIRINGS};
use tsbus_core::{run_case_study, CaseStudyConfig};
use tsbus_lab::LabArgs;
use tsbus_tpwire::BusParams;

fn out_of_time_at(base: &CaseStudyConfig, bus: BusParams, cbr: f64) -> bool {
    run_case_study(&base.with_bus(bus).with_cbr_rate(cbr)).out_of_time
}

/// Bisects the smallest CBR rate (B/s) that makes the take miss its lease,
/// or `None` if even `hi` stays in time.
fn threshold(base: &CaseStudyConfig, bus: BusParams, hi: f64) -> Option<f64> {
    if !out_of_time_at(base, bus, hi) {
        return None;
    }
    let (mut lo, mut hi) = (0.0f64, hi);
    for _ in 0..16 {
        let mid = 0.5 * (lo + hi);
        if out_of_time_at(base, bus, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

fn main() {
    let args = LabArgs::from_env();
    println!("Figure (§5) — CBR load sweep and the out-of-time threshold (lease = 160 s)\n");
    run_cbr_scan(&args.exec_opts());

    let base = CaseStudyConfig::table4_reference();
    println!("Bisected out-of-time thresholds:");
    for name in WIRINGS {
        match threshold(&base, base.bus.with_wiring(wiring_of(name)), 8.0) {
            Some(t) => println!("  {name}: take misses the lease above ~{t:.2} B/s of CBR"),
            None => println!("  {name}: no threshold up to 8 B/s"),
        }
    }
    println!(
        "\nThe 2-wire threshold sits well above the 1-wire one: the paper's conclusion\n\
         that a 2-wire implementation 'can almost double the performance' shows up\n\
         here as headroom against background traffic."
    );
}
