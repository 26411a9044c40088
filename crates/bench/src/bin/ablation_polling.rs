//! Ablation — the master's keep-alive/discovery poll cadence
//! (`idle_poll_bits`).
//!
//! Polls are how the master discovers pending data (the SELECT acknowledge
//! carries the pending-interrupt bit) and how idle slaves' 2048-bit reset
//! watchdogs stay fed. Frequent polls cut discovery latency but burn bus
//! time; rare polls risk slave resets on an idle bus. This sweep measures
//! both effects.

use tsbus_bench::workload::idle_bus_probe;
use tsbus_bench::{fmt_secs, render_table};
use tsbus_core::{run_case_study, CaseStudyConfig};
use tsbus_des::SimTime;
use tsbus_tpwire::BusParams;

fn main() {
    println!("Ablation — master poll cadence (idle_poll_bits)\n");
    let base = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
    let mut rows = Vec::new();
    for poll_bits in [64u32, 128, 256, 512, 1024, 2048, 4096] {
        let mut bus = base.bus;
        bus.idle_poll_bits = poll_bits;
        // Idle-bus probe at the full Theseus rate so discovery latency is
        // readable in milliseconds: one byte into a 4-slave chain after
        // 5 s idle.
        let mut fast = BusParams::theseus_default();
        fast.idle_poll_bits = poll_bits;
        let (latency, resets) = idle_bus_probe(
            fast,
            4,
            2,
            1,
            SimTime::from_secs(5),
            SimTime::from_secs(10),
            3,
        );
        let result = run_case_study(&base.with_bus(bus));
        rows.push(vec![
            poll_bits.to_string(),
            format!("{:.1} µs", latency * 1e6),
            resets.to_string(),
            match result.middleware_time {
                Some(t) if !result.out_of_time => fmt_secs(t.as_secs_f64()),
                _ => "Out of Time".to_owned(),
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "idle_poll_bits",
                "idle discovery latency (8 Mb/s bus)",
                "slave resets in 5 s idle",
                "case-study time (0.3 B/s CBR)",
            ],
            &rows
        )
    );
    println!(
        "Beyond ~2048 bit periods between polls, idle slaves start hitting their\n\
         reset watchdogs (the specification's hard bound); far below it, polls tax\n\
         the loaded bus without improving discovery."
    );
}
