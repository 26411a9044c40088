//! Ablation — frame-error rate versus retries, failures and stream
//! integrity.
//!
//! The specification prescribes resend-on-timeout/CRC-error with a bounded
//! retry count; our master adds an alternating-bit stream-read port so a
//! retried read returns the latched byte instead of popping a fresh one.
//! This sweep injects frame errors and measures what the recovery machinery
//! costs, and the footer reports, from the measured rows, up to which rate
//! every stream still arrived whole.

use tsbus_bench::render_table;
use tsbus_bench::workload::run_stream_workload;
use tsbus_tpwire::BusParams;

fn main() {
    println!("Ablation — frame-error injection (per-frame corruption probability)\n");
    let messages = 20;
    let len = 64;
    let mut rows = Vec::new();
    // Highest rate at which every message arrived byte-exact, and the first
    // rate at which the master abandoned a transfer.
    let mut all_intact_up_to = None;
    let mut first_abandoned = None;
    for rate in [0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let params = BusParams::theseus_default().with_frame_error_rate(rate);
        let o = run_stream_workload(params, messages, len, 17);
        if o.delivered == messages && o.intact {
            all_intact_up_to = Some(rate);
        }
        if o.failures > 0 && first_abandoned.is_none() {
            first_abandoned = Some(rate);
        }
        rows.push(vec![
            format!("{:.1}%", rate * 100.0),
            o.transactions.to_string(),
            o.retries.to_string(),
            o.failures.to_string(),
            format!("{}/{}", o.delivered, messages),
            if o.intact { "yes" } else { "NO" }.to_owned(),
            format!("{:.1} ms", o.elapsed * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "error rate",
                "transactions",
                "retries",
                "failures",
                "messages delivered",
                "bytes intact",
                "time to last delivery",
            ],
            &rows
        )
    );
    println!(
        "Retries grow linearly with the error rate; hard failures need four losses\n\
         in a row (max_retries = 3)."
    );
    match all_intact_up_to {
        Some(rate) => println!(
            "Every message arrived with its payload bytes intact up to {:.1}% frame errors.",
            rate * 100.0
        ),
        None => println!("No error rate delivered every message intact."),
    }
    if let Some(rate) = first_abandoned {
        println!(
            "At {:.1}% the master abandoned transfers after exhausting its retries, and\n\
             the relay no longer ends every stream whole (ROADMAP item 11).",
            rate * 100.0
        );
    }
}
