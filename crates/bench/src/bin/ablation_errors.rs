//! Ablation — frame-error rate versus retries, failures and stream
//! integrity.
//!
//! The specification prescribes resend-on-timeout/CRC-error with a bounded
//! retry count; our master adds an alternating-bit stream-read port so
//! retries never duplicate or lose stream bytes. This sweep injects frame
//! errors and measures what the recovery machinery costs.

use tsbus_bench::render_table;
use tsbus_bench::workload::run_stream_workload;
use tsbus_tpwire::BusParams;

fn main() {
    println!("Ablation — frame-error injection (per-frame corruption probability)\n");
    let messages = 20;
    let len = 64;
    let mut rows = Vec::new();
    for rate in [0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let params = BusParams::theseus_default().with_frame_error_rate(rate);
        let o = run_stream_workload(params, messages, len, 17);
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
         in a row (max_retries = 3). The alternating-bit read port keeps payload\n\
         bytes intact through every retried transaction."
    );
}
