//! Chaos campaign — exactly-once invariants under randomized fault storms.
//!
//! Each seed deterministically derives a burst-error channel and a fault
//! schedule (NIC crashes, chain breaks, revivals), then drives the scripted
//! write/take workload of `tsbus_core::chaos` through the full stack and
//! audits the server's tuplespace against conservation invariants: no
//! duplicate applies, no double takes, every acked write accounted for.
//!
//! The campaign runs the same seed batch twice — with the exactly-once
//! layer on and off — and is itself the acceptance gate for the protocol:
//!
//! * **dedup on** must be clean across every seed, and
//! * **dedup off** must produce at least one violation in the batch,
//!   proving the harness can actually see the failure mode it guards.
//!
//! Violating seeds are listed individually; re-running a single seed is
//! `--seed <n>`. Output is byte-identical regardless of `--threads`, and
//! `--cache-dir` reuses finished trials as usual.

use tsbus_bench::render_table;
use tsbus_bench::storm::{run_batch, seed_batch, Batch};
use tsbus_bench::supervision::{supervision_axis_from_args, supervision_row};
use tsbus_core::{run_chaos_trial, ChaosConfig, ChaosTrial};
use tsbus_faults::SupervisionConfig;
use tsbus_lab::{LabArgs, Metrics};

fn to_metrics(t: &ChaosTrial) -> Metrics {
    let detail = t
        .violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    Metrics::new()
        .u64("violations", t.violations.len() as u64)
        .bool("finished", t.finished)
        .u64("writes_acked", t.writes_acked)
        .u64("takes_with_entry", t.takes_with_entry)
        .u64("fault_events", t.fault_events as u64)
        .u64("dedup_replays", t.dedup_replays)
        .u64("reply_timeouts", t.reply_timeouts)
        .u64("stale_replies", t.stale_replies)
        .u64("bus_retries", t.bus_retries)
        .u64("bus_hard_failures", t.bus_hard_failures)
        .u64("events_observed", t.events_observed)
        .u64("trace_dropped", t.trace_dropped)
        .u64("wasted_bits", t.wasted_bits)
        .u64("open_issues", t.open_issues)
        .u64("fast_fails", t.fast_fails)
        .u64("probes", t.probes)
        .u64("rebalances", t.rebalances)
        .str("detail", &detail)
}

fn chaos_batch(
    name: &str,
    dedup: bool,
    supervision: Option<SupervisionConfig>,
    seeds: &[u64],
    args: &LabArgs,
) -> Batch {
    let cfg = ChaosConfig {
        dedup,
        supervision,
        ..ChaosConfig::default()
    };
    let batch = run_batch(name, seeds, args, &["violations"], |seed| {
        to_metrics(&run_chaos_trial(&cfg, seed))
    });
    // The harness arms only unbounded tracers; a drop would mean the audit
    // trail the invariant checks read was incomplete. Silent in the normal
    // case so batch output stays byte-identical across thread counts.
    let dropped = batch.total("trace_dropped");
    if dropped > 0 {
        println!("  warning: {dropped} trace events dropped — audit evidence incomplete");
    }
    batch
}

fn row(label: &str, o: &Batch) -> Vec<String> {
    vec![
        label.to_owned(),
        format!("{}/{}", o.violated_seeds, o.seeds),
        o.total("violations").to_string(),
        format!("{}/{}", o.total("finished"), o.seeds),
        o.total("dedup_replays").to_string(),
        o.total("reply_timeouts").to_string(),
        o.total("bus_retries").to_string(),
        o.total("bus_hard_failures").to_string(),
    ]
}

fn main() {
    let (sup_modes, rest) = supervision_axis_from_args(std::env::args().skip(1).collect());
    let args = match LabArgs::parse(rest) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let seeds = seed_batch(&args);
    let base = seeds[0];

    println!(
        "Chaos campaign — {} randomized fault-schedule seeds (base {base})\n",
        seeds.len()
    );

    println!("dedup ON (request ids + duplicate cache + reply timeouts):");
    let on = chaos_batch("chaos_dedup_on", true, None, &seeds, &args);
    println!("\ndedup OFF (same workload and faults, raw end-to-end retries):");
    let off = chaos_batch("chaos_dedup_off", false, None, &seeds, &args);

    println!(
        "\n{}",
        render_table(
            &[
                "mode",
                "violated seeds",
                "violations",
                "finished",
                "server replays",
                "reply timeouts",
                "bus retries",
                "bus hard failures",
            ],
            &[row("dedup on", &on), row("dedup off", &off)],
        )
    );

    assert_eq!(
        on.total("violations"),
        0,
        "exactly-once must hold under every fault storm ({} seeds violated)",
        on.violated_seeds
    );
    // A single-seed replay may legitimately be clean either way; only a
    // real batch must catch the ablation red-handed.
    assert!(
        off.seeds < 10 || off.total("violations") > 0,
        "the ablation must expose duplicate applies somewhere in {} seeds — \
         if it cannot, the harness is not testing anything",
        off.seeds
    );
    println!(
        "\nExactly-once holds: {} storms, zero invariant violations with the\n\
         protocol on; the same storms break conservation {} time(s) with it\n\
         off. Replay any seed above with `--seed <n>`.",
        on.seeds,
        off.total("violations")
    );

    // ---- supervised batch (--supervision on|both; skipped under off so
    // the default-off output stays byte-identical) ----
    if sup_modes.contains(&"on") {
        println!("\ndedup ON + bus supervision (circuit breakers, quarantine, rebalancing):");
        let sup = chaos_batch(
            "chaos_supervised",
            true,
            Some(SupervisionConfig::conservative()),
            &seeds,
            &args,
        );
        println!(
            "\n{}",
            render_table(
                &[
                    "mode",
                    "violations",
                    "open issues",
                    "bus retries",
                    "wasted bits",
                    "fast fails",
                    "probes",
                    "rebalances",
                ],
                &[
                    supervision_row("supervision off", &on),
                    supervision_row("supervision on", &sup),
                ],
            )
        );
        assert_eq!(
            sup.total("violations"),
            0,
            "supervised storms must stay clean, including the open-issue \
             and rebalance-conservation invariants ({} seeds violated)",
            sup.violated_seeds
        );
        assert_eq!(
            sup.total("open_issues"),
            0,
            "no request may ever be issued to a slave whose breaker is Open"
        );
        assert!(
            sup.total("wasted_bits") < on.total("wasted_bits"),
            "supervision must strictly reduce wasted bus time over the batch \
             ({} supervised vs {} unsupervised bit periods)",
            sup.total("wasted_bits"),
            on.total("wasted_bits"),
        );
        println!(
            "\nSupervision holds on the same {} storms: zero violations, zero\n\
             requests to Open slaves, and {} vs {} bit periods wasted on\n\
             failure handling ({} fast-fails, {} probes, {} rebalances).",
            sup.seeds,
            sup.total("wasted_bits"),
            on.total("wasted_bits"),
            sup.total("fast_fails"),
            sup.total("probes"),
            sup.total("rebalances"),
        );
    }
}
