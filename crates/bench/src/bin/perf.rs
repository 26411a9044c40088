//! Hot-path performance gate: measures the pinned campaign workloads
//! with each optimization off (baseline) and on (optimized), writes the
//! ablation as `BENCH_perf.json`, and optionally fails on a speedup
//! regression against a committed baseline.
//!
//! ```text
//! cargo run -p tsbus-bench --release --bin perf [--smoke]
//!     [--out BENCH_perf.json] [--check crates/bench/perf_baseline.json]
//! ```
//!
//! `--smoke` shrinks every workload so the CI gate finishes in seconds,
//! and writes to `target/BENCH_perf_smoke.json` unless `--out` is given,
//! so a smoke run never overwrites the committed full-mode report;
//! `--check FILE` exits non-zero if any arm's speedup fell below 80 % of
//! the committed baseline's (ratios are compared, not absolute events/sec,
//! so the gate is insensitive to runner hardware).

use std::process::ExitCode;

use tsbus_bench::perf::{check_against, run_all};

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--check" => match args.next() {
                Some(p) => check_path = Some(p),
                None => {
                    eprintln!("--check needs a baseline JSON path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument {other} (expected --smoke, --out, --check)");
                return ExitCode::from(2);
            }
        }
    }

    let report = run_all(smoke);
    println!("{}", report.to_table());

    let out_path = out_path.unwrap_or_else(|| {
        if smoke {
            "target/BENCH_perf_smoke.json".to_owned()
        } else {
            "BENCH_perf.json".to_owned()
        }
    });
    let json = report.to_json();
    let written = std::path::Path::new(&out_path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out_path, &json));
    if let Err(e) = written {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let failures = check_against(&report, &baseline);
        if !failures.is_empty() {
            eprintln!("perf regression against {path}:");
            for failure in &failures {
                eprintln!("  {failure}");
            }
            return ExitCode::FAILURE;
        }
        println!("speedups within 20 % of {path}");
    }
    ExitCode::SUCCESS
}
