//! The unified observability snapshot is a pure function of
//! (config, faults, seed): byte-identical across repeat runs, across
//! threads, and stable under the lab metrics bridge. This is the
//! in-process twin of the CI step that diffs `campaign --obs-snapshot`
//! captures taken at different `--threads` settings.

use tsbus_core::{run_case_study_observed, CaseStudyConfig};
use tsbus_faults::FaultSchedule;
use tsbus_lab::snapshot_to_metrics;

fn reference_capture(seed: u64) -> (tsbus_core::CaseStudyResult, String) {
    let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
    let (result, snapshot) = run_case_study_observed(&cfg, &FaultSchedule::new(), seed);
    (result, snapshot.to_text())
}

#[test]
fn snapshot_is_byte_identical_across_runs_and_threads() {
    let (here_result, here) = reference_capture(7);
    assert!(here_result.finished);
    assert!(!here.is_empty());

    let (_, again) = reference_capture(7);
    assert_eq!(here, again, "same seed, same process: must match exactly");

    let (_, elsewhere) = std::thread::spawn(|| reference_capture(7))
        .join()
        .expect("capture thread");
    assert_eq!(
        here, elsewhere,
        "thread placement must not leak into metrics"
    );

    // With an empty fault schedule the run is fully deterministic, so the
    // seed is inert — but the workload must steer the capture.
    let quiet = CaseStudyConfig::table4_reference();
    let (_, other) = run_case_study_observed(&quiet, &FaultSchedule::new(), 7);
    assert_ne!(here, other.to_text(), "the workload must steer the capture");
}

#[test]
fn snapshot_spans_every_layer_and_agrees_with_the_result() {
    let cfg = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
    let (result, snapshot) = run_case_study_observed(&cfg, &FaultSchedule::new(), 7);

    for prefix in ["bus/0/", "server/", "space/", "client/"] {
        assert!(
            snapshot
                .rows()
                .iter()
                .any(|(path, _)| path.starts_with(prefix)),
            "no metrics under '{prefix}' in the unified snapshot",
        );
    }
    assert_eq!(snapshot.count("bus/0/txn/total"), result.bus_transactions);
    assert_eq!(snapshot.count("bus/0/retry/total"), result.bus_retries);
    assert_eq!(snapshot.count("space/op/writes"), result.space_writes);
    assert_eq!(snapshot.count("space/op/takes"), result.space_takes);
    assert_eq!(result.trace_dropped, 0, "no bounded tracer is armed here");

    // The lab bridge carries the whole capture into a Metrics record.
    let metrics = snapshot_to_metrics(&snapshot);
    assert_eq!(metrics.names().len(), snapshot.flatten().len());
    assert_eq!(
        metrics.get_i64("space/op/writes"),
        i64::try_from(result.space_writes).expect("small count"),
    );
}

/// Byte-for-byte golden of the unified snapshot: every registered metric
/// path and value for the reference case study, plain and exactly-once,
/// at seed 7. The benchmark's digests fold in this registry text, so a
/// renamed, dropped or re-counted metric shows up here as a diff. To bless
/// an intentional change, re-run with `BLESS_OBS_GOLDEN=1` and review the
/// diff like any other golden update.
#[test]
fn snapshot_matches_committed_golden() {
    let base = CaseStudyConfig::table4_reference().with_cbr_rate(0.3);
    let mut got = String::new();
    for (name, cfg) in [("plain", base), ("exactly_once", base.with_exactly_once())] {
        let (result, snapshot) = run_case_study_observed(&cfg, &FaultSchedule::new(), 7);
        assert!(result.finished, "{name}: the reference run must finish");
        got.push_str(&format!("== {name} seed=7\n"));
        got.push_str(&snapshot.to_text());
        if !got.ends_with('\n') {
            got.push('\n');
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/obs_snapshot.txt");
    if std::env::var_os("BLESS_OBS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "tests/golden/obs_snapshot.txt missing — generate it with \
         BLESS_OBS_GOLDEN=1 cargo test -p tsbus-integration --test obs_snapshot",
    );
    assert_eq!(
        got, want,
        "the obs snapshot drifted from the committed golden; \
         if the change is intentional, re-bless with BLESS_OBS_GOLDEN=1"
    );
}
