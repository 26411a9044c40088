//! `paper_sweep`: the Fig. 7 tuplespace case study (Table 4) over a grid
//! of wiring × CBR rate × entry size × wire format.
//!
//! The topology is assembled here exactly as `run_case_study_observed`
//! assembles it, so a traced run can time each component; every trial
//! rebuilds the library's `CaseStudyResult` and registry snapshot.

use tsbus_core::{
    case_study_script, run_case_study_observed, BusCbrSink, BusCbrSource, CaseStudyConfig,
    CaseStudyResult, RecoveryOutcome, ScriptedClient, SpaceServerAgent, TpwireEndpoint,
};
use tsbus_des::{ComponentId, SimDuration, SimRng, SimTime, Simulator};
use tsbus_faults::FaultSchedule;
use tsbus_tpwire::{NodeId, TpWireBus, Wiring};
use tsbus_xmlwire::WireFormat;

use crate::outcome::{Digest, Outcome};
use crate::stack::{Layer, Stack};

/// Simulator seed `run_case_study` uses.
const CASE_SEED: u64 = 7;

/// One grid point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The case-study configuration.
    pub cfg: CaseStudyConfig,
    /// For the six pinned Table 4 cells: whether the cell must read
    /// "Out of Time" (only 1-wire at 1 B/s does).
    pub table4_out_of_time: Option<bool>,
}

fn two_wire(cfg: CaseStudyConfig) -> CaseStudyConfig {
    cfg.with_bus(
        cfg.bus
            .with_wiring(Wiring::parallel_data(2).expect("2 data lines is a valid wiring")),
    )
}

/// The six Table 4 cells: {1-wire, 2-wire} × CBR {0, 0.3, 1} B/s.
pub fn table4_cells() -> Vec<Point> {
    let base = CaseStudyConfig::table4_reference();
    let mut cells = Vec::new();
    for wide in [false, true] {
        for cbr in [0.0, 0.3, 1.0] {
            let cfg = base.with_cbr_rate(cbr);
            cells.push(Point {
                cfg: if wide { two_wire(cfg) } else { cfg },
                table4_out_of_time: Some(!wide && cbr == 1.0),
            });
        }
    }
    cells
}

/// The pinned Table 4 cells, then the seeded grid: {1, 2} wires ×
/// {XML, binary} × `steps` CBR bands over [0, 2) B/s × two entry-size
/// bands. The seed places each point inside its CBR band and draws its
/// entry size.
pub fn points(seed: u64, steps: u64) -> Vec<Point> {
    let mut rng = SimRng::seeded(seed).stream("paper_sweep");
    let base = CaseStudyConfig::table4_reference();
    let mut out = table4_cells();
    for wide in [false, true] {
        for format in [WireFormat::Xml, WireFormat::Binary] {
            for step in 0..steps {
                for (lo, width) in [(16, 48), (96, 64)] {
                    let cbr = (step as f64 + rng.uniform_f64()) * 2.0 / steps as f64;
                    let mut cfg = base.with_cbr_rate(cbr).with_wire_format(format);
                    cfg.entry_bytes = lo + rng.below(width) as usize;
                    out.push(Point {
                        cfg: if wide { two_wire(cfg) } else { cfg },
                        table4_out_of_time: None,
                    });
                }
            }
        }
    }
    out
}

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("static node ids are in range")
}

/// Runs one point; returns the library-shaped result and snapshot text
/// alongside the benchmark's outcome.
pub fn simulate(point: &Point, stack: &Stack) -> (CaseStudyResult, String, Outcome) {
    let cfg = &point.cfg;
    let mut sim = Simulator::with_seed(CASE_SEED);
    // Registration order and ids as in `run_case_study_observed`.
    let client_app = ComponentId::from_raw(0);
    let server_app = ComponentId::from_raw(1);
    let ep_client = ComponentId::from_raw(2);
    let ep_server = ComponentId::from_raw(3);
    let cbr_src = ComponentId::from_raw(4);
    let cbr_sink = ComponentId::from_raw(5);
    let bus_id = ComponentId::from_raw(6);

    let script = case_study_script(cfg.entry_bytes, cfg.lease, cfg.take_delay);
    let mut client = ScriptedClient::new(ep_client, node(3), cfg.client_think, script)
        .with_format(cfg.wire_format);
    if let Some(policy) = cfg.recovery {
        client = client.with_recovery(policy);
    }
    if cfg.exactly_once {
        client = client.with_exactly_once(1);
    }
    stack.add(&mut sim, Layer::Client, "client", client);
    stack.add(
        &mut sim,
        Layer::Server,
        "server",
        SpaceServerAgent::new(ep_server, cfg.server_service),
    );
    stack.add(
        &mut sim,
        Layer::Endpoint,
        "ep_client",
        TpwireEndpoint::new(node(1), client_app, bus_id, cfg.client_endpoint),
    );
    stack.add(
        &mut sim,
        Layer::Endpoint,
        "ep_server",
        TpwireEndpoint::new(node(3), server_app, bus_id, cfg.server_endpoint),
    );
    stack.add(
        &mut sim,
        Layer::Traffic,
        "cbr",
        BusCbrSource::new(bus_id, node(2), node(4), cfg.cbr_rate, cfg.cbr_packet),
    );
    stack.add(&mut sim, Layer::Traffic, "cbr_sink", BusCbrSink::new());
    let mut bus = TpWireBus::new(cfg.bus, vec![node(1), node(2), node(3), node(4)]);
    bus.attach(node(1), ep_client);
    bus.attach(node(2), cbr_src);
    bus.attach(node(3), ep_server);
    bus.attach(node(4), cbr_sink);
    let b = stack.add(&mut sim, Layer::Tpwire, "bus", bus);
    debug_assert_eq!(b, bus_id);

    let horizon = SimTime::ZERO + cfg.horizon;
    let slice = SimDuration::from_secs(1).max(cfg.horizon / 3_600);
    stack.drive(&mut sim, horizon, slice, |sim| {
        stack.get::<ScriptedClient>(sim, client_app).is_finished()
    });

    let now = sim.now();
    let client: &ScriptedClient = stack.get(&sim, client_app);
    let server: &SpaceServerAgent = stack.get(&sim, server_app);
    let sink: &BusCbrSink = stack.get(&sim, cbr_sink);
    let bus: &TpWireBus = stack.get(&sim, bus_id);
    let records = client.records();
    let finished = client.is_finished();
    let write_latency = records.first().and_then(|r| r.latency());
    let take_latency = records.get(1).and_then(|r| r.latency());
    let stats = bus.stats();
    let space = server.space().stats();
    let result = CaseStudyResult {
        finished,
        total_time: client
            .finished_at()
            .map(|t| t.duration_since(SimTime::ZERO)),
        middleware_time: write_latency.zip(take_latency).map(|(w, t)| w + t),
        write_latency,
        take_latency,
        out_of_time: !finished || !records.get(1).is_some_and(|r| r.returned_entry()),
        cbr_delivered_bytes: sink.bytes(),
        bus_transactions: stats.transactions,
        bus_utilization: bus.lane_utilization(0, now),
        bus_bytes_relayed: stats.bytes_relayed,
        bus_retries: stats.retries,
        bus_hard_failures: stats.failures,
        bus_backoff_bits: stats.backoff_bits,
        bus_fast_fails: stats.fast_fails,
        bus_dropped_deliveries: stats.dropped_deliveries,
        take_recovery: records
            .get(1)
            .map_or(RecoveryOutcome::FirstTry, |r| r.recovery_outcome()),
        dedup_replays: server.stats().dedup_replays,
        reply_timeouts: client.reply_timeouts(),
        stale_replies: client.stale_replies(),
        space_writes: space.writes,
        space_takes: space.takes,
        space_misses: space.misses,
        space_expirations: space.expirations,
        trace_dropped: bus.obs().trace_dropped()
            + server.trace().dropped()
            + client.trace().dropped()
            + server.space().audit_trace().dropped(),
    };
    let snapshot = bus
        .obs()
        .snapshot(now)
        .prefixed("bus/0")
        .merge(server.metrics(now).prefixed("server"))
        .merge(server.space().metrics(now).prefixed("space"))
        .merge(client.metrics(now).prefixed("client"))
        .to_text();

    let mut out = Outcome {
        events: sim.events_processed(),
        ..Outcome::default()
    };
    out.record_client(client, 2);
    out.counts.add_bus(&stats, result.bus_utilization);
    out.counts.add_server(server);
    out.digest = Digest::new()
        .text(&format!("{result:?}"))
        .text(&snapshot)
        .text(&out.events.to_string());
    out.check(finished, || "the case study did not finish".into());
    if let Some(expected) = point.table4_out_of_time {
        out.check(result.out_of_time == expected, || {
            format!(
                "Table 4 shape: cell (cbr {}, {:?}) out_of_time = {}, expected {expected}",
                cfg.cbr_rate, cfg.bus.wiring, result.out_of_time
            )
        });
    }
    (result, snapshot, out)
}

/// Runs one point through the benchmark's topology.
pub fn run(point: &Point, stack: &Stack) -> Outcome {
    simulate(point, stack).2
}

/// Compares the self-assembled topology with `run_case_study_observed`.
pub fn library_check(point: &Point) -> Result<(), String> {
    let (ours, ours_snapshot, _) = simulate(point, &Stack::plain());
    let (lib, lib_snapshot) = run_case_study_observed(&point.cfg, &FaultSchedule::new(), CASE_SEED);
    if format!("{ours:?}") != format!("{lib:?}") || ours_snapshot != lib_snapshot.to_text() {
        return Err(format!(
            "paper_sweep topology diverged from run_case_study_observed at cbr {}: {ours:?} vs {lib:?}",
            point.cfg.cbr_rate
        ));
    }
    Ok(())
}
