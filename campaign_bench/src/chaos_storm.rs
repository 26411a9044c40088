//! `chaos_storm`: `run_chaos_trial` over a batch of trial seeds in the
//! shipping configuration (exactly-once on, conservative supervision).
//!
//! The trial topology is rebuilt here from public constructors. The
//! library derives each trial's fault environment and client script in
//! private helpers; [`derive_faults`] and [`script`] restate them, and
//! [`library_check`] proves the rebuild reproduces `run_chaos_trial`.

use std::collections::BTreeMap;

use tsbus_core::{
    run_chaos_trial, BusCbrSink, BusCbrSource, ChaosConfig, ChaosTrial, ClientStep, EndpointCosts,
    RecoveryPolicy, ScriptedClient, SpaceServerAgent, TpwireEndpoint, Violation, ViolationKind,
};
use tsbus_des::{ComponentId, SimDuration, SimRng, SimTime, Simulator};
use tsbus_faults::{BurstParams, FaultDriver, FaultKind, FaultSchedule, SupervisionConfig};
use tsbus_tpwire::{BusParams, NodeId, TpWireBus, FRAME_BITS};
use tsbus_tuplespace::{EventKind, Pattern, Template, Tuple, Value, ValueType};
use tsbus_xmlwire::{Request, Response};

use crate::outcome::{Digest, Outcome};
use crate::stack::{Layer, Stack};

/// Trials every batch starts with, whatever the workload seed: seed 11
/// (crash + revive under retries) and seed 3 (a dense burst channel that
/// trips breakers).
pub const REFERENCE_TRIALS: [u64; 2] = [11, 3];

/// Seed of the pinned storm stream shared by every batch.
const STORM_SEED: u64 = 0x5702_3A11;

/// The shipping configuration.
pub fn config() -> ChaosConfig {
    ChaosConfig {
        supervision: Some(SupervisionConfig::conservative()),
        ..ChaosConfig::default()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(state) % (hi - lo)
}

/// The fault environment `run_chaos_trial` derives from a trial seed.
pub fn derive_faults(seed: u64) -> (Option<BurstParams>, FaultSchedule) {
    let mut s = seed ^ 0x000C_4A05_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = splitmix64(&mut s);
    let burst = (draw(&mut s, 0, 3) < 2).then(|| {
        let mean_good = draw(&mut s, 300, 3_000) as f64;
        let mean_bad = draw(&mut s, 4, 40) as f64;
        BurstParams::with_mean_lengths(mean_good, mean_bad, 0.0, 1.0)
    });
    let mut schedule = FaultSchedule::new();
    for _ in 0..draw(&mut s, 1, 4) {
        let start_ms = draw(&mut s, 100, 12_000);
        let len_ms = draw(&mut s, 40, 600);
        let (start, end) = (
            SimTime::from_millis(start_ms),
            SimTime::from_millis(start_ms + len_ms),
        );
        schedule = match draw(&mut s, 0, 3) {
            0 => schedule
                .at(start, FaultKind::SlaveCrash(1))
                .at(end, FaultKind::SlaveRevive(1)),
            1 => schedule
                .at(start, FaultKind::SlaveCrash(3))
                .at(end, FaultKind::SlaveRevive(3)),
            _ => {
                let after = draw(&mut s, 1, 3) as usize;
                schedule
                    .at(start, FaultKind::ChainBreak { after })
                    .at(end, FaultKind::ChainHeal)
            }
        };
    }
    (burst, schedule)
}

fn item_template(i: u64) -> Template {
    Template::new(vec![
        Pattern::Exact(Value::from("item")),
        Pattern::Exact(Value::Int(i as i64)),
    ])
}

/// The chaos client script: subscribe, write K items, take each back.
pub fn script(n_items: u64) -> Vec<ClientStep> {
    let any_item = Template::new(vec![
        Pattern::Exact(Value::from("item")),
        Pattern::AnyOfType(ValueType::Int),
    ]);
    let mut steps = vec![ClientStep::Request(Request::Subscribe {
        template: any_item,
        kinds: vec![EventKind::Written, EventKind::Taken],
    })];
    steps.extend((0..n_items).map(|i| {
        ClientStep::Request(Request::Write {
            tuple: Tuple::new(vec![Value::from("item"), Value::Int(i as i64)]),
            lease_ns: None,
        })
    }));
    steps.extend((0..n_items).map(|i| {
        ClientStep::Request(Request::TakeIfExists {
            template: item_template(i),
        })
    }));
    steps
}

/// The batch: the reference trials, `pinned` trials of the shared storm
/// stream, and `seeded` trials drawn from the workload seed. The seeded
/// draw is stratified to the derivation's own odds (two in three trials
/// get a burst channel), because bursty trials cost ~7× quiet ones.
pub fn trial_seeds(seed: u64, pinned: usize, seeded: usize) -> Vec<u64> {
    let mut out = REFERENCE_TRIALS.to_vec();
    let mut storm = SimRng::seeded(STORM_SEED);
    out.extend((0..pinned).map(|_| storm.next_u64()));
    let mut rng = SimRng::seeded(seed).stream("chaos_storm");
    let mut bursty = seeded * 2 / 3;
    let mut quiet = seeded - bursty;
    while bursty + quiet > 0 {
        let candidate = rng.next_u64();
        let slot = if derive_faults(candidate).0.is_some() {
            &mut bursty
        } else {
            &mut quiet
        };
        if *slot > 0 {
            *slot -= 1;
            out.push(candidate);
        }
    }
    out
}

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("static node ids are in range")
}

fn item_of(tuple: &Tuple) -> Option<u64> {
    match (tuple.field(0), tuple.field(1)) {
        (Some(Value::Str(tag)), Some(&Value::Int(i))) if tag == "item" && i >= 0 => Some(i as u64),
        _ => None,
    }
}

fn violation(kind: ViolationKind, item: u64, detail: String) -> Violation {
    Violation { kind, item, detail }
}

/// Runs one trial; returns the library-shaped result with the
/// benchmark's outcome.
pub fn simulate(trial_seed: u64, stack: &Stack) -> (ChaosTrial, Outcome) {
    let cfg = config();
    let (burst, schedule) = derive_faults(trial_seed);
    let mut bus_params = BusParams::theseus_default();
    if let Some(b) = burst {
        bus_params = bus_params.with_burst_error(b);
    }
    if let Some(sup) = cfg.supervision {
        bus_params = bus_params.with_supervision(sup);
    }

    let mut sim = Simulator::with_seed(trial_seed);
    sim.set_pooling(cfg.pooling);
    // Registration order and ids as in `run_chaos_trial`.
    let client_app = ComponentId::from_raw(0);
    let server_app = ComponentId::from_raw(1);
    let ep_client = ComponentId::from_raw(2);
    let ep_server = ComponentId::from_raw(3);
    let cbr_src = ComponentId::from_raw(4);
    let cbr_sink = ComponentId::from_raw(5);
    let bus_id = ComponentId::from_raw(6);

    let recovery = RecoveryPolicy::new(6, SimDuration::from_millis(150))
        .with_reply_timeout(SimDuration::from_millis(1_200));
    let mut client = ScriptedClient::new(
        ep_client,
        node(3),
        SimDuration::from_millis(5),
        script(cfg.n_items),
    )
    .with_format(cfg.wire_format)
    .with_recovery(recovery);
    if cfg.dedup {
        client = client.with_exactly_once(1);
    }
    stack.add(&mut sim, Layer::Client, "client", client);
    let mut server = SpaceServerAgent::new(ep_server, SimDuration::from_millis(30));
    server.space_mut().set_indexed(cfg.indexed_space);
    server.space_mut().enable_audit();
    stack.add(&mut sim, Layer::Server, "server", server);
    let costs = EndpointCosts::symmetric(SimDuration::from_millis(5));
    stack.add(
        &mut sim,
        Layer::Endpoint,
        "ep_client",
        TpwireEndpoint::new(node(1), client_app, bus_id, costs),
    );
    stack.add(
        &mut sim,
        Layer::Endpoint,
        "ep_server",
        TpwireEndpoint::new(node(3), server_app, bus_id, costs),
    );
    stack.add(
        &mut sim,
        Layer::Traffic,
        "cbr",
        BusCbrSource::new(bus_id, node(2), node(4), 20.0, 2),
    );
    stack.add(&mut sim, Layer::Traffic, "cbr_sink", BusCbrSink::new());
    let mut bus = TpWireBus::new(bus_params, vec![node(1), node(2), node(3), node(4)]);
    bus.attach(node(1), ep_client);
    bus.attach(node(2), cbr_src);
    bus.attach(node(3), ep_server);
    bus.attach(node(4), cbr_sink);
    let b = stack.add(&mut sim, Layer::Tpwire, "bus", bus);
    debug_assert_eq!(b, bus_id);
    let fault_events = schedule.events().len();
    stack.add(
        &mut sim,
        Layer::Faults,
        "faults",
        FaultDriver::new(bus_id, schedule),
    );

    stack.drive(
        &mut sim,
        SimTime::ZERO + cfg.horizon,
        SimDuration::from_secs(1),
        |sim| stack.get::<ScriptedClient>(sim, client_app).is_finished(),
    );

    let client: &ScriptedClient = stack.get(&sim, client_app);
    let server: &SpaceServerAgent = stack.get(&sim, server_app);
    let bus: &TpWireBus = stack.get(&sim, bus_id);
    let stats = bus.stats();

    // Ground truth from the space's audit trail and final content.
    let k = cfg.n_items as usize;
    let mut written = vec![0u64; k];
    let mut taken = vec![0u64; k];
    let mut leftover = vec![0u64; k];
    for record in server.space().audit() {
        let Some(i) = item_of(&record.tuple).filter(|&i| (i as usize) < k) else {
            continue;
        };
        match record.kind {
            EventKind::Written => written[i as usize] += 1,
            EventKind::Taken => taken[i as usize] += 1,
            EventKind::Expired => {}
        }
    }
    for tuple in server.space().snapshot(sim.now()) {
        if let Some(i) = item_of(&tuple).filter(|&i| (i as usize) < k) {
            leftover[i as usize] += 1;
        }
    }
    // The client's view: step 0 subscribes, steps 1..=K write, then K takes.
    let mut acked = vec![false; k];
    let mut take_entry = vec![false; k];
    let mut settled_empty = vec![false; k];
    for record in client.records() {
        match record.step {
            0 => {}
            s if s <= k => acked[s - 1] = matches!(record.response, Some(Response::WriteAck)),
            s if s <= 2 * k => {
                take_entry[s - k - 1] = record.returned_entry();
                settled_empty[s - k - 1] =
                    matches!(record.response, Some(Response::Entry { tuple: None }));
            }
            _ => {}
        }
    }
    let mut notified: BTreeMap<(u64, bool), u64> = BTreeMap::new();
    for (_, event) in client.notifications() {
        if let Some(i) = item_of(&event.tuple) {
            match event.kind {
                EventKind::Written => *notified.entry((i, true)).or_default() += 1,
                EventKind::Taken => *notified.entry((i, false)).or_default() += 1,
                EventKind::Expired => {}
            }
        }
    }

    let mut violations = Vec::new();
    for i in 0..k {
        let (w, t, left) = (written[i], taken[i], leftover[i]);
        let item = i as u64;
        if w > 1 {
            violations.push(violation(
                ViolationKind::DuplicateApply,
                item,
                format!("written {w}×"),
            ));
        }
        if t > 1 {
            violations.push(violation(
                ViolationKind::DoubleTake,
                item,
                format!("taken {t}×"),
            ));
        }
        if w != t + left {
            violations.push(violation(
                ViolationKind::Conservation,
                item,
                format!("written {w}, taken {t}, leftover {left}"),
            ));
        }
        if acked[i] && w == 0 {
            violations.push(violation(
                ViolationKind::AckedWriteLost,
                item,
                "acked, never written".into(),
            ));
        }
        if acked[i] && t >= 1 && !take_entry[i] && settled_empty[i] {
            violations.push(violation(
                ViolationKind::LostDelivery,
                item,
                "taken, delivered to no one".into(),
            ));
        }
        let seen_w = notified.get(&(item, true)).copied().unwrap_or(0);
        let seen_t = notified.get(&(item, false)).copied().unwrap_or(0);
        if seen_w > w || seen_t > t {
            violations.push(violation(
                ViolationKind::PhantomNotify,
                item,
                format!("{seen_w}/{seen_t} events for {w}/{t}"),
            ));
        }
    }
    if stats.open_issues > 0 {
        violations.push(violation(
            ViolationKind::OpenIssue,
            0,
            format!("{} issues", stats.open_issues),
        ));
    }
    if !bus.supervision_conserved() {
        violations.push(violation(
            ViolationKind::RebalanceLost,
            0,
            "lane plan not conserved".into(),
        ));
    }

    let retry_overhead_bits = u64::from(FRAME_BITS)
        + u64::from(bus_params.response_timeout_bits)
        + u64::from(bus_params.gap_bits);
    let trial = ChaosTrial {
        seed: trial_seed,
        violations,
        finished: client.is_finished(),
        writes_acked: acked.iter().filter(|&&a| a).count() as u64,
        takes_with_entry: take_entry.iter().filter(|&&t| t).count() as u64,
        fault_events,
        dedup_replays: server.stats().dedup_replays,
        reply_timeouts: client.reply_timeouts(),
        stale_replies: client.stale_replies(),
        bus_retries: stats.retries,
        bus_hard_failures: stats.failures,
        events_observed: client.notifications().len() as u64,
        fast_fails: stats.fast_fails,
        client_fast_fails: client.fast_fails(),
        probes: stats.probes,
        rebalances: stats.rebalances,
        open_issues: stats.open_issues,
        wasted_bits: stats.backoff_bits + stats.retries * retry_overhead_bits,
        trace_dropped: server.space().audit_trace().dropped()
            + bus.obs().trace_dropped()
            + server.trace().dropped()
            + client.trace().dropped(),
        events_processed: sim.events_processed(),
    };

    let mut out = Outcome {
        events: trial.events_processed,
        ..Outcome::default()
    };
    out.record_client(client, 1 + 2 * cfg.n_items);
    out.counts
        .add_bus(&stats, bus.lane_utilization(0, sim.now()));
    out.counts.add_server(server);
    out.counts.wasted_bits += trial.wasted_bits;
    out.digest = Digest::new().text(&comparable(&trial));
    for v in &trial.violations {
        out.violations.push(format!("chaos seed {trial_seed}: {v}"));
    }
    (trial, out)
}

/// A trial's results with the violation list reduced to its length (the
/// benchmark words its own violation details).
fn comparable(trial: &ChaosTrial) -> String {
    let mut trial = trial.clone();
    let n = trial.violations.len();
    trial.violations.clear();
    format!("{trial:?} violations={n}")
}

/// Runs one trial through the benchmark's topology.
pub fn run(trial_seed: u64, stack: &Stack) -> Outcome {
    simulate(trial_seed, stack).1
}

/// Compares the self-assembled topology with `run_chaos_trial`.
pub fn library_check(trial_seed: u64) -> Result<(), String> {
    let (ours, _) = simulate(trial_seed, &Stack::plain());
    let lib = run_chaos_trial(&config(), trial_seed);
    if comparable(&ours) != comparable(&lib) {
        return Err(format!(
            "chaos_storm topology diverged from run_chaos_trial at seed {trial_seed}: {} vs {}",
            comparable(&ours),
            comparable(&lib)
        ));
    }
    Ok(())
}
