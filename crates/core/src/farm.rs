//! The §2.1 scalability pattern measured over the bus: producers write job
//! tuples into the space server, consumers take them, and the question the
//! estimation methodology answers is *where the bus stops the scaling* —
//! "the overall system performance are clearly proportional to the number
//! of consumers" holds only until the interconnect saturates.

use tsbus_des::{ComponentId, SimDuration, SimTime, Simulator};
use tsbus_tpwire::{BusParams, NodeId, TpWireBus};
use tsbus_tuplespace::{Pattern, Template, Tuple, Value, ValueType};
use tsbus_xmlwire::Request;

use crate::client::{ClientStep, ScriptedClient};
use crate::endpoint::{EndpointCosts, TpwireEndpoint};
use crate::server::SpaceServerAgent;

/// Parameters of a producer/consumer farm over TpWIRE.
#[derive(Debug, Clone, Copy)]
pub struct FarmConfig {
    /// Bus parameters.
    pub bus: BusParams,
    /// Number of producer clients (each on its own slave).
    pub producers: usize,
    /// Number of consumer clients (each on its own slave).
    pub consumers: usize,
    /// Jobs each producer writes.
    pub jobs_per_producer: usize,
    /// Payload bytes per job tuple.
    pub(crate) job_bytes: usize,
    /// Server processing time per request.
    pub(crate) service_time: SimDuration,
    /// Consumer-side compute per job (the §2.1 FFT work) — this is what
    /// additional consumers parallelize.
    pub consumer_think: SimDuration,
    /// Give up after this much simulated time.
    pub(crate) horizon: SimDuration,
}

impl FarmConfig {
    /// A small reference farm on the full-speed 1-wire bus.
    #[must_use]
    pub fn reference() -> Self {
        FarmConfig {
            bus: BusParams::theseus_default(),
            producers: 2,
            consumers: 2,
            jobs_per_producer: 8,
            job_bytes: 32,
            service_time: SimDuration::ZERO,
            consumer_think: SimDuration::ZERO,
            horizon: SimDuration::from_secs(300),
        }
    }
}

/// Outcome of a farm run.
#[derive(Debug, Clone, Copy)]
pub struct FarmResult {
    /// Jobs that reached a consumer.
    pub jobs_consumed: usize,
    /// Total jobs offered.
    pub jobs_offered: usize,
    /// Consumed jobs per second of simulated time.
    pub throughput: f64,
    /// Fraction of time lane 0 of the bus was busy.
    pub bus_utilization: f64,
}

fn job_tuple(producer: usize, k: usize, job_bytes: usize) -> Tuple {
    Tuple::new(vec![
        Value::from("job"),
        Value::Int((producer * 1_000_000 + k) as i64),
        Value::Bytes(vec![0xAB; job_bytes]),
    ])
}

fn job_template() -> Template {
    Template::new(vec![
        Pattern::Exact(Value::from("job")),
        Pattern::AnyOfType(ValueType::Int),
        Pattern::AnyOfType(ValueType::Bytes),
    ])
}

/// Runs the farm: producers on slaves `2..2+P`, consumers on the following
/// slaves, the space server on slave 1. Jobs flow producer → server →
/// consumer entirely over the bus.
///
/// # Panics
///
/// Panics if `producers`, `consumers` or `jobs_per_producer` is zero, or
/// the node count exceeds the TpWIRE address space.
#[must_use]
pub fn run_farm(cfg: &FarmConfig) -> FarmResult {
    assert!(cfg.producers > 0 && cfg.consumers > 0 && cfg.jobs_per_producer > 0);
    let total_jobs = cfg.producers * cfg.jobs_per_producer;
    let n_clients = cfg.producers + cfg.consumers;
    assert!(n_clients < 126, "TpWIRE addresses at most 126 slaves");

    let node = |raw: u8| NodeId::new(raw).expect("validated above");
    let server_node = node(1);

    // Id layout: client apps [0, n), server app n, endpoints [n+1, 2n+1)
    // (clients then server), bus at 2n+1.
    let mut sim = Simulator::with_seed(5);
    let server_app = ComponentId::from_raw(n_clients);
    let client_ep = |i: usize| ComponentId::from_raw(n_clients + 1 + i);
    let server_ep = ComponentId::from_raw(2 * n_clients + 1);
    let bus_id = ComponentId::from_raw(2 * n_clients + 2);

    // Producers: write all their jobs back-to-back.
    for p in 0..cfg.producers {
        let script: Vec<ClientStep> = (0..cfg.jobs_per_producer)
            .map(|k| {
                ClientStep::Request(Request::Write {
                    tuple: job_tuple(p, k, cfg.job_bytes),
                    lease_ns: None,
                })
            })
            .collect();
        sim.add_component(
            format!("producer{p}"),
            ScriptedClient::new(client_ep(p), server_node, SimDuration::ZERO, script),
        );
    }
    // Consumers: blocking takes, jobs split evenly (remainder to the first
    // consumers).
    let base = total_jobs / cfg.consumers;
    let extra = total_jobs % cfg.consumers;
    for c in 0..cfg.consumers {
        let takes = base + usize::from(c < extra);
        let script: Vec<ClientStep> = (0..takes)
            .map(|_| {
                ClientStep::Request(Request::Take {
                    template: job_template(),
                    timeout_ns: Some(cfg.horizon.as_nanos()),
                })
            })
            .collect();
        sim.add_component(
            format!("consumer{c}"),
            ScriptedClient::new(
                client_ep(cfg.producers + c),
                server_node,
                cfg.consumer_think,
                script,
            ),
        );
    }
    sim.add_component("server", SpaceServerAgent::new(server_ep, cfg.service_time));

    // Endpoints + bus.
    let chain: Vec<NodeId> = (1..=(n_clients as u8 + 1)).map(node).collect();
    let mut bus = TpWireBus::new(cfg.bus, chain);
    for i in 0..n_clients {
        let client_node = node(i as u8 + 2);
        let ep = sim.add_component(
            format!("ep{i}"),
            TpwireEndpoint::new(
                client_node,
                ComponentId::from_raw(i),
                bus_id,
                EndpointCosts::free(),
            ),
        );
        debug_assert_eq!(ep, client_ep(i));
        bus.attach(client_node, client_ep(i));
    }
    let ep = sim.add_component(
        "ep_server",
        TpwireEndpoint::new(server_node, server_app, bus_id, EndpointCosts::free()),
    );
    debug_assert_eq!(ep, server_ep);
    bus.attach(server_node, server_ep);
    let b = sim.add_component("bus", bus);
    debug_assert_eq!(b, bus_id);

    // Run until every consumer script finishes (or the horizon).
    let horizon = SimTime::ZERO + cfg.horizon;
    let slice = (cfg.horizon / 1000).max(SimDuration::from_millis(1));
    while sim.now() < horizon {
        let until = (sim.now() + slice).min(horizon);
        sim.run_until(until);
        let all_done = (0..n_clients).all(|i| {
            sim.component::<ScriptedClient>(ComponentId::from_raw(i))
                .expect("registered")
                .is_finished()
        });
        if all_done {
            break;
        }
    }

    // Harvest: count takes that actually returned an entry, and the
    // latest such completion.
    let mut consumed = 0usize;
    let mut last_done: Option<SimTime> = None;
    for c in 0..cfg.consumers {
        let client = sim
            .component::<ScriptedClient>(ComponentId::from_raw(cfg.producers + c))
            .expect("registered");
        for record in client.records() {
            if record.returned_entry() {
                consumed += 1;
                last_done = match (last_done, record.completed_at) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
        }
    }
    let completion = (consumed == total_jobs)
        .then_some(last_done)
        .flatten()
        .map(|t| t.duration_since(SimTime::ZERO));
    let bus_ref: &TpWireBus = sim.component(bus_id).expect("registered");
    let now = sim.now();
    FarmResult {
        jobs_consumed: consumed,
        jobs_offered: total_jobs,
        throughput: completion
            .map(|t| total_jobs as f64 / t.as_secs_f64())
            .unwrap_or(0.0),
        bus_utilization: bus_ref.lane_utilization(0, now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_tpwire::Wiring;

    #[test]
    fn every_job_reaches_exactly_one_consumer() {
        let result = run_farm(&FarmConfig::reference());
        assert_eq!(result.jobs_consumed, result.jobs_offered);
        assert!(result.throughput > 0.0);
    }

    #[test]
    fn consumers_share_the_work() {
        let mut cfg = FarmConfig::reference();
        cfg.producers = 1;
        cfg.consumers = 3;
        cfg.jobs_per_producer = 9;
        let result = run_farm(&cfg);
        assert_eq!(result.jobs_consumed, 9);
    }

    #[test]
    fn consumer_compute_parallelizes_until_the_bus_caps_it() {
        // With per-job compute dominating, 4 consumers beat 1 — the §2.1
        // proportionality — but never by the full 4x (shared wire).
        let mut cfg = FarmConfig::reference();
        cfg.producers = 1;
        cfg.jobs_per_producer = 12;
        cfg.consumer_think = SimDuration::from_millis(50);
        cfg.consumers = 1;
        let one = run_farm(&cfg);
        cfg.consumers = 4;
        let four = run_farm(&cfg);
        let scaling = four.throughput / one.throughput;
        assert!(
            scaling > 1.8,
            "parallel consumer compute must raise throughput (got {scaling}x)"
        );
        assert!(scaling < 4.0, "the shared wire forbids perfect scaling");
    }

    #[test]
    fn the_bus_caps_consumer_scaling() {
        // Server-side work is free here, so the 1-wire bus is the
        // bottleneck: doubling consumers cannot double throughput.
        let mut cfg = FarmConfig::reference();
        cfg.producers = 2;
        cfg.jobs_per_producer = 10;
        cfg.consumers = 1;
        let one = run_farm(&cfg);
        cfg.consumers = 4;
        let four = run_farm(&cfg);
        assert_eq!(one.jobs_consumed, one.jobs_offered);
        assert_eq!(four.jobs_consumed, four.jobs_offered);
        let scaling = four.throughput / one.throughput;
        assert!(
            scaling < 2.0,
            "the shared 1-wire bus must cap scaling (got {scaling}x)"
        );
    }

    #[test]
    fn parallel_buses_lift_the_ceiling() {
        let mut cfg = FarmConfig::reference();
        cfg.producers = 2;
        cfg.consumers = 4;
        cfg.jobs_per_producer = 10;
        let single = run_farm(&cfg);
        cfg.bus = cfg
            .bus
            .with_wiring(Wiring::parallel_buses(2).expect("valid"));
        let dual = run_farm(&cfg);
        assert_eq!(dual.jobs_consumed, dual.jobs_offered);
        assert!(
            dual.throughput > single.throughput,
            "a second bus must raise farm throughput ({} vs {})",
            single.throughput,
            dual.throughput
        );
    }
}
