//! Byte-for-byte golden gate for the TpWIRE master's transaction engine.
//!
//! `bus_stream.rs` checks payload integrity and `proto_golden` samples the
//! frame-retry path through the campaign figures, but neither pins DMA
//! burst timing, burst retries, give-ups or supervision fast-fails. This
//! test drives one fixed traffic script (slave-to-slave and slave-to-master
//! streams, a `MasterSend`, a `BroadcastCommand`) through every
//! combination of
//!
//! * wiring: `Single`, `parallel_data(2)`, `parallel_buses(2)`;
//! * DMA: off (`dma_block = 0`) and 16-byte blocks;
//! * faults: a clean channel, 2 % uniform frame errors under exponential
//!   backoff, a dense Gilbert-Elliott burst channel, and a crash/revive
//!   plus chain-break/heal schedule;
//! * supervision: off and conservative circuit breakers;
//!
//! and renders every `StreamDelivered`, `StreamSent` and `StreamFailed`
//! (time, endpoints, length, the `fast` flag, a payload checksum), the
//! bus's obs snapshot, a digest of its trace, the kernel's event count and
//! each slave's availability. Any change to frame or burst timing, the RNG
//! draw order, retry accounting or fault handling shows up as a byte diff.
//! To bless an *intentional* behaviour change, re-run with
//! `BLESS_BUS_GOLDEN=1` and review the diff like any other golden update.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use bytes::Bytes;
use tsbus_bench::workload::{burst_channel, patient_policy};
use tsbus_des::{Component, Context, Message, MessageExt, SimTime, Simulator};
use tsbus_faults::{FaultDriver, FaultKind, FaultSchedule, SupervisionConfig};
use tsbus_obs::Tracer;
use tsbus_tpwire::{
    BroadcastCommand, BusParams, MasterSend, NodeId, SendStream, StreamDelivered, StreamEndpoint,
    StreamFailed, StreamSent, TpWireBus, Wiring,
};

/// Slaves on the chain (ids 1..=CHAIN).
const CHAIN: u8 = 5;

/// Simulated horizon of every run.
const HORIZON_MICROS: u64 = 30_000;

/// Kernel events after which a run counts as stalled (a clean run takes
/// well under a tenth of this).
const EVENT_CAP: u64 = 100_000;

/// One shared, time-ordered log of everything the bus tells attachments.
type Log = Rc<RefCell<String>>;

/// An attachment that renders each bus notification into the shared log.
struct Recorder {
    name: String,
    log: Log,
}

fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Component for Recorder {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let now = ctx.now().as_nanos();
        let mut log = self.log.borrow_mut();
        let msg = match msg.downcast::<StreamDelivered>() {
            Ok(d) => {
                writeln!(
                    log,
                    "  {now} {} delivered {}->{} len={} eom={} sum={:016x}",
                    self.name,
                    d.from,
                    d.to,
                    d.bytes.len(),
                    d.end_of_message,
                    checksum(&d.bytes),
                )
                .expect("write to string");
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<StreamSent>() {
            Ok(s) => {
                writeln!(
                    log,
                    "  {now} {} sent {}->{} len={}",
                    self.name, s.from, s.to, s.len
                )
                .expect("write to string");
                return;
            }
            Err(m) => m,
        };
        let f = msg
            .downcast::<StreamFailed>()
            .expect("the bus sends attachments only stream notifications");
        writeln!(
            log,
            "  {now} {} failed {}->{} fast={} reason={}",
            self.name,
            f.from,
            f.to.map_or_else(|| "?".to_owned(), |to| to.to_string()),
            f.fast,
            f.reason,
        )
        .expect("write to string");
    }
}

fn node(id: u8) -> NodeId {
    NodeId::new(id).expect("valid test node id")
}

/// Deterministic, position-dependent payload bytes.
fn payload(tag: u8, len: usize) -> Bytes {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
        .collect::<Vec<u8>>()
        .into()
}

#[derive(Clone, Copy)]
enum Faults {
    Clean,
    Uniform,
    Burst,
    CrashBreak,
}

impl Faults {
    const ALL: [Faults; 4] = [
        Faults::Clean,
        Faults::Uniform,
        Faults::Burst,
        Faults::CrashBreak,
    ];

    fn name(self) -> &'static str {
        match self {
            Faults::Clean => "clean",
            Faults::Uniform => "uniform2%",
            Faults::Burst => "burst100",
            Faults::CrashBreak => "crash+break",
        }
    }
}

/// Runs the traffic script on one configuration and renders the result.
fn run(out: &mut String, wiring: Wiring, dma_block: u16, faults: Faults, supervised: bool) {
    let mut params = BusParams::theseus_default()
        .with_wiring(wiring)
        .with_dma_block(dma_block);
    match faults {
        Faults::Clean | Faults::CrashBreak => {}
        Faults::Uniform => {
            params = params
                .with_frame_error_rate(0.02)
                .with_retry_policy(patient_policy());
        }
        Faults::Burst => params = params.with_burst_error(burst_channel(100.0)),
    }
    if supervised {
        params = params.with_supervision(SupervisionConfig::conservative());
    }
    writeln!(
        out,
        "== wiring={wiring:?} dma={dma_block} faults={} supervision={supervised}",
        faults.name()
    )
    .expect("write to string");

    let log: Log = Rc::default();
    let mut sim = Simulator::with_seed(2003);
    let recorders: Vec<_> = (1..=CHAIN)
        .map(|i| {
            let rec = Recorder {
                name: format!("n{i}"),
                log: Rc::clone(&log),
            };
            sim.add_component(format!("rec{i}"), rec)
        })
        .collect();
    let master_rec = sim.add_component(
        "rec_master",
        Recorder {
            name: "master".to_owned(),
            log: Rc::clone(&log),
        },
    );
    let chain: Vec<NodeId> = (1..=CHAIN).map(node).collect();
    let mut bus = TpWireBus::new(params, chain.clone());
    for (&n, &rec) in chain.iter().zip(&recorders) {
        bus.attach(n, rec);
    }
    bus.attach_master(master_rec);
    bus.obs_mut().set_tracer(Tracer::unbounded());
    let bus_id = sim.add_component("bus", bus);
    if let Faults::CrashBreak = faults {
        let schedule = FaultSchedule::new()
            .at(SimTime::from_micros(900), FaultKind::SlaveCrash(3))
            .at(SimTime::from_micros(4_000), FaultKind::SlaveRevive(3))
            .at(
                SimTime::from_micros(6_500),
                FaultKind::ChainBreak { after: 3 },
            )
            .at(SimTime::from_micros(9_500), FaultKind::ChainHeal);
        sim.add_component("faults", FaultDriver::new(bus_id, schedule));
    }

    sim.with_context(|ctx| {
        let at = SimTime::from_micros;
        let stream = |from: u8, to: StreamEndpoint, tag: u8, len: usize| SendStream {
            from: node(from),
            to,
            payload: payload(tag, len),
        };
        let slave = |id: u8| StreamEndpoint::Slave(node(id));
        ctx.schedule_at(at(0), bus_id, stream(1, slave(4), 1, 200));
        ctx.schedule_at(at(0), bus_id, stream(2, StreamEndpoint::Master, 2, 90));
        ctx.schedule_at(at(300), bus_id, stream(5, slave(3), 3, 37));
        ctx.schedule_at(
            at(500),
            bus_id,
            MasterSend {
                to: node(2),
                payload: payload(4, 60),
            },
        );
        ctx.schedule_at(at(700), bus_id, BroadcastCommand { command: 0x5A });
        ctx.schedule_at(at(1_200), bus_id, stream(3, slave(1), 5, 1));
        ctx.schedule_at(at(2_000), bus_id, stream(4, slave(5), 6, 0));
        ctx.schedule_at(at(5_000), bus_id, stream(4, slave(2), 7, 120));
        ctx.schedule_at(at(7_000), bus_id, stream(5, slave(1), 8, 48));
        ctx.schedule_at(at(7_000), bus_id, stream(2, slave(3), 9, 33));
        ctx.schedule_at(
            at(8_000),
            bus_id,
            MasterSend {
                to: node(5),
                payload: payload(10, 25),
            },
        );
        ctx.schedule_at(at(8_500), bus_id, BroadcastCommand { command: 0x11 });
        ctx.schedule_at(
            at(12_000),
            bus_id,
            stream(1, StreamEndpoint::Master, 11, 70),
        );
    });
    // Stepped rather than `run_until`, so a run that livelocks at one
    // simulated instant stops at the event cap and shows up in the golden
    // instead of hanging the test.
    let horizon = SimTime::from_micros(HORIZON_MICROS);
    while sim.now() < horizon && sim.events_processed() < EVENT_CAP {
        sim.step();
    }
    let end = sim.now();

    out.push_str(&log.borrow());
    if sim.events_processed() == EVENT_CAP {
        writeln!(out, "event cap hit at {}", end.as_nanos()).expect("write to string");
    }
    let bus: &TpWireBus = sim.component(bus_id).expect("registered");
    writeln!(out, "events_processed {}", sim.events_processed()).expect("write to string");
    for &n in &chain {
        let slave = bus.slave(n).expect("on chain");
        writeln!(
            out,
            "slave {n} availability={:.9} command=0x{:02x}",
            bus.slave_availability(n, end),
            slave.command_reg(),
        )
        .expect("write to string");
    }
    let trace = bus.obs().trace();
    let digest = trace.events().fold(0xcbf2_9ce4_8422_2325_u64, |h, event| {
        checksum(format!("{event:?}").as_bytes()) ^ h.rotate_left(5)
    });
    writeln!(out, "trace events={} digest={digest:016x}", trace.len()).expect("write to string");
    for line in bus.obs().snapshot(end).to_text().lines() {
        writeln!(out, "  obs {line}").expect("write to string");
    }
}

fn golden_text() -> String {
    let mut out = String::new();
    let wirings = [
        Wiring::Single,
        Wiring::parallel_data(2).expect("valid wiring"),
        Wiring::parallel_buses(2).expect("valid wiring"),
    ];
    for wiring in wirings {
        for dma_block in [0, 16] {
            for faults in Faults::ALL {
                for supervised in [false, true] {
                    run(&mut out, wiring, dma_block, faults, supervised);
                }
            }
        }
    }
    out
}

#[test]
fn bus_engine_runs_match_the_committed_golden() {
    let got = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/bus_engine.txt");
    if std::env::var_os("BLESS_BUS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "tests/golden/bus_engine.txt missing — generate it with \
         BLESS_BUS_GOLDEN=1 cargo test -p tsbus-integration --test bus_golden",
    );
    assert_eq!(
        got, want,
        "bus engine runs drifted from the committed golden; \
         if the behaviour change is intentional, re-bless with BLESS_BUS_GOLDEN=1"
    );
}
