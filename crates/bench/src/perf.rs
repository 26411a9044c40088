//! Wall-clock performance harness for the simulation hot path.
//!
//! Every arm runs the same pinned, seeded workload twice — once with a
//! hot-path optimization disabled (the *baseline*) and once with it on
//! (the *optimized* run) — and reports wall-clock time and events (or
//! operations) per second for both. Because each optimization is
//! behaviour-invisible, the two runs dispatch the *same* event sequence;
//! the harness asserts that where the workload exposes an event counter.
//!
//! The arms:
//!
//! | arm | workload | baseline → optimized |
//! |---|---|---|
//! | `campaign_standing` | full-stack chaos trial over a large standing space | scans + per-event boxes → indexed space + pooled boxes |
//! | `micro_space_index` | keyed read/take against a standing [`Space`] | full scan → per-field value index |
//! | `micro_pool` | kernel self-rearming timers | fresh box per event → recycled boxes |
//! | `micro_codec` | request-envelope encoding | a fresh [`EncodeScratch`] per message → one reused scratch |
//!
//! Absolute events/sec is hardware-bound, so the regression gate
//! ([`check_against`]) compares *speedups* (optimized over baseline,
//! measured within one run on one machine) against a committed baseline
//! JSON and fails on a >20 % ratio regression.

use std::hint::black_box;
use std::time::Instant;

use tsbus_core::{ClientStep, NetDeliver, NetSend, ScriptedClient, SpaceServerAgent};
use tsbus_des::{
    Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime, Simulator,
};
use tsbus_lab::json::Json;
use tsbus_tpwire::NodeId;
use tsbus_tuplespace::{tuple, Lease, Pattern, Space, Template, Value};
use tsbus_xmlwire::{EncodeScratch, Request, RequestEnvelope, RequestId, WireFormat};

/// One arm's measurement: the same workload with an optimization off
/// (`baseline_s`) and on (`optimized_s`).
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Arm identifier (stable across runs; the gate joins on it).
    pub name: &'static str,
    /// Events (or operations) the workload dispatches per run — identical
    /// in both variants by construction.
    pub events: u64,
    /// Wall-clock seconds of the baseline variant (best of the repeats).
    pub baseline_s: f64,
    /// Wall-clock seconds of the optimized variant (best of the repeats).
    pub optimized_s: f64,
}

impl ArmResult {
    /// Baseline throughput in events per second.
    #[must_use]
    pub fn baseline_eps(&self) -> f64 {
        self.events as f64 / self.baseline_s.max(f64::EPSILON)
    }

    /// Optimized throughput in events per second.
    #[must_use]
    pub fn optimized_eps(&self) -> f64 {
        self.events as f64 / self.optimized_s.max(f64::EPSILON)
    }

    /// Optimized-over-baseline throughput ratio (>1 = the optimization
    /// pays off on this workload).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.optimized_s.max(f64::EPSILON)
    }
}

/// A full harness run: every arm, plus the mode it ran in.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `"full"` or `"smoke"` (reduced workloads for CI).
    pub mode: &'static str,
    /// Per-arm measurements.
    pub arms: Vec<ArmResult>,
}

impl PerfReport {
    /// Renders the report as JSON (one arm per line, so the committed
    /// baseline diffs readably).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tsbus-perf/v1\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str("  \"arms\": [\n");
        for (i, arm) in self.arms.iter().enumerate() {
            let sep = if i + 1 == self.arms.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"events\": {}, \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"baseline_eps\": {:.1}, \"optimized_eps\": {:.1}, \"speedup\": {:.3}}}{sep}\n",
                arm.name,
                arm.events,
                arm.baseline_s,
                arm.optimized_s,
                arm.baseline_eps(),
                arm.optimized_eps(),
                arm.speedup(),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human-readable ablation table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut rows = Vec::new();
        for arm in &self.arms {
            rows.push(vec![
                arm.name.to_owned(),
                arm.events.to_string(),
                format!("{:.0}", arm.baseline_eps()),
                format!("{:.0}", arm.optimized_eps()),
                format!("{:.2}x", arm.speedup()),
            ]);
        }
        tsbus_lab::render_table(
            &[
                "arm",
                "events",
                "baseline ev/s",
                "optimized ev/s",
                "speedup",
            ],
            &rows,
        )
    }
}

/// Reads the `(name, speedup)` pair of every arm of a report JSON (as
/// [`PerfReport::to_json`] writes it).
///
/// # Errors
///
/// Returns a message when the text is not JSON or an arm lacks its
/// `name` or `speedup`.
pub fn parse_speedups(json: &str) -> Result<Vec<(String, f64)>, String> {
    let report = Json::parse(json)?;
    let Some(Json::Arr(arms)) = report.get("arms") else {
        return Err("no \"arms\" array".to_owned());
    };
    arms.iter()
        .map(|arm| {
            let name = arm.get("name").and_then(Json::as_str);
            let speedup = arm.get("speedup").and_then(Json::as_f64);
            match (name, speedup) {
                (Some(name), Some(speedup)) => Ok((name.to_owned(), speedup)),
                _ => Err(format!("arm without name or speedup: {}", arm.encode())),
            }
        })
        .collect()
}

/// Compares this run's speedups against a committed baseline report.
/// Returns the failures: arms whose speedup fell below 80 % of the
/// baseline's (a >20 % throughput-ratio regression), or the one reason
/// the baseline could not be read. Arms missing on either side are
/// skipped — adding or retiring an arm is not a regression.
#[must_use]
pub fn check_against(current: &PerfReport, baseline_json: &str) -> Vec<String> {
    let baseline = match parse_speedups(baseline_json) {
        Ok(baseline) => baseline,
        Err(e) => return vec![format!("unreadable baseline: {e}")],
    };
    let mut failures = Vec::new();
    for arm in &current.arms {
        let Some((_, expected)) = baseline.iter().find(|(n, _)| n == arm.name) else {
            continue;
        };
        let floor = expected * 0.8;
        if arm.speedup() < floor {
            failures.push(format!(
                "{}: speedup {:.3} fell below {:.3} (80 % of the baseline {:.3})",
                arm.name,
                arm.speedup(),
                floor,
                expected,
            ));
        }
    }
    failures
}

// ---------------------------------------------------------------------
// the workloads
// ---------------------------------------------------------------------

/// Times `f` over `repeats` runs (after one warm-up) and returns the
/// best wall-clock time with the event count `f` reports. Deterministic
/// workloads make min-of-N the low-noise estimator.
fn time_best(repeats: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut events = f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        events = f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, events)
}

fn measure(name: &'static str, repeats: usize, mut run: impl FnMut(bool) -> u64) -> ArmResult {
    let (baseline_s, base_events) = time_best(repeats, || run(false));
    let (optimized_s, opt_events) = time_best(repeats, || run(true));
    assert_eq!(
        base_events, opt_events,
        "{name}: optimizations must not change the event count"
    );
    ArmResult {
        name,
        events: opt_events,
        baseline_s,
        optimized_s,
    }
}

/// An ideal point-to-point transport: relays [`NetSend`] to the peer
/// agent as [`NetDeliver`] after a fixed latency. Used by the standing
/// workload so the server's matching work — not frame-level bus
/// simulation — is the hot path, as on a fast transport.
#[derive(Debug)]
struct DirectLink {
    peer_agent: ComponentId,
    from: NodeId,
    latency: SimDuration,
}

impl Component for DirectLink {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let send = msg.downcast::<NetSend>().expect("links only relay NetSend");
        let deliver = NetDeliver {
            from: self.from,
            payload: send.payload.clone(),
        };
        ctx.schedule_in(self.latency, self.peer_agent, deliver);
        ctx.recycle_box(send);
    }
}

/// The standing-space campaign workload: a client builds a space of
/// `n_items` leased, keyed tuples under a live subscription, then takes
/// each back by key, over an ideal transport. Every applied operation
/// re-arms the expiry sweep (a full deadline scan without the index) and
/// every take matches against the standing population (a full entry scan
/// without the index), so baseline cost is O(n²) where the optimized run
/// is O(n log n).
fn standing_trial(optimized: bool, n_items: u64) -> u64 {
    let client_node = NodeId::new(1).expect("static node id");
    let server_node = NodeId::new(2).expect("static node id");

    let any_item = Template::new(vec![
        Pattern::Exact(Value::from("item")),
        Pattern::AnyOfType(tsbus_tuplespace::ValueType::Int),
    ]);
    let mut script = vec![ClientStep::Request(tsbus_xmlwire::Request::Subscribe {
        template: any_item,
        kinds: vec![tsbus_tuplespace::EventKind::Taken],
    })];
    for i in 0..n_items {
        script.push(ClientStep::Request(tsbus_xmlwire::Request::Write {
            tuple: tuple!["item", i as i64],
            lease_ns: Some(3_600_000_000_000), // 1 h: alive for the whole run
        }));
    }
    // Read, then take, each item — newest-first, so the scan baseline
    // walks the whole standing population before it finds each match
    // (seq order puts the newest entry last).
    for i in (0..n_items).rev() {
        script.push(ClientStep::Request(tsbus_xmlwire::Request::ReadIfExists {
            template: Template::new(vec![
                Pattern::Exact(Value::from("item")),
                Pattern::Exact(Value::Int(i as i64)),
            ]),
        }));
    }
    for i in (0..n_items).rev() {
        script.push(ClientStep::Request(tsbus_xmlwire::Request::TakeIfExists {
            template: Template::new(vec![
                Pattern::Exact(Value::from("item")),
                Pattern::Exact(Value::Int(i as i64)),
            ]),
        }));
    }

    let mut sim = Simulator::with_seed(3);
    sim.set_pooling(optimized);
    let client_app = ComponentId::from_raw(0);
    let server_app = ComponentId::from_raw(1);
    let link_client = ComponentId::from_raw(2);
    let link_server = ComponentId::from_raw(3);

    let c = sim.add_component(
        "client",
        ScriptedClient::new(
            link_client,
            server_node,
            SimDuration::from_millis(1),
            script,
        ),
    );
    debug_assert_eq!(c, client_app);
    let mut server = SpaceServerAgent::new(link_server, SimDuration::from_millis(2));
    server.space_mut().set_indexed(optimized);
    let s = sim.add_component("server", server);
    debug_assert_eq!(s, server_app);
    sim.add_component(
        "link_client",
        DirectLink {
            peer_agent: server_app,
            from: client_node,
            latency: SimDuration::from_micros(500),
        },
    );
    sim.add_component(
        "link_server",
        DirectLink {
            peer_agent: client_app,
            from: server_node,
            latency: SimDuration::from_micros(500),
        },
    );

    let horizon = SimTime::ZERO + SimDuration::from_secs(600);
    let slice = SimDuration::from_secs(1);
    while sim.now() < horizon {
        let until = (sim.now() + slice).min(horizon);
        sim.run_until(until);
        let client: &ScriptedClient = sim.component(client_app).expect("registered");
        if client.is_finished() {
            break;
        }
    }
    let client: &ScriptedClient = sim.component(client_app).expect("registered");
    assert!(client.is_finished(), "standing workload must complete");
    assert!(
        client.errors().is_empty(),
        "standing workload must run clean: {:?}",
        client.errors()
    );
    sim.events_processed()
}

/// Keyed read + take against a standing space of `n` tuples: O(n²)
/// total matching work under the scan baseline, O(n) with the index.
fn space_ops(optimized: bool, n: u64) -> u64 {
    let mut space = if optimized {
        Space::new()
    } else {
        Space::unindexed()
    };
    let now = SimTime::ZERO;
    for i in 0..n {
        space.write(tuple!["item", i as i64], Lease::Forever, now);
    }
    let mut hits = 0u64;
    for pass in 0..2 {
        for i in 0..n {
            let template = Template::new(vec![
                Pattern::Exact(Value::from("item")),
                Pattern::Exact(Value::Int(i as i64)),
            ]);
            let hit = if pass == 0 {
                space.read(&template, now).is_some()
            } else {
                space.take(&template, now).is_some()
            };
            if hit {
                hits += 1;
            }
        }
    }
    assert_eq!(hits, 2 * n, "every keyed lookup must hit");
    3 * n // writes + reads + takes
}

/// Self-rearming timer for the kernel arms: every delivery schedules the
/// next until the budget runs out.
#[derive(Debug)]
struct Tick {
    remaining: u64,
}

#[derive(Debug)]
struct Ticker {
    period: SimDuration,
    budget: u64,
}

impl Component for Ticker {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let budget = self.budget;
        ctx.schedule_self_in(self.period, Tick { remaining: budget });
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let tick = msg.downcast::<Tick>().expect("tickers only receive ticks");
        if tick.remaining > 0 {
            let next = Tick {
                remaining: tick.remaining - 1,
            };
            ctx.schedule_self_in(self.period, next);
        }
        ctx.recycle_box(tick);
    }
}

/// Kernel-only workload: `tickers` components firing `events_each` timer
/// events apiece, with staggered periods so the pending set stays wide.
fn ticker_storm(pooling: bool, tickers: u64, events_each: u64) -> u64 {
    let mut sim = Simulator::with_seed(1);
    sim.set_pooling(pooling);
    for t in 0..tickers {
        sim.add_component(
            format!("ticker{t}"),
            Ticker {
                period: SimDuration::from_nanos(1_000 + t * 7),
                budget: events_each,
            },
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
    sim.events_processed()
}

/// Steady-state encode loop: one request envelope per iteration, in both
/// wire formats, through a fresh scratch per message (baseline) or one
/// reused scratch (optimized).
fn codec_loop(optimized: bool, iterations: u64) -> u64 {
    let envelope = RequestEnvelope::identified(
        RequestId { client: 1, seq: 42 },
        7,
        Request::Write {
            tuple: tuple!["item", 42, "payload with <markup> & entities"],
            lease_ns: Some(160_000_000_000),
        },
    );
    let mut scratch = EncodeScratch::new();
    let mut bytes = 0u64;
    for _ in 0..iterations {
        for format in [WireFormat::Xml, WireFormat::Binary] {
            if optimized {
                bytes += black_box(scratch.request_envelope(&envelope, format)).len() as u64;
            } else {
                let mut fresh = EncodeScratch::new();
                bytes += black_box(fresh.request_envelope(&envelope, format)).len() as u64;
            }
        }
    }
    black_box(bytes);
    2 * iterations
}

/// Runs every arm at the given scale. `smoke` shrinks the workloads so
/// the CI gate finishes in seconds; ratios stay comparable because both
/// variants of an arm shrink together.
#[must_use]
pub fn run_all(smoke: bool) -> PerfReport {
    let repeats = if smoke { 2 } else { 3 };
    let standing_items = if smoke { 768 } else { 4096 };
    let space_n = if smoke { 1 << 9 } else { 1 << 12 };
    let tickers = if smoke { 64 } else { 256 };
    let ticks_each = if smoke { 500 } else { 2_000 };
    let codec_iters = if smoke { 20_000 } else { 200_000 };

    let arms = vec![
        measure("campaign_standing", repeats, |opt| {
            standing_trial(opt, standing_items)
        }),
        measure("micro_space_index", repeats, |opt| space_ops(opt, space_n)),
        measure("micro_pool", repeats, |opt| {
            ticker_storm(opt, tickers, ticks_each)
        }),
        measure("micro_codec", repeats, |opt| codec_loop(opt, codec_iters)),
    ];
    PerfReport {
        mode: if smoke { "smoke" } else { "full" },
        arms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_speedups_roundtrip_through_the_gate_parser() {
        let report = PerfReport {
            mode: "smoke",
            arms: vec![
                ArmResult {
                    name: "a",
                    events: 10,
                    baseline_s: 2.0,
                    optimized_s: 1.0,
                },
                ArmResult {
                    name: "b",
                    events: 10,
                    baseline_s: 1.0,
                    optimized_s: 2.0,
                },
            ],
        };
        let parsed = parse_speedups(&report.to_json()).expect("a report parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "a");
        assert!((parsed[0].1 - 2.0).abs() < 1e-9);
        assert!((parsed[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn the_gate_flags_only_real_regressions() {
        let baseline = PerfReport {
            mode: "smoke",
            arms: vec![ArmResult {
                name: "a",
                events: 10,
                baseline_s: 3.0,
                optimized_s: 1.0,
            }],
        }
        .to_json();
        let mut current = PerfReport {
            mode: "smoke",
            arms: vec![ArmResult {
                name: "a",
                events: 10,
                baseline_s: 2.5,
                optimized_s: 1.0,
            }],
        };
        assert!(
            check_against(&current, &baseline).is_empty(),
            "2.5 vs 3.0 is inside the 20 % band"
        );
        current.arms[0].baseline_s = 2.0;
        assert_eq!(
            check_against(&current, &baseline).len(),
            1,
            "2.0 vs 3.0 is a regression"
        );
        current.arms[0].name = "unknown";
        assert!(
            check_against(&current, &baseline).is_empty(),
            "unmatched arms are skipped"
        );
    }

    #[test]
    fn workloads_report_identical_event_counts_across_variants() {
        assert_eq!(space_ops(false, 64), space_ops(true, 64));
        assert_eq!(ticker_storm(false, 4, 50), ticker_storm(true, 4, 50));
        assert_eq!(codec_loop(false, 10), codec_loop(true, 10));
    }
}
