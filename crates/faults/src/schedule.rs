//! Timed fault schedules and the driver component that fires them.
//!
//! A [`FaultSchedule`] is a list of `(instant, fault)` pairs. A
//! [`FaultDriver`] registered in the simulation delivers each as a
//! [`FaultCommand`] message to its target component (typically the TpWIRE
//! bus), which interprets the [`FaultKind`]. Keeping the driver generic
//! means any component that understands `FaultCommand` can be faulted the
//! same way.

use tsbus_des::{Component, Context, Message, SimTime};

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The slave with this node id stops responding entirely (no TX
    /// acknowledgement, no stream service) until revived.
    SlaveCrash(u8),
    /// Brings a crashed slave back. Its bus-facing state is stale, so the
    /// next transaction typically walks the slave through its hardware
    /// reset path (the 2048-bit-period timeout of the spec).
    SlaveRevive(u8),
    /// Forces an immediate local reset of the slave's bus interface, as if
    /// its watchdog fired: selection, pointers, and stream toggles revert
    /// to power-on state.
    SlaveReset(u8),
    /// Severs the daisy chain after `after` devices: frames addressed past
    /// the break are lost, and replies from beyond it never return.
    ChainBreak {
        /// Number of chain positions still reachable (0 = nothing).
        after: usize,
    },
    /// Repairs a chain break.
    ChainHeal,
}

/// The message a [`FaultDriver`] delivers at each scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCommand(pub FaultKind);

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub(crate) at: SimTime,
    /// What happens.
    pub(crate) kind: FaultKind,
}

/// An ordered collection of timed faults.
///
/// # Examples
///
/// ```
/// use tsbus_des::SimTime;
/// use tsbus_faults::{FaultKind, FaultSchedule};
///
/// let schedule = FaultSchedule::new()
///     .at(SimTime::from_millis(10), FaultKind::SlaveCrash(2))
///     .at(SimTime::from_millis(30), FaultKind::SlaveRevive(2));
/// assert_eq!(schedule.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fault at an absolute instant (builder style).
    #[must_use]
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A component that delivers a [`FaultSchedule`] to a target component.
///
/// Register it alongside the components under test; at `start` it schedules
/// every event, then stays silent.
#[derive(Debug)]
pub struct FaultDriver {
    target: tsbus_des::ComponentId,
    schedule: FaultSchedule,
}

impl FaultDriver {
    /// Creates a driver aiming `schedule` at `target`.
    #[must_use]
    pub fn new(target: tsbus_des::ComponentId, schedule: FaultSchedule) -> Self {
        Self { target, schedule }
    }
}

impl Component for FaultDriver {
    fn start(&mut self, ctx: &mut Context<'_>) {
        for event in self.schedule.events() {
            ctx.schedule_at(event.at, self.target, FaultCommand(event.kind));
        }
    }

    fn handle(&mut self, _ctx: &mut Context<'_>, _msg: Box<dyn Message>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::{MessageExt, SimDuration, Simulator};

    /// Records every FaultCommand it receives, with its arrival time.
    #[derive(Debug, Default)]
    struct FaultLog {
        seen: Vec<(SimTime, FaultKind)>,
    }

    impl Component for FaultLog {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            if let Ok(cmd) = msg.downcast::<FaultCommand>() {
                self.seen.push((ctx.now(), cmd.0));
            }
        }
    }

    #[test]
    fn driver_delivers_schedule_in_time_order() {
        let mut sim = Simulator::new();
        let log = sim.add_component("log", FaultLog::default());
        let schedule = FaultSchedule::new()
            .at(
                SimTime::ZERO + SimDuration::from_millis(5),
                FaultKind::SlaveCrash(3),
            )
            .at(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::ChainBreak { after: 2 },
            )
            .at(
                SimTime::ZERO + SimDuration::from_millis(9),
                FaultKind::ChainHeal,
            );
        sim.add_component("faults", FaultDriver::new(log, schedule));
        sim.run_until(SimTime::from_secs(1));
        let log_ref: &FaultLog = sim.component(log).expect("registered");
        assert_eq!(
            log_ref.seen,
            vec![
                (
                    SimTime::ZERO + SimDuration::from_millis(1),
                    FaultKind::ChainBreak { after: 2 }
                ),
                (
                    SimTime::ZERO + SimDuration::from_millis(5),
                    FaultKind::SlaveCrash(3)
                ),
                (
                    SimTime::ZERO + SimDuration::from_millis(9),
                    FaultKind::ChainHeal
                ),
            ]
        );
    }

    #[test]
    fn empty_schedule_is_inert() {
        let mut sim = Simulator::new();
        let log = sim.add_component("log", FaultLog::default());
        sim.add_component("faults", FaultDriver::new(log, FaultSchedule::new()));
        sim.run_until(SimTime::from_secs(1));
        let log_ref: &FaultLog = sim.component(log).expect("registered");
        assert!(log_ref.seen.is_empty());
    }
}
