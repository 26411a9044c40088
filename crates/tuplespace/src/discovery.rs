//! Service discovery built *on* the tuplespace, in the style the paper
//! describes (§2.1 "Support to system extensions"): providers register by
//! writing a well-known tuple shape; clients look services up
//! associatively. No central registry component exists — the space itself
//! is the registry, so dynamic addition/removal of devices needs no
//! reconfiguration.
//!
//! The reserved tuple shape is `(SERVICE_TAG, service_name, provider_id)`.

use tsbus_des::SimTime;

use crate::space::{EntryId, Lease, Space};
use crate::template::{Pattern, Template};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};

/// First field of every service-registration tuple.
pub(crate) const SERVICE_TAG: &str = "__service";

/// Registers `provider` as offering `service` (the registration lives until
/// unregistered, or until `lease` runs out — leased registrations give
/// crash-stop providers automatic de-registration).
pub fn register(
    space: &mut Space,
    service: &str,
    provider: &str,
    lease: Lease,
    now: SimTime,
) -> EntryId {
    space.write(
        Tuple::new(vec![
            Value::from(SERVICE_TAG),
            Value::from(service),
            Value::from(provider),
        ]),
        lease,
        now,
    )
}

/// Removes one registration of `provider` for `service`. Returns whether a
/// registration was found.
pub fn unregister(space: &mut Space, service: &str, provider: &str, now: SimTime) -> bool {
    let template = Template::new(vec![
        Pattern::Exact(Value::from(SERVICE_TAG)),
        Pattern::Exact(Value::from(service)),
        Pattern::Exact(Value::from(provider)),
    ]);
    space.take(&template, now).is_some()
}

/// Renews `provider`'s registration for `service`, extending its lease to
/// `lease`. Returns whether a live registration was found — `false` means
/// the registration already expired (or never existed) and the provider
/// must [`register`] afresh. Periodic renewal is the heartbeat that keeps a
/// live provider visible while a crashed one silently ages out.
pub fn renew(space: &mut Space, service: &str, provider: &str, lease: Lease, now: SimTime) -> bool {
    let template = Template::new(vec![
        Pattern::Exact(Value::from(SERVICE_TAG)),
        Pattern::Exact(Value::from(service)),
        Pattern::Exact(Value::from(provider)),
    ]);
    space.renew(&template, lease, now) > 0
}

/// All providers currently registered for `service`, in registration order.
pub fn lookup(space: &mut Space, service: &str, now: SimTime) -> Vec<String> {
    let template = Template::new(vec![
        Pattern::Exact(Value::from(SERVICE_TAG)),
        Pattern::Exact(Value::from(service)),
        Pattern::AnyOfType(ValueType::Str),
    ]);
    space
        .read_all(&template, now)
        .into_iter()
        .filter_map(|entry| entry.field(2).and_then(Value::as_str).map(str::to_owned))
        .collect()
}

/// The first registered provider for `service`, if any.
pub fn lookup_one(space: &mut Space, service: &str, now: SimTime) -> Option<String> {
    let template = Template::new(vec![
        Pattern::Exact(Value::from(SERVICE_TAG)),
        Pattern::Exact(Value::from(service)),
        Pattern::AnyOfType(ValueType::Str),
    ]);
    space
        .read(&template, now)
        .and_then(|t| t.field(2).and_then(Value::as_str).map(str::to_owned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{template, tuple};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn register_lookup_unregister_roundtrip() {
        let mut space = Space::new();
        register(&mut space, "fft", "node-7", Lease::Forever, t(0));
        register(&mut space, "fft", "node-9", Lease::Forever, t(1));
        register(&mut space, "log", "node-1", Lease::Forever, t(2));
        assert_eq!(lookup(&mut space, "fft", t(3)), vec!["node-7", "node-9"]);
        assert_eq!(lookup_one(&mut space, "fft", t(3)), Some("node-7".into()));
        assert!(unregister(&mut space, "fft", "node-7", t(4)));
        assert_eq!(lookup(&mut space, "fft", t(5)), vec!["node-9"]);
        assert!(!unregister(&mut space, "fft", "node-7", t(6)));
    }

    #[test]
    fn leased_registrations_vanish_with_crashed_providers() {
        let mut space = Space::new();
        register(&mut space, "fft", "node-7", Lease::Until(t(10)), t(0));
        assert_eq!(lookup(&mut space, "fft", t(9)).len(), 1);
        assert!(lookup(&mut space, "fft", t(10)).is_empty());
    }

    #[test]
    fn renewing_provider_survives_expiry_sweep_stopped_one_disappears() {
        let mut space = Space::new();
        let period = tsbus_des::SimDuration::from_secs(10);
        register(
            &mut space,
            "fft",
            "alive",
            Lease::for_duration(t(0), period),
            t(0),
        );
        register(
            &mut space,
            "fft",
            "crashed",
            Lease::for_duration(t(0), period),
            t(0),
        );
        // "alive" heartbeats every 5 s; "crashed" stops after t=0.
        for beat in [5u64, 10, 15, 20] {
            let renewed = renew(
                &mut space,
                "fft",
                "alive",
                Lease::for_duration(t(beat), period),
                t(beat),
            );
            assert!(renewed, "live provider renews at t={beat}");
        }
        space.expire(t(21));
        assert_eq!(
            lookup(&mut space, "fft", t(21)),
            vec!["alive"],
            "the renewing provider survives; the silent one aged out at t=10"
        );
        assert!(lookup(&mut space, "fft", t(30)).is_empty());
    }

    #[test]
    fn renew_fails_once_the_registration_expired() {
        let mut space = Space::new();
        register(&mut space, "svc", "p", Lease::Until(t(10)), t(0));
        assert!(!renew(&mut space, "svc", "p", Lease::Until(t(100)), t(15)));
        assert!(lookup(&mut space, "svc", t(15)).is_empty());
    }

    #[test]
    fn lookup_is_nondestructive_for_other_tuples() {
        let mut space = Space::new();
        space.write(tuple!["app-data", 1], Lease::Forever, t(0));
        register(&mut space, "svc", "p", Lease::Forever, t(0));
        let _ = lookup(&mut space, "svc", t(1));
        assert!(space.read(&template!["app-data", 1], t(1)).is_some());
        assert_eq!(lookup(&mut space, "svc", t(2)), vec!["p"]);
    }

    #[test]
    fn unknown_service_has_no_providers() {
        let mut space = Space::new();
        assert!(lookup(&mut space, "nope", t(0)).is_empty());
        assert_eq!(lookup_one(&mut space, "nope", t(0)), None);
    }
}
