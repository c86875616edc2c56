//! The Stem firewall (§5.3): mediated access to the co-resident Tor
//! instance.
//!
//! Functions "must connect (via a local socket) to issue all Stem
//! invocations. The firewall maintains state about the circuits each
//! function is allowed to access, and the Stem routines the function may
//! invoke." Here that is two pieces: [`StemFirewall`], the gate on which
//! Stem routines a function may call, and [`HandleTable`], the box's one
//! record of what each function holds — its connections, circuits,
//! streams and hidden services. A function names only its own handles, so
//! it can never act on another function's circuits.

// A panic here would take the box down on a function's call.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use simnet::ConnId;
use std::collections::{BTreeMap, BTreeSet};
use tor_net::client::CircuitHandle;

// One verdict is counted per gate evaluated: `check_owned` runs two gates
// (routine permission, then ownership), so a NotOwner denial records one
// allowed routine gate and one denied ownership gate.
static T_ALLOWED: telemetry::Counter = telemetry::Counter::new("stem.calls_allowed");
static T_DENIED: telemetry::Counter = telemetry::Counter::new("stem.calls_denied");

/// Stem (Tor control) routines a function can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StemCall {
    /// Build a new circuit.
    NewCircuit,
    /// Open a stream on an owned circuit.
    OpenStream,
    /// Send data on an owned stream.
    SendStream,
    /// Send cover (DROP) cells on an owned circuit.
    SendDrop,
    /// Connect to an onion service.
    ConnectOnion,
    /// Launch a hidden service (a dedicated onion proxy, §5.4).
    CreateHiddenService,
    /// Read the consensus (relay listing).
    ReadConsensus,
}

impl StemCall {
    /// Every call, for exhaustive policies.
    pub const ALL: [StemCall; 7] = [
        StemCall::NewCircuit,
        StemCall::OpenStream,
        StemCall::SendStream,
        StemCall::SendDrop,
        StemCall::ConnectOnion,
        StemCall::CreateHiddenService,
        StemCall::ReadConsensus,
    ];

    /// Stable wire id.
    pub fn id(self) -> u8 {
        match self {
            StemCall::NewCircuit => 0,
            StemCall::OpenStream => 1,
            StemCall::SendStream => 2,
            StemCall::SendDrop => 3,
            StemCall::ConnectOnion => 4,
            StemCall::CreateHiddenService => 5,
            StemCall::ReadConsensus => 6,
        }
    }

    /// Parse a stable wire id.
    pub fn from_id(id: u8) -> Option<StemCall> {
        StemCall::ALL.iter().copied().find(|c| c.id() == id)
    }

    /// Stable name for policy documents.
    pub fn name(self) -> &'static str {
        match self {
            StemCall::NewCircuit => "new_circuit",
            StemCall::OpenStream => "open_stream",
            StemCall::SendStream => "send_stream",
            StemCall::SendDrop => "send_drop",
            StemCall::ConnectOnion => "connect_onion",
            StemCall::CreateHiddenService => "create_hidden_service",
            StemCall::ReadConsensus => "read_consensus",
        }
    }
}

/// Why the firewall refused a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StemDenied {
    /// The function's negotiated permissions do not include this routine.
    NotPermitted(StemCall),
    /// The circuit/service is not owned by this function.
    NotOwner,
}

impl std::fmt::Display for StemDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StemDenied::NotPermitted(c) => write!(f, "stem call {} not permitted", c.name()),
            StemDenied::NotOwner => write!(f, "circuit not owned by this function"),
        }
    }
}

/// Per-function firewall state on one Bento box: the routines each
/// function may call, and how many calls it refused.
#[derive(Debug, Default)]
pub struct StemFirewall {
    /// function id -> allowed routines (from the approved manifest).
    allowed: BTreeMap<u64, BTreeSet<StemCall>>,
    /// Denied attempts, for operator inspection.
    violations: usize,
}

impl StemFirewall {
    /// Empty firewall.
    pub fn new() -> StemFirewall {
        StemFirewall::default()
    }

    /// Register a function's permitted routines.
    pub fn register_function(&mut self, function: u64, calls: impl IntoIterator<Item = StemCall>) {
        self.allowed.insert(function, calls.into_iter().collect());
    }

    /// Revoke every routine of a function.
    pub fn remove_function(&mut self, function: u64) {
        self.allowed.remove(&function);
    }

    /// Gate a routine with no object (NewCircuit, ConnectOnion, ...).
    pub fn check(&mut self, function: u64, call: StemCall) -> Result<(), StemDenied> {
        let ok = self
            .allowed
            .get(&function)
            .is_some_and(|s| s.contains(&call));
        self.verdict(ok, StemDenied::NotPermitted(call))
    }

    /// Gate a routine acting on an object: `held` is what the handle the
    /// function named resolves to in its own table, `None` when it holds
    /// no such object. Returns the object.
    pub fn check_owned<T>(
        &mut self,
        function: u64,
        call: StemCall,
        held: Option<T>,
    ) -> Result<T, StemDenied> {
        self.check(function, call)?;
        self.verdict(held.is_some(), StemDenied::NotOwner)?;
        held.ok_or(StemDenied::NotOwner)
    }

    fn verdict(&mut self, ok: bool, denied: StemDenied) -> Result<(), StemDenied> {
        if ok {
            T_ALLOWED.inc();
            Ok(())
        } else {
            T_DENIED.inc();
            self.violations += 1;
            Err(denied)
        }
    }

    /// Denied attempts so far.
    pub fn violations(&self) -> usize {
        self.violations
    }
}

/// An object a function holds on the box, as the box names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Held {
    /// A direct connection.
    Conn(ConnId),
    /// A circuit of the box's onion proxy.
    Circ(CircuitHandle),
    /// A stream on one of those circuits.
    Stream(CircuitHandle, u16),
    /// A hidden service, by its box-wide id.
    Hs(u64),
}

/// What every function on the box holds: `(container id, function
/// handle)` ↔ [`Held`], both ways. An entry leaves when its object dies,
/// when the function closes it, or with its container; so a dead object is
/// never named, and a long-lived function holds only live ones.
#[derive(Debug)]
pub(crate) struct HandleTable {
    by_handle: BTreeMap<(u64, u64), Held>,
    by_object: BTreeMap<Held, (u64, u64)>,
}

impl HandleTable {
    /// A table holding nothing.
    pub const fn new() -> HandleTable {
        HandleTable {
            by_handle: BTreeMap::new(),
            by_object: BTreeMap::new(),
        }
    }

    /// `handle` of container `id` now names `held`; whatever either named
    /// before is forgotten.
    pub fn insert(&mut self, id: u64, handle: u64, held: Held) {
        if let Some(old) = self.by_handle.insert((id, handle), held) {
            self.by_object.remove(&old);
        }
        if let Some(old) = self.by_object.insert(held, (id, handle)) {
            if old != (id, handle) {
                self.by_handle.remove(&old);
            }
        }
    }

    /// What `handle` of container `id` names.
    pub fn get(&self, id: u64, handle: u64) -> Option<Held> {
        self.by_handle.get(&(id, handle)).copied()
    }

    /// Whether container `id` holds `handle`.
    pub fn holds(&self, id: u64, handle: u64) -> bool {
        self.by_handle.contains_key(&(id, handle))
    }

    /// The container and handle that hold `held`.
    pub fn owner(&self, held: Held) -> Option<(u64, u64)> {
        self.by_object.get(&held).copied()
    }

    /// `held` died or was closed: forget it and say who held it. A circuit
    /// takes its streams with it.
    pub fn remove(&mut self, held: Held) -> Option<(u64, u64)> {
        if let Held::Circ(h) = held {
            let streams = Held::Stream(h, 0)..=Held::Stream(h, u16::MAX);
            let dead: Vec<Held> = self.by_object.range(streams).map(|(s, _)| *s).collect();
            for stream in dead {
                self.remove(stream);
            }
        }
        let owner = self.by_object.remove(&held)?;
        self.by_handle.remove(&owner);
        Some(owner)
    }

    /// Container `id` is torn down: forget everything it held and return
    /// it, in handle order.
    pub fn remove_container(&mut self, id: u64) -> Vec<Held> {
        let held: Vec<Held> = self
            .by_handle
            .range((id, 0)..=(id, u64::MAX))
            .map(|(_, &held)| held)
            .collect();
        for &h in &held {
            self.remove(h);
        }
        held
    }

    /// Handles held across all functions.
    pub fn len(&self) -> usize {
        self.by_handle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_function_denied_everything() {
        let mut fw = StemFirewall::new();
        assert!(fw.check(1, StemCall::NewCircuit).is_err());
        assert_eq!(fw.violations(), 1);
    }

    #[test]
    fn permitted_calls_pass() {
        let mut fw = StemFirewall::new();
        fw.register_function(1, [StemCall::NewCircuit, StemCall::OpenStream]);
        assert!(fw.check(1, StemCall::NewCircuit).is_ok());
        assert!(fw.check(1, StemCall::OpenStream).is_ok());
        assert_eq!(
            fw.check(1, StemCall::CreateHiddenService),
            Err(StemDenied::NotPermitted(StemCall::CreateHiddenService))
        );
        // An object call passes only with an object the function holds.
        assert_eq!(fw.check_owned(1, StemCall::OpenStream, Some(7)), Ok(7));
        assert_eq!(
            fw.check_owned(1, StemCall::OpenStream, None::<u64>),
            Err(StemDenied::NotOwner)
        );
        assert_eq!(fw.violations(), 2);
    }

    #[test]
    fn a_handle_is_one_entry_both_ways_until_its_object_or_container_dies() {
        let (c1, c2) = (CircuitHandle(1), CircuitHandle(2));
        let mut t = HandleTable::new();
        t.insert(1, 10, Held::Circ(c1));
        t.insert(1, 11, Held::Stream(c1, 5));
        t.insert(1, 12, Held::Stream(c1, 6));
        t.insert(1, 13, Held::Conn(ConnId(7)));
        t.insert(2, 10, Held::Circ(c2));
        t.insert(2, 11, Held::Stream(c2, 5));
        assert_eq!(t.get(1, 10), Some(Held::Circ(c1)));
        assert_eq!(t.owner(Held::Circ(c2)), Some((2, 10)));
        // Re-pointing a handle forgets what it named before.
        t.insert(1, 13, Held::Conn(ConnId(8)));
        assert_eq!(t.owner(Held::Conn(ConnId(7))), None);
        assert_eq!(t.len(), 6);
        // A dead circuit takes its streams, and only its own.
        assert_eq!(t.remove(Held::Circ(c1)), Some((1, 10)));
        assert_eq!((t.get(1, 11), t.get(1, 12)), (None, None));
        assert_eq!(t.get(2, 11), Some(Held::Stream(c2, 5)));
        assert_eq!(t.remove(Held::Circ(c1)), None);
        // The function closes what it holds.
        assert_eq!(t.remove(Held::Conn(ConnId(8))), Some((1, 13)));
        assert_eq!(t.get(1, 13), None);
        // Teardown takes one container's entries, in handle order.
        t.insert(1, 20, Held::Hs(3));
        assert_eq!(t.remove_container(2), [Held::Circ(c2), Held::Stream(c2, 5)]);
        assert_eq!(t.owner(Held::Stream(c2, 5)), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove_container(1), [Held::Hs(3)]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn ids_roundtrip() {
        for c in StemCall::ALL {
            assert_eq!(StemCall::from_id(c.id()), Some(c));
        }
        assert_eq!(StemCall::from_id(99), None);
    }
}
