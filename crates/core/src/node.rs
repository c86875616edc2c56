//! The Bento box host node: one machine running an unmodified Tor relay, a
//! Bento server reachable through the relay's exit path to "localhost",
//! and an onion proxy for the functions' own Tor use (Figure 3).

// Every event the box receives passes through here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::server::{BentoServer, Deps};
use simnet::{ConnId, Ctx, Node, NodeId};
use tor_net::client::TorClient;
use tor_net::relay::{RelayCore, RelayEvent};

/// A relay + Bento server + onion proxy, wired together.
pub struct BentoBoxNode {
    /// The co-resident (unmodified) Tor relay.
    pub relay: RelayCore,
    /// The onion proxy functions use through the Stem firewall.
    pub tor: TorClient,
    /// The Bento server.
    pub bento: BentoServer,
}

impl BentoBoxNode {
    /// Assemble a box from its components. The onion proxy is barred from
    /// ever routing through the co-resident relay (a node cannot hold both
    /// ends of a loopback OR link).
    pub fn new(relay: RelayCore, mut tor: TorClient, bento: BentoServer) -> BentoBoxNode {
        tor.exclude_relay(relay.fingerprint());
        BentoBoxNode { relay, tor, bento }
    }

    /// The server, and the externals it acts through.
    fn split<'a, 'b>(&'a mut self, ctx: &'a mut Ctx<'b>) -> (&'a mut BentoServer, Deps<'a, 'b>) {
        let deps = Deps {
            ctx,
            relay: &mut self.relay,
            tor: &mut self.tor,
        };
        (&mut self.bento, deps)
    }

    /// Route queued relay local-stream events and onion-proxy events into
    /// the Bento server.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        // Local Bento-protocol streams.
        for ev in self.relay.drain_events() {
            let (bento, mut deps) = self.split(ctx);
            match ev {
                RelayEvent::LocalStreamOpened { stream, .. } => {
                    bento.on_local_stream_opened(stream);
                }
                RelayEvent::LocalStreamData { stream, data } => {
                    bento.on_local_stream_data(&mut deps, stream, data);
                }
                RelayEvent::LocalStreamClosed { stream } => {
                    bento.on_local_stream_closed(stream);
                }
            }
        }
        // Onion-proxy events for function circuits.
        for ev in self.tor.poll_events() {
            let (bento, mut deps) = self.split(ctx);
            bento.on_tor_event(&mut deps, ev);
        }
    }
}

impl Node for BentoBoxNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.relay.on_start(ctx);
        self.tor.bootstrap(ctx);
    }

    fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId, port: u16) {
        self.relay.on_conn_open(ctx, conn, peer, port);
        self.pump(ctx);
    }

    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId) {
        if !self.relay.on_conn_established(ctx, conn, peer)
            && !self.tor.handle_conn_established(ctx, conn)
        {
            let (bento, mut deps) = self.split(ctx);
            bento.on_conn_established(&mut deps, conn);
        }
        self.pump(ctx);
    }

    // Each message goes to its one owner, never copied: the relay, then
    // the onion proxy, then a function's direct connection.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        let unclaimed = self
            .relay
            .on_msg(ctx, conn, msg)
            .and_then(|msg| self.tor.handle_msg(ctx, conn, msg));
        if let Some(msg) = unclaimed {
            let (bento, mut deps) = self.split(ctx);
            bento.on_conn_msg(&mut deps, conn, msg);
        }
        self.pump(ctx);
    }

    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if !self.relay.on_conn_closed(ctx, conn) && !self.tor.handle_conn_closed(ctx, conn) {
            let (bento, mut deps) = self.split(ctx);
            bento.on_conn_closed(&mut deps, conn);
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if !self.relay.on_timer(ctx, tag) && !self.tor.handle_timer(ctx, tag) {
            let (bento, mut deps) = self.split(ctx);
            bento.on_timer(&mut deps, tag);
        }
        self.pump(ctx);
    }

    fn on_crash(&mut self) {
        // Everything volatile dies: relay link/circuit state, the onion
        // proxy's circuits and consensus, the server's containers. The
        // server's sealed store (its disk) survives and is replayed once
        // the restarted proxy re-fetches a consensus.
        self.relay.reset();
        self.tor.reset();
        self.bento.crash();
    }

    // Default on_restart → on_start: the relay re-registers under its
    // seed-derived identity and the onion proxy re-bootstraps.

    fn batches_telemetry(&self) -> bool {
        true
    }
    fn flush_telemetry(&mut self) {
        self.relay.flush_telemetry();
    }
}
