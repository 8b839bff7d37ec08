//! The publish front-end both deployments share: message ids, the
//! park-or-inject decision of an online reconfiguration, and the delivery
//! ledger the epoch handoff drains against.
//!
//! A deployment keeps one [`PublishFront`] for its whole life, across the
//! teardown-and-rebuild of every reconfiguration. What stays with each
//! deployment is transport: draining until the ledger balances, tearing
//! the old wiring down, building the next, and routing the outbox of the
//! publisher's [`LinkEngine`] the front-end sends through.

use crate::cluster::RuntimeError;
use crate::engine::LinkEngine;
use crate::topo::Topology;
use seqnet_core::proto::trace::{Actor, EventKind, TraceEvent, TraceSink};
use seqnet_core::proto::{Frame, Peer};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A reconfiguration staged by [`PublishFront::begin_reconfigure`] while
/// the current epoch keeps sequencing: the next membership plus every
/// publish parked behind the handoff, in accepted order.
#[derive(Debug)]
pub struct PendingReconfig {
    /// The membership the next epoch runs.
    pub membership: Membership,
    /// Accepted, not yet sequenced messages to inject into the next epoch
    /// via [`PublishFront::activate`].
    pub parked: Vec<Message>,
}

/// See the module docs.
#[derive(Debug, Default)]
pub struct PublishFront {
    next_id: u64,
    pending: Option<PendingReconfig>,
    /// Total deliveries owed by everything injected so far (group size at
    /// injection time); the handoff drains until `deliveries_seen`
    /// catches up.
    expected_deliveries: usize,
    /// Deliveries the deployment has reported so far, across epochs.
    deliveries_seen: usize,
    publishes_steady: u64,
    publishes_parked: u64,
}

impl PublishFront {
    /// A front-end that has published nothing.
    pub fn new() -> Self {
        PublishFront::default()
    }

    /// Accepts a publish and assigns its id. In steady state the message
    /// is validated against the running topology and sent over
    /// `publisher`'s reliable link to its group's ingress node. While a
    /// reconfiguration is staged it is validated against the *next*
    /// membership and parked: it belongs to the next epoch. Either way
    /// the deployment routes `publisher`'s outbox afterwards.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownGroup`] for a group with no members (in the
    /// pending membership, if a reconfiguration is staged). No id is
    /// consumed.
    pub fn publish<S: TraceSink + ?Sized>(
        &mut self,
        topo: &Topology,
        publisher: &mut LinkEngine,
        sink: &mut S,
        sender: NodeId,
        group: GroupId,
        payload: bytes::Bytes,
    ) -> Result<MessageId, RuntimeError> {
        let known = match &self.pending {
            Some(pending) => pending.membership.group_size(group) > 0,
            None => topo.graph.ingress(group).is_some(),
        };
        if !known {
            return Err(RuntimeError::UnknownGroup(group));
        }
        let id = MessageId(self.next_id);
        self.next_id += 1;
        let msg = Message::new(id, sender, group, payload);
        match &mut self.pending {
            Some(pending) => {
                self.publishes_parked += 1;
                pending.parked.push(msg);
            }
            None => {
                self.publishes_steady += 1;
                self.inject(topo, publisher, sink, msg);
            }
        }
        Ok(id)
    }

    /// Sends an accepted message over `publisher`'s link to the ingress
    /// node of its group, books the deliveries it owes, and records the
    /// driver-side `Publish` event (the cores never see a publish).
    fn inject<S: TraceSink + ?Sized>(
        &mut self,
        topo: &Topology,
        publisher: &mut LinkEngine,
        sink: &mut S,
        msg: Message,
    ) {
        let ingress = topo
            .graph
            .ingress(msg.group)
            .expect("the publish was validated against this membership");
        self.expected_deliveries += topo.membership.group_size(msg.group);
        if sink.enabled() {
            sink.record(TraceEvent {
                msg: Some(msg.id.0),
                group: Some(u64::from(msg.group.0)),
                detail: Some(u64::from(msg.sender.0)),
                ..TraceEvent::new(EventKind::Publish, Actor::Publisher)
            });
        }
        let frame = Frame {
            msg,
            target_atom: Some(ingress),
        };
        publisher.send_data(topo, Peer::Node(topo.atom_node[&ingress]), frame);
    }

    /// Activates `epoch` on the freshly built wiring `topo` describes:
    /// records the `EpochAdvance` event and injects the publishes that
    /// were `parked` behind the handoff, in their accepted order.
    pub fn activate<S: TraceSink + ?Sized>(
        &mut self,
        epoch: u64,
        topo: &Topology,
        publisher: &mut LinkEngine,
        sink: &mut S,
        parked: Vec<Message>,
    ) {
        sink.record(TraceEvent {
            detail: Some(epoch),
            ..TraceEvent::new(EventKind::EpochAdvance, Actor::Publisher)
        });
        for msg in parked {
            self.inject(topo, publisher, sink, msg);
        }
    }

    /// Collects exactly `expected` deliveries from `next` (a deployment's
    /// `next_delivery`, which waits at most the duration it is given),
    /// grouped by host in delivery order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] if they do not all arrive in time.
    pub fn collect_deliveries(
        expected: usize,
        timeout: Duration,
        mut next: impl FnMut(Duration) -> Option<(NodeId, Message)>,
    ) -> Result<BTreeMap<NodeId, Vec<Message>>, RuntimeError> {
        let deadline = Instant::now() + timeout;
        let mut out: BTreeMap<NodeId, Vec<Message>> = BTreeMap::new();
        for received in 0..expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Some((host, msg)) = next(remaining) else {
                return Err(RuntimeError::Timeout { expected, received });
            };
            out.entry(host).or_default().push(msg);
        }
        Ok(out)
    }

    /// Stages a reconfiguration to `membership`: from now on publishes
    /// park. Returns the epoch that will activate, `current_epoch + 1`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ReconfigPending`] if one is already staged.
    pub fn begin_reconfigure(
        &mut self,
        membership: &Membership,
        current_epoch: u64,
    ) -> Result<u64, RuntimeError> {
        let next_epoch = current_epoch + 1;
        if self.pending.is_some() {
            return Err(RuntimeError::ReconfigPending { next_epoch });
        }
        self.pending = Some(PendingReconfig {
            membership: membership.clone(),
            parked: Vec::new(),
        });
        Ok(next_epoch)
    }

    /// Whether a reconfiguration is staged but has not activated yet.
    pub fn reconfig_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Publishes parked behind the staged reconfiguration (zero when none
    /// is pending).
    pub fn parked_publishes(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| p.parked.len())
    }

    /// Books one delivery reported by the deployment.
    pub fn note_delivery(&mut self) {
        self.deliveries_seen += 1;
    }

    /// Deliveries booked so far, across epochs.
    pub fn deliveries_seen(&self) -> usize {
        self.deliveries_seen
    }

    /// Whether every delivery owed by everything injected so far has been
    /// booked — the handoff drain rule: epoch N is fully delivered before
    /// epoch N+1 sequences anything.
    pub fn drained(&self) -> bool {
        self.deliveries_seen >= self.expected_deliveries
    }

    /// The error for a drain that ran out of time: how far the ledger got.
    pub fn drain_timeout(&self) -> RuntimeError {
        RuntimeError::Timeout {
            expected: self.expected_deliveries,
            received: self.deliveries_seen,
        }
    }

    /// Takes the staged reconfiguration once the old epoch has drained;
    /// `None` if nothing is staged.
    pub fn take_pending(&mut self) -> Option<PendingReconfig> {
        self.pending.take()
    }

    /// Publishes accepted while no reconfiguration was staged.
    pub fn publishes_steady(&self) -> u64 {
        self.publishes_steady
    }

    /// Publishes parked behind a staged handoff (the churn path).
    pub fn publishes_parked(&self) -> u64 {
        self.publishes_parked
    }
}
