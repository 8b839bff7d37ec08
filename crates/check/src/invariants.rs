//! Pluggable invariant oracles checked against every explored state.
//!
//! Each oracle sees the world at four moments: once at the initial state
//! ([`Invariant::check_initial`]), on every explored edge before it fires
//! ([`Invariant::check_edge`] — where differential oracles like
//! [`BatchVsStep`] re-execute the transition on clones), after every
//! executed transition ([`Invariant::check_step`]), and at every terminal
//! state ([`Invariant::check_terminal`]). Safety properties (consistency,
//! causality, no-duplication, staged output) are per-step so a violation
//! is caught at the earliest state exhibiting it — which keeps
//! counterexamples short before shrinking even starts. Completeness
//! (no-loss) is terminal-only: a message legitimately spends intermediate
//! states in flight.

use seqnet_core::MessageId;
use seqnet_membership::NodeId;
use seqnet_overlap::Colocation;
use std::collections::BTreeSet;
use std::fmt;

use crate::model::{StepRecord, Transition, World};

/// A detected invariant violation: which oracle fired and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// [`Invariant::name`] of the oracle that fired.
    pub invariant: &'static str,
    /// Human-readable description of the offending observation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// One pluggable oracle. Default implementations accept everything, so an
/// oracle overrides only the moments it cares about.
pub trait Invariant {
    /// Stable identifier, used to match violations during shrinking (a
    /// shrunk trace must fail the *same* oracle as the original).
    fn name(&self) -> &'static str;

    /// Checked once on the initial state, before any transition.
    fn check_initial(&self, _world: &World) -> Result<(), Violation> {
        Ok(())
    }

    /// Checked on every explored edge, *before* the transition executes
    /// on the exploration's own world: `pre` is the source state and
    /// `transition` is enabled in it. Differential oracles (like
    /// [`BatchVsStep`]) re-execute the transition on clones of `pre`
    /// here; the exploration's world is untouched either way.
    fn check_edge(&self, _pre: &World, _transition: Transition) -> Result<(), Violation> {
        Ok(())
    }

    /// Checked after every executed transition.
    fn check_step(&self, _world: &World, _record: &StepRecord) -> Result<(), Violation> {
        Ok(())
    }

    /// Checked at every terminal (no enabled transitions) state.
    fn check_terminal(&self, _world: &World) -> Result<(), Violation> {
        Ok(())
    }
}

/// Theorem 1, pairwise form: any two subscribers deliver their *common*
/// messages in the same relative order. Common messages are exactly the
/// messages of shared groups; for hosts sharing two groups this also
/// checks the cross-group total order the double-overlap stamp provides —
/// the "case 3" condition the original ad-hoc model test swept.
pub struct PairwiseConsistency;

impl Invariant for PairwiseConsistency {
    fn name(&self) -> &'static str {
        "pairwise-consistency"
    }

    fn check_step(&self, world: &World, _record: &StepRecord) -> Result<(), Violation> {
        let hosts: Vec<NodeId> = world.hosts().collect();
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                let log_a = world.delivered_log(a);
                let log_b = world.delivered_log(b);
                let ids_a: BTreeSet<MessageId> = log_a.iter().map(|(id, _, _)| *id).collect();
                let ids_b: BTreeSet<MessageId> = log_b.iter().map(|(id, _, _)| *id).collect();
                let proj_a: Vec<MessageId> = log_a
                    .iter()
                    .map(|(id, _, _)| *id)
                    .filter(|id| ids_b.contains(id))
                    .collect();
                let proj_b: Vec<MessageId> = log_b
                    .iter()
                    .map(|(id, _, _)| *id)
                    .filter(|id| ids_a.contains(id))
                    .collect();
                if proj_a != proj_b {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "{a} and {b} disagree on common messages: {proj_a:?} vs {proj_b:?}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Causality for self-subscribing publishers: when publish `i` was
/// triggered by the sender's local delivery of publish `j`, no subscriber
/// may deliver `i` before `j`.
pub struct CausalOrder;

impl Invariant for CausalOrder {
    fn name(&self) -> &'static str {
        "causal-order"
    }

    fn check_step(&self, world: &World, _record: &StepRecord) -> Result<(), Violation> {
        let publishes = &world.scenario().publishes;
        for (i, p) in publishes.iter().enumerate() {
            let Some(j) = p.after else { continue };
            let effect = MessageId(i as u64);
            let cause = MessageId(j as u64);
            for host in world.hosts() {
                let log = world.delivered_log(host);
                let pos_effect = log.iter().position(|(id, _, _)| *id == effect);
                let pos_cause = log.iter().position(|(id, _, _)| *id == cause);
                if let (Some(pe), Some(pc)) = (pos_effect, pos_cause) {
                    if pe < pc {
                        return Err(Violation {
                            invariant: self.name(),
                            detail: format!(
                                "{host} delivered effect {effect} (pos {pe}) before cause {cause} (pos {pc})"
                            ),
                        });
                    }
                } else if pos_effect.is_some()
                    && pos_cause.is_none()
                    && world.publish_epoch(j).is_some_and(|epoch| {
                        world
                            .epoch_membership(epoch)
                            .is_member(host, publishes[j].group)
                    })
                {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "{host} delivered effect {effect} without its cause {cause}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// No duplication (per step: a delivery log never repeats an id, and a
/// host only receives messages of groups it subscribes to *in the epoch
/// the message was sequenced under*) and no loss (terminal: every publish
/// reached every member its epoch's configuration prescribes, across
/// whatever crash windows and reconfigurations the schedule contained).
pub struct NoLossNoDup;

impl Invariant for NoLossNoDup {
    fn name(&self) -> &'static str {
        "no-loss-no-dup"
    }

    fn check_step(&self, world: &World, _record: &StepRecord) -> Result<(), Violation> {
        for host in world.hosts() {
            let log = world.delivered_log(host);
            let mut seen = BTreeSet::new();
            for &(id, group, epoch) in log {
                if !seen.insert(id) {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!("{host} delivered {id} twice"),
                    });
                }
                if !world.epoch_membership(epoch).is_member(host, group) {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "{host} delivered {id} of {group} without subscribing in epoch {epoch}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn check_terminal(&self, world: &World) -> Result<(), Violation> {
        if !world.all_published() {
            return Err(Violation {
                invariant: self.name(),
                detail: "terminal state with unpublished workload messages".into(),
            });
        }
        for (i, p) in world.scenario().publishes.iter().enumerate() {
            let id = MessageId(i as u64);
            // The audience is the membership of the epoch the publish was
            // sequenced under: a pre-handoff message still reaches a
            // leaver, a parked one already reaches a joiner.
            let epoch = world
                .publish_epoch(i)
                .expect("all_published checked above");
            for member in world.epoch_membership(epoch).members(p.group) {
                let count = world
                    .delivered_log(member)
                    .iter()
                    .filter(|(d, _, _)| *d == id)
                    .count();
                if count != 1 {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "{member} delivered {id} of {} {count} times at terminal (epoch {epoch})",
                            p.group
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The epoch-handoff contract (PROTOCOL.md §14), checked whenever a
/// scenario reconfigures online: epochs never run backwards at any
/// subscriber (every epoch-N message is delivered before any epoch-N+1
/// message — the global-drain handoff rule), a delivery's epoch tag
/// always matches the epoch its publish was sequenced under, nothing is
/// delivered out of a future epoch, and a terminal state has no pending
/// handoff or parked publish left behind.
pub struct EpochHandoff;

impl Invariant for EpochHandoff {
    fn name(&self) -> &'static str {
        "epoch-handoff"
    }

    fn check_step(&self, world: &World, record: &StepRecord) -> Result<(), Violation> {
        for host in world.hosts() {
            let log = world.delivered_log(host);
            for pair in log.windows(2) {
                if pair[1].2 < pair[0].2 {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "{host} delivered epoch-{} {} after epoch-{} {}: epochs ran backwards",
                            pair[1].2, pair[1].0, pair[0].2, pair[0].0
                        ),
                    });
                }
            }
        }
        for &(host, id, _, epoch) in &record.delivered_now {
            let assigned = world.publish_epoch(id.0 as usize);
            if assigned != Some(epoch) {
                return Err(Violation {
                    invariant: self.name(),
                    detail: format!(
                        "{host} delivered {id} under epoch {epoch}, but it was sequenced under {assigned:?}"
                    ),
                });
            }
            if epoch > world.epoch() {
                return Err(Violation {
                    invariant: self.name(),
                    detail: format!(
                        "{host} delivered {id} of future epoch {epoch} (current {})",
                        world.epoch()
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_terminal(&self, world: &World) -> Result<(), Violation> {
        if world.handoff_pending() {
            return Err(Violation {
                invariant: self.name(),
                detail: "terminal state with the epoch handoff still pending".into(),
            });
        }
        if world.parked_publishes() > 0 {
            return Err(Violation {
                invariant: self.name(),
                detail: format!(
                    "terminal state with {} parked publishes never injected",
                    world.parked_publishes()
                ),
            });
        }
        Ok(())
    }
}

/// The group-commit staged-output rule (PROTOCOL.md §8): while the
/// discipline is in force, nothing a node produces may reach the wire
/// before a snapshot sealed it. The model records any raw send a
/// group-commit core emits; one is a violation.
pub struct StagedOutput;

impl Invariant for StagedOutput {
    fn name(&self) -> &'static str {
        "staged-output"
    }

    fn check_step(&self, _world: &World, record: &StepRecord) -> Result<(), Violation> {
        if let Some(&(node, id)) = record.unstaged_sends.first() {
            return Err(Violation {
                invariant: self.name(),
                detail: format!(
                    "node{node} sent {id} to the wire without staging (during `{}`)",
                    record.transition
                ),
            });
        }
        Ok(())
    }
}

/// C1/C2 structural validity of the compiled deployment: the sequencing
/// graph built by `overlap::build` validates against the membership
/// (every double overlap has exactly one live atom, every path is
/// well-formed), and `overlap::colocate` places every live atom for a
/// spread of seeds. Checked once — the topology never changes mid-run.
pub struct StructuralValidity;

impl Invariant for StructuralValidity {
    fn name(&self) -> &'static str {
        "structural-validity"
    }

    fn check_initial(&self, world: &World) -> Result<(), Violation> {
        let graph = world.graph();
        if let Err(e) = graph.validate_against(&world.scenario().membership) {
            return Err(Violation {
                invariant: self.name(),
                detail: format!("graph fails C1/C2 validation: {e}"),
            });
        }
        for seed in 0..4u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let coloc = Colocation::compute(graph, &mut rng);
            for atom in graph.atoms() {
                if graph.is_retired(atom.id) {
                    continue;
                }
                if coloc.node_of(atom.id).is_none() {
                    return Err(Violation {
                        invariant: self.name(),
                        detail: format!("colocation (seed {seed}) left {} unplaced", atom.id),
                    });
                }
            }
            if coloc.num_nodes() == 0 && graph.num_atoms() > 0 {
                return Err(Violation {
                    invariant: self.name(),
                    detail: format!("colocation (seed {seed}) produced no sequencing nodes"),
                });
            }
        }
        Ok(())
    }
}

/// The PROTOCOL.md §12 equivalence contract, checked differentially on
/// every explored edge: executing any enabled transition through the
/// batched path ([`World::step_batched`] — one reused `CommandBuf` that
/// every core call of the transition appends into, batched restart
/// replay) must leave the world in exactly the state, with exactly the
/// step record, that stepping with a fresh buffer per event produces.
/// With this oracle registered, `seqnet-check --all` fails if batched and
/// stepped execution diverge on any explored schedule — while the
/// exploration itself keeps stepping the *unbatched* semantics.
pub struct BatchVsStep;

impl Invariant for BatchVsStep {
    fn name(&self) -> &'static str {
        "batch-vs-step"
    }

    fn check_edge(&self, pre: &World, transition: Transition) -> Result<(), Violation> {
        let mut stepped = pre.clone();
        let mut batched = pre.clone();
        let s = stepped.step(transition);
        let b = batched.step_batched(transition);
        if stepped.state_hash() != batched.state_hash() {
            return Err(Violation {
                invariant: self.name(),
                detail: format!(
                    "batched execution of `{transition}` diverged from stepped: state {:016x} vs {:016x}",
                    batched.state_hash(),
                    stepped.state_hash()
                ),
            });
        }
        if s.delivered_now != b.delivered_now {
            return Err(Violation {
                invariant: self.name(),
                detail: format!(
                    "batched `{transition}` delivered {:?}, stepped delivered {:?}",
                    b.delivered_now, s.delivered_now
                ),
            });
        }
        if s.unstaged_sends != b.unstaged_sends {
            return Err(Violation {
                invariant: self.name(),
                detail: format!(
                    "batched `{transition}` recorded unstaged sends {:?}, stepped {:?}",
                    b.unstaged_sends, s.unstaged_sends
                ),
            });
        }
        Ok(())
    }
}

use rand::SeedableRng;

/// The full oracle battery every checked run uses by default.
pub fn default_oracles() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(PairwiseConsistency),
        Box::new(CausalOrder),
        Box::new(NoLossNoDup),
        Box::new(StagedOutput),
        Box::new(StructuralValidity),
        Box::new(BatchVsStep),
        Box::new(EpochHandoff),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Transition;
    use crate::scenario;

    fn run_to_terminal(world: &mut World) {
        while let Some(&t) = world.enabled().first() {
            world.step(t);
        }
    }

    #[test]
    fn default_battery_has_the_seven_oracles() {
        let names: Vec<&str> = default_oracles().iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec![
                "pairwise-consistency",
                "causal-order",
                "no-loss-no-dup",
                "staged-output",
                "structural-validity",
                "batch-vs-step",
                "epoch-handoff",
            ]
        );
    }

    #[test]
    fn batch_vs_step_accepts_every_edge_of_a_crashy_run() {
        let sc = scenario::two_group_overlap().with_group_commit().crash_variant();
        let mut world = World::new(&sc);
        let mut steps = 0usize;
        loop {
            let enabled = world.enabled();
            let Some(&t) = enabled.get(steps % enabled.len().max(1)) else {
                break;
            };
            BatchVsStep
                .check_edge(&world, t)
                .unwrap_or_else(|v| panic!("step {steps}: {v}"));
            world.step(t);
            steps += 1;
            assert!(steps < 10_000, "schedule does not terminate");
        }
    }

    #[test]
    fn honest_run_passes_every_oracle() {
        let sc = scenario::two_group_overlap();
        let oracles = default_oracles();
        let mut world = World::new(&sc);
        for o in &oracles {
            o.check_initial(&world).expect("initial state valid");
        }
        while let Some(&t) = world.enabled().first() {
            let record = world.step(t);
            for o in &oracles {
                o.check_step(&world, &record).expect("step valid");
            }
        }
        for o in &oracles {
            o.check_terminal(&world).expect("terminal state valid");
        }
    }

    #[test]
    fn staged_output_oracle_fires_on_sabotage() {
        let sc = scenario::two_group_overlap().with_sabotaged_staging();
        let mut world = World::new(&sc);
        world.step(Transition::Publish(0));
        let deliver = world
            .enabled()
            .into_iter()
            .find(|t| matches!(t, Transition::Deliver(..)))
            .expect("frame in flight");
        let record = world.step(deliver);
        let violation = StagedOutput
            .check_step(&world, &record)
            .expect_err("sabotage detected");
        assert_eq!(violation.invariant, "staged-output");
    }

    #[test]
    fn no_loss_fires_on_incomplete_terminal() {
        // A world that merely *looks* terminal to the oracle: we call the
        // terminal check mid-run, when deliveries are still outstanding.
        let sc = scenario::two_group_overlap();
        let mut world = World::new(&sc);
        world.step(Transition::Publish(0));
        let violation = NoLossNoDup
            .check_terminal(&world)
            .expect_err("missing deliveries detected");
        assert_eq!(violation.invariant, "no-loss-no-dup");
    }

    #[test]
    fn structural_validity_passes_on_every_registry_scenario() {
        for sc in scenario::registry() {
            let world = World::new(&sc);
            StructuralValidity
                .check_initial(&world)
                .unwrap_or_else(|v| panic!("{}: {v}", sc.name));
        }
    }

    #[test]
    fn terminal_runs_of_all_registry_scenarios_pass_no_loss() {
        for sc in scenario::registry() {
            let mut world = World::new(&sc);
            run_to_terminal(&mut world);
            NoLossNoDup
                .check_terminal(&world)
                .unwrap_or_else(|v| panic!("{}: {v}", sc.name));
        }
    }

    #[test]
    fn churn_scenarios_pass_the_epoch_aware_oracles_step_by_step() {
        for sc in [
            scenario::join_during_flight(),
            scenario::leave_with_parked_atoms(),
            scenario::crash_during_handoff(),
        ] {
            let mut world = World::new(&sc);
            while let Some(&t) = world.enabled().first() {
                let record = world.step(t);
                NoLossNoDup
                    .check_step(&world, &record)
                    .unwrap_or_else(|v| panic!("{}: {v}", sc.name));
                EpochHandoff
                    .check_step(&world, &record)
                    .unwrap_or_else(|v| panic!("{}: {v}", sc.name));
            }
            NoLossNoDup
                .check_terminal(&world)
                .unwrap_or_else(|v| panic!("{}: {v}", sc.name));
            EpochHandoff
                .check_terminal(&world)
                .unwrap_or_else(|v| panic!("{}: {v}", sc.name));
            assert_eq!(world.epoch(), 1, "{}: handoff advanced the epoch", sc.name);
        }
    }

    #[test]
    fn epoch_handoff_oracle_fires_on_an_abandoned_handoff() {
        // Fire the reconfiguration, then pretend the run is over while the
        // drain is still pending: the terminal check must object.
        let sc = scenario::join_during_flight();
        let mut world = World::new(&sc);
        world.step(Transition::Publish(0));
        world.step(Transition::Reconfigure);
        assert!(world.handoff_pending());
        let violation = EpochHandoff
            .check_terminal(&world)
            .expect_err("pending handoff detected");
        assert_eq!(violation.invariant, "epoch-handoff");
    }
}
