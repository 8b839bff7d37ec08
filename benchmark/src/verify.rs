//! The correctness checker, run on every workload after the timed
//! window: exactly-once per (message, member), and — Theorem 1 — for
//! every pair of hosts the same relative order of their common messages.
//! Payload checksums are verified as deliveries arrive (see
//! [`crate::payload`]) and reach this module as a count.

/// What the workload published: the destination group of every message
/// (by publish index) and the members of every group.
pub struct Published<'a> {
    pub group_of: &'a [u16],
    /// `members[g]` lists the hosts subscribed to group `g`.
    pub members: &'a [Vec<u32>],
    pub num_hosts: usize,
}

/// What the hosts reported: per host, the publish indices in delivery
/// order.
pub struct Observed<'a> {
    pub per_host: &'a [Vec<u32>],
    /// Deliveries whose payload failed its checksum (index unknown).
    pub corrupted: u64,
    /// Publishes the program refused.
    pub refused_publishes: u64,
}

/// Failure counts, each in deliveries.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub expected: u64,
    pub missing: u64,
    pub duplicate: u64,
    /// Deliveries to a host outside the message's group, or of an index
    /// never published.
    pub unexpected: u64,
    pub corrupted: u64,
    pub order_violations: u64,
    /// Deliveries owed by refused publishes.
    pub refused: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.missing
            + self.duplicate
            + self.unexpected
            + self.corrupted
            + self.order_violations
            + self.refused
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.expected.max(1) as f64
    }

    pub fn merge(&mut self, other: &Verdict) {
        self.expected += other.expected;
        self.missing += other.missing;
        self.duplicate += other.duplicate;
        self.unexpected += other.unexpected;
        self.corrupted += other.corrupted;
        self.order_violations += other.order_violations;
        self.refused += other.refused;
    }
}

pub fn check(published: &Published<'_>, observed: &Observed<'_>) -> Verdict {
    let num_msgs = published.group_of.len();
    let num_groups = published.members.len();
    let mut member_of = vec![vec![false; num_groups]; published.num_hosts];
    for (g, hosts) in published.members.iter().enumerate() {
        for &h in hosts {
            member_of[h as usize][g] = true;
        }
    }
    let mut verdict = Verdict {
        corrupted: observed.corrupted,
        ..Verdict::default()
    };
    let mut per_group = vec![0u64; num_groups];
    for &g in published.group_of {
        per_group[g as usize] += 1;
    }
    verdict.expected = per_group
        .iter()
        .zip(published.members)
        .map(|(&n, hosts)| n * hosts.len() as u64)
        .sum();
    // A refused publish has no index on the wire; the caller leaves it out
    // of `group_of`, so it owes its deliveries here, at the mean fan-out.
    if observed.refused_publishes > 0 {
        let fanout = published.members.iter().map(Vec::len).max().unwrap_or(1) as u64;
        verdict.refused = observed.refused_publishes * fanout;
        verdict.expected += verdict.refused;
    }

    // Exactly-once per (message, member).
    let mut seen = vec![0u8; num_msgs];
    for (h, seq) in observed.per_host.iter().enumerate() {
        seen.fill(0);
        for &m in seq {
            let m = m as usize;
            if m >= num_msgs || !member_of[h][published.group_of[m] as usize] {
                verdict.unexpected += 1;
            } else if seen[m] == 0 {
                seen[m] = 1;
            } else {
                verdict.duplicate += 1;
            }
        }
        for (m, &s) in seen.iter().enumerate() {
            if s == 0 && member_of[h][published.group_of[m] as usize] {
                verdict.missing += 1;
            }
        }
    }

    // Pairwise order: walking a's sequence, b's positions of the common
    // messages must only rise; each one that falls is out of order.
    let mut pos_in_b = vec![u32::MAX; num_msgs];
    for b in 0..observed.per_host.len() {
        for (i, &m) in observed.per_host[b].iter().enumerate() {
            if (m as usize) < num_msgs && pos_in_b[m as usize] == u32::MAX {
                pos_in_b[m as usize] = i as u32;
            }
        }
        for a in 0..b {
            if !(0..num_groups).any(|g| member_of[a][g] && member_of[b][g]) {
                continue;
            }
            let mut high: Option<u32> = None;
            for &m in &observed.per_host[a] {
                let Some(&p) = pos_in_b.get(m as usize) else {
                    continue;
                };
                if p == u32::MAX {
                    continue;
                }
                match high {
                    Some(h) if p < h => verdict.order_violations += 1,
                    Some(h) if p == h => {} // a duplicate at a, counted above
                    _ => high = Some(p),
                }
            }
        }
        for &m in &observed.per_host[b] {
            if let Some(p) = pos_in_b.get_mut(m as usize) {
                *p = u32::MAX;
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two groups sharing hosts 1 and 2; six messages alternating groups.
    fn fixture() -> (Vec<u16>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let group_of = vec![0u16, 1, 0, 1, 0, 1];
        let members = vec![vec![0u32, 1, 2], vec![1, 2, 3]];
        let per_host = vec![
            vec![0, 2, 4],
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 1, 2, 3, 4, 5],
            vec![1, 3, 5],
        ];
        (group_of, members, per_host)
    }

    fn run(
        group_of: &[u16],
        members: &[Vec<u32>],
        per_host: &[Vec<u32>],
        corrupted: u64,
    ) -> Verdict {
        check(
            &Published {
                group_of,
                members,
                num_hosts: 4,
            },
            &Observed {
                per_host,
                corrupted,
                refused_publishes: 0,
            },
        )
    }

    #[test]
    fn clean_run_passes() {
        let (g, m, h) = fixture();
        let v = run(&g, &m, &h, 0);
        assert_eq!(v.expected, 18);
        assert_eq!(v.failed(), 0, "{v:?}");
        assert_eq!(v.failed_share(), 0.0);
    }

    #[test]
    fn swapped_pair_is_an_order_violation() {
        let (g, m, mut h) = fixture();
        h[2].swap(2, 3); // host 2 sees message 3 before message 2
        let v = run(&g, &m, &h, 0);
        assert_eq!((v.missing, v.duplicate), (0, 0));
        assert!(v.order_violations >= 1, "{v:?}");
        assert!(v.failed_share() > 0.0);
    }

    #[test]
    fn duplicate_is_counted() {
        let (g, m, mut h) = fixture();
        h[1].push(5);
        let v = run(&g, &m, &h, 0);
        assert_eq!(v.duplicate, 1, "{v:?}");
        assert!(v.failed_share() > 0.0);
    }

    #[test]
    fn dropped_delivery_is_missing_not_misordered() {
        let (g, m, mut h) = fixture();
        h[2].remove(1);
        let v = run(&g, &m, &h, 0);
        assert_eq!(v.missing, 1, "{v:?}");
        assert_eq!(v.order_violations, 0, "a gap must not cascade: {v:?}");
        assert!(v.failed_share() > 0.0);
    }

    #[test]
    fn corrupted_payload_raises_failed_share() {
        let (g, m, mut h) = fixture();
        // The corrupt delivery has no trustworthy index: it shows up as a
        // corruption and as a delivery that never arrived.
        h[3].remove(0);
        let v = run(&g, &m, &h, 1);
        assert_eq!((v.corrupted, v.missing), (1, 1));
        assert!(v.failed_share() > 0.0);
    }

    #[test]
    fn foreign_delivery_and_refusal_are_failures() {
        let (g, m, mut h) = fixture();
        h[0].push(1); // host 0 is not in group 1
        let v = run(&g, &m, &h, 0);
        assert_eq!(v.unexpected, 1, "{v:?}");
        let v = check(
            &Published {
                group_of: &g,
                members: &m,
                num_hosts: 4,
            },
            &Observed {
                per_host: &fixture().2,
                corrupted: 0,
                refused_publishes: 2,
            },
        );
        assert_eq!(v.refused, 6);
        assert!(v.failed_share() > 0.0);
    }
}
