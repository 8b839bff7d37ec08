//! The cluster spec file handed to every child process.
//!
//! The coordinator writes one plain-text spec into the run directory;
//! children are spawned with `cluster-node --spec <path> --node <idx>` and
//! re-derive everything else (graph, co-location, link table) from the
//! membership and seed via [`Topology::derive`]. The format is a trivial
//! line-oriented key/value listing — inspectable with `cat`, no serde.
//!
//! [`Topology::derive`]: crate::topo::Topology::derive

use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_runtime::ClusterConfig;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Everything a child process needs to join the cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Shared deployment configuration (validated before launch).
    pub config: ClusterConfig,
    /// The group membership the topology is derived from.
    pub membership: Membership,
    /// Configuration epoch this spec describes: 0 for a fresh deployment,
    /// N+1 for the run directory written by the Nth online
    /// reconfiguration. Nodes seed their protocol state from it and
    /// refuse snapshots recorded under a different epoch.
    pub epoch: u64,
    /// Listening port of each sequencing node, indexed by node.
    pub ports: Vec<u16>,
    /// Run directory: snapshots, per-node obs JSONL, the spec itself.
    pub dir: PathBuf,
}

impl ClusterSpec {
    /// The localhost address sequencing node `node` listens on.
    pub fn node_addr(&self, node: usize) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.ports[node]))
    }

    /// Serializes the spec to its line format.
    pub fn encode(&self) -> String {
        let mut s = String::from("seqnet-cluster-spec v1\n");
        let c = &self.config;
        s.push_str(&format!("seed {}\n", c.seed));
        s.push_str(&format!("epoch {}\n", self.epoch));
        s.push_str(&format!("drop_probability {}\n", c.drop_probability));
        s.push_str(&format!(
            "retransmit_timeout_us {}\n",
            c.retransmit_timeout.as_micros()
        ));
        s.push_str(&format!("backoff_cap_us {}\n", c.backoff_cap.as_micros()));
        s.push_str(&format!("link_delay_us {}\n", c.link_delay.as_micros()));
        s.push_str(&format!(
            "heartbeat_interval_us {}\n",
            c.heartbeat_interval.as_micros()
        ));
        s.push_str(&format!(
            "heartbeat_miss_threshold {}\n",
            c.heartbeat_miss_threshold
        ));
        s.push_str(&format!("coalesce {}\n", u8::from(c.coalesce)));
        s.push_str(&format!("trace {}\n", u8::from(c.trace)));
        s.push_str(&format!("dir {}\n", self.dir.display()));
        s.push_str("ports");
        for p in &self.ports {
            s.push_str(&format!(" {p}"));
        }
        s.push('\n');
        for group in self.membership.groups() {
            s.push_str(&format!("group {}", group.0));
            for member in self.membership.members(group) {
                s.push_str(&format!(" {}", member.0));
            }
            s.push('\n');
        }
        s
    }

    /// Parses a spec previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("seqnet-cluster-spec v1") {
            return Err("missing spec header".into());
        }
        let mut config = ClusterConfig::default();
        let mut epoch = 0u64;
        let mut ports = Vec::new();
        let mut dir = PathBuf::new();
        let mut membership = Membership::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |what: &str, v: &str| -> Result<u64, String> {
                v.parse::<u64>().map_err(|_| format!("bad {what}: {v:?}"))
            };
            match key {
                "seed" => config.seed = num("seed", rest)?,
                "epoch" => epoch = num("epoch", rest)?,
                "drop_probability" => {
                    config.drop_probability = rest
                        .parse::<f64>()
                        .map_err(|_| format!("bad drop_probability: {rest:?}"))?;
                }
                "retransmit_timeout_us" => {
                    config.retransmit_timeout =
                        Duration::from_micros(num("retransmit_timeout_us", rest)?);
                }
                "backoff_cap_us" => {
                    config.backoff_cap = Duration::from_micros(num("backoff_cap_us", rest)?);
                }
                "link_delay_us" => {
                    config.link_delay = Duration::from_micros(num("link_delay_us", rest)?);
                }
                "heartbeat_interval_us" => {
                    config.heartbeat_interval =
                        Duration::from_micros(num("heartbeat_interval_us", rest)?);
                }
                "heartbeat_miss_threshold" => {
                    config.heartbeat_miss_threshold =
                        num("heartbeat_miss_threshold", rest)? as u32;
                }
                "coalesce" => config.coalesce = rest == "1",
                "trace" => config.trace = rest == "1",
                "dir" => dir = PathBuf::from(rest),
                "ports" => {
                    for p in rest.split_whitespace() {
                        ports.push(p.parse::<u16>().map_err(|_| format!("bad port {p:?}"))?);
                    }
                }
                "group" => {
                    let mut it = rest.split_whitespace();
                    let gid = it
                        .next()
                        .ok_or("group line without id")
                        .and_then(|g| g.parse::<u32>().map_err(|_| "bad group id"))
                        .map_err(str::to_owned)?;
                    for member in it {
                        let n = member
                            .parse::<u32>()
                            .map_err(|_| format!("bad member {member:?}"))?;
                        membership.subscribe(NodeId(n), GroupId(gid));
                    }
                }
                other => return Err(format!("unknown spec key {other:?}")),
            }
        }
        if dir.as_os_str().is_empty() {
            return Err("spec has no dir".into());
        }
        config.validate()?;
        Ok(ClusterSpec {
            config,
            membership,
            epoch,
            ports,
            dir,
        })
    }

    /// Loads and parses a spec file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a string.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_its_line_format() {
        let membership = Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1)]),
            (GroupId(1), vec![NodeId(1), NodeId(2)]),
        ]);
        let spec = ClusterSpec {
            config: ClusterConfig {
                seed: 99,
                coalesce: true,
                trace: true,
                heartbeat_miss_threshold: 5,
                ..ClusterConfig::default()
            },
            membership,
            epoch: 4,
            ports: vec![40001, 40002],
            dir: PathBuf::from("/tmp/seqnet-test-run"),
        };
        let text = spec.encode();
        let back = ClusterSpec::parse(&text).expect("parses");
        assert_eq!(back.config.seed, 99);
        assert_eq!(back.epoch, 4);
        assert!(back.config.coalesce);
        assert!(back.config.trace);
        assert_eq!(back.config.heartbeat_miss_threshold, 5);
        assert_eq!(back.ports, vec![40001, 40002]);
        assert_eq!(back.dir, PathBuf::from("/tmp/seqnet-test-run"));
        assert_eq!(
            back.membership.group_size(GroupId(0)),
            2,
            "group 0 kept its members"
        );
        assert_eq!(back.encode(), text, "encoding is canonical");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ClusterSpec::parse("not a spec").is_err());
        assert!(ClusterSpec::parse("seqnet-cluster-spec v1\nwat 3\n").is_err());
        assert!(
            ClusterSpec::parse("seqnet-cluster-spec v1\nseed x\ndir /tmp\n").is_err(),
            "non-numeric seed"
        );
    }
}
