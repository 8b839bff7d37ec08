//! Command-line driver: run ad-hoc ordering simulations and inspect
//! sequencing graphs without writing code.
//!
//! ```text
//! seqnet sim     [--hosts N] [--groups G] [--messages M] [--seed S] [--topology small|medium|paper]
//!                [--trace-out FILE]
//! seqnet graph   [--hosts N] [--groups G] [--seed S]
//! seqnet cluster [--hosts N] [--groups G] [--messages M] [--seed S] [--chaos 0|1]
//!                [--trace 0|1] [--prom 0|1]
//! seqnet demo
//! seqnet help
//! ```
//!
//! The binary doubles as the sequencing-node child process for `seqnet
//! cluster`: the coordinator respawns it as `seqnet cluster-node ...`,
//! which `run_if_child` intercepts before normal argument parsing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet::core::{metrics, NetworkSetup, OrderedPubSub};
use seqnet::membership::workload::{OccupancyGroups, ZipfGroups};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::overlap::{Colocation, GraphBuilder};
use seqnet::obs::Recorder;
use seqnet::topology::TransitStubParams;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

/// Parsed command-line options: `--key value` pairs after the subcommand.
#[derive(Debug, Default, PartialEq)]
struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    /// Parses `--key value` pairs; returns an error message for stray or
    /// incomplete arguments.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}' (flags are --key value)"));
            };
            let Some(value) = it.next() else {
                return Err(format!("flag --{key} is missing its value"));
            };
            values.insert(key.to_string(), value.clone());
        }
        Ok(Options { values })
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    fn topology(&self) -> Result<TransitStubParams, String> {
        match self.values.get("topology").map(String::as_str) {
            None | Some("small") => Ok(TransitStubParams::small()),
            Some("medium") => Ok(TransitStubParams::medium()),
            Some("paper") => Ok(TransitStubParams::paper()),
            Some(other) => Err(format!(
                "--topology expects small|medium|paper, got '{other}'"
            )),
        }
    }
}

fn main() -> ExitCode {
    // Become a sequencing-node process if the coordinator spawned us as one.
    seqnet::deploy::run_if_child();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", &[][..]),
    };
    let result = match cmd {
        "sim" => Options::parse(rest).and_then(|o| cmd_sim(&o)),
        "graph" => Options::parse(rest).and_then(|o| cmd_graph(&o)),
        "cluster" => Options::parse(rest).and_then(|o| cmd_cluster(&o)),
        "demo" => cmd_demo(),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'seqnet help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "seqnet — decentralized message ordering for pub/sub (Middleware 2006)

USAGE:
  seqnet sim   [--hosts N] [--groups G] [--messages M] [--seed S] [--topology small|medium|paper]
               [--trace-out FILE]
               run an ordered pub/sub simulation on a generated topology;
               --trace-out dumps the protocol trace as JSONL
  seqnet graph [--hosts N] [--groups G] [--seed S] [--workload dense|zipf] [--dot FILE]
               build and print a sequencing graph for a Zipf workload
  seqnet cluster [--hosts N] [--groups G] [--messages M] [--seed S] [--chaos 0|1]
                 [--trace 0|1] [--prom 0|1]
               launch a real multi-process cluster on localhost sockets
               (one OS process per sequencing node); --chaos 1 SIGKILLs
               and respawns a node mid-run; --trace 1 writes per-process
               span JSONL into the run dir; --prom 1 prints the merged
               epoch-labelled Prometheus exposition
  seqnet demo  minimal two-group ordering demonstration
  seqnet help  this text"
    );
}

fn cmd_sim(opts: &Options) -> Result<(), String> {
    let hosts = opts.usize_or("hosts", 32)?;
    let groups = opts.usize_or("groups", 8)?;
    let messages = opts.usize_or("messages", 100)?;
    let seed = opts.u64_or("seed", 1)?;
    let params = opts.topology()?;

    let mut rng = StdRng::seed_from_u64(seed);
    let setup = NetworkSetup::generate(&params, hosts, (hosts / 8).max(2), &mut rng);
    let membership = ZipfGroups::new(hosts, groups).with_min_size(2).sample(&mut rng);
    let mut bus = OrderedPubSub::with_network(&membership, &setup, &mut rng);

    // Optional protocol trace: record every event and dump JSONL at the end.
    let recorder = opts.values.get("trace-out").map(|path| {
        let recorder = Arc::new(Mutex::new(Recorder::new()));
        bus.set_trace_sink(recorder.clone());
        (path.clone(), recorder)
    });

    println!(
        "topology: {} routers | hosts: {hosts} | groups: {groups} | overlaps: {}",
        setup.topology.graph.num_routers(),
        bus.graph().num_overlap_atoms(),
    );

    let jobs: Vec<(NodeId, GroupId)> = membership
        .nodes()
        .flat_map(|n| membership.groups_of(n).map(move |g| (n, g)).collect::<Vec<_>>())
        .collect();
    if jobs.is_empty() {
        return Err("workload produced no subscriptions; try more hosts".into());
    }
    for i in 0..messages {
        let (sender, group) = jobs[i % jobs.len()];
        bus.publish(sender, group, vec![]).map_err(|e| e.to_string())?;
    }
    bus.run_to_quiescence();

    let deliveries = bus.all_deliveries().count();
    println!(
        "published {messages} messages -> {deliveries} deliveries, {} stuck",
        bus.stuck_messages()
    );
    let stretch = metrics::stretch_by_destination(bus.all_deliveries());
    if !stretch.is_empty() {
        let values: Vec<f64> = stretch.iter().map(|(_, s)| *s).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        println!("latency stretch over {} destinations: mean {mean:.2}, max {max:.2}", values.len());
    }
    if let (Some(latency), Some(buffering)) = (
        metrics::mean_delivery_latency_ms(bus.all_deliveries()),
        metrics::mean_buffering_ms(bus.all_deliveries()),
    ) {
        println!("mean delivery latency: {latency:.2} ms (buffering {buffering:.3} ms)");
    }
    if let Some((path, recorder)) = recorder {
        let recorder = recorder.lock().expect("trace sink poisoned");
        let events = recorder.events();
        std::fs::write(&path, seqnet::obs::jsonl::to_jsonl_lines(events))
            .map_err(|e| e.to_string())?;
        println!("trace: {} events written to {path}", events.len());
    }
    Ok(())
}

fn cmd_graph(opts: &Options) -> Result<(), String> {
    let hosts = opts.usize_or("hosts", 12)?;
    let groups = opts.usize_or("groups", 4)?;
    let seed = opts.u64_or("seed", 1)?;

    let mut rng = StdRng::seed_from_u64(seed);
    // A dense workload illustrates overlaps better than sparse Zipf.
    let membership = match opts.values.get("workload").map(String::as_str) {
        None | Some("dense") => OccupancyGroups::new(hosts, groups, 0.4).sample(&mut rng),
        Some("zipf") => ZipfGroups::new(hosts, groups).with_min_size(2).sample(&mut rng),
        Some(other) => return Err(format!("--workload expects dense|zipf, got '{other}'")),
    };
    let graph = GraphBuilder::new().build(&membership);
    graph.validate_against(&membership).map_err(|e| e.to_string())?;
    let coloc = Colocation::compute(&graph, &mut rng);

    println!("membership ({hosts} hosts, {groups} groups):");
    for g in membership.groups().collect::<Vec<_>>() {
        let members: Vec<String> = membership.members(g).map(|n| n.to_string()).collect();
        println!("  {g}: {{{}}}", members.join(", "));
    }
    println!(
        "\nsequencing graph: {} overlap atoms, {} total, C1/C2 valid",
        graph.num_overlap_atoms(),
        graph.num_atoms()
    );
    for atom in graph.atoms() {
        match atom.overlap() {
            Some(o) => {
                let members: Vec<String> = o.members.iter().map(|n| n.to_string()).collect();
                println!(
                    "  {} = overlap({}, {}) over {{{}}}",
                    atom.id,
                    o.pair.0,
                    o.pair.1,
                    members.join(", ")
                );
            }
            None => println!("  {} = ingress-only", atom.id),
        }
    }
    println!("\npaths:");
    for (g, path) in graph.paths() {
        let hops: Vec<String> = path.iter().map(|a| a.to_string()).collect();
        println!("  {g}: {}", hops.join(" -> "));
    }
    println!("\nsequencing nodes (co-location):");
    for (i, node) in coloc.nodes().iter().enumerate() {
        let atoms: Vec<String> = node.atoms.iter().map(|a| a.to_string()).collect();
        let kind = if node.ingress_only { " (ingress-only)" } else { "" };
        println!("  node {i}{kind}: [{}]", atoms.join(", "));
    }
    if let Some(path) = opts.values.get("dot") {
        std::fs::write(path, graph.to_dot()).map_err(|e| e.to_string())?;
        println!("\nGraphviz DOT written to {path}");
    }
    Ok(())
}

fn cmd_cluster(opts: &Options) -> Result<(), String> {
    use seqnet::deploy::{ChaosPlan, DeployCluster};
    use seqnet::membership::workload::ZipfGroups;
    use seqnet::runtime::ClusterConfig;
    use std::time::Duration;

    let hosts = opts.usize_or("hosts", 8)?;
    let groups = opts.usize_or("groups", 3)?;
    let messages = opts.usize_or("messages", 60)?;
    let seed = opts.u64_or("seed", 1)?;
    let chaos = opts.u64_or("chaos", 0)? != 0;
    let trace = opts.u64_or("trace", 0)? != 0;
    let prom = opts.u64_or("prom", 0)? != 0;

    let mut rng = StdRng::seed_from_u64(seed);
    let membership = ZipfGroups::new(hosts, groups).with_min_size(2).sample(&mut rng);
    let config = ClusterConfig {
        seed,
        trace,
        ..ClusterConfig::default()
    };
    let mut cluster = DeployCluster::start(&membership, config)?;
    println!(
        "cluster: {} sequencing-node processes, run dir {}",
        cluster.num_sequencing_nodes(),
        cluster.dir().display()
    );

    let jobs: Vec<(NodeId, GroupId)> = membership
        .nodes()
        .flat_map(|n| membership.groups_of(n).map(move |g| (n, g)).collect::<Vec<_>>())
        .collect();
    if jobs.is_empty() {
        return Err("workload produced no subscriptions; try more hosts".into());
    }
    let mut expected = 0usize;
    for i in 0..messages {
        let (sender, group) = jobs[i % jobs.len()];
        cluster.publish(sender, group, vec![]).map_err(|e| e.to_string())?;
        expected += membership.group_size(group);
    }
    if chaos {
        let plan = ChaosPlan::seeded(seed, cluster.num_sequencing_nodes(), Duration::from_millis(400));
        println!("chaos: replaying seeded plan {plan:?}");
        cluster.run_chaos_plan(&plan)?;
    }
    let deliveries = cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .map_err(|e| e.to_string())?;
    println!("health: {}", cluster.health_line());
    let prom_text = prom.then(|| cluster.prometheus_text());
    let stats = cluster.shutdown();
    let received: usize = deliveries.values().map(Vec::len).sum();
    println!("published {messages} messages -> {received}/{expected} deliveries");
    println!(
        "wire: {} frames sent, {} retransmissions, {} duplicates dropped, {} snapshots",
        stats.frames_sent, stats.retransmissions, stats.duplicates, stats.snapshots
    );
    if stats.recovery.crashes > 0 {
        println!(
            "recovery: {} crash(es), {} frames replayed, {:.1} ms mean recovery",
            stats.recovery.crashes,
            stats.recovery.frames_replayed,
            stats.recovery.recovery_micros as f64 / 1000.0 / stats.recovery.crashes as f64
        );
    }
    if let Some(text) = prom_text {
        print!("{text}");
    }
    if trace {
        println!(
            "trace: per-process JSONL in {} (coord.obs.jsonl + node*.obs.jsonl); \
             reconstruct spans with `seqnet-obs-report spans {}/*.obs.jsonl`",
            cluster.dir().display(),
            cluster.dir().display()
        );
    }
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    let membership = Membership::from_groups([
        (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
        (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
    ]);
    let mut bus = OrderedPubSub::new(&membership);
    for i in 0..6u8 {
        let (sender, group) = if i % 2 == 0 {
            (NodeId(0), GroupId(0))
        } else {
            (NodeId(3), GroupId(1))
        };
        bus.publish(sender, group, vec![i]).map_err(|e| e.to_string())?;
    }
    bus.run_to_quiescence();
    for node in [NodeId(1), NodeId(2)] {
        let order: Vec<String> = bus.delivered(node).iter().map(|d| d.id.to_string()).collect();
        println!("{node} delivered: {}", order.join(" "));
    }
    println!("overlap members agree on the order of all six messages.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flag_pairs() {
        let o = Options::parse(&args(&["--hosts", "32", "--seed", "9"])).unwrap();
        assert_eq!(o.usize_or("hosts", 1).unwrap(), 32);
        assert_eq!(o.u64_or("seed", 0).unwrap(), 9);
        assert_eq!(o.usize_or("groups", 7).unwrap(), 7, "default applies");
    }

    #[test]
    fn rejects_stray_arguments() {
        assert!(Options::parse(&args(&["hosts"])).is_err());
        assert!(Options::parse(&args(&["--hosts"])).is_err());
        assert!(Options::parse(&args(&["--hosts", "x"]))
            .unwrap()
            .usize_or("hosts", 1)
            .is_err());
    }

    #[test]
    fn topology_names() {
        let o = Options::parse(&args(&["--topology", "medium"])).unwrap();
        assert_eq!(o.topology().unwrap(), TransitStubParams::medium());
        let bad = Options::parse(&args(&["--topology", "huge"])).unwrap();
        assert!(bad.topology().is_err());
    }
}
