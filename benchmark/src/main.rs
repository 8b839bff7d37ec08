//! `seqnet-benchmark` — the repo benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how they interact.
//!
//! ```text
//! seqnet-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! seqnet-benchmark compare BENCHMARK.json A.json B.json
//! ```
//!
//! One invocation runs one workload once and prints every metric by name
//! with its unit, then — as the last line of standard output — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod payload;
mod perlayer;
mod procfs;
mod simscale;
mod slices;
mod spans;
mod stats;
mod sys;
mod topo;
mod verify;
mod wall;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: seqnet-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]\n\
         \x20      seqnet-benchmark compare BENCHMARK.json A.json B.json\n\
         workloads: {}",
        workloads::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

struct Options {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where the traced run writes the layer replay's spans, if anywhere.
    spans_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Options {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(workloads::find(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if !(1.0..=60.0).contains(&seconds) {
        eprintln!("--seconds must be between 1 and 60");
        usage();
    }
    Options {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        spans_out,
    }
}

/// Where the numbers came from. `run.sh` passes what only the build
/// environment knows; the rest is read here.
fn provenance(opts: &Options) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_sha\": \"{}\", \"rustc\": \"{}\", \"profile\": \"release\", \"nproc\": {nproc}, \
         \"dep_mode\": \"shim\", \"seed\": {}, \"kernel\": \"{}\"}}",
        json::escape(&env("SEQNET_BENCH_GIT_SHA")),
        json::escape(&env("SEQNET_BENCH_RUSTC")),
        opts.seed,
        json::escape(&kernel)
    )
}

fn compare_main(args: &[String]) -> ! {
    let [manifest, parent, change] = args else {
        usage()
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("benchmark: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    match compare::run(&read(manifest), &read(parent), &read(change)) {
        Ok(status) => std::process::exit(status),
        Err(e) => {
            eprintln!("benchmark: compare: {e}");
            std::process::exit(2);
        }
    }
}

/// The socket deployment keeps its run directories (spec, snapshots,
/// node traces) under the system temp dir. Point that at a directory
/// this process owns, inside the working directory, and remove it on the
/// way out — otherwise every run leaves `seqnet-cluster-<pid>-<n>`
/// behind.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Self {
        let base = std::env::var_os("SEQNET_BENCH_TMP")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("benchmark/target/run-tmp"));
        let dir = base.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("benchmark: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        });
        let dir = dir.canonicalize().unwrap_or(dir);
        // Set before any thread exists; child processes inherit it.
        std::env::set_var("TMPDIR", &dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload that has not finished `seconds + 30 s drain + slack` after
/// it started is hung: kill the node processes and exit non-zero rather
/// than wait for the driver's timeout.
fn arm_watchdog(seconds: f64, scratch: PathBuf) {
    let limit =
        Duration::from_secs_f64(seconds * 2.0) + wall::DRAIN_LIMIT + Duration::from_secs(60);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: hard deadline of {limit:?} passed; killing the process tree");
        procfs::kill_children();
        let _ = std::fs::remove_dir_all(&scratch);
        std::process::exit(3);
    });
}

fn main() {
    // A sequencing-node child of the socket deployment is this same
    // binary: if that is what this process is, it never returns.
    seqnet::deploy::run_if_child();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..]);
    }
    let opts = parse(&args);
    let scratch = ScratchDir::create();
    arm_watchdog(opts.seconds, scratch.0.clone());

    println!("workload {}: {}", opts.workload.name, opts.workload.shape);
    println!(
        "seed {} seconds {} trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("provenance: {}", provenance(&opts));
    let result = if opts.trace {
        workloads::run_traced(
            opts.workload,
            opts.seed,
            opts.seconds,
            opts.spans_out.as_deref(),
        )
    } else {
        workloads::run_untraced(opts.workload, opts.seed, opts.seconds)
    };
    for note in &result.notes {
        println!("# {note}");
    }
    for (name, value, unit) in result.metrics.rows() {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    drop(scratch);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        result.metrics.to_json()
    );
}
