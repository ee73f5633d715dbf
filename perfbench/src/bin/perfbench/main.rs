//! The repository benchmark: drives the shipped gateway → store → chunkd
//! stack through its public APIs under one named workload, checks every
//! returned byte, and prints each metric by name with its unit. The last
//! line of standard output is the JSON result.
//!
//! Usage: `perfbench --workload <get-remote|mixed-local|repair-shaped>
//! --seed <n> --seconds <s> --trace <0|1>`. With `--trace 0` the result
//! carries the end-to-end metrics; `--trace 1` also records the
//! benchmark's spans and direct layer probes and carries the per-layer
//! metrics. `perfbench/README.md` defines every metric.

#![forbid(unsafe_code)]

mod backend;
mod link;
mod loadgen;
mod oracle;
mod probes;
mod stack;
mod stats;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Ctx, Report};

/// The metrics of a `--trace 0` result line, as listed in
/// `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("chunk_bytes_per_op", "bytes"),
    ("stored_bytes_per_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// The metrics of a `--trace 1` result line, as listed in
/// `BENCHMARK.json`'s `per_layer`.
const PER_LAYER: &[(&str, &str)] = &[
    ("cpu_us_per_op", "us"),
    ("get_p10_ms", "ms"),
    ("get_p50_ms", "ms"),
    ("get_p99_ms", "ms"),
    ("get_max_rps", "req/s"),
    ("get_degraded_p99_ms", "ms"),
    ("put_p50_ms", "ms"),
    ("put_p99_ms", "ms"),
    ("delete_p99_ms", "ms"),
    ("repair_s", "s"),
    ("repair_rs_s", "s"),
    ("repair_helper_bytes_per_byte", "ratio"),
    ("op_fail_ratio", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("loadgen.cpu_us_per_op", "us"),
    ("gateway.reactor_cpu_us_per_op", "us"),
    ("gateway.worker_cpu_us_per_op", "us"),
    ("gateway.queue_p99_us", "us"),
    ("gateway.flush_p50_us", "us"),
    ("gateway.self_us_per_get", "us"),
    ("gateway.requests_shed", "count"),
    ("store.stripe_read_healthy_us", "us"),
    ("store.stripe_read_degraded_us", "us"),
    ("store.put_us_per_stripe", "us"),
    ("store.delete_us", "us"),
    ("store.self_us_per_op", "us"),
    ("store.degraded_read_share", "ratio"),
    ("store.repair_stripes", "count"),
    ("store.repair_helper_bytes", "bytes"),
    ("store.repair_cross_rack_bytes", "bytes"),
    ("store.repair_failures", "count"),
    ("store.repair_cpu_us_per_stripe", "us"),
    ("backend.read_ops_per_get", "count"),
    ("backend.read_bytes_per_get", "bytes"),
    ("backend.read_p50_us", "us"),
    ("backend.read_p99_us", "us"),
    ("backend.read_concurrency", "ratio"),
    ("backend.write_ops_per_put", "count"),
    ("backend.write_p99_us", "us"),
    ("backend.errors", "count"),
    ("chunkd.server_read_p50_us", "us"),
    ("chunkd.server_read_p99_us", "us"),
    ("chunkd.client_minus_server_p50_us", "us"),
    ("chunkd.server_cpu_us_per_op", "us"),
    ("chunkd.client_cpu_us_per_op", "us"),
    ("chunkd.socket_rx_bytes_per_get", "bytes"),
    ("chunkd.wire_overhead", "ratio"),
    ("chunkd.reconnects", "count"),
    ("erasure.encode_stripe_us", "us"),
    ("erasure.reconstruct_stripe_us", "us"),
    ("erasure.repair_chunk_us", "us"),
    ("erasure.helper_bytes_per_repair", "bytes"),
    ("gf.matrix_mul_mb_s", "MB/s"),
    ("link.bytes", "bytes"),
    ("link.wait_s", "s"),
    ("link.utilization", "ratio"),
    ("link.repair_wait_share", "ratio"),
    ("link.conservation_ok", "bool"),
    ("link.foreground_bytes", "bytes"),
    ("link.rate_bytes_per_s", "bytes/s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.accounting_ok", "bool"),
    ("bench.wounded_object_share", "ratio"),
    ("bench.wounded_read_share", "ratio"),
    ("bench.get_samples", "count"),
    ("bench.put_samples", "count"),
    ("bench.repair_time_ratio", "ratio"),
    ("bench.helper_ratio_vs_rs", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// A new directory under `.perfbench-work/` for this run's files. Runs
/// leave their files in place (see `Stack::stop`), so the name is the
/// first `run-<pid>-<n>` not yet taken.
fn fresh_work_dir() -> std::io::Result<PathBuf> {
    let root = Path::new(".perfbench-work");
    fs::create_dir_all(root)?;
    let mut n = 0u32;
    loop {
        let dir = root.join(format!("run-{}-{n}", std::process::id()));
        match fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
            Err(e) => return Err(e),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <get-remote|mixed-local|repair-shaped> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let work = match fresh_work_dir() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        epoch: Instant::now(),
        work: work.clone(),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} CPUs, GF backend {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pbrs_gf::backend::active(),
    );
    // Changes left pending by whatever ran before are committed now, not
    // inside the first set-up.
    stack::settle(Path::new("."));
    let result = match args.workload.as_str() {
        "get-remote" => workloads::get_remote(&ctx, PER_LAYER),
        "mixed-local" => workloads::mixed_local(&ctx, PER_LAYER),
        "repair-shaped" => workloads::repair_shaped(&ctx, PER_LAYER),
        other => Err(format!("unknown workload {other:?}")),
    };
    println!("files of this run are left in {}", work.display());
    let mut rep: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    rep.m.put(
        "op_fail_ratio",
        stats::ratio(rep.failed as f64, rep.attempted as f64),
        "ratio",
    );
    println!("metrics:");
    rep.m.print();
    for p in &rep.problems {
        println!("correctness: {p}");
    }
    let correct = rep.problems.is_empty() && rep.failed == 0;
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        rep.m
            .result_json(correct, rep.attempted.max(1), rep.failed, names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..json[start..].find(']').map_or(json.len(), |e| start + e)];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (section, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = listed(&json, section);
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(ours, theirs, "{section} differs from BENCHMARK.json");
        }
    }
}
