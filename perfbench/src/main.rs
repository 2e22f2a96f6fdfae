//! The DANCE benchmark: one command per workload run.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch_repeat --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `tpch_repeat`, `tpce_churn` (acquisition, [`acq`]) and
//! `wire_shop` (wire sessions, [`shop`]). `--trace 0` measures the
//! end-to-end metrics with nothing timed inside the pipeline; `--trace 1`
//! runs a plain pass and then a traced pass over the same inputs, checks
//! that both produce bit-identical outputs, and reports per-layer metrics.
//! Every run prints a `report` line (environment stamp, workload
//! properties, digests) and, last, one JSON result line.

mod acq;
mod shop;
mod util;

use std::path::PathBuf;

use util::{Json, Metrics};

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "p50_ms",
    "tail_ms",
    "throughput_per_s",
];

/// Per-layer metrics of the traced run, with their units; a workload that
/// does not exercise a layer reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("market.buy_sample_s", "s"),
    ("core.join_graph_build_s", "s"),
    ("core.step1_s", "s"),
    ("core.igraph_candidates", "count"),
    ("core.mcmc_s", "s"),
    ("core.mcmc_calls", "count"),
    ("core.sel_hit_ratio", "ratio"),
    ("core.proj_hit_ratio", "ratio"),
    ("sampling.join_sample_ms", "ms"),
    ("relation.join_sample_rows", "rows"),
    ("info.corr_sample_ms", "ms"),
    ("quality.tane_sample_ms", "ms"),
    ("core.empty_sample_joins", "count"),
    ("est.corr_ratio_median", "ratio"),
    ("market.purchase_s", "s"),
    ("market.full_fetch_s", "s"),
    ("core.project_full_s", "s"),
    ("sampling.join_full_s", "s"),
    ("relation.join_full_rows", "rows"),
    ("info.corr_full_s", "s"),
    ("info.ji_full_s", "s"),
    ("market.price_full_s", "s"),
    ("quality.tane_full_s", "s"),
    ("market.apply_update_ms", "ms"),
    ("core.apply_delta_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("session.quote_us", "us"),
    ("session.quote_batch_us", "us"),
    ("session.buy_sample_us", "us"),
    ("session.execute_us", "us"),
    ("server.residual_us", "us"),
    ("server.requests_served", "count"),
    ("server.protocol_errors", "count"),
    ("server.rate_limited", "count"),
    ("server.timeouts", "count"),
    ("request_p99_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("workload.repeat_share", "ratio"),
    ("trace.residual_s", "s"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// `(key, digest)` of the run's outputs, compared across runs of one seed.
    pub digest: Option<(String, u64)>,
    pub report: Option<Json>,
    pub workers: usize,
    pub chains: usize,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Compare this run's output digest with the one an earlier run of the same
/// binary, workload and seed recorded next to the binary; record it when
/// there is none. Keying on the binary's own bytes keeps a rebuilt program
/// from being held to an older program's outputs.
fn digest_matches_earlier_runs(key: &str, digest: u64) -> bool {
    let exe = std::env::current_exe().unwrap_or_default();
    let mut build = util::Digest::default();
    for chunk in std::fs::read(&exe).unwrap_or_default().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        build.u64(u64::from_le_bytes(word));
    }
    let dir: PathBuf = exe.parent().map_or_else(
        || PathBuf::from("perfbench-digests"),
        |d| d.join("perfbench-digests"),
    );
    let path = dir.join(format!("{key}-{:016x}", build.value()));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => earlier.trim() == format!("{digest:016x}"),
        Err(_) => {
            // Best effort: an unwritable directory only skips the record.
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, format!("{digest:016x}\n"));
            true
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the executor to one thread before anything starts a thread or
    // reads the variable. On a 2-vCPU virtual machine shared with other
    // tenants, two executor threads made searches 1.5-2x slower than one
    // and their times far less steady: a request that waits for both vCPUs
    // waits for the slower one.
    std::env::set_var("DANCE_THREADS", "1");

    let result = match args.workload.as_str() {
        "tpch_repeat" => acq::run(&acq::TPCH_REPEAT, args.seed, args.seconds, args.trace),
        "tpce_churn" => acq::run(&acq::TPCE_CHURN, args.seed, args.seconds, args.trace),
        "wire_shop" => shop::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    if let Some((key, digest)) = out.digest.clone() {
        out.check(
            "digest equals earlier runs of this seed",
            digest_matches_earlier_runs(&key, digest),
        );
    }
    let mut report = out.report.take().unwrap_or_default();
    report.obj("env", &util::env_stamp(out.workers, out.chains));
    if let Some((_, digest)) = &out.digest {
        report.str("digest", &format!("{digest:016x}"));
    }
    let failed_checks: Vec<&str> = out
        .checks
        .iter()
        .filter(|c| !c.1)
        .map(|c| c.0.as_str())
        .collect();
    report.raw(
        "failed_checks",
        format!(
            "[{}]",
            failed_checks
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    println!("report {}", report.render());

    let mut metrics = Metrics::default();
    let find = |name: &str| out.metrics.0.iter().find(|m| m.0 == name);
    if args.trace {
        for &(name, unit) in PER_LAYER {
            metrics.put(name, find(name).map_or(0.0, |m| m.1), unit);
        }
    } else {
        for &name in END_TO_END {
            let m = find(name).unwrap_or_else(|| panic!("workload did not report {name}"));
            metrics.put(m.0, m.1, m.2);
        }
    }
    let mut line = Json::default();
    line.bool("correct", failed_checks.is_empty());
    line.int("attempted", out.attempted.max(1));
    line.int("failed", out.failed);
    line.obj("metrics", &metrics.to_json());
    println!("{}", line.render());
}
