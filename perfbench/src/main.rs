//! The repository benchmark: one command that runs a named workload from a
//! seed, checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload protein_gpw --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced run. The last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Scratch
//! files go under `.bench_work/` in the working directory. See README.md
//! for what each metric measures.

mod fleet;
mod host;
mod replay;
mod report;
mod stats;
mod traj;

use anton_forcefield::water::TIP3P;
use anton_geometry::PeriodicBox;
use anton_systems::{table4_system, RunParams, System, TABLE4};
use report::Report;
use stats::splitmix64;
use std::path::{Path, PathBuf};
use traj::Subject;

/// The seed the pinned checksums below belong to.
const DEFAULT_SEED: u64 = 1;

/// Final-state checksums of each workload's job on the default seed.
const PINNED_WATER: u64 = 0x7b78_e507_9dea_c82f;
const PINNED_GPW: u64 = 0x61bd_cfe8_0501_e84d;
const PINNED_FLEET: u64 = 0xcf73_3f60_feb7_2a02;

const END_TO_END: [&str; 8] = [
    "ms_per_step_p50",
    "ms_per_step_p90",
    "ns_per_day",
    "setup_s",
    "resume_s",
    "job_latency_p50_s",
    "makespan_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 30] = [
    "systems.build_ms",
    "machine.ppip_build_ms",
    "core.pipeline_new_ms",
    "core.engine_build_ms",
    "core.cycle_ms",
    "core.short_range_reuse_ms",
    "core.short_range_rebuild_ms",
    "core.bonded_ms",
    "core.long_range_ms",
    "core.unattributed_ms",
    "core.evaluate_ns_per_pair",
    "core.match_ns_per_candidate",
    "core.lane_occupancy",
    "ewald.spread_ns_per_atom",
    "ewald.interpolate_ns_per_atom",
    "fft.transform_ns_per_mesh_point",
    "core.match_reuse_ratio",
    "core.live_pairs",
    "core.match_candidates",
    "core.match_batches",
    "core.rebuild_steps",
    "core.reuse_steps",
    "ckpt.write_ms",
    "ckpt.bytes",
    "ckpt.resume_ms",
    "analysis.verify_ms",
    "fleet.slice_resume_ms",
    "fleet.slice_run_ms",
    "fleet.slice_overhead_share",
    "trace.overhead_share",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The 1,020-atom TIP3P smoke box: 340 waters, 22 Å, rc 7.5 Å, 16³ mesh.
fn water_system(placement_seed: u64) -> System {
    let pbox = PeriodicBox::cubic(22.0);
    let (topology, positions) =
        anton_systems::waterbox::pure_water_topology(&pbox, &TIP3P, 340, placement_seed);
    System {
        name: "water_smoke".into(),
        pbox,
        topology,
        positions,
        params: RunParams::paper(7.5, 16),
    }
}

/// A single-trajectory workload's subject; placement and velocity seeds
/// derive from the workload seed.
fn trajectory(name: &str, seed: u64) -> Subject {
    let placement = splitmix64(seed);
    let velocity = splitmix64(placement);
    let configure = Box::new(move |b: anton_core::SimulationBuilder| {
        b.velocities_from_temperature(300.0, velocity)
    });
    match name {
        "water_smoke" => Subject {
            label: name.into(),
            system: Box::new(move || water_system(placement)),
            configure,
            nodes: 1,
            threads: 1,
            warmup: 3,
            cycles: 100,
            block: 4,
        },
        _ => Subject {
            label: name.into(),
            system: Box::new(move || table4_system(&TABLE4[0], placement)),
            configure,
            nodes: 8,
            threads: 2,
            warmup: 1,
            // Short jobs, so one run holds several set-ups, resumes and
            // job latencies to take medians over.
            cycles: 6,
            block: 1,
        },
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\nusage: perfbench --workload water_smoke|protein_gpw|fleet_ensemble [--seed N] [--seconds S] [--trace 0|1]");
        std::process::exit(2);
    });
    let (load, pinned) = match args.workload.as_str() {
        "water_smoke" => ("1 process, 1 busy thread (Nodes(1), 1 thread), 0 connections", PINNED_WATER),
        "protein_gpw" => ("1 process, 2 busy threads (Nodes(8), 2 threads), 0 connections", PINNED_GPW),
        "fleet_ensemble" => (
            "1 process: 2 fleet workers (1 thread each) + daemon accept thread, 1 client connection, closed loop",
            PINNED_FLEET,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let pinned = (args.seed == DEFAULT_SEED).then_some(pinned);
    let root = Path::new(".bench_work");
    let work: PathBuf = root.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let counts_file = root
        .join("counts")
        .join(format!("{}-seed{}.txt", args.workload, args.seed));

    let mode = if args.trace {
        "traced per-layer run"
    } else {
        "end-to-end run, tracing off"
    };
    let mut r = Report::new(format!(
        "perfbench {} seed {} ({mode}, {} s)",
        args.workload, args.seed, args.seconds
    ));
    for l in host::context_lines() {
        r.line(l);
    }
    r.line(format!("load {load}"));
    r.line(match pinned {
        Some(_) => {
            "correctness: battery, repeat counts, pinned checksum (default seed)".to_string()
        }
        None => {
            "correctness: battery, repeat counts (no pinned checksum for this seed)".to_string()
        }
    });

    match (args.workload.as_str(), args.trace) {
        ("fleet_ensemble", false) => {
            fleet::run_e2e(args.seed, args.seconds, &work, &counts_file, pinned, &mut r)
        }
        ("fleet_ensemble", true) => {
            fleet::run_trace(args.seed, &work, &counts_file, pinned, &mut r)
        }
        (name, false) => traj::run_e2e(
            &trajectory(name, args.seed),
            args.seconds,
            &work,
            &counts_file,
            pinned,
            &mut r,
        ),
        (name, true) => traj::run_trace(
            &trajectory(name, args.seed),
            &work,
            &counts_file,
            pinned,
            &mut r,
        ),
    }
    let _ = std::fs::remove_dir_all(&work);
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let ok = r.print(expected);
    std::process::exit(if ok { 0 } else { 1 });
}
