//! Node/thread scaling on the simulated machine: measured step time, the
//! long-range (reciprocal) phase broken out, modeled torus communication
//! from the exchange-plan counters — now including the distributed FFT's
//! pencil messages and the mesh-halo traffic — and a bitwise cross-check
//! that every configuration produces the same trajectory.
//!
//! `cargo run --release -p anton-bench --bin scaling [--full]`
//!
//! Each row runs the same waterbox under a different simulated node count
//! and worker-thread count. "state" is a checksum of the exact final state:
//! identical in every row, per the parallel-invariance property (paper §4).
//! The comm columns come from `machine::perf::ExchangeCounters`, metered by
//! the static `ExchangePlan`/`MeshExchange` over the simulated torus —
//! modeled traffic, not host traffic.
//!
//! A machine-readable copy of every row lands in
//! `results/BENCH_scaling.json` so the perf trajectory is tracked across
//! PRs.

use anton_analysis::battery::Verifier;
use anton_analysis::verify::check_census_invariance;
use anton_core::{AntonSimulation, Decomposition, RawForces};
use anton_machine::perf::ExchangeCounters;
use anton_machine::MachineConfig;
use anton_systems::spec::RunParams;
use anton_systems::System;
use anton_trace::{chrome_trace_json, phase_summary, summary_table, PhaseRow};
use std::time::Instant;

fn waterbox(full: bool) -> System {
    let (edge, waters) = if full { (36.0, 1500) } else { (22.0, 340) };
    let pbox = anton_geometry::PeriodicBox::cubic(edge);
    let (top, positions) = anton_systems::waterbox::pure_water_topology(
        &pbox,
        &anton_forcefield::water::TIP3P,
        waters,
        3,
    );
    System {
        name: "scaling-water".into(),
        pbox,
        topology: top,
        positions,
        params: RunParams::paper(7.5, 16),
    }
}

/// FNV-1a over the exact raw state bytes.
fn state_checksum(sim: &AntonSimulation) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in sim.state.to_bytes().as_slice() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// One measured + modeled configuration.
struct Row {
    nodes: usize,
    threads: usize,
    ms_per_step: f64,
    /// Wall time of one full long-range evaluation (reciprocal phase +
    /// overlapped corrections), isolated from the rest of the step.
    lr_ms_per_eval: f64,
    links_per_rank: u64,
    kb_per_step_rank: f64,
    mean_hops: f64,
    modeled_comm_us: f64,
    fft_msgs_per_rank_lr: f64,
    fft_kb_per_rank_lr: f64,
    halo_kb_per_rank_lr: f64,
    /// Match-stage census over the whole run (candidates examined, pairs
    /// surviving the exact cutoff, batches evaluated). The pair count is a
    /// pure function of the trajectory — identical in every row — while
    /// candidates and batches depend on the decomposition's tiling.
    match_candidates: u64,
    match_pairs: u64,
    match_batches: u64,
    /// Persistent match-cache census: how many short-range evaluations
    /// rebuilt the tile/batch structure vs reused it. The schedule is a
    /// pure function of the trajectory (exact fixed-point displacement
    /// monitor), so both counts are identical in every row.
    rebuild_steps: u64,
    reuse_steps: u64,
    checksum: u64,
}

/// Mean steps per rebuild period (the initial build counts as a rebuild).
fn mean_reuse_interval(rebuilds: u64, reuses: u64) -> f64 {
    if rebuilds == 0 {
        0.0
    } else {
        (rebuilds + reuses) as f64 / rebuilds as f64
    }
}

/// Time the long-range phase in isolation, leaving the trajectory and the
/// exchange counters exactly as they were (counters are snapshot/restored
/// so the timing reps don't perturb the per-step averages).
fn time_long_range(sim: &mut AntonSimulation, reps: u32) -> f64 {
    let saved = sim.pipeline.counters;
    let mut tmp = RawForces::zeroed(sim.system.n_atoms());
    let t0 = Instant::now();
    for _ in 0..reps {
        tmp.clear();
        sim.pipeline.long_range(&sim.system, &sim.state, &mut tmp);
    }
    let dt = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    sim.pipeline.counters = saved;
    dt
}

fn json_escape_free(v: f64) -> String {
    // Finite metric values only; fixed precision keeps the file stable in
    // form (values still vary with host timing, as any benchmark does).
    format!("{v:.6}")
}

fn write_json(path: &str, sys: &System, steps: u64, rows: &[Row], invariant: bool) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"bench-scaling/v2\",\n");
    s.push_str(&format!("  \"atoms\": {},\n", sys.n_atoms()));
    s.push_str(&format!("  \"steps_per_row\": {steps},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"nodes\": {}, \"threads\": {}, \"ms_per_step\": {}, \
             \"lr_ms_per_eval\": {}, \"links_per_rank\": {}, \
             \"kb_per_step_rank\": {}, \"mean_hops\": {}, \
             \"modeled_comm_us\": {}, \"fft_messages_per_rank_lr_step\": {}, \
             \"fft_kb_per_rank_lr_step\": {}, \
             \"mesh_halo_kb_per_rank_lr_step\": {}, \"match_candidates\": {}, \
             \"match_pairs\": {}, \"match_batches\": {}, \
             \"rebuild_steps\": {}, \"reuse_steps\": {}, \
             \"mean_reuse_interval\": {}, \
             \"state_checksum\": \"{:016x}\"}}{}\n",
            r.nodes,
            r.threads,
            json_escape_free(r.ms_per_step),
            json_escape_free(r.lr_ms_per_eval),
            r.links_per_rank,
            json_escape_free(r.kb_per_step_rank),
            json_escape_free(r.mean_hops),
            json_escape_free(r.modeled_comm_us),
            json_escape_free(r.fft_msgs_per_rank_lr),
            json_escape_free(r.fft_kb_per_rank_lr),
            json_escape_free(r.halo_kb_per_rank_lr),
            r.match_candidates,
            r.match_pairs,
            r.match_batches,
            r.rebuild_steps,
            r.reuse_steps,
            json_escape_free(mean_reuse_interval(r.rebuild_steps, r.reuse_steps)),
            r.checksum,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"invariant\": {invariant}\n"));
    s.push_str("}\n");
    if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &s)) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

/// One traced configuration: the per-phase summary with the measured
/// wall-clock stripped, leaving only the deterministic payload.
struct TraceRow {
    nodes: usize,
    threads: usize,
    checksum: u64,
    phases: Vec<PhaseRow>,
}

/// Checkpoint cost of the traced 8-node row: file/byte counts are exact
/// (the snapshot encoding is deterministic), serialize+write time is
/// measured wall-clock from the `checkpoint` trace phase.
struct CkptStats {
    files: u64,
    bytes_written: u64,
    serialize_us: f64,
}

fn write_trace_json(path: &str, sys: &System, cycles: usize, rows: &[TraceRow], ckpt: &CkptStats) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"trace-scaling/v1\",\n");
    s.push_str(&format!("  \"atoms\": {},\n", sys.n_atoms()));
    s.push_str(&format!("  \"cycles_per_row\": {cycles},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"nodes\": {}, \"threads\": {}, \"state_checksum\": \"{:016x}\", \"phases\": [\n",
            r.nodes, r.threads, r.checksum
        ));
        for (j, p) in r.phases.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"phase\": \"{}\", \"spans\": {}, \"messages\": {}, \
                 \"bytes\": {}, \"modeled_us\": {}, \"wall_us\": {}}}{}\n",
                p.phase.name(),
                p.spans,
                p.messages,
                p.bytes,
                json_escape_free(p.modeled_us),
                json_escape_free(p.measured_ns as f64 / 1e3),
                if j + 1 < r.phases.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"checkpoint\": {{\"files\": {}, \"bytes_written\": {}, \"serialize_us\": {}}}\n",
        ckpt.files,
        ckpt.bytes_written,
        json_escape_free(ckpt.serialize_us),
    ));
    s.push_str("}\n");
    if let Err(e) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &s)) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

/// Re-run a few decompositions with the trace subsystem enabled. Each
/// phase summary goes to `results/TRACE_scaling.json` for the perf gate:
/// span counts and modeled communication gate exactly/tightly, while the
/// `wall_us` column (measured wall-clock inside the phase's spans, here so
/// dispatch overhead is a number instead of a guess) gates only at the
/// loose measured tier. The chrome-trace of
/// the 8-node run goes to `results/TRACE_chrome.json` (gitignored; open in
/// chrome://tracing or Perfetto). Returns the rows for the invariance check.
fn traced_pass(sys: &System, cycles: usize) -> (Vec<TraceRow>, CkptStats) {
    let mut out = Vec::new();
    let mut ckpt_stats = CkptStats {
        files: 0,
        bytes_written: 0,
        serialize_us: 0.0,
    };
    // (1, 4) is the thread fan-out probe: one node, so every RangeLimited/
    // LongRange span is pure work while the Dispatch spans are pure pool
    // overhead — the measured cost behind the nodes=1 threads>1 slowdown.
    for &(nodes, threads) in &[(1usize, 1usize), (1, 4), (8, 2), (64, 4)] {
        let mut builder = AntonSimulation::builder(sys.clone())
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(nodes))
            .threads(threads)
            .tracing(true);
        // The 8-node row doubles as the checkpoint-cost probe: write a
        // rotated checkpoint every 4 cycles and report bytes + time. The
        // trajectory is unaffected (checkpointing is observability-only),
        // which the invariance assertion below re-proves every run.
        let probe_ckpt = nodes == 8;
        if probe_ckpt {
            let _ = std::fs::remove_dir_all("target/ckpt_scaling");
            builder = builder
                .checkpoint_every(4)
                .checkpoint_dir("target/ckpt_scaling")
                .checkpoint_keep(2);
        }
        let mut sim = builder.build();
        sim.run_cycles(cycles);
        let buf = sim.trace().buf().expect("tracing was enabled");
        assert_eq!(buf.dropped_spans(), 0, "trace span capacity exceeded");
        assert_eq!(buf.dropped_counters(), 0, "trace counter capacity exceeded");
        let phases = phase_summary(buf);
        if probe_ckpt {
            let (files, bytes) = sim
                .checkpoint_stats()
                .expect("checkpointing was configured on the 8-node row");
            let serialize_us = phases
                .iter()
                .find(|p| p.phase.name() == "checkpoint")
                .map_or(0.0, |p| p.measured_ns as f64 / 1e3);
            ckpt_stats = CkptStats {
                files,
                bytes_written: bytes,
                serialize_us,
            };
            println!(
                "\ncheckpoint probe (8 nodes): {files} files, {bytes} bytes, {serialize_us:.1} µs serialize+write"
            );
        }
        println!("\n--- traced: {nodes} nodes, {threads} threads ---");
        print!("{}", summary_table(&phases));
        if nodes == 8 {
            let chrome = chrome_trace_json(buf);
            if let Err(e) = std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write("results/TRACE_chrome.json", &chrome))
            {
                eprintln!("warning: could not write results/TRACE_chrome.json: {e}");
            } else {
                println!("wrote results/TRACE_chrome.json");
            }
        }
        // The traced rows run the same battery: tracing (like
        // checkpointing) is observability-only, so every identity must
        // still hold word-for-word.
        let mut verifier = Verifier::new(&sim);
        verifier.sample(&sim);
        verifier.assert_clean();
        out.push(TraceRow {
            nodes,
            threads,
            checksum: state_checksum(&sim),
            phases,
        });
    }
    write_trace_json("results/TRACE_scaling.json", sys, cycles, &out, &ckpt_stats);
    (out, ckpt_stats)
}

fn main() {
    let full = anton_bench::full_mode();
    let sys = waterbox(full);
    let cycles = if full { 20 } else { 8 };
    let k = sys.params.longrange_every.max(1) as u64;
    let steps = cycles as u64 * k;
    let lr_reps = if full { 10 } else { 4 };

    anton_bench::header(
        &format!(
            "Node/thread scaling — {} atoms, {} steps per row",
            sys.n_atoms(),
            steps
        ),
        &[
            "nodes",
            "thr",
            "ms/step",
            "lr ms",
            "links/rank",
            "KB/step·rank",
            "hops",
            "comm µs (model)",
            "fft msg/rank",
            "fft KB/rank",
            "state",
        ],
    );

    // Warm the host (CPU frequency, page cache, lazily-faulted buffers)
    // before the first timed row; without this the process's cold start
    // bills itself entirely to the 1-node/1-thread row. The warmup state
    // is dropped, so row trajectories are untouched.
    {
        let mut warm = AntonSimulation::builder(sys.clone())
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(1))
            .build();
        warm.run_cycles(2);
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut row_counters: Vec<ExchangeCounters> = Vec::new();
    for &nodes in &[1usize, 8, 64] {
        for &threads in &[1usize, 2, 4] {
            let mut sim = AntonSimulation::builder(sys.clone())
                .velocities_from_temperature(300.0, 7)
                .decomposition(Decomposition::Nodes(nodes))
                .threads(threads)
                .build();
            let t0 = Instant::now();
            sim.run_cycles(cycles);
            let ms_per_step = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;
            let lr_ms_per_eval = time_long_range(&mut sim, lr_reps);

            // Closed-form identity battery over the final state: the
            // verifier's serial recompute cross-checks every force word and
            // energy scalar bitwise, and the census identities audit the
            // cumulative exchange counters. Sampled after the timed loop so
            // the recompute doesn't bill itself to `ms_per_step`
            // (`time_long_range` snapshots/restores the counters, so the
            // cumulative identities still hold here).
            let mut verifier = Verifier::new(&sim);
            verifier.sample(&sim);
            verifier.assert_clean();
            row_counters.push(sim.pipeline.counters);

            let rs = sim.pipeline.rank_set();
            let c = &sim.pipeline.counters;
            let n = rs.rank_count();
            let row = Row {
                nodes,
                threads,
                ms_per_step,
                lr_ms_per_eval,
                links_per_rank: rs.plan.max_links_per_rank() as u64,
                kb_per_step_rank: c.per_rank_step_bytes(n) / 1024.0,
                mean_hops: c.mean_hops(),
                modeled_comm_us: c.modeled_step_comm_us(&MachineConfig::with_nodes(n), n),
                fft_msgs_per_rank_lr: c.fft_messages_per_rank_lr_step(n),
                fft_kb_per_rank_lr: c.fft_bytes_per_rank_lr_step(n) / 1024.0,
                halo_kb_per_rank_lr: c.mesh_halo_bytes_per_rank_lr_step(n) / 1024.0,
                match_candidates: c.match_candidates,
                match_pairs: c.match_pairs,
                match_batches: c.match_batches,
                rebuild_steps: c.rebuild_steps,
                reuse_steps: c.reuse_steps,
                checksum: state_checksum(&sim),
            };
            println!(
                "{:>5} | {:>3} | {:>7.3} | {:>7.3} | {:>10} | {:>12.2} | {:>4.2} | {:>15.3} | {:>12.1} | {:>11.2} | {:016x}",
                row.nodes,
                row.threads,
                row.ms_per_step,
                row.lr_ms_per_eval,
                row.links_per_rank,
                row.kb_per_step_rank,
                row.mean_hops,
                row.modeled_comm_us,
                row.fft_msgs_per_rank_lr,
                row.fft_kb_per_rank_lr,
                row.checksum
            );
            rows.push(row);
        }
    }

    let (traced, _ckpt) = traced_pass(&sys, cycles);

    let invariant = rows.iter().all(|r| r.checksum == rows[0].checksum)
        && traced.iter().all(|r| r.checksum == rows[0].checksum);
    // The surviving pair count is the size of the exact interaction set —
    // a pure function of the trajectory, so it must agree across every
    // decomposition (candidates and batches legitimately differ).
    assert!(
        rows.iter().all(|r| r.match_pairs == rows[0].match_pairs),
        "match-stage pair census diverged across decompositions"
    );
    // The match-cache rebuild schedule is gated by an exact fixed-point
    // displacement monitor — a pure function of the trajectory — so the
    // rebuild/reuse split must be identical across every decomposition
    // and thread count.
    assert!(
        rows.iter()
            .all(|r| r.rebuild_steps == rows[0].rebuild_steps
                && r.reuse_steps == rows[0].reuse_steps),
        "match-cache rebuild schedule diverged across configurations"
    );
    // The same invariance, re-proved through the verifier's typed path:
    // the decomposition-independent census words (surviving pairs,
    // rebuild/reuse schedule) must agree between every pair of rows.
    for (i, c) in row_counters.iter().enumerate().skip(1) {
        let skew = check_census_invariance(cycles as u64, &row_counters[0], c);
        assert!(
            skew.is_empty(),
            "census invariance violated between row 0 and row {i}: {skew:?}"
        );
    }
    println!(
        "verifier: full identity battery clean on all {} rows; cross-row census invariant",
        rows.len()
    );
    println!(
        "match cache: {} rebuilds / {} reuses per row (mean interval {:.2} steps), identical in every row",
        rows[0].rebuild_steps,
        rows[0].reuse_steps,
        mean_reuse_interval(rows[0].rebuild_steps, rows[0].reuse_steps)
    );
    println!(
        "\nparallel invariance: {}",
        if invariant {
            "all configurations (traced and untraced) bitwise identical"
        } else {
            "VIOLATED — configurations diverged"
        }
    );
    write_json("results/BENCH_scaling.json", &sys, steps, &rows, invariant);
    assert!(invariant, "trajectory diverged across configurations");
}
