//! Trajectory subjects and the two single-trajectory workloads
//! (`water_smoke`, `protein_gpw`), plus the traced per-layer run every
//! workload shares.

use crate::host;
use crate::replay::{LayerTotals, Probe};
use crate::report::{persisted_repeat_check, repeat_check, Counts, Gate, Report};
use crate::stats::{median, ns_per_day, respa_steps, tail_percentile};
use anton_analysis::battery::Verifier;
use anton_core::{AntonSimulation, Decomposition, ForcePipeline, SimulationBuilder};
use anton_fleet::state_checksum;
use anton_machine::Ppip;
use anton_systems::System;
use std::path::Path;
use std::time::Instant;

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One trajectory the benchmark builds from generated inputs: a system
/// constructor and the engine configuration applied to it.
pub struct Subject {
    pub label: String,
    pub system: Box<dyn Fn() -> System>,
    pub configure: Box<dyn Fn(SimulationBuilder) -> SimulationBuilder>,
    pub nodes: usize,
    pub threads: usize,
    /// Untimed cycles before the measured ones (caches, lazy set-up).
    pub warmup: u64,
    /// Measured cycles; warm-up plus these make up the subject's job.
    pub cycles: u64,
    /// Cycles per end-to-end step-time sample (divides `cycles`): blocks
    /// of short cycles average over match-cache rebuilds, whose cost would
    /// otherwise split per-cycle times into clusters.
    pub block: u64,
}

impl Subject {
    /// The engine builder for a system, checkpointing into `dir`.
    pub fn builder(&self, sys: System, dir: &Path) -> SimulationBuilder {
        (self.configure)(AntonSimulation::builder(sys))
            .decomposition(Decomposition::Nodes(self.nodes))
            .threads(self.threads)
            .checkpoint_dir(dir)
            .checkpoint_keep(2)
    }
}

/// Deterministic counters after a subject's job: they depend only on the
/// seed and the work done.
pub fn counts_of(sim: &AntonSimulation, ckpt_bytes: u64) -> Counts {
    let c = &sim.pipeline.counters;
    [
        ("steps", c.steps),
        ("lr_steps", c.lr_steps),
        ("live_pairs", c.match_pairs),
        ("match_candidates", c.match_candidates),
        ("match_batches", c.match_batches),
        ("rebuild_steps", c.rebuild_steps),
        ("reuse_steps", c.reuse_steps),
        ("import_messages", c.import_messages),
        ("import_bytes", c.import_bytes),
        ("reduce_messages", c.reduce_messages),
        ("reduce_bytes", c.reduce_bytes),
        ("fft_messages", c.fft_messages),
        ("fft_bytes", c.fft_bytes),
        ("mesh_halo_messages", c.mesh_halo_messages),
        ("mesh_halo_bytes", c.mesh_halo_bytes),
        ("ckpt_bytes", ckpt_bytes),
        ("final_checksum", state_checksum(sim)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Run the verifier battery on `sim`'s current state; returns its time.
pub fn battery(sim: &AntonSimulation, gate: &mut Gate, what: &str) -> f64 {
    let t = Instant::now();
    let mut v = Verifier::new(sim);
    v.sample(sim);
    let elapsed = secs(t);
    gate.check(v.violations().is_empty() && v.samples() == 1, || {
        let list: Vec<String> = v.violations().iter().map(|x| x.to_string()).collect();
        format!("{what}: verifier battery: {}", list.join("; "))
    });
    elapsed
}

/// What one end-to-end round of a trajectory workload measured.
struct Round {
    setup_s: Vec<f64>,
    /// Seed to last cycle done.
    latency_s: f64,
    /// Latency plus the final checkpoint write.
    makespan_s: f64,
    window_s: f64,
    step_ms: Vec<f64>,
    resume_s: Vec<f64>,
    counts: Counts,
}

/// Wall time each round spends on extra set-up and resume samples, so the
/// short ones are sampled many times across the run.
const SAMPLE_S: f64 = 0.5;

/// One job; returns its measurements and the engine resumed from its
/// final checkpoint.
fn round(s: &Subject, dir: &Path, gate: &mut Gate) -> (Round, AntonSimulation) {
    let t0 = Instant::now();
    let sys = (s.system)();
    let mut sim = s.builder(sys, dir).build();
    let setup_s = secs(t0);
    let k = sim.system.params.longrange_every.max(1);
    let mut latency_s = setup_s;
    for _ in 0..s.warmup {
        let t = Instant::now();
        sim.run_cycle();
        latency_s += secs(t);
    }
    let mut step_ms = Vec::with_capacity((s.cycles / s.block) as usize);
    let mut window_s = 0.0;
    for _ in 0..s.cycles / s.block {
        let t = Instant::now();
        sim.run_cycles(s.block as usize);
        let dt = secs(t);
        window_s += dt;
        step_ms.push(dt * 1e3 / (k * s.block as u32) as f64);
    }
    latency_s += window_s;
    let t = Instant::now();
    let bytes = sim.write_checkpoint();
    let makespan_s = latency_s + secs(t);
    let bytes = bytes.unwrap_or_else(|e| {
        gate.fail(format!("{}: checkpoint write: {e}", s.label));
        0
    });
    let counts = counts_of(&sim, bytes);
    let sys = sim.system.clone();
    drop(sim);
    // More set-up and resume samples, one engine alive at a time.
    let mut setups = vec![setup_s];
    while setups.iter().sum::<f64>() < SAMPLE_S {
        let t = Instant::now();
        let extra = s
            .builder((s.system)(), &dir.with_extension("extra"))
            .build();
        setups.push(secs(t));
        drop(extra);
    }
    let mut resume_s = Vec::new();
    let resumed = loop {
        let b = s.builder(sys.clone(), dir);
        let t = Instant::now();
        let resumed = b.resume_from(dir);
        resume_s.push(secs(t));
        let resumed = resumed.unwrap_or_else(|e| panic!("{}: resume_from: {e}", s.label));
        gate.check(counts_of(&resumed, bytes) == counts, || {
            format!(
                "{}: resumed state or counters differ from the checkpointed run",
                s.label
            )
        });
        if resume_s.iter().sum::<f64>() >= SAMPLE_S {
            break resumed;
        }
    };
    let round = Round {
        setup_s: setups,
        latency_s,
        makespan_s,
        window_s,
        step_ms,
        resume_s,
        counts,
    };
    (round, resumed)
}

/// The end-to-end run of a single-trajectory workload: whole jobs (build,
/// warm-up, measured cycles, checkpoint, resume) back to back until
/// `seconds` have passed, at least two, so every run repeats its job.
pub fn run_e2e(
    s: &Subject,
    seconds: f64,
    work: &Path,
    counts_file: &Path,
    pinned: Option<u64>,
    r: &mut Report,
) {
    let dir = work.join("ckpt");
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = None;
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        // Free the previous job's engine first: one engine at a time.
        drop(last.take());
        let (round, resumed) = round(s, &dir, &mut r.gate);
        last = Some(resumed);
        if let Some(first) = rounds.first() {
            repeat_check(&mut r.gate, &first.counts, &round.counts, &s.label);
        }
        rounds.push(round);
    }
    // Peak memory of the jobs themselves, before the extra samples below
    // overlap a second engine with the kept one.
    let peak = host::peak_rss_mib();
    // Keep at least three set-up and resume samples per run.
    let mut setups: Vec<f64> = rounds.iter().flat_map(|x| x.setup_s.clone()).collect();
    let mut resumes: Vec<f64> = rounds.iter().flat_map(|x| x.resume_s.clone()).collect();
    while setups.len() < 3 {
        let t = Instant::now();
        let sim = s.builder((s.system)(), &work.join("extra")).build();
        setups.push(secs(t));
        drop(sim);
    }
    while resumes.len() < 3 {
        let b = s.builder((s.system)(), &dir);
        let t = Instant::now();
        let sim = b.resume_from(&dir);
        resumes.push(secs(t));
        drop(sim);
    }

    let last = last.expect("at least two rounds");
    let params = last.system.params;
    battery(&last, &mut r.gate, &s.label);
    let counts = &rounds[0].counts;
    persisted_repeat_check(&mut r.gate, counts_file, counts);
    pin_check(&mut r.gate, &s.label, counts, pinned);

    let step_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.step_ms.iter().copied())
        .collect();
    let n = step_ms.len();
    let rounds_n = rounds.len();
    let per = format!(
        "{rounds_n} jobs of {} warm-up + {} measured cycles",
        s.warmup, s.cycles
    );
    r.metric(
        "ms_per_step_p50",
        "ms",
        median(&step_ms),
        format!(
            "median of {n} samples ({} cycles each / their steps); {per}",
            s.block
        ),
    );
    let tail = tail_percentile(&step_ms, 90.0, 10);
    r.metric(
        "ms_per_step_p90",
        "ms",
        tail.value,
        format!(
            "p{:.1} of {n} samples (highest percentile with >= 10 samples above)",
            tail.percentile
        ),
    );
    let window: f64 = rounds.iter().map(|x| x.window_s).sum();
    let steps = respa_steps(s.cycles * rounds_n as u64, params.longrange_every);
    r.metric(
        "ns_per_day",
        "ns/day",
        ns_per_day(params.dt_fs, steps, window),
        format!(
            "{steps} steps x {} fs over {window:.3} s of measured cycles",
            params.dt_fs
        ),
    );
    r.metric(
        "setup_s",
        "s",
        median(&setups),
        format!("median of {} system + build() set-ups", setups.len()),
    );
    r.metric(
        "resume_s",
        "s",
        median(&resumes),
        format!("median of {} resume_from() calls", resumes.len()),
    );
    let lat: Vec<f64> = rounds.iter().map(|x| x.latency_s).collect();
    r.metric(
        "job_latency_p50_s",
        "s",
        median(&lat),
        format!("median over {rounds_n} one-job rounds: seed to last cycle done"),
    );
    let mk: Vec<f64> = rounds.iter().map(|x| x.makespan_s).collect();
    r.metric(
        "makespan_s",
        "s",
        median(&mk),
        format!("median over {rounds_n} one-job rounds: job latency + final checkpoint write"),
    );
    r.metric(
        "peak_rss_mb",
        "MiB",
        peak.unwrap_or(f64::NAN),
        "VmHWM after the measured jobs",
    );
    for (k, v) in counts {
        r.line(format!("count {k} {v}"));
    }
}

/// Per-layer samples collected over one or more subjects.
#[derive(Default)]
pub struct TraceAcc {
    pub layers: LayerTotals,
    systems_build: Vec<f64>,
    ppip_build: Vec<f64>,
    pipeline_new: Vec<f64>,
    engine_build: Vec<f64>,
    ckpt_write: Vec<f64>,
    ckpt_resume: Vec<f64>,
    verify: Vec<f64>,
    slice_resume: Vec<f64>,
    slice_run: Vec<f64>,
    slice_share: Vec<f64>,
    traced_step_ms: Vec<f64>,
    ckpt_bytes: u64,
    totals: Counts,
}

/// Fleet slice length in cycles (the `fleet_ensemble` quantum).
pub const QUANTUM: u64 = 3;

/// The traced run of one subject: set-up layers timed `reps` times, the
/// job's cycles timed and replayed layer by layer, alternating with the
/// cycles of a traced copy of the job for the tracing overhead, then
/// checkpoint, verification, resume and one fleet-style slice. Returns the
/// job's counts.
pub fn trace_subject(
    s: &Subject,
    reps: usize,
    work: &Path,
    slice: &dyn Fn(&Path) -> SimulationBuilder,
    acc: &mut TraceAcc,
    gate: &mut Gate,
) -> Counts {
    let dir = work.join("ckpt");
    let mut kept = None;
    for _ in 0..reps {
        let t = Instant::now();
        let sys = (s.system)();
        acc.systems_build.push(secs(t) * 1e3);
        let beta = sys.params.ewald_beta();
        let t = Instant::now();
        let ppip = Ppip::build(beta, sys.params.cutoff);
        acc.ppip_build.push(secs(t) * 1e3);
        drop(ppip);
        let t = Instant::now();
        let pipe = ForcePipeline::new(&sys, Decomposition::Nodes(s.nodes), s.threads);
        acc.pipeline_new.push(secs(t) * 1e3);
        drop(pipe);
        let b = s.builder(sys, &dir);
        let t = Instant::now();
        let sim = b.build();
        acc.engine_build.push(secs(t) * 1e3);
        kept = Some(sim);
    }
    let mut sim = kept.expect("reps >= 1");
    // The same job with tracing on, its cycles alternating with the
    // untraced ones so that host drift cancels in the tracing overhead.
    let k = sim.system.params.longrange_every.max(1) as f64;
    let mut traced = s
        .builder(sim.system.clone(), &work.join("traced"))
        .tracing(true)
        .build();
    let mut probe = Probe::for_sim(&sim);
    let mut warm = LayerTotals::default();
    for _ in 0..s.warmup {
        probe.cycle(&mut sim, &mut warm, gate);
        traced.run_cycle();
    }
    for _ in 0..s.cycles {
        probe.cycle(&mut sim, &mut acc.layers, gate);
        let t = Instant::now();
        traced.run_cycle();
        acc.traced_step_ms.push(secs(t) * 1e3 / k);
    }
    drop(probe);
    let traced_checksum = state_checksum(&traced);
    drop(traced);
    let mut bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let written = sim.write_checkpoint();
        acc.ckpt_write.push(secs(t) * 1e3);
        match written {
            Ok(b) => bytes = b,
            Err(e) => gate.fail(format!("{}: checkpoint write: {e}", s.label)),
        }
    }
    acc.ckpt_bytes += bytes;
    let counts = counts_of(&sim, bytes);
    for (k, v) in &counts {
        if k != "final_checksum" {
            *acc.totals.entry(k.clone()).or_default() += v;
        }
    }
    acc.verify.push(battery(&sim, gate, &s.label) * 1e3);
    let sys = sim.system.clone();
    drop(sim);
    for _ in 0..reps {
        let b = s.builder(sys.clone(), &dir);
        let t = Instant::now();
        let resumed = b.resume_from(&dir);
        acc.ckpt_resume.push(secs(t) * 1e3);
        let ok = resumed.is_ok_and(|x| counts_of(&x, bytes) == counts);
        gate.check(ok, || {
            format!("{}: resume_from did not restore the job", s.label)
        });
    }

    // One slice as the fleet runs it: build from the spec, resume, run a
    // quantum, checkpoint.
    let slice_dir = work.join("slice");
    let t = Instant::now();
    let resumed = slice(&slice_dir).resume_from(&dir);
    let t_resume = secs(t);
    match resumed {
        Ok(mut x) => {
            let t = Instant::now();
            x.run_cycles(QUANTUM as usize);
            let t_run = secs(t);
            let t = Instant::now();
            let written = x.write_checkpoint();
            let t_write = secs(t);
            gate.check(written.is_ok(), || {
                format!("{}: slice checkpoint failed", s.label)
            });
            acc.slice_resume.push(t_resume * 1e3);
            acc.slice_run.push(t_run * 1e3);
            acc.slice_share
                .push((t_resume + t_write) / (t_resume + t_run + t_write));
        }
        Err(e) => gate.fail(format!("{}: slice resume: {e}", s.label)),
    }

    gate.check(traced_checksum == counts["final_checksum"], || {
        format!("{}: tracing changed the trajectory", s.label)
    });
    counts
}

impl TraceAcc {
    pub fn report(&self, r: &mut Report) {
        let n = self.systems_build.len();
        r.metric(
            "systems.build_ms",
            "ms",
            median(&self.systems_build),
            format!("median of {n} system constructions"),
        );
        r.metric(
            "machine.ppip_build_ms",
            "ms",
            median(&self.ppip_build),
            format!("median of {n} Ppip::build()"),
        );
        r.metric(
            "core.pipeline_new_ms",
            "ms",
            median(&self.pipeline_new),
            format!("median of {n} ForcePipeline::new()"),
        );
        r.metric(
            "core.engine_build_ms",
            "ms",
            median(&self.engine_build),
            format!("median of {n} SimulationBuilder::build() incl. first force evaluation"),
        );
        self.layers.report(r);
        let t = &self.totals;
        let (rebuild, reuse) = (t["rebuild_steps"], t["reuse_steps"]);
        r.metric(
            "core.match_reuse_ratio",
            "ratio",
            reuse as f64 / (reuse + rebuild) as f64,
            format!("computed: {reuse} reuse / ({reuse} reuse + {rebuild} rebuild) steps"),
        );
        r.count(
            "core.live_pairs",
            t["live_pairs"],
            "trajectory total over the job",
        );
        r.count(
            "core.match_candidates",
            t["match_candidates"],
            "trajectory total over the job",
        );
        r.count(
            "core.match_batches",
            t["match_batches"],
            "trajectory total over the job",
        );
        r.count(
            "core.rebuild_steps",
            rebuild,
            "trajectory total over the job",
        );
        r.count("core.reuse_steps", reuse, "trajectory total over the job");
        let w = self.ckpt_write.len();
        r.metric(
            "ckpt.write_ms",
            "ms",
            median(&self.ckpt_write),
            format!("median of {w} write_checkpoint()"),
        );
        r.count(
            "ckpt.bytes",
            self.ckpt_bytes,
            "encoded checkpoint size (sum over jobs)",
        );
        r.metric(
            "ckpt.resume_ms",
            "ms",
            median(&self.ckpt_resume),
            format!("median of {} resume_from()", self.ckpt_resume.len()),
        );
        r.metric(
            "analysis.verify_ms",
            "ms",
            median(&self.verify),
            format!("median of {} Verifier::new + sample", self.verify.len()),
        );
        let sl = self.slice_resume.len();
        r.metric(
            "fleet.slice_resume_ms",
            "ms",
            median(&self.slice_resume),
            format!("median of {sl} slices: builder + resume_from"),
        );
        r.metric(
            "fleet.slice_run_ms",
            "ms",
            median(&self.slice_run),
            format!("median of {sl} slices: run_cycles({QUANTUM})"),
        );
        r.metric(
            "fleet.slice_overhead_share",
            "ratio",
            median(&self.slice_share),
            "(resume + checkpoint write) / slice wall time",
        );
        let traced = median(&self.traced_step_ms);
        let plain = self.layers.untraced_step_ms();
        r.metric(
            "trace.overhead_share",
            "ratio",
            traced / plain - 1.0,
            format!("median traced {traced:.4} ms/step vs untraced {plain:.4} ms/step"),
        );
    }
}

/// The traced run of a single-trajectory workload.
pub fn run_trace(
    s: &Subject,
    work: &Path,
    counts_file: &Path,
    pinned: Option<u64>,
    r: &mut Report,
) {
    let mut acc = TraceAcc::default();
    let slice = |d: &Path| s.builder((s.system)(), d);
    let counts = trace_subject(s, 3, work, &slice, &mut acc, &mut r.gate);
    persisted_repeat_check(&mut r.gate, counts_file, &counts);
    pin_check(&mut r.gate, &s.label, &counts, pinned);
    acc.report(r);
}

fn pin_check(gate: &mut Gate, label: &str, counts: &Counts, pinned: Option<u64>) {
    if let Some(pin) = pinned {
        let got = counts["final_checksum"];
        gate.check(got == pin, || {
            format!("{label}: final checksum {got:#018x} differs from the pinned {pin:#018x}")
        });
    }
}
