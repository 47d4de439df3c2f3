//! The traced run's outside-in layer accounting. Each trajectory cycle is
//! timed around `run_cycle()`; then every layer call the cycle made is
//! replayed on the current state through a separate probe pipeline with
//! the same decomposition and thread count, so the trajectory's own
//! pipeline, counters and match-cache schedule stay untouched. The
//! replayed force words must equal the trajectory's, which proves the
//! replay did the same work.

use crate::report::{Gate, Report};
use crate::stats::{median, Closure};
use crate::traj::secs;
use anton_core::state::FORCE_FRAC;
use anton_core::{AntonSimulation, ForcePipeline, RawForces};
use anton_ewald::{GseScratch, MeshAtoms, SupportScratch};
use anton_geometry::Vec3;
use std::time::Instant;

/// Per-layer totals over every replayed cycle.
#[derive(Default)]
pub struct LayerTotals {
    cycles: u64,
    /// Untraced per-step wall times of the replayed cycles (ms).
    pub step_ms: Vec<f64>,
    cycle_s: f64,
    // Closure rows, as per-cycle shares summed over cycles.
    rl_reuse_s: f64,
    rl_rebuild_s: f64,
    bonded_s: f64,
    long_s: f64,
    // Unit costs: time and the deterministic work it did.
    reuse_call_s: f64,
    reuse_pairs: u64,
    reuse_batches: u64,
    rebuild_extra_s: f64,
    rebuild_candidates: u64,
    spread_s: f64,
    interp_s: f64,
    charged_atoms: u64,
    transform_s: f64,
    mesh_points: u64,
}

/// A probe pipeline plus reusable buffers.
pub struct Probe {
    pipe: ForcePipeline,
    out: RawForces,
    gs: GseScratch,
    stencil: SupportScratch,
    pos: Vec<Vec3>,
    atoms: Vec<u32>,
    interp: Vec<[i64; 3]>,
}

impl Probe {
    /// A probe for `sim`: same system, decomposition and threads.
    pub fn for_sim(sim: &AntonSimulation) -> Probe {
        let n = sim.system.n_atoms();
        Probe {
            pipe: ForcePipeline::new(&sim.system, sim.decomposition(), sim.pipeline.threads()),
            out: RawForces::zeroed(n),
            gs: GseScratch::default(),
            stencil: SupportScratch::default(),
            pos: Vec::with_capacity(n),
            atoms: (0..n as u32).collect(),
            interp: vec![[0; 3]; n],
        }
    }

    /// Run and time one cycle of `sim`, then replay its layer calls.
    pub fn cycle(&mut self, sim: &mut AntonSimulation, acc: &mut LayerTotals, gate: &mut Gate) {
        let k = sim.system.params.longrange_every.max(1);
        let before = sim.pipeline.counters;
        let t = Instant::now();
        sim.run_cycle();
        let cycle = secs(t);
        let after = sim.pipeline.counters;
        let n_rebuild = (after.rebuild_steps - before.rebuild_steps) as f64;

        let (sys, st) = (&sim.system, &sim.state);
        // Range-limited pairs on a cold cache (match + evaluate) ...
        self.pipe.invalidate_match_cache();
        let c0 = self.pipe.counters;
        self.out.clear();
        let t = Instant::now();
        self.pipe.range_limited(sys, st, &mut self.out);
        let rebuild_call = secs(t);
        let c1 = self.pipe.counters;
        // ... then on the warm cache (evaluate only), plus bonded terms:
        // together the short-range force class the trajectory kicked with.
        self.out.clear();
        let t = Instant::now();
        self.pipe.range_limited(sys, st, &mut self.out);
        let reuse_call = secs(t);
        let c2 = self.pipe.counters;
        let t = Instant::now();
        self.pipe.bonded(sys, st, &mut self.out);
        let bonded_call = secs(t);
        AntonSimulation::spread_vsite_forces(&mut self.out, sys);
        gate.check(
            c1.rebuild_steps - c0.rebuild_steps == 1 && c2.reuse_steps - c1.reuse_steps == 1,
            || "probe did not take one rebuild then one reuse step".into(),
        );
        gate.check(self.out.f == sim.short_forces().f, || {
            format!(
                "replayed short-range forces differ at step {}",
                sim.step_count()
            )
        });

        self.out.clear();
        let t = Instant::now();
        self.pipe.long_range(sys, st, &mut self.out);
        let long_call = secs(t);
        AntonSimulation::spread_vsite_forces(&mut self.out, sys);
        gate.check(self.out.f == sim.long_forces().f, || {
            format!(
                "replayed long-range forces differ at step {}",
                sim.step_count()
            )
        });

        // Mesh sub-phases, serially over every atom on the probe's plan.
        st.decode_positions_into(&sys.pbox, &mut self.pos);
        let view = MeshAtoms {
            positions: &self.pos,
            charges: &sys.topology.charge,
            atoms: &self.atoms,
        };
        let gse = &self.pipe.gse;
        self.gs.begin(gse.mesh.len());
        let t = Instant::now();
        gse.spread_into(view, &mut self.gs.rho_q, &mut self.stencil);
        acc.spread_s += secs(t);
        let spread_total: i128 = self.gs.rho_q.iter().map(|&q| q as i128).sum();
        gate.check(spread_total == self.pipe.mesh_charge_total(), || {
            "serial re-spread does not reproduce the pipeline's mesh charge".into()
        });
        let t = Instant::now();
        gse.transform(&mut self.gs);
        acc.transform_s += secs(t);
        self.interp.iter_mut().for_each(|f| *f = [0; 3]);
        let t = Instant::now();
        gse.interpolate_into(
            view,
            &self.gs.phi_q,
            FORCE_FRAC,
            &mut self.interp,
            &mut self.stencil,
        );
        acc.interp_s += secs(t);
        acc.charged_atoms += sys.topology.charge.iter().filter(|&&q| q != 0.0).count() as u64;
        acc.mesh_points += gse.mesh.len() as u64;

        acc.cycles += 1;
        acc.cycle_s += cycle;
        acc.step_ms.push(cycle * 1e3 / k as f64);
        acc.rl_reuse_s += k as f64 * reuse_call;
        acc.rl_rebuild_s += n_rebuild * (rebuild_call - reuse_call);
        acc.bonded_s += k as f64 * bonded_call;
        acc.long_s += long_call;
        acc.reuse_call_s += reuse_call;
        acc.reuse_pairs += c2.match_pairs - c1.match_pairs;
        acc.reuse_batches += c2.match_batches - c1.match_batches;
        acc.rebuild_extra_s += rebuild_call - reuse_call;
        acc.rebuild_candidates += c1.match_candidates - c0.match_candidates;
    }
}

impl LayerTotals {
    /// Mean per-cycle closure: layer rows + unattributed = cycle.
    pub fn closure(&self) -> Closure {
        let per = |s: f64| s * 1e3 / self.cycles as f64;
        Closure {
            rows: vec![
                ("core.short_range_reuse_ms", per(self.rl_reuse_s)),
                ("core.short_range_rebuild_ms", per(self.rl_rebuild_s)),
                ("core.bonded_ms", per(self.bonded_s)),
                ("core.long_range_ms", per(self.long_s)),
            ],
            total: per(self.cycle_s),
        }
    }

    /// Report the closure rows and unit costs, checking the identity.
    pub fn report(&self, r: &mut Report) {
        let c = self.closure();
        let base = format!("mean per cycle over {} replayed cycles", self.cycles);
        r.metric(
            "core.cycle_ms",
            "ms",
            c.total,
            format!("run_cycle(), {base}"),
        );
        for &(name, v) in &c.rows {
            r.metric(name, "ms", v, base.clone());
        }
        r.metric(
            "core.unattributed_ms",
            "ms",
            c.unattributed(),
            "cycle minus the rows above: integrate, constraints, kicks, dispatch",
        );
        let closes = c.closes();
        r.gate.check(closes, || {
            "layer rows + unattributed do not add up to core.cycle_ms".into()
        });
        let (largest, v) = c.largest();
        r.line(format!(
            "closure: rows + unattributed = {:.6} ms = core.cycle_ms {:.6} ms; largest share {largest} ({:.1}%)",
            c.rows.iter().map(|x| x.1).sum::<f64>() + c.unattributed(),
            c.total,
            100.0 * v / c.total
        ));
        r.metric(
            "core.evaluate_ns_per_pair",
            "ns",
            self.reuse_call_s * 1e9 / self.reuse_pairs as f64,
            format!(
                "warm-cache range_limited() / {} live pairs",
                self.reuse_pairs
            ),
        );
        r.metric(
            "core.match_ns_per_candidate",
            "ns",
            self.rebuild_extra_s * 1e9 / self.rebuild_candidates as f64,
            format!(
                "(cold - warm range_limited()) / {} candidates",
                self.rebuild_candidates
            ),
        );
        r.metric(
            "core.lane_occupancy",
            "ratio",
            self.reuse_pairs as f64 / (8 * self.reuse_batches) as f64,
            format!(
                "computed: {} live pairs / (8 x {} batches)",
                self.reuse_pairs, self.reuse_batches
            ),
        );
        r.metric(
            "ewald.spread_ns_per_atom",
            "ns",
            self.spread_s * 1e9 / self.charged_atoms as f64,
            format!(
                "GseFixed::spread_into, serial, / {} charged atoms",
                self.charged_atoms
            ),
        );
        r.metric(
            "ewald.interpolate_ns_per_atom",
            "ns",
            self.interp_s * 1e9 / self.charged_atoms as f64,
            format!(
                "GseFixed::interpolate_into, serial, / {} charged atoms",
                self.charged_atoms
            ),
        );
        r.metric(
            "fft.transform_ns_per_mesh_point",
            "ns",
            self.transform_s * 1e9 / self.mesh_points as f64,
            format!("GseFixed::transform / {} mesh points", self.mesh_points),
        );
    }

    pub fn untraced_step_ms(&self) -> f64 {
        median(&self.step_ms)
    }
}
