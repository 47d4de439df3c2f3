//! The invariant battery: wiring the pure checks of [`crate::verify`] to a
//! live [`AntonSimulation`].
//!
//! A [`Verifier`] owns an *independent* one-node, single-thread
//! [`ForcePipeline`] over the same system. Each sampled cycle it recomputes
//! the short- and long-range forces at the engine's current positions and
//! demands bitwise agreement with the engine's stored buffers — so every
//! sample is simultaneously a correctness check and a proof that the
//! engine's decomposition (any node count, any thread count) reproduced the
//! serial words. On top of that it checks Newton's third law over the two
//! pairwise phases, mesh charge conservation, the exchange-census
//! identities, and (for NVE runs) a momentum rounding envelope and an
//! energy-drift bound.
//!
//! Install one with [`VerifyEveryExt::verify_every`]:
//!
//! ```no_run
//! use anton_analysis::battery::{assert_verified, VerifyEveryExt};
//! use anton_core::AntonSimulation;
//! # let system: anton_systems::System = unimplemented!();
//! let mut sim = AntonSimulation::builder(system).verify_every(1).build();
//! sim.run_cycles(5);
//! assert_verified(&sim); // every identity held on every sampled cycle
//! ```

use anton_core::engine::CycleObserver;
use anton_core::state::{FORCE_FRAC, VEL_FRAC};
use anton_core::{
    AntonSimulation, Decomposition, ForcePipeline, RawForces, SimulationBuilder, ThermostatKind,
};
use anton_fixpoint::rounding::rne_f64;
use anton_forcefield::units::ACCEL;
use anton_machine::perf::ExchangeCounters;

use crate::verify::{
    check_counter_linear, check_energy_drift, check_force_sum_zero, check_forces_equal,
    check_momentum_envelope, check_scalars_equal, momentum, Identity, Violation,
};

/// Mass quantization for the exact momentum sum (Q20 raw words, like the
/// pair-pipeline parameter RAM).
const MASS_FRAC_BITS: u32 = 20;

/// Tunable bounds for the two non-identity checks; everything else in the
/// battery is an exact integer comparison with no knobs.
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig {
    /// NVE energy-drift bound, kcal/mol per degree of freedom, measured
    /// from the verifier's baseline sample. Generous against the paper's
    /// µs-scale drift targets but tight against any integration bug.
    pub energy_drift_bound: f64,
    /// Multiplier on the closed-form momentum rounding envelope (see
    /// [`Verifier::momentum_budget`]). The envelope is a worst-case bound,
    /// so real drift sits far inside it; the slack keeps the check
    /// deterministic-by-construction rather than tuned-to-pass.
    pub momentum_slack: f64,
    /// Check the momentum envelope (NVE only; a thermostat rescales
    /// velocities and legitimately moves total momentum).
    pub check_momentum: bool,
    /// Check the energy-drift bound (NVE only).
    pub check_energy: bool,
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            energy_drift_bound: 0.05,
            momentum_slack: 64.0,
            check_momentum: true,
            check_energy: true,
        }
    }
}

/// Closed-form invariant verifier bound to one simulation's system.
pub struct Verifier {
    cfg: VerifyConfig,
    /// Independent serial reference pipeline (`Nodes(1)`, 1 thread).
    pipeline: ForcePipeline,
    scratch: RawForces,
    recompute: RawForces,
    /// Q20 mass words (0 for massless virtual sites).
    mass_q: Vec<i64>,
    /// Σ mass_q, the per-write momentum rounding scale.
    mass_total: f64,
    /// Baseline total momentum (exact words at construction).
    p0: [i128; 3],
    /// Baseline total energy (kcal/mol) for the drift bound.
    e0: f64,
    dof: u64,
    base_step: u64,
    base_cycle: u64,
    base_counters: ExchangeCounters,
    nve: bool,
    /// Per-step, per-unit-mass velocity-word budget of the constraint
    /// rewrite (0 when the system has no constraints or they're disabled).
    shake_term: f64,
    violations: Vec<Violation>,
    samples: u64,
}

impl Verifier {
    pub fn new(sim: &AntonSimulation) -> Verifier {
        Verifier::with_config(sim, VerifyConfig::default())
    }

    pub fn with_config(sim: &AntonSimulation, cfg: VerifyConfig) -> Verifier {
        let sys = &sim.system;
        let n = sys.n_atoms();
        let pipeline = ForcePipeline::new(sys, Decomposition::Nodes(1), 1);
        let mass_q: Vec<i64> = sys
            .topology
            .mass
            .iter()
            .map(|&m| {
                if m > 0.0 {
                    rne_f64(m * (1u64 << MASS_FRAC_BITS) as f64) as i64
                } else {
                    0
                }
            })
            .collect();
        let mass_total = mass_q.iter().map(|&m| m as f64).sum();
        let mut violations = Vec::new();
        let p0 = match momentum(&mass_q, &sim.state.velocities) {
            Some(p) => p,
            None => {
                violations.push(Violation {
                    cycle: sim.cycle_count(),
                    identity: Identity::MomentumEnvelope,
                    label: "baseline_overflow",
                    index: 0,
                    lhs: i128::MAX,
                    rhs: 0,
                });
                [0; 3]
            }
        };
        let n_massive = sys.topology.mass.iter().filter(|&&m| m > 0.0).count() as u64;
        let dof = (3 * n_massive)
            .saturating_sub(sys.topology.n_constraints() as u64)
            .max(1);
        let has_constraints = sim.constraints_enabled && !sys.topology.constraint_groups.is_empty();
        let shake_term = if has_constraints {
            // The SHAKE velocity rewrite v = Δx/dt re-quantizes both the
            // position (grid step (edge/2)·2⁻³¹ Å per axis) and the
            // velocity word (½ ulp): bound the per-atom velocity-word
            // error by 2·pos_ulp/dt in Å/fs scaled to Q40, plus 1 word.
            let e = sys.pbox.edge();
            let pos_ulp = e.x.max(e.y).max(e.z) / 2.0 * (2.0f64).powi(-31);
            2.0 * pos_ulp / sys.params.dt_fs * (2.0f64).powi(VEL_FRAC as i32) + 1.0
        } else {
            0.0
        };
        Verifier {
            cfg,
            pipeline,
            scratch: RawForces::zeroed(n),
            recompute: RawForces::zeroed(n),
            mass_q,
            mass_total,
            p0,
            e0: sim.total_energy(),
            dof,
            base_step: sim.step_count(),
            base_cycle: sim.cycle_count(),
            base_counters: sim.pipeline.counters,
            nve: matches!(sim.thermostat, ThermostatKind::None),
            shake_term,
            violations,
            samples: 0,
        }
    }

    /// Closed-form worst-case momentum drift (per axis, in
    /// `mass_q × velocity_raw` units) accumulated over `steps` inner steps
    /// and `cycles` outer cycles, given the current per-axis force-sum
    /// magnitudes `fs_max`/`fl_max` (Q24 words) of the short and long
    /// buffers. Three contributions, each a strict upper bound:
    ///
    /// 1. every velocity write rounds ≤ ½ ulp → ≤ ½·Σmass_q per write,
    ///    4 kick writes per step plus the constraint rewrite term;
    /// 2. the short force residual ΣF (bonded/vsite quantization breaks
    ///    exact antisymmetry) enters twice per step through the half-kick
    ///    constant dt/2·ACCEL·2^(MASS+VEL−FORCE);
    /// 3. the long residual enters twice per cycle with the k-scaled
    ///    impulse.
    fn momentum_budget(
        &self,
        sim: &AntonSimulation,
        steps: u64,
        cycles: u64,
        fs_max: f64,
        fl_max: f64,
    ) -> i128 {
        let dt = sim.system.params.dt_fs;
        let k = sim.system.params.longrange_every.max(1) as f64;
        let kick_half =
            dt / 2.0 * ACCEL * (2.0f64).powi((MASS_FRAC_BITS + VEL_FRAC - FORCE_FRAC) as i32);
        let per_step = self.mass_total * (2.0 + self.shake_term) + 2.0 * kick_half * fs_max;
        let per_cycle = 2.0 * k * kick_half * fl_max;
        let budget = self.cfg.momentum_slack
            * (steps as f64 * per_step + cycles as f64 * per_cycle + self.mass_total);
        // Saturating cast: NaN → 0, +inf → i128::MAX; a zero budget makes
        // the envelope check fail closed rather than silently pass.
        budget as i128
    }

    /// Run the full battery against the simulation's current state and
    /// record any violations. Read-only with respect to `sim`.
    pub fn sample(&mut self, sim: &AntonSimulation) {
        let cycle = sim.cycle_count();
        let sys = &sim.system;
        let state = &sim.state;

        // Newton's third law, range-limited pair phase.
        self.scratch.clear();
        self.pipeline.range_limited(sys, state, &mut self.scratch);
        self.violations.extend(check_force_sum_zero(
            Identity::ThirdLawRangeLimited,
            cycle,
            &self.scratch.f,
        ));

        // Newton's third law, Ewald correction pair phase.
        self.scratch.clear();
        self.pipeline.corrections(state, &mut self.scratch);
        self.violations.extend(check_force_sum_zero(
            Identity::ThirdLawCorrection,
            cycle,
            &self.scratch.f,
        ));

        // Force consistency: serial recomputation must reproduce the
        // engine's stored buffers word for word (forces and energies).
        self.recompute.clear();
        self.pipeline.short_range(sys, state, &mut self.recompute);
        AntonSimulation::spread_vsite_forces(&mut self.recompute, sys);
        let short = sim.short_forces();
        self.violations.extend(check_forces_equal(
            Identity::ForceConsistency,
            cycle,
            "short_forces",
            &self.recompute.f,
            &short.f,
        ));
        for (label, a, b) in [
            (
                "e_range_limited",
                self.recompute.e_range_limited,
                short.e_range_limited,
            ),
            ("e_bonded", self.recompute.e_bonded, short.e_bonded),
        ] {
            self.violations.extend(check_scalars_equal(
                Identity::ForceConsistency,
                cycle,
                label,
                a as i128,
                b as i128,
            ));
        }
        let fs_max = axis_abs_max(&short.f);

        self.recompute.clear();
        self.pipeline.long_range(sys, state, &mut self.recompute);
        AntonSimulation::spread_vsite_forces(&mut self.recompute, sys);
        let long = sim.long_forces();
        self.violations.extend(check_forces_equal(
            Identity::ForceConsistency,
            cycle,
            "long_forces",
            &self.recompute.f,
            &long.f,
        ));
        for (label, a, b) in [
            (
                "e_correction",
                self.recompute.e_correction,
                long.e_correction,
            ),
            (
                "e_reciprocal",
                self.recompute.e_reciprocal,
                long.e_reciprocal,
            ),
        ] {
            self.violations.extend(check_scalars_equal(
                Identity::ForceConsistency,
                cycle,
                label,
                a as i128,
                b as i128,
            ));
        }
        let fl_max = axis_abs_max(&long.f);

        // Mesh charge conservation: the engine's (possibly node-merged)
        // reciprocal mesh carries exactly the charge of the serial
        // re-spread the long_range recomputation above just performed.
        self.violations.extend(check_scalars_equal(
            Identity::MeshCharge,
            cycle,
            "rho_total",
            sim.pipeline.mesh_charge_total(),
            self.pipeline.mesh_charge_total(),
        ));

        // Momentum envelope and energy drift (NVE only: a thermostat
        // rescales velocities and legitimately moves both).
        let steps = sim.step_count().saturating_sub(self.base_step);
        let cycles = cycle.saturating_sub(self.base_cycle);
        if self.nve && self.cfg.check_momentum {
            match momentum(&self.mass_q, &state.velocities) {
                Some(p) => {
                    let bound = self.momentum_budget(sim, steps, cycles, fs_max, fl_max);
                    self.violations
                        .extend(check_momentum_envelope(cycle, self.p0, p, bound));
                }
                None => self.violations.push(Violation {
                    cycle,
                    identity: Identity::MomentumEnvelope,
                    label: "momentum_overflow",
                    index: 0,
                    lhs: i128::MAX,
                    rhs: 0,
                }),
            }
        }
        if self.nve && self.cfg.check_energy {
            self.violations.extend(check_energy_drift(
                cycle,
                self.e0,
                sim.total_energy(),
                self.dof,
                self.cfg.energy_drift_bound,
            ));
        }

        self.check_census(sim, cycle, cycles);
        self.samples += 1;
    }

    /// Exchange-census identities over the engine pipeline's counters.
    fn check_census(&mut self, sim: &AntonSimulation, cycle: u64, cycles: u64) {
        let c = sim.pipeline.counters;
        let b = self.base_counters;
        let k = sim.system.params.longrange_every.max(1) as u64;
        let rebuilds = (c.rebuild_steps - b.rebuild_steps) + (c.reuse_steps - b.reuse_steps);
        // Every inner step is metered once, every cycle evaluates
        // long-range once, and every metered step ran the range-limited
        // phase exactly once (rebuild or reuse).
        self.violations.extend(check_counter_linear(
            Identity::CensusSteps,
            cycle,
            "steps_per_cycle",
            c.steps - b.steps,
            cycles,
            k,
        ));
        self.violations.extend(check_counter_linear(
            Identity::CensusSteps,
            cycle,
            "lr_steps_per_cycle",
            c.lr_steps - b.lr_steps,
            cycles,
            1,
        ));
        self.violations.extend(check_scalars_equal(
            Identity::CensusSteps,
            cycle,
            "rebuild_plus_reuse",
            rebuilds as i128,
            (c.steps - b.steps) as i128,
        ));
        // Modeled communication is exactly linear in the metered step
        // counts (cumulative from counter zero, so the identity also
        // survives checkpoint restore, which carries counters).
        let links = sim.pipeline.rank_set().plan.total_links() as u64;
        for (label, counter) in [
            ("import_messages", c.import_messages),
            ("reduce_messages", c.reduce_messages),
        ] {
            self.violations.extend(check_counter_linear(
                Identity::CensusComm,
                cycle,
                label,
                counter,
                c.steps,
                links,
            ));
        }
        let [halo_msgs, halo_bytes, fft_msgs, fft_bytes] = sim.pipeline.mesh_lr_step_rates();
        for (label, counter, rate) in [
            ("mesh_halo_messages", c.mesh_halo_messages, halo_msgs),
            ("mesh_halo_bytes", c.mesh_halo_bytes, halo_bytes),
            ("fft_messages", c.fft_messages, fft_msgs),
            ("fft_bytes", c.fft_bytes, fft_bytes),
        ] {
            self.violations.extend(check_counter_linear(
                Identity::CensusComm,
                cycle,
                label,
                counter,
                c.lr_steps,
                rate,
            ));
        }
    }

    /// All violations recorded so far, in sample order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of battery samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Panic with a readable report if any identity failed.
    pub fn assert_clean(&self) {
        if !self.violations.is_empty() {
            let mut msg = format!("{} invariant violation(s):\n", self.violations.len());
            for v in &self.violations {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }
}

/// Max per-axis |Σf| of a force buffer, as f64 (for the momentum budget).
fn axis_abs_max(f: &[[i64; 3]]) -> f64 {
    let mut s = [0i128; 3];
    for w in f {
        for k in 0..3 {
            s[k] += w[k] as i128;
        }
    }
    s.iter().map(|&x| (x as f64).abs()).fold(0.0, f64::max)
}

/// [`CycleObserver`] adapter: constructs the [`Verifier`] lazily on the
/// first observed cycle (the builder hands the observer in before the
/// simulation exists) and samples the battery every observed cycle.
pub struct VerifierObserver {
    cfg: VerifyConfig,
    inner: Option<Verifier>,
}

impl VerifierObserver {
    pub fn new(cfg: VerifyConfig) -> VerifierObserver {
        VerifierObserver { cfg, inner: None }
    }

    /// The verifier, if at least one cycle has been observed.
    pub fn verifier(&self) -> Option<&Verifier> {
        self.inner.as_ref()
    }
}

impl CycleObserver for VerifierObserver {
    fn on_cycle(&mut self, sim: &AntonSimulation) {
        let cfg = self.cfg;
        let v = self
            .inner
            .get_or_insert_with(|| Verifier::with_config(sim, cfg));
        v.sample(sim);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builder sugar: `.verify_every(n)` installs the invariant battery as the
/// simulation's cycle observer.
pub trait VerifyEveryExt {
    /// Run the full battery every `every` cycles with default bounds.
    fn verify_every(self, every: u64) -> SimulationBuilder;
    /// Run the battery with explicit bounds.
    fn verify_every_with(self, every: u64, cfg: VerifyConfig) -> SimulationBuilder;
}

impl VerifyEveryExt for SimulationBuilder {
    fn verify_every(self, every: u64) -> SimulationBuilder {
        self.verify_every_with(every, VerifyConfig::default())
    }

    fn verify_every_with(self, every: u64, cfg: VerifyConfig) -> SimulationBuilder {
        self.observe_every(every, Box::new(VerifierObserver::new(cfg)))
    }
}

/// The installed verifier of a simulation built with
/// [`VerifyEveryExt::verify_every`], if any cycles have been observed.
pub fn verifier_of(sim: &AntonSimulation) -> Option<&Verifier> {
    sim.observer()
        .and_then(|o| o.as_any().downcast_ref::<VerifierObserver>())
        .and_then(VerifierObserver::verifier)
}

/// Violations recorded by an installed verifier (empty slice if none).
pub fn violations_of(sim: &AntonSimulation) -> &[Violation] {
    verifier_of(sim).map_or(&[], Verifier::violations)
}

/// Assert the simulation carried a verifier, it sampled at least once, and
/// every identity held on every sampled cycle.
pub fn assert_verified(sim: &AntonSimulation) {
    let v = verifier_of(sim)
        .expect("assert_verified: no verifier installed (use .verify_every(n)) or no cycle run");
    assert!(v.samples() > 0, "assert_verified: verifier never sampled");
    v.assert_clean();
}
