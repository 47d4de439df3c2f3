//! Quickstart: build a small solvated system, run the Anton engine, and
//! demonstrate the three §4 numerical properties in a few seconds.
//!
//! `cargo run --release -p anton-core --example quickstart`

use anton_core::{AntonSimulation, Decomposition, ThermostatKind};
use anton_forcefield::water::TIP3P;
use anton_geometry::PeriodicBox;
use anton_systems::spec::{RunParams, System};
use anton_systems::waterbox::pure_water_topology;

fn build() -> System {
    let pbox = PeriodicBox::cubic(18.0);
    let (topology, positions) = pure_water_topology(&pbox, &TIP3P, 150, 42);
    System {
        name: "quickstart-water".into(),
        pbox,
        topology,
        positions,
        params: RunParams::paper(7.5, 16),
    }
}

fn main() {
    // 1. Determinism: two runs, bitwise identical state.
    let run = |decomposition| {
        let mut sim = AntonSimulation::builder(build())
            .velocities_from_temperature(300.0, 7)
            .decomposition(decomposition)
            .thermostat(ThermostatKind::Berendsen {
                target_k: 300.0,
                tau_fs: 25.0,
            })
            .build();
        sim.run_cycles(40);
        sim
    };
    let a = run(Decomposition::Nodes(1));
    let b = run(Decomposition::Nodes(1));
    println!(
        "determinism        : two runs bitwise equal  = {}",
        a.state == b.state
    );

    // 2. Parallel invariance: same trajectory on a simulated 64-node torus.
    let c = run(Decomposition::Nodes(64));
    println!(
        "parallel invariance: 1 node vs 64 nodes      = {}",
        a.state == c.state
    );

    // 3. Exact reversibility (no constraints → use an unconstrained copy).
    let mut sys = build();
    sys.topology.constraint_groups.clear();
    sys.topology.molecule_starts = vec![0, sys.n_atoms() as u32];
    let mut sim = AntonSimulation::builder(sys)
        .velocities_from_temperature(150.0, 9)
        .build();
    let x0 = sim.state.clone();
    sim.run_cycles(20);
    sim.negate_velocities();
    sim.run_cycles(20);
    sim.negate_velocities();
    println!(
        "exact reversibility: recovered initial state = {}",
        sim.state == x0
    );

    println!(
        "\nenergy after 40 cycles: {:.2} kcal/mol at {:.0} K over {} atoms",
        a.total_energy(),
        a.temperature_k(),
        a.system.n_atoms()
    );
}
