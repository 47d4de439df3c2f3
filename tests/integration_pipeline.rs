//! End-to-end pipeline checks: paper benchmark systems build to spec, feed
//! the performance model coherently, and the model hits the paper's
//! calibration targets from real (not hard-coded) workload counts.

use anton_core::{system_stats, Decomposition, FixedState, ForcePipeline, RawForces};
use anton_geometry::Vec3;
use anton_machine::PerfModel;
use anton_systems::{bpti, table4_system, TABLE4};

#[test]
fn dhfr_built_system_reproduces_headline_rate() {
    // The 16.4 µs/day headline, driven end-to-end from the *built* system.
    let sys = table4_system(&TABLE4[1], 1);
    let stats = system_stats(&sys);
    let rate = PerfModel::anton_512().breakdown(&stats).us_per_day;
    assert!(
        (rate - 16.4).abs() < 4.0,
        "DHFR rate from built system: {rate} µs/day (paper 16.4)"
    );
}

#[test]
fn figure5_ordering_holds_across_built_systems() {
    // Rates must decrease with system size (Figure 5's shape), using the
    // actual constructed systems end to end.
    let mut last = f64::INFINITY;
    for e in &TABLE4 {
        let sys = table4_system(e, 1);
        let rate = PerfModel::anton_512()
            .breakdown(&system_stats(&sys))
            .us_per_day;
        assert!(
            rate < last * 1.05,
            "{}: rate {rate} did not decrease (prev {last})",
            e.name
        );
        // Within a factor ~1.6 of the paper's value.
        let ratio = rate / e.paper_us_per_day;
        assert!(
            (0.6..1.7).contains(&ratio),
            "{}: {rate:.1} vs paper {:.1}",
            e.name,
            e.paper_us_per_day
        );
        last = rate;
    }
}

#[test]
fn bpti_system_matches_section_5_3_exactly() {
    let sys = bpti(3);
    assert_eq!(sys.n_atoms(), 17758);
    assert_eq!(sys.topology.virtual_sites.len(), 4215);
    assert_eq!(
        sys.topology.charge.iter().filter(|&&q| q == -1.0).count(),
        6
    );
    assert!((sys.pbox.edge().x - 51.3).abs() < 1e-9);
    assert_eq!(sys.params.mesh, [32; 3]);
    assert!((sys.params.cutoff - 10.4).abs() < 1e-9);
    assert!((sys.params.spread_cutoff - 7.1).abs() < 1e-9);
    assert!(sys.topology.total_charge().abs() < 1e-9);
    // 892 protein atoms = everything that is not water or ion.
    let water_and_ions = 4215 * 4 + 6;
    assert_eq!(sys.n_atoms() - water_and_ions, 892);
}

#[test]
fn all_table4_systems_build_and_validate() {
    // The large builds are the expensive part; cover the four smallest here
    // (the two giants are exercised by the fig5_table4 harness).
    for e in TABLE4.iter().take(4) {
        let sys = table4_system(e, 1);
        assert_eq!(sys.n_atoms(), e.n_atoms, "{}", e.name);
        sys.validate()
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let s = system_stats(&sys);
        assert!(s.protein_atoms > 0);
        assert!(
            (s.density() - 0.0963).abs() < 0.01,
            "{}: density {}",
            e.name,
            s.density()
        );
    }
}

#[test]
fn one_node_gpw_matches_the_cell_grid_census() {
    // A single node splits its one home box into the static cell tiling and
    // matches the box against itself cell pair by cell pair, so a cold
    // rebuild on gpW examines the cell grid's candidates, not all
    // n(n−1)/2 = 48,654,180 pairs of the 9,865 atoms.
    let sys = table4_system(&TABLE4[0], 3);
    assert_eq!(sys.n_atoms(), 9865);
    let state = FixedState::from_f64(&sys.pbox, &sys.positions, &vec![Vec3::ZERO; sys.n_atoms()]);
    let mut pipe = ForcePipeline::new(&sys, Decomposition::Nodes(1), 1);
    let mut out = RawForces::zeroed(sys.n_atoms());
    pipe.range_limited(&sys, &state, &mut out);
    assert_eq!(pipe.counters.rebuild_steps, 1);
    assert_eq!(pipe.counters.match_candidates, 20_597_594);
}
