//! Criterion microbenchmarks of the workspace's hot paths: fixed-point
//! primitives, PPIP table evaluation, FFTs (f64 and fixed), GSE, the cell
//! grid, and full engine steps on a small water box.

use anton_core::{AntonSimulation, Decomposition};
use anton_ewald::gse::{GseFixed, GseParams, GseReference};
use anton_ewald::Mesh;
use anton_fft::fixed::{FxComplex, FxFft};
use anton_fft::{Complex, Fft3d};
use anton_fixpoint::{rne_shr_i64, Q20};
use anton_forcefield::water::TIP3P;
use anton_geometry::{CellGrid, PeriodicBox, Vec3};
use anton_machine::Ppip;
use anton_refmd::{RefSimulation, Thermostat};
use anton_systems::spec::RunParams;
use anton_systems::velocities::init_velocities;
use anton_systems::waterbox::pure_water_topology;
use anton_systems::System;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn water_system(n: usize) -> System {
    // Box sized for liquid density at the requested molecule count.
    let edge = (n as f64 / 0.0334).cbrt().max(16.0);
    let pbox = PeriodicBox::cubic(edge);
    let (top, positions) = pure_water_topology(&pbox, &TIP3P, n, 5);
    System {
        name: "bench-water".into(),
        pbox,
        topology: top,
        positions,
        params: RunParams::paper(7.5, 16),
    }
}

fn bench_fixpoint(c: &mut Criterion) {
    c.bench_function("fixpoint/rne_shr_i64", |b| {
        let mut x = 0x1234_5678_9abci64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(rne_shr_i64(black_box(x), 20))
        })
    });
    c.bench_function("fixpoint/q20_mul", |b| {
        let p = Q20::from_f64(3.15625);
        let q = Q20::from_f64(-2.71875);
        b.iter(|| black_box(black_box(p).mul(black_box(q))))
    });
}

fn bench_ppip(c: &mut Criterion) {
    let ppip = Ppip::build(0.24, 13.0);
    c.bench_function("ppip/pair_table", |b| {
        let r2_q20 = (60.0 * (1i64 << 20) as f64) as i64;
        b.iter(|| black_box(ppip.pair(black_box(r2_q20), 0.25, 5.0e5, 600.0)))
    });
    c.bench_function("ppip/pair_exact_f64", |b| {
        b.iter(|| black_box(ppip.pair_exact(black_box(60.0), 0.25, 5.0e5, 600.0)))
    });
}

fn bench_fft(c: &mut Criterion) {
    let plan = Fft3d::cubic(32);
    let data: Vec<Complex> = (0..32 * 32 * 32)
        .map(|i| Complex::new((i % 17) as f64, (i % 5) as f64))
        .collect();
    c.bench_function("fft/f64_32cubed_forward", |b| {
        b.iter(|| {
            let mut d = data.clone();
            plan.forward(&mut d);
            black_box(d[0])
        })
    });
    let fx = FxFft::new(32);
    let line: Vec<FxComplex> = (0..32)
        .map(|i| FxComplex::new((i as i64) << 30, (i as i64) << 29))
        .collect();
    c.bench_function("fft/fixed_line32_forward", |b| {
        b.iter(|| {
            let mut d = line.clone();
            fx.forward_scaled(&mut d);
            black_box(d[0])
        })
    });
}

fn bench_gse(c: &mut Criterion) {
    let pbox = PeriodicBox::cubic(16.0);
    let params = GseParams::auto(7.0, 4.8);
    let positions: Vec<Vec3> = (0..64)
        .map(|i| {
            Vec3::new(
                (i % 4) as f64 * 4.0 + 1.0,
                ((i / 4) % 4) as f64 * 4.0 + 1.0,
                (i / 16) as f64 * 4.0 + 1.0,
            )
        })
        .collect();
    let charges: Vec<f64> = (0..64)
        .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
        .collect();

    let gse_ref = GseReference::new(Mesh::new([32; 3], pbox), params);
    c.bench_function("gse/reference_64atoms_32cubed", |b| {
        b.iter(|| {
            let mut f = vec![Vec3::ZERO; 64];
            black_box(gse_ref.compute(&positions, &charges, &mut f).energy)
        })
    });
    let gse_fx = GseFixed::new(Mesh::new([32; 3], pbox), params);
    let mut scratch = anton_ewald::GseScratch::default();
    c.bench_function("gse/fixed_64atoms_32cubed", |b| {
        b.iter(|| {
            let mut f = vec![[0i64; 3]; 64];
            black_box(gse_fx.compute_fixed(&positions, &charges, 24, &mut f, &mut scratch))
        })
    });
}

fn bench_cellgrid(c: &mut Criterion) {
    let sys = water_system(300);
    c.bench_function("cellgrid/build_900_atoms", |b| {
        b.iter(|| black_box(CellGrid::build(&sys.pbox, &sys.positions, 7.5).cell_count()))
    });
    let grid = CellGrid::build(&sys.pbox, &sys.positions, 7.5);
    c.bench_function("cellgrid/pair_sweep_900_atoms", |b| {
        b.iter(|| {
            let mut n = 0u64;
            grid.for_each_pair_within(&sys.positions, 7.5, |_, _, _, _| n += 1);
            black_box(n)
        })
    });
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step");
    group.sample_size(10);

    group.bench_function("anton_cycle_360_atoms", |b| {
        let mut sim = AntonSimulation::builder(water_system(120))
            .velocities_from_temperature(300.0, 7)
            .decomposition(Decomposition::Nodes(1))
            .build();
        b.iter(|| {
            sim.run_cycle();
            black_box(sim.step_count())
        })
    });

    group.bench_function("refmd_cycle_360_atoms", |b| {
        let sys = water_system(120);
        let vel = init_velocities(&sys.topology, 300.0, 9);
        let mut sim = RefSimulation::new(sys, vel, Thermostat::None);
        b.iter(|| {
            sim.run_cycle();
            black_box(sim.step_count())
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_fixpoint,
    bench_ppip,
    bench_fft,
    bench_gse,
    bench_cellgrid,
    bench_engines
);
criterion_main!(benches);
