//! The spatially distributed 3D FFT of paper §3.2.2.
//!
//! With Anton's Ewald parameters the mesh is tiny (32³ over 512 nodes leaves
//! 64 points per node), so the FFT is communication-dominated. The paper's
//! strategy is "a straightforward decomposition into sets of one-dimensional
//! FFTs oriented along each of the three axes", exchanging pencils with a
//! large number of very small messages — hundreds per node — which is only
//! viable because Anton's inter-node latency is tens of nanoseconds.
//!
//! [`FxDistributedFft3d`] is the fixed-point transform the deterministic
//! GSE mesh phase runs on. Line transforms touch disjoint pencils, so the
//! output is bitwise equal to the serial three-pass transform for *every*
//! node grid — the distribution affects only who computes which line.
//!
//! The message pattern is a pure function of the mesh and node-grid
//! geometry — it never depends on the data — so [`pencil_pass_stats`]
//! computes it statically; the counts feed the performance model in
//! `anton-machine`.

use crate::fixed::{FxComplex, FxFft};

/// Per-pass communication statistics (gather + scatter of one axis pass).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PassStats {
    /// Messages sent by the busiest node during this pass.
    pub messages_max_node: u64,
    /// Bytes sent by the busiest node during this pass.
    pub bytes_max_node: u64,
    /// Total messages across all nodes.
    pub messages_total: u64,
    /// Total bytes across all nodes.
    pub bytes_total: u64,
}

/// Communication statistics for one full 3D transform (three axis passes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    pub passes: [PassStats; 3],
}

impl CommStats {
    /// The statistics of one axis pass (0 = x, 1 = y, 2 = z).
    pub fn pass(&self, axis: usize) -> &PassStats {
        &self.passes[axis]
    }

    /// Messages sent by the busiest node over the whole transform.
    pub fn messages_max_node(&self) -> u64 {
        self.passes.iter().map(|p| p.messages_max_node).sum()
    }

    pub fn bytes_max_node(&self) -> u64 {
        self.passes.iter().map(|p| p.bytes_max_node).sum()
    }

    /// Total messages across all nodes over the whole transform.
    pub fn messages_total(&self) -> u64 {
        self.passes.iter().map(|p| p.messages_total).sum()
    }

    /// Total bytes across all nodes over the whole transform.
    pub fn bytes_total(&self) -> u64 {
        self.passes.iter().map(|p| p.bytes_total).sum()
    }
}

/// Wire bytes per fixed-point mesh value (a complex 32+32-bit payload).
pub const FX_BYTES_PER_POINT: u64 = 8;

/// Static communication statistics of one axis pass of the pencil exchange:
/// every line along `axis` is gathered to an owner node (chosen round-robin
/// among the `g_axis` nodes the line crosses), transformed there, and
/// scattered back — one message per (non-owner node, line) segment each
/// way, as on Anton where a segment of a 32-point line held by one node is
/// a handful of mesh points.
pub fn pencil_pass_stats(
    mesh: [usize; 3],
    nodes: [usize; 3],
    bytes_per_point: u64,
    axis: usize,
) -> PassStats {
    let n_axis = mesh[axis];
    let g_axis = nodes[axis];
    let seg = n_axis / g_axis; // points per node per line
    let (u_axis, v_axis) = match axis {
        0 => (1usize, 2usize),
        1 => (0, 2),
        _ => (0, 1),
    };
    let (nu, nv) = (mesh[u_axis], mesh[v_axis]);
    let (gu, gv) = (nodes[u_axis], nodes[v_axis]);
    let (su, sv) = (nu / gu, nv / gv); // points per node along u, v

    let node_count = nodes[0] * nodes[1] * nodes[2];
    let mut sends_per_node = vec![0u64; node_count];
    let node_id = |c: [usize; 3]| -> usize { (c[2] * nodes[1] + c[1]) * nodes[0] + c[0] };

    for v in 0..nv {
        for u in 0..nu {
            // The owner of this line among the g_axis nodes it crosses:
            // round-robin on the local (u, v) index within the node tile,
            // so ownership is balanced within every row of nodes.
            let local_line_idx = (u % su) + su * (v % sv);
            let owner_along = local_line_idx % g_axis;

            // Gather: every node holding a segment that is not the owner
            // sends one message of `seg` points; the owner later scatters
            // the transformed segments back (another message each).
            for a in 0..g_axis {
                if a != owner_along {
                    let mut c = [0usize; 3];
                    c[axis] = a;
                    c[u_axis] = u / su;
                    c[v_axis] = v / sv;
                    sends_per_node[node_id(c)] += 1;
                    let mut oc = c;
                    oc[axis] = owner_along;
                    sends_per_node[node_id(oc)] += 1;
                }
            }
        }
    }

    let seg_bytes = seg as u64 * bytes_per_point;
    let messages_max_node = sends_per_node.iter().copied().max().unwrap_or(0);
    let messages_total: u64 = sends_per_node.iter().sum();
    PassStats {
        messages_max_node,
        bytes_max_node: messages_max_node * seg_bytes,
        messages_total,
        bytes_total: messages_total * seg_bytes,
    }
}

fn assert_grid_divides(mesh: [usize; 3], nodes: [usize; 3]) {
    for a in 0..3 {
        assert!(
            nodes[a] >= 1 && mesh[a].is_multiple_of(nodes[a]),
            "node grid {nodes:?} must divide mesh {mesh:?}"
        );
    }
}

/// A fixed-point 3D FFT distributed over a grid of `gx × gy × gz` nodes
/// (each node dimension must divide the corresponding mesh dimension): a
/// pencil decomposition with one axis pass per dimension, executing the
/// per-line arithmetic of [`FxFft`] (`forward_scaled` = DFT/N,
/// `inverse_scaled` = standard IDFT).
/// Because every line is a disjoint pencil transformed by a pure integer
/// dataflow, the result is bitwise equal to the serial three-pass transform
/// regardless of the node grid — the invariance the deterministic GSE mesh
/// phase rests on. Communication statistics are static and computed once at
/// plan time.
#[derive(Clone, Debug)]
pub struct FxDistributedFft3d {
    mesh: [usize; 3],
    nodes: [usize; 3],
    plans: [FxFft; 3],
    stats: CommStats,
}

impl FxDistributedFft3d {
    pub fn new(mesh: [usize; 3], nodes: [usize; 3]) -> FxDistributedFft3d {
        assert_grid_divides(mesh, nodes);
        let mut stats = CommStats::default();
        for axis in 0..3 {
            stats.passes[axis] = pencil_pass_stats(mesh, nodes, FX_BYTES_PER_POINT, axis);
        }
        FxDistributedFft3d {
            mesh,
            nodes,
            plans: [
                FxFft::new(mesh[0]),
                FxFft::new(mesh[1]),
                FxFft::new(mesh[2]),
            ],
            stats,
        }
    }

    pub fn node_dims(&self) -> [usize; 3] {
        self.nodes
    }

    pub fn node_count(&self) -> usize {
        self.nodes.iter().product()
    }

    /// Static pencil-exchange statistics of one 3D transform (forward and
    /// inverse have the identical pattern).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// In-place forward transform (`DFT/N` per axis). `line` is a reusable
    /// gather buffer, grown on first use — the hot path never allocates.
    pub fn forward(&self, data: &mut [FxComplex], line: &mut Vec<FxComplex>) {
        self.transform(data, line, true);
    }

    /// In-place inverse transform (standard IDFT, carrying 1/N per axis).
    pub fn inverse(&self, data: &mut [FxComplex], line: &mut Vec<FxComplex>) {
        self.transform(data, line, false);
    }

    fn transform(&self, data: &mut [FxComplex], line: &mut Vec<FxComplex>, fwd: bool) {
        let [nx, ny, nz] = self.mesh;
        assert_eq!(data.len(), nx * ny * nz);
        line.clear();
        line.resize(nx.max(ny).max(nz), FxComplex::ZERO);
        for axis in 0..3 {
            self.axis_pass(data, line, axis, fwd);
        }
    }

    fn axis_pass(&self, data: &mut [FxComplex], line: &mut [FxComplex], axis: usize, fwd: bool) {
        let [nx, ny, _nz] = self.mesh;
        let n_axis = self.mesh[axis];
        let (u_axis, v_axis) = match axis {
            0 => (1usize, 2usize),
            1 => (0, 2),
            _ => (0, 1),
        };
        let (nu, nv) = (self.mesh[u_axis], self.mesh[v_axis]);

        for v in 0..nv {
            for u in 0..nu {
                let index = |t: usize| -> usize {
                    let mut c = [0usize; 3];
                    c[axis] = t;
                    c[u_axis] = u;
                    c[v_axis] = v;
                    c[0] + nx * (c[1] + ny * c[2])
                };
                for (t, slot) in line[..n_axis].iter_mut().enumerate() {
                    *slot = data[index(t)];
                }
                if fwd {
                    self.plans[axis].forward_scaled(&mut line[..n_axis]);
                } else {
                    self.plans[axis].inverse_scaled(&mut line[..n_axis]);
                }
                for (t, slot) in line[..n_axis].iter().enumerate() {
                    data[index(t)] = *slot;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn anton_config_sends_hundreds_of_messages_per_node() {
        // The paper's configuration: 32³ mesh over an 8×8×8 torus, 64 mesh
        // points per node.
        let fx = FxDistributedFft3d::new([32, 32, 32], [8, 8, 8]);
        assert_eq!(fx.node_count(), 512);
        let msgs = fx.stats().messages_max_node();
        // One transform: "hundreds per node" counting both FFTs, so a
        // single transform should be in the high tens to low hundreds.
        assert!(
            (50..500).contains(&msgs),
            "unexpected per-node message count for 32^3/8^3: {msgs}"
        );
    }

    #[test]
    fn single_node_sends_nothing() {
        let fx = FxDistributedFft3d::new([8, 8, 8], [1, 1, 1]);
        assert_eq!(fx.stats().messages_max_node(), 0);
        assert_eq!(fx.stats().messages_total(), 0);
        assert_eq!(fx.stats().passes[0].bytes_total, 0);
    }

    /// Serial three-pass fixed transform mirroring the pre-distribution GSE
    /// pass order: x lines, then y lines, then z lines.
    fn fx_serial_3d(mesh: [usize; 3], data: &mut [FxComplex], fwd: bool) {
        let [nx, ny, nz] = mesh;
        let plans = [FxFft::new(nx), FxFft::new(ny), FxFft::new(nz)];
        let mut line = vec![FxComplex::ZERO; nx.max(ny).max(nz)];
        let run = |p: &FxFft, l: &mut [FxComplex]| {
            if fwd {
                p.forward_scaled(l);
            } else {
                p.inverse_scaled(l);
            }
        };
        for z in 0..nz {
            for y in 0..ny {
                let base = nx * (y + ny * z);
                line[..nx].copy_from_slice(&data[base..base + nx]);
                run(&plans[0], &mut line[..nx]);
                data[base..base + nx].copy_from_slice(&line[..nx]);
            }
        }
        for z in 0..nz {
            for x in 0..nx {
                for y in 0..ny {
                    line[y] = data[x + nx * (y + ny * z)];
                }
                run(&plans[1], &mut line[..ny]);
                for y in 0..ny {
                    data[x + nx * (y + ny * z)] = line[y];
                }
            }
        }
        for y in 0..ny {
            for x in 0..nx {
                for z in 0..nz {
                    line[z] = data[x + nx * (y + ny * z)];
                }
                run(&plans[2], &mut line[..nz]);
                for z in 0..nz {
                    data[x + nx * (y + ny * z)] = line[z];
                }
            }
        }
    }

    fn fx_random_mesh(n: usize, seed: u64) -> Vec<FxComplex> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| FxComplex::new(rng.gen::<i32>() as i64, rng.gen::<i32>() as i64))
            .collect()
    }

    /// The tentpole invariance: the distributed fixed-point transform is
    /// bitwise identical to the serial pass order for every node grid (the
    /// grids the simulated machine actually uses: 1, 2×2×2, 4×4×4).
    #[test]
    fn fx_distributed_matches_serial_bitwise_across_node_grids() {
        let mesh = [16usize, 16, 16];
        let x = fx_random_mesh(16 * 16 * 16, 31);
        for fwd in [true, false] {
            let mut want = x.clone();
            fx_serial_3d(mesh, &mut want, fwd);
            for nodes in [[1usize, 1, 1], [2, 2, 2], [4, 4, 4]] {
                let fx = FxDistributedFft3d::new(mesh, nodes);
                let mut got = x.clone();
                let mut line = Vec::new();
                if fwd {
                    fx.forward(&mut got, &mut line);
                } else {
                    fx.inverse(&mut got, &mut line);
                }
                assert_eq!(got, want, "nodes {nodes:?}, fwd {fwd}");
            }
        }
    }

    #[test]
    fn fx_inverse_roundtrip_is_close() {
        // Fixed-point scaling: forward computes DFT/N, the standard inverse
        // IDFT undoes the DFT and carries its own 1/N — the round-trip
        // returns x/N (plus rounding noise), so compare against the shifted
        // input.
        let mesh = [8usize, 8, 8];
        let fx = FxDistributedFft3d::new(mesh, [2, 2, 2]);
        let x: Vec<FxComplex> = fx_random_mesh(512, 33)
            .into_iter()
            .map(|c| FxComplex::new(c.re << 16, c.im << 16))
            .collect();
        let mut y = x.clone();
        let mut line = Vec::new();
        fx.forward(&mut y, &mut line);
        fx.inverse(&mut y, &mut line);
        for (a, b) in x.iter().zip(&y) {
            let want = a.re >> 9; // /N = /512 = >>9, coarse check
            assert!(
                (b.re - want).abs() <= (want.abs() >> 6) + 64,
                "{} vs {want}",
                b.re
            );
        }
    }
}
