//! Match batches and cell tiling for the HTIS-shaped range-limited phase.
//!
//! On the ASIC each PPIP fronts eight match units (paper §2.2): candidate
//! pairs stream out of the position tiles, survive a low-precision distance
//! check and the exact cutoff test, and enter the evaluator as 8-wide
//! bundles. This module is the software shape of that stage: a
//! [`BatchQueue`] packs cutoff survivors into [`PairBatch`] lanes (with a
//! geometry sidecar for the force scatter), and [`CellTiling`] is the
//! static power-of-two cell decomposition that splits each home box into
//! the tiles a rank streams tile pairs from. Everything is allocation-free
//! in steady state and bitwise deterministic: the queue records pairs in
//! enumeration order, and batch lane order is the canonical force-merge
//! order (detlint D5).

use anton_fixpoint::{FxVec3, QVec3, Q20};
use anton_machine::{PairBatch, MATCH_WIDTH};

/// Counts of work streamed through one match pass (merged into
/// [`ExchangeCounters`](anton_machine::perf::ExchangeCounters) in fixed
/// rank order by the pipeline).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchCensus {
    /// Candidate pairs examined (tile-pair lanes entering the match stage).
    pub candidates: u64,
    /// Pairs that survived the exact cutoff + exclusion tests into lanes.
    pub pairs: u64,
    /// Batches handed to the evaluator (including the partial tail).
    pub batches: u64,
}

/// Geometry sidecar of one [`PairBatch`]: which atoms each lane couples
/// (for the force scatter) and each atom's flat slot in the position
/// tiles (for the per-step coordinate gather). The displacement is *not*
/// stored: the evaluator re-forms it from the refreshed tile positions
/// every step, so a cached batch stays valid as atoms drift. The PPIP
/// model never sees this — like the hardware, it only receives r² and
/// kernel parameters.
#[derive(Clone, Copy, Debug)]
pub struct BatchMeta {
    pub i: [u32; MATCH_WIDTH],
    pub j: [u32; MATCH_WIDTH],
    /// Flat tile-pool slot of atom `i[lane]` / `j[lane]`.
    pub si: [u32; MATCH_WIDTH],
    pub sj: [u32; MATCH_WIDTH],
}

impl BatchMeta {
    const EMPTY: BatchMeta = BatchMeta {
        i: [0; MATCH_WIDTH],
        j: [0; MATCH_WIDTH],
        si: [0; MATCH_WIDTH],
        sj: [0; MATCH_WIDTH],
    };
}

/// An append-only queue of match batches, refilled every force evaluation
/// (buffers retained across [`BatchQueue::begin`] calls). Pairs fill lanes
/// in enumeration order; the final batch may be partial, its mask covering
/// only the filled lanes.
#[derive(Debug, Default)]
pub struct BatchQueue {
    batches: Vec<PairBatch>,
    metas: Vec<BatchMeta>,
    /// Lanes filled in the last batch (0 when empty or exactly full).
    fill: usize,
    pub census: BatchCensus,
}

impl BatchQueue {
    /// Reset for a new match pass, keeping capacity.
    pub fn begin(&mut self) {
        self.batches.clear();
        self.metas.clear();
        self.fill = 0;
        self.census = BatchCensus::default();
    }

    /// Append one padded-cutoff survivor. One argument per match-queue
    /// field: the four evaluator lanes plus the scatter/gather sidecar
    /// (atom ids and their flat tile slots).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn push(
        &mut self,
        r2_q20: i64,
        qq: f64,
        lj_a: f64,
        lj_b: f64,
        i: u32,
        j: u32,
        si: u32,
        sj: u32,
    ) {
        if self.fill == 0 {
            self.batches.push(PairBatch::EMPTY);
            self.metas.push(BatchMeta::EMPTY);
            self.census.batches += 1;
        }
        let lane = self.fill;
        let batch = self.batches.last_mut().expect("batch pushed above");
        batch.r2_q20[lane] = r2_q20;
        batch.qq[lane] = qq;
        batch.lj_a[lane] = lj_a;
        batch.lj_b[lane] = lj_b;
        batch.mask |= 1u8 << lane;
        let meta = self.metas.last_mut().expect("meta pushed above");
        meta.i[lane] = i;
        meta.j[lane] = j;
        meta.si[lane] = si;
        meta.sj[lane] = sj;
        self.fill = (lane + 1) % MATCH_WIDTH;
        self.census.pairs += 1;
    }

    /// Batches currently queued (8-wide bundles including a partial tail).
    #[inline]
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// The queued batches with their sidecars, in fill order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (&PairBatch, &BatchMeta)> {
        self.batches.iter().zip(&self.metas)
    }
}

/// Guard (Å) subtracted from the pair-list slack before squaring the
/// rebuild threshold: it absorbs every rounding between the monitor and
/// the match ladder (Q20 half-ulps of the per-axis displacement decode
/// and of the two r² roundings, plus the fraction-grid decode error that
/// `pairlist_slack_covers_decode_error` pins below `PAIRLIST_SLACK/100`),
/// so the conservative Verlet argument survives quantization.
const MONITOR_GUARD: f64 = 0.01;

/// Exact fixed-point displacement monitor for the persistent match stage.
///
/// The cache keeps the raw reference positions of the last rebuild. The
/// batches were matched against those positions at the *padded* cutoff
/// `rc + PAIRLIST_SLACK`, so they stay a superset of every in-cutoff pair
/// while no atom has moved more than half the slack:
/// `r_now(i,j) ≤ r_ref(i,j) + disp(i) + disp(j) ≤ r_ref + 2·max_disp`,
/// hence any pair inside `rc` now was inside `rc + 2·max_disp` at the
/// rebuild. [`Self::needs_rebuild`] therefore demands a rebuild as soon
/// as `2·max_disp ≥ PAIRLIST_SLACK − MONITOR_GUARD` (squared, in Q20, so
/// the test is a pure integer function of the trajectory: the same
/// schedule on every decomposition, thread count, and tracing mode).
#[derive(Debug, Default)]
pub struct MatchCache {
    /// Raw positions at the last rebuild; empty = cold (forces a rebuild).
    ref_pos: Vec<FxVec3>,
    half_edge_q20: [Q20; 3],
    /// Q20 of `(PAIRLIST_SLACK − MONITOR_GUARD)²`, compared against
    /// `4·disp²` (i.e. `(2·disp)²`).
    thresh2_q20: i64,
}

impl MatchCache {
    pub fn new(half_edge_q20: [Q20; 3], slack: f64) -> MatchCache {
        assert!(
            slack > MONITOR_GUARD,
            "pair-list slack {slack} must exceed the monitor guard"
        );
        let thresh = slack - MONITOR_GUARD;
        MatchCache {
            ref_pos: Vec::new(),
            half_edge_q20,
            thresh2_q20: Q20::from_f64(thresh * thresh).raw(),
        }
    }

    /// True when the cached batch structure may no longer cover the
    /// in-cutoff pair set: cold cache, atom count change, or some atom
    /// displaced by half the (guarded) slack since the reference. The
    /// displacement ladder is operation-for-operation the match stage's
    /// `delta_q20` arithmetic, so the decision is exact and reproducible.
    pub fn needs_rebuild(&self, positions: &[FxVec3]) -> bool {
        if self.ref_pos.len() != positions.len() {
            return true;
        }
        for (now, reference) in positions.iter().zip(&self.ref_pos) {
            let v: QVec3<20> = now.wrapping_sub(*reference).frac_to_len(self.half_edge_q20);
            let disp2 = v.norm2::<20>().raw();
            if 4 * disp2 >= self.thresh2_q20 {
                return true;
            }
        }
        false
    }

    /// Record `positions` as the new reference epoch after a rebuild.
    pub fn note_rebuild(&mut self, positions: &[FxVec3]) {
        self.ref_pos.clear();
        self.ref_pos.extend_from_slice(positions);
    }

    /// Drop the cached epoch; the next evaluation rebuilds unconditionally.
    pub fn invalidate(&mut self) {
        self.ref_pos.clear();
    }

    /// Whether a reference epoch is loaded.
    pub fn is_warm(&self) -> bool {
        !self.ref_pos.is_empty()
    }

    /// The reference positions of the current epoch (checkpointed so a
    /// restored run continues the exact rebuild schedule).
    pub fn ref_positions(&self) -> &[FxVec3] {
        &self.ref_pos
    }
}

/// Static power-of-two cell decomposition of the home boxes.
///
/// Per axis the cell count is the largest power of two whose cell width
/// still covers `reach` (capped at 16 cells so the conservative pair list
/// below stays small), so a particle's cell index is a plain shift of its
/// raw fraction bits — no floating point between positions and tiles.
/// Against a power-of-two node grid every home box spans the same number
/// of cells per axis: `cells / boxes` where cells nest in boxes, or one
/// cell where a box is narrower than a cell. Each box's atoms are binned
/// into the box's own cells ([`Self::cell_in_box`]), so one box-local
/// cell-pair list, fixed at construction, serves every box: a pair of a
/// box's cells is listed unless the minimum separation between them
/// (circular cell distance minus one, times the cell width) already
/// exceeds `reach`, so the listed tile pairs are a strict superset of
/// every interacting pair inside the box. With one box the tiling is the
/// plain cell grid of the whole periodic cell.
#[derive(Clone, Debug)]
pub struct CellTiling {
    /// log2 of the cell count per axis over the whole periodic cell.
    log2_dims: [u32; 3],
    /// log2 of the cells one home box spans per axis.
    log2_box: [u32; 3],
    /// Unordered box-local cell pairs `(a, b)` with `a <= b` that can hold
    /// an interacting pair.
    pairs: Vec<(u32, u32)>,
}

impl CellTiling {
    /// Tile the periodic cell of edges `edge` for pairs within `reach`,
    /// split over a node grid of `boxes` home boxes per axis (powers of
    /// two; `[1, 1, 1]` tiles the whole cell as one box).
    pub fn build(edge: [f64; 3], reach: f64, boxes: [usize; 3]) -> CellTiling {
        assert!(reach > 0.0);
        let mut log2_dims = [0u32; 3];
        let mut log2_box = [0u32; 3];
        for k in 0..3 {
            assert!(
                boxes[k].is_power_of_two(),
                "node grid axis {k} has {} boxes, not a power of two",
                boxes[k]
            );
            let mut m = 0u32;
            while m < 4 && edge[k] / (1u64 << (m + 1)) as f64 >= reach {
                m += 1;
            }
            log2_dims[k] = m;
            log2_box[k] = m.saturating_sub(boxes[k].trailing_zeros());
        }
        let dims = log2_dims.map(|m| 1u32 << m);
        let local = log2_box.map(|m| 1u32 << m);
        let width = [
            edge[0] / dims[0] as f64,
            edge[1] / dims[1] as f64,
            edge[2] / dims[2] as f64,
        ];
        // Minimum separation on one axis between cells `ca` and `cb`:
        // zero for same/adjacent cells (circular), else (circ − 1)·width.
        let gap = |ca: u32, cb: u32, k: usize| {
            let d = ca.abs_diff(cb);
            let circ = d.min(dims[k] - d);
            (circ.saturating_sub(1)) as f64 * width[k]
        };
        let n = local[0] * local[1] * local[2];
        let coord = |c: u32| {
            let x = c % local[0];
            let y = (c / local[0]) % local[1];
            let z = c / (local[0] * local[1]);
            [x, y, z]
        };
        let mut pairs = Vec::new();
        for a in 0..n {
            let ca = coord(a);
            for b in a..n {
                let cb = coord(b);
                let g2: f64 = (0..3).map(|k| gap(ca[k], cb[k], k).powi(2)).sum();
                if g2 <= reach * reach {
                    pairs.push((a, b));
                }
            }
        }
        CellTiling {
            log2_dims,
            log2_box,
            pairs,
        }
    }

    /// Cells one home box spans (the tiles each box is split into).
    #[inline]
    pub fn cells_per_box(&self) -> usize {
        1usize << (self.log2_box[0] + self.log2_box[1] + self.log2_box[2])
    }

    /// Per-axis cell of a particle from one raw signed fraction word: bias
    /// to unsigned order (so cell 0 starts at fraction −1 = box corner) and
    /// keep the top bits. Integer-exact — binning can never disagree with
    /// the fraction arithmetic the match stage runs on.
    #[inline]
    fn axis_cell(raw: i32, log2: u32) -> u32 {
        ((((raw as u32) ^ 0x8000_0000) as u64) >> (32 - log2)) as u32
    }

    /// Cell of a particle in the whole periodic cell (x fastest): the
    /// reference binning tests check [`Self::cell_in_box`] against.
    #[cfg(test)]
    pub fn cell_of(&self, raw: [i32; 3]) -> usize {
        let [lx, ly, _] = self.log2_dims;
        let c: [u32; 3] = std::array::from_fn(|k| Self::axis_cell(raw[k], self.log2_dims[k]));
        ((((c[2] << ly) | c[1]) << lx) | c[0]) as usize
    }

    /// Box-local cell (x fastest, `< cells_per_box()`) of a particle homed
    /// in the box at node-grid coordinate `home`. A constraint-group member
    /// homed with its leader can sit just outside the box; it is clamped
    /// into the nearest of the box's edge cells, which never moves two
    /// cells further apart, so the box-local pair list stays conservative.
    #[inline]
    pub fn cell_in_box(&self, home: [u32; 3], raw: [i32; 3]) -> usize {
        let mut local = [0u32; 3];
        for k in 0..3 {
            let lb = self.log2_box[k];
            if lb == 0 {
                continue;
            }
            let cells = 1u32 << self.log2_dims[k];
            let span = 1u32 << lb;
            let off = Self::axis_cell(raw[k], self.log2_dims[k]).wrapping_sub(home[k] << lb)
                & (cells - 1);
            local[k] = if off < span {
                off
            } else {
                let above = off - (span - 1);
                let below = cells - off;
                assert!(
                    span <= 2 || above.min(below) <= 1,
                    "atom homed {} cells outside its box on axis {k}",
                    above.min(below)
                );
                if above < below {
                    span - 1
                } else {
                    0
                }
            };
        }
        let [lx, ly, _] = self.log2_box;
        ((((local[2] << ly) | local[1]) << lx) | local[0]) as usize
    }

    /// The static conservative box-local cell-pair list.
    #[inline]
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_packs_lanes_and_masks_partial_tail() {
        let mut q = BatchQueue::default();
        q.begin();
        for p in 0..11u32 {
            q.push(p as i64 + 1, 0.5, 1.0, 2.0, p, p + 100, p + 1000, p + 2000);
        }
        assert_eq!(q.census.pairs, 11);
        assert_eq!(q.census.batches, 2);
        assert_eq!(q.batch_count(), 2);
        let got: Vec<_> = q.iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.mask, 0xff);
        assert_eq!(got[1].0.mask, 0b0000_0111);
        assert_eq!(got[1].1.i[2], 10);
        assert_eq!(got[1].1.j[2], 110);
        assert_eq!(got[1].1.si[2], 1010);
        assert_eq!(got[1].1.sj[2], 2010);
        assert_eq!(got[0].0.r2_q20[7], 8);
        // begin() resets, keeping nothing from the previous pass.
        q.begin();
        assert_eq!(q.iter().count(), 0);
        assert_eq!(q.batch_count(), 0);
        assert_eq!(q.census, BatchCensus::default());
    }

    #[test]
    fn monitor_is_cold_until_noted_and_tracks_atom_count() {
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(he, 0.5);
        let pos = vec![FxVec3::from_unit_frac([0.25, 0.0, -0.5]); 4];
        assert!(!cache.is_warm());
        assert!(cache.needs_rebuild(&pos), "cold cache must rebuild");
        cache.note_rebuild(&pos);
        assert!(cache.is_warm());
        assert!(!cache.needs_rebuild(&pos), "unmoved atoms reuse");
        assert!(
            cache.needs_rebuild(&pos[..3]),
            "atom count change must rebuild"
        );
        cache.invalidate();
        assert!(cache.needs_rebuild(&pos), "invalidated cache must rebuild");
    }

    #[test]
    fn monitor_trips_exactly_at_half_guarded_slack() {
        // 22 Å box (half-edge 11 Å), slack 0.5 Å → threshold on one atom's
        // displacement is (0.5 − MONITOR_GUARD)/2 = 0.245 Å.
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(he, 0.5);
        let base = vec![FxVec3::from_unit_frac([0.0; 3]); 8];
        cache.note_rebuild(&base);
        let moved_by = |ang: f64| {
            let mut pos = base.clone();
            // `from_unit_frac` takes a fraction of the *full* 22 Å edge.
            pos[5] = FxVec3::from_unit_frac([ang / 22.0, 0.0, 0.0]);
            pos
        };
        assert!(!cache.needs_rebuild(&moved_by(0.2449)));
        assert!(cache.needs_rebuild(&moved_by(0.2451)));
        // Displacement is measured since the *reference*, not the last step.
        cache.note_rebuild(&moved_by(0.2451));
        assert!(!cache.needs_rebuild(&moved_by(0.2451 + 0.2449)));
        assert!(cache.needs_rebuild(&moved_by(0.2451 + 0.2451)));
    }

    #[test]
    fn monitor_uses_minimum_image_displacement() {
        // An atom nudged across the periodic seam moves a hair, not a box.
        let he = [Q20::from_f64(11.0); 3];
        let mut cache = MatchCache::new(he, 0.5);
        let mut pos = vec![FxVec3::from_unit_frac([0.999_999_9, 0.0, 0.0]); 2];
        cache.note_rebuild(&pos);
        pos[1] = FxVec3::from_unit_frac([-0.999_999_9, 0.0, 0.0]);
        assert!(!cache.needs_rebuild(&pos));
    }

    #[test]
    fn tiling_dims_cover_reach_and_cap() {
        // 22 Å box, 7.7 Å reach: 2 cells per axis (11 Å ≥ 7.7, 5.5 < 7.7).
        let t = CellTiling::build([22.0; 3], 7.7, [1; 3]);
        assert_eq!(t.cells_per_box(), 8);
        // Every cell pair can interact at this size: C(8,2) + 8 = 36.
        assert_eq!(t.pairs().len(), 36);
        // 36 Å box: 4 cells per axis; cells two apart (gap 9 Å) are pruned.
        let t = CellTiling::build([36.0; 3], 7.7, [1; 3]);
        assert_eq!(t.cells_per_box(), 64);
        assert!(t.pairs().len() < 64 * 65 / 2, "no pruning happened");
        // Tiny box: one cell, one pair.
        let t = CellTiling::build([6.0; 3], 7.7, [1; 3]);
        assert_eq!(t.cells_per_box(), 1);
        assert_eq!(t.pairs(), &[(0, 0)]);
        // Huge box: per-axis cap at 16 cells.
        let t = CellTiling::build([1000.0; 3], 7.7, [1; 3]);
        assert_eq!(t.cells_per_box(), 16 * 16 * 16);
    }

    #[test]
    fn boxes_split_into_nested_cells() {
        // 36 Å box, 7.7 Å reach: 4 cells per axis. On a 2×2×2 node grid
        // each box spans 2 cells per axis, all adjacent: every local pair.
        let t = CellTiling::build([36.0; 3], 7.7, [2; 3]);
        assert_eq!(t.cells_per_box(), 8);
        assert_eq!(t.pairs().len(), 36);
        // A box as wide as a cell, or narrower, is one tile.
        for boxes in [[4; 3], [8, 4, 4]] {
            let t = CellTiling::build([36.0; 3], 7.7, boxes);
            assert_eq!(t.cells_per_box(), 1);
            assert_eq!(t.pairs(), &[(0, 0)]);
        }
        // Uneven grids split per axis: 4 cells over 2 × 1 × 4 boxes.
        let t = CellTiling::build([36.0; 3], 7.7, [2, 1, 4]);
        assert_eq!(t.cells_per_box(), 2 * 4);
    }

    #[test]
    fn cell_in_box_bins_inside_and_clamps_outside() {
        // 72 Å box, 7.7 Å reach: 8 cells per axis; 2 boxes per axis of 4
        // cells each. Fraction f ∈ [−1, 1) maps to global cell
        // ⌊(f + 1)·4⌋.
        let t = CellTiling::build([72.0; 3], 7.7, [2; 3]);
        assert_eq!(t.cells_per_box(), 64);
        let raw = |f: f64| (f * (1u64 << 31) as f64) as i32;
        let at = |fx: f64| [raw(fx), raw(-1.0), raw(-1.0)];
        // Box 0 covers global cells 0..4 on x; box 1 covers 4..8.
        assert_eq!(t.cell_in_box([0, 0, 0], at(-1.0)), 0);
        assert_eq!(t.cell_in_box([0, 0, 0], at(-0.01)), 3);
        assert_eq!(t.cell_in_box([1, 0, 0], at(0.0)), 0);
        assert_eq!(t.cell_in_box([1, 0, 0], at(0.99)), 3);
        // Just outside box 1, above (global cell 0, across the seam) and
        // below (global cell 3): clamped to the nearer edge cell.
        assert_eq!(t.cell_in_box([1, 0, 0], at(-0.99)), 3);
        assert_eq!(t.cell_in_box([1, 0, 0], at(-0.01)), 0);
        // One box: the box-local cell is the global cell.
        let whole = CellTiling::build([72.0; 3], 7.7, [1; 3]);
        for f in [-1.0, -0.4, 0.3, 0.99] {
            let p = [raw(f), raw(-f * 0.5), raw(f * 0.25)];
            assert_eq!(whole.cell_in_box([0; 3], p), whole.cell_of(p));
        }
    }

    #[test]
    #[should_panic(expected = "cells outside its box")]
    fn cell_in_box_rejects_atoms_far_outside() {
        let t = CellTiling::build([72.0; 3], 7.7, [2; 3]);
        let p = [(-0.6 * (1u64 << 31) as f64) as i32, i32::MIN, i32::MIN];
        // Global cell 1 on x: three cells below box 1's first cell (4) and
        // two above its last (7, across the seam) — far outside either way.
        t.cell_in_box([1, 0, 0], p);
    }

    #[test]
    fn binning_is_exact_on_fraction_bits() {
        let t = CellTiling::build([22.0; 3], 7.7, [1; 3]);
        // Fraction −1.0 (raw i32::MIN) is the box corner → cell 0; fraction
        // just below 0 is the middle → still the lower cell; fraction 0 is
        // the upper half.
        assert_eq!(t.cell_of([i32::MIN; 3]), 0);
        assert_eq!(t.cell_of([-1; 3]), 0);
        assert_eq!(t.cell_of([0; 3]), 7);
        assert_eq!(t.cell_of([0, -1, -1]), 1);
        assert_eq!(t.cell_of([-1, 0, -1]), 2);
        assert_eq!(t.cell_of([-1, -1, 0]), 4);
    }

    #[test]
    fn tiling_pair_list_is_conservative() {
        // Randomized check: any two fraction points within the reach (in a
        // 36 Å box) must land in a listed cell pair.
        let t = CellTiling::build([36.0; 3], 7.7, [1; 3]);
        let listed: std::collections::HashSet<(u32, u32)> = t.pairs().iter().copied().collect();
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..20_000 {
            let p = [next() as i32, next() as i32, next() as i32];
            let q = [next() as i32, next() as i32, next() as i32];
            let mut r2 = 0.0;
            for k in 0..3 {
                let df = p[k].wrapping_sub(q[k]) as f64 / (1u64 << 31) as f64;
                r2 += (df * 18.0).powi(2); // fraction of [-1,1) × half-edge
            }
            if r2 <= 7.7 * 7.7 {
                let (a, b) = (t.cell_of(p) as u32, t.cell_of(q) as u32);
                assert!(
                    listed.contains(&(a.min(b), a.max(b))),
                    "in-reach pair in unlisted cells {a},{b}"
                );
            }
        }
    }
}
