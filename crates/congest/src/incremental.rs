//! Incremental congestion re-evaluation with dirty-region tracking.
//!
//! The padding loop re-estimates congestion every round, yet between rounds
//! only a small fraction of cells cross a Gcell boundary. This module keeps
//! per-chunk demand partials (the same `puffer_par` chunks the full build
//! uses) plus each pin's quantized Gcell from the previous round. A chunk is
//! **dirty** when any net in it touches a Gcell whose membership changed —
//! i.e. any of that net's pins moved to a different Gcell. Dirty chunks are
//! rebuilt from scratch in net-index order; clean chunks reuse their cached
//! partial verbatim. The ordered `merge_add` over chunk partials is the same
//! in both cases, so the incremental result is **bit-identical** to a full
//! recompute by construction — no demand is ever subtracted and re-added
//! (which would change f64 accumulation order and drift).
//!
//! RSMT decompositions are memoized per chunk in a fingerprint-keyed LRU
//! ([`RsmtCache`]): the key is the net's sorted, deduplicated pin-Gcell
//! offsets relative to its bounding box, and the cached value is exactly
//! what [`crate::demand::decompose_offsets`] returns, so a cache hit
//! deposits bit-identical segments to a miss. Caches live one-per-chunk;
//! each chunk is built by exactly one worker, so the per-chunk mutexes are
//! uncontended, and nets stay in the same chunk across rounds so reuse
//! actually lands.

use crate::demand::{self, ChunkPartial, SegmentRecord};
use puffer_db::cast;
use puffer_db::design::{Design, Placement};
use puffer_db::grid::Grid;
use puffer_db::netlist::PinId;
use puffer_budget::lockcheck::lock_leaf;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Fingerprint-keyed memo of RSMT decompositions (segmented LRU).
///
/// Two *ordered* maps, `hot` and `cold`: hits in `hot` are served directly, hits
/// in `cold` promote the entry back to `hot`, misses build and insert into
/// `hot`. When `hot` outgrows the capacity, `cold` is dropped and `hot`
/// rotates into its place — an O(1) amortized generational eviction that
/// bounds the cache at twice the capacity while keeping recently-used
/// fingerprints resident across rip-up rounds.
#[derive(Debug, Default, Clone)]
pub(crate) struct RsmtCache {
    hot: BTreeMap<Vec<(u32, u32)>, Vec<SegmentRecord>>,
    cold: BTreeMap<Vec<(u32, u32)>, Vec<SegmentRecord>>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl RsmtCache {
    pub(crate) fn new(cap: usize) -> Self {
        RsmtCache {
            hot: BTreeMap::new(),
            cold: BTreeMap::new(),
            cap: cap.max(16),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the canonical decomposition for `offsets` and whether it was
    /// served from cache. The returned records are in offset space; callers
    /// translate by the net's bounding-box minimum.
    pub(crate) fn get_or_build(&mut self, offsets: &[(u32, u32)]) -> (Vec<SegmentRecord>, bool) {
        if let Some(recs) = self.hot.get(offsets) {
            self.hits += 1;
            return (recs.clone(), true);
        }
        if let Some(recs) = self.cold.remove(offsets) {
            self.hits += 1;
            self.insert(offsets.to_vec(), recs.clone());
            return (recs, true);
        }
        self.misses += 1;
        let recs = demand::decompose_offsets(offsets);
        self.insert(offsets.to_vec(), recs.clone());
        (recs, false)
    }

    fn insert(&mut self, key: Vec<(u32, u32)>, recs: Vec<SegmentRecord>) {
        if self.hot.len() >= self.cap {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, recs);
    }

    #[cfg(test)]
    pub(crate) fn take_counters(&mut self) -> (u64, u64) {
        let out = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        out
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

/// Per-round statistics from an incremental demand build, reported in the
/// `congest.dirty` trace record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyStats {
    /// Total nets in the design.
    pub nets: usize,
    /// Nets with at least one pin whose Gcell changed since last round.
    pub nets_dirty: usize,
    /// Nets actually re-derived (quantize + fingerprint + decompose).
    /// Equals [`DirtyStats::nets_dirty`] when prior partials existed —
    /// clean nets inside a dirty chunk replay their cached records — and
    /// every net in a dirty chunk otherwise (first round, post-coarsen).
    pub nets_rebuilt: usize,
    /// Total `puffer_par` chunks.
    pub chunks: usize,
    /// Chunks rebuilt this round.
    pub chunks_dirty: usize,
    /// Distinct Gcells whose cell membership changed.
    pub gcells_dirty: usize,
    /// RSMT cache hits across rebuilt chunks this round.
    pub rsmt_hits: u64,
    /// RSMT cache misses across rebuilt chunks this round.
    pub rsmt_misses: u64,
}

impl DirtyStats {
    /// Fraction of nets whose cached work was reused (1 − rebuilt/total).
    pub fn reuse_rate(&self) -> f64 {
        if self.nets == 0 {
            return 0.0;
        }
        1.0 - cast::idx_f64(self.nets_rebuilt) / cast::idx_f64(self.nets)
    }
}

/// Carry-over state for incremental demand builds.
///
/// Holds the previous round's per-pin Gcells, per-chunk demand partials, and
/// per-chunk RSMT caches. Invalidated (rebuilt from scratch) whenever the
/// grid geometry or pin count changes.
#[derive(Debug)]
pub(crate) struct IncrementalState {
    /// Grid shape this state was built against.
    nx: usize,
    ny: usize,
    num_pins: usize,
    num_nets: usize,
    /// Quantized Gcell index (iy * nx + ix) per pin, previous round.
    pin_cells: Vec<u32>,
    /// Cached per-chunk partials, one per `puffer_par` chunk.
    partials: Vec<ChunkPartial>,
    /// Per-chunk RSMT caches; exactly one worker touches each during a
    /// build, so these mutexes are uncontended (they exist only to make the
    /// state `Sync` for the scoped workers).
    caches: Vec<Mutex<RsmtCache>>,
}

impl Clone for IncrementalState {
    fn clone(&self) -> Self {
        IncrementalState {
            nx: self.nx,
            ny: self.ny,
            num_pins: self.num_pins,
            num_nets: self.num_nets,
            pin_cells: self.pin_cells.clone(),
            partials: self.partials.clone(),
            caches: self
                .caches
                .iter()
                .map(|m| Mutex::new(lock_leaf(m).clone()))
                .collect(),
        }
    }
}

/// Quantizes every pin to its Gcell index in `template`, in pin order. Runs
/// on the worker pool so a bad placement (e.g. shorter than the netlist)
/// surfaces as [`crate::CongestError::WorkerPanic`], exactly like the full
/// demand build.
fn quantize_pins(
    design: &Design,
    placement: &Placement,
    template: &Grid<f64>,
    threads: usize,
) -> Result<Vec<u32>, crate::CongestError> {
    let netlist = design.netlist();
    let nx = cast::idx_u32(template.nx());
    let parts = puffer_par::try_map_chunks(netlist.num_pins(), threads, |range| {
        range
            .map(|i| {
                let pos = placement.pin_pos(netlist, PinId(cast::idx_u32(i)));
                let (ix, iy) = template.cell_of(pos);
                cast::idx_u32(iy) * nx + cast::idx_u32(ix)
            })
            .collect::<Vec<u32>>()
    })
    .map_err(|e| crate::CongestError::WorkerPanic(e.0))?;
    Ok(parts.concat())
}

impl IncrementalState {
    /// True when this state can seed an incremental build against the given
    /// geometry; false forces a full rebuild.
    fn compatible(&self, template: &Grid<f64>, num_pins: usize, num_nets: usize) -> bool {
        self.nx == template.nx()
            && self.ny == template.ny()
            && self.num_pins == num_pins
            && self.num_nets == num_nets
    }
}

/// Incremental [`crate::demand::try_build_demand`]: reuses `state` when
/// compatible, rebuilding only dirty chunks, and replaces `state` with this
/// round's snapshot. The merged result is bit-identical to a full build.
///
/// # Errors
///
/// [`crate::CongestError::WorkerPanic`] if a rebuild worker panics; the
/// state is cleared so the next round falls back to a full build.
pub(crate) fn try_build_demand_incremental(
    design: &Design,
    placement: &Placement,
    template: &Grid<f64>,
    pin_penalty: f64,
    threads: usize,
    state: &mut Option<IncrementalState>,
) -> Result<(crate::demand::DemandMaps, DirtyStats), crate::CongestError> {
    let netlist = design.netlist();
    let num_nets = netlist.num_nets();
    let ranges = puffer_par::chunk_ranges(num_nets);
    let pin_cells = quantize_pins(design, placement, template, threads)?;

    // Decide what to rebuild. With no compatible prior state, everything is
    // dirty (first round, post-coarsen, or resumed flow).
    let mut prev = state
        .take()
        .filter(|s| s.compatible(template, pin_cells.len(), num_nets));
    let mut stats = DirtyStats {
        nets: num_nets,
        chunks: ranges.len(),
        ..DirtyStats::default()
    };
    // Per-net dirty flag: any pin whose Gcell changed marks its net dirty.
    let mut net_dirty = vec![prev.is_none(); num_nets];
    if let Some(p) = &prev {
        let mut dirty_cells: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for (i, (&cell, &prev_cell)) in pin_cells.iter().zip(&p.pin_cells).enumerate() {
            if cell != prev_cell {
                dirty_cells.insert(cell);
                dirty_cells.insert(prev_cell);
                let pin = netlist.pin(PinId(cast::idx_u32(i)));
                net_dirty[pin.net.index()] = true;
            }
        }
        stats.gcells_dirty = dirty_cells.len();
    }
    stats.nets_dirty = net_dirty.iter().filter(|&&d| d).count();
    let chunk_dirty: Vec<bool> = ranges
        .iter()
        .map(|r| net_dirty[r.clone()].iter().any(|&d| d))
        .collect();
    stats.chunks_dirty = chunk_dirty.iter().filter(|&&d| d).count();
    // Rebuild granularity is per *net* when prior partials exist (clean
    // nets inside a dirty chunk replay their cached records); without a
    // prior round every net in a dirty chunk is re-derived.
    stats.nets_rebuilt = if prev.is_some() {
        stats.nets_dirty
    } else {
        ranges
            .iter()
            .zip(&chunk_dirty)
            .filter(|(_, &d)| d)
            .map(|(r, _)| r.len())
            .sum()
    };

    // Reuse the previous round's caches (or start fresh ones), one per
    // chunk, sized to the chunk so a full working set stays resident. Taken
    // out of `prev` so the workers can lock them while `prev`'s partials
    // are still borrowed for replay.
    let caches: Vec<Mutex<RsmtCache>> = match prev.as_mut() {
        Some(p) if p.caches.len() == ranges.len() => std::mem::take(&mut p.caches),
        _ => ranges
            .iter()
            .map(|r| Mutex::new(RsmtCache::new(r.len().max(1024))))
            .collect(),
    };

    // Rebuild dirty chunks on the worker pool; each worker owns its chunk's
    // cache for the duration (uncontended lock) and replays clean nets from
    // the chunk's previous partial.
    let prev_ref = prev.as_ref();
    let rebuilt = puffer_par::try_map_chunks(num_nets, threads, |range| {
        let chunk = ranges
            .iter()
            .position(|r| r.start == range.start && r.end == range.end);
        match chunk {
            Some(c) if chunk_dirty[c] => {
                let mut cache = lock_leaf(&caches[c]);
                let replay = prev_ref.map(|p| (&p.partials[c], &net_dirty[range.clone()]));
                Some(demand::build_chunk_partial(
                    netlist,
                    placement,
                    template,
                    range,
                    Some(&mut cache),
                    replay,
                ))
            }
            _ => None,
        }
    })
    .map_err(|e| crate::CongestError::WorkerPanic(e.0))?;

    // Assemble this round's chunk partials: rebuilt where dirty, cached
    // otherwise, then merge in chunk order — the exact order the full build
    // uses, so the sums are bit-identical.
    let mut prev_partials = prev.map(|p| p.partials).unwrap_or_default();
    let mut partials: Vec<ChunkPartial> = Vec::with_capacity(ranges.len());
    for (c, rebuilt_part) in rebuilt.into_iter().enumerate() {
        match rebuilt_part {
            Some(part) => {
                stats.rsmt_hits += part.rsmt_hits;
                stats.rsmt_misses += part.rsmt_misses;
                partials.push(part);
            }
            None => {
                // Clean chunk: move the cached partial in (prev_partials is
                // indexed identically because chunk_ranges is a pure
                // function of num_nets, which compatible() pinned via
                // num_pins + the netlist being immutable per design).
                partials.push(std::mem::replace(
                    &mut prev_partials[c],
                    ChunkPartial {
                        h: Grid::new(template.region(), 1, 1),
                        v: Grid::new(template.region(), 1, 1),
                        segs: Vec::new(),
                        net_ends: Vec::new(),
                        rsmt_hits: 0,
                        rsmt_misses: 0,
                    },
                ));
            }
        }
    }

    let mut h_dmd: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
    let mut v_dmd: Grid<f64> = Grid::new(template.region(), template.nx(), template.ny());
    let mut segments = Vec::new();
    for part in &partials {
        puffer_par::merge_add(h_dmd.as_mut_slice(), part.h.as_slice());
        puffer_par::merge_add(v_dmd.as_mut_slice(), part.v.as_slice());
        segments.extend_from_slice(&part.segs);
    }
    demand::add_pin_penalty(&mut h_dmd, &mut v_dmd, netlist, placement, pin_penalty);

    *state = Some(IncrementalState {
        nx: template.nx(),
        ny: template.ny(),
        num_pins: pin_cells.len(),
        num_nets,
        pin_cells,
        partials,
        caches,
    });

    Ok(((h_dmd, v_dmd, segments), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_equals_miss_bitwise() {
        let mut cache = RsmtCache::new(16);
        let offsets = vec![(0u32, 0u32), (3, 1), (5, 4)];
        let (first, hit1) = cache.get_or_build(&offsets);
        let (second, hit2) = cache.get_or_build(&offsets);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        assert_eq!(first, demand::decompose_offsets(&offsets));
    }

    #[test]
    fn cache_rotation_bounds_size() {
        let mut cache = RsmtCache::new(16);
        for i in 0..200u32 {
            cache.get_or_build(&[(0, 0), (i + 1, 1)]);
        }
        assert!(cache.len() <= 32, "len {}", cache.len());
    }

    #[test]
    fn cold_hits_promote_back_to_hot() {
        let mut cache = RsmtCache::new(16);
        let keeper = vec![(0u32, 0u32), (7, 7)];
        cache.get_or_build(&keeper);
        // Overflow hot so the keeper rotates to cold, then hit it again.
        for i in 0..16u32 {
            cache.get_or_build(&[(0, 0), (i + 10, 1)]);
        }
        let (_, hit) = cache.get_or_build(&keeper);
        assert!(hit, "cold entry should still hit");
        let (hits, misses) = cache.take_counters();
        assert_eq!(hits, 1);
        assert_eq!(misses, 17);
    }

    #[test]
    fn zero_extent_fingerprint_has_no_segments() {
        let mut cache = RsmtCache::new(16);
        let (recs, _) = cache.get_or_build(&[(0, 0)]);
        assert!(recs.is_empty());
    }
}
