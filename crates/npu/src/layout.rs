//! HBM address-space segmentation (§3.6 of the paper).
//!
//! "For HBM, V10 uses the conventional segmentation scheme to divide the
//! address space into several memory regions to host one workload per
//! region. The region size depends on the workload memory allocation (e.g.,
//! batch size and model size). Thus, V10 incurs negligible address
//! translation overhead." [`HbmLayout`] manages those regions: first-fit
//! allocation of contiguous segments and admission control (a workload
//! that does not fit is rejected rather than silently overcommitted).

use std::fmt;

/// Error type for HBM region management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbmLayoutError {
    /// No contiguous free segment of the requested size exists.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free segment available.
        largest_free: u64,
    },
    /// The region handle does not name a live region.
    BadRegion(RegionId),
    /// A zero-byte region was requested.
    EmptyRegion,
}

impl fmt::Display for HbmLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbmLayoutError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "no contiguous HBM segment of {requested} bytes (largest free: {largest_free})"
            ),
            HbmLayoutError::BadRegion(id) => write!(f, "region {id} is not allocated"),
            HbmLayoutError::EmptyRegion => write!(f, "cannot allocate an empty region"),
        }
    }
}

impl std::error::Error for HbmLayoutError {}

/// Handle to one workload's HBM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u64);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Region {
    id: RegionId,
    base: u64,
    size: u64,
}

/// The segmented HBM address space of one NPU core.
///
/// # Example
///
/// ```
/// use v10_npu::HbmLayout;
///
/// // Table 5: 32 GB of HBM per core.
/// let mut hbm = HbmLayout::new(32 << 30);
/// // A BERT instance: ~1.3 GB of weights + batch-32 activations.
/// let bert = hbm.allocate(2 << 30)?;
/// let _dlrm = hbm.allocate(8 << 30)?;
/// assert_eq!(hbm.largest_free_segment(), 22 << 30);
/// hbm.release(bert)?;
/// # Ok::<(), v10_npu::HbmLayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbmLayout {
    capacity: u64,
    regions: Vec<Region>, // sorted by base
    next_id: u64,
}

impl HbmLayout {
    /// Creates an empty layout over `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "HBM capacity must be positive");
        HbmLayout {
            capacity,
            regions: Vec::new(),
            next_id: 0,
        }
    }

    /// Bytes not covered by any region.
    #[cfg(test)]
    pub(crate) fn free_bytes(&self) -> u64 {
        self.capacity - self.regions.iter().map(|r| r.size).sum::<u64>()
    }

    /// The physical base address of a live region.
    #[cfg(test)]
    pub(crate) fn base(&self, id: RegionId) -> u64 {
        self.regions
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.base)
            .unwrap()
    }

    /// Largest contiguous free segment, in bytes.
    #[must_use]
    pub fn largest_free_segment(&self) -> u64 {
        let mut largest = 0u64;
        let mut cursor = 0u64;
        for r in &self.regions {
            largest = largest.max(r.base - cursor);
            cursor = r.base + r.size;
        }
        largest.max(self.capacity - cursor)
    }

    /// Allocates a contiguous region of `size` bytes (first fit) —
    /// admission control for a new tenant.
    ///
    /// # Errors
    ///
    /// [`HbmLayoutError::EmptyRegion`] for `size == 0`;
    /// [`HbmLayoutError::OutOfMemory`] when no gap fits (external
    /// fragmentation is visible through `largest_free`).
    pub fn allocate(&mut self, size: u64) -> Result<RegionId, HbmLayoutError> {
        if size == 0 {
            return Err(HbmLayoutError::EmptyRegion);
        }
        // Walk the gaps between sorted regions, first fit.
        let mut cursor = 0u64;
        let mut insert_at = self.regions.len();
        let mut base = None;
        for (i, r) in self.regions.iter().enumerate() {
            if r.base - cursor >= size {
                base = Some(cursor);
                insert_at = i;
                break;
            }
            cursor = r.base + r.size;
        }
        if base.is_none() && self.capacity - cursor >= size {
            base = Some(cursor);
        }
        let Some(base) = base else {
            return Err(HbmLayoutError::OutOfMemory {
                requested: size,
                largest_free: self.largest_free_segment(),
            });
        };
        let id = RegionId(self.next_id);
        self.next_id += 1;
        self.regions.insert(insert_at, Region { id, base, size });
        Ok(id)
    }

    /// Releases a region (the workload finished or migrated).
    ///
    /// # Errors
    ///
    /// [`HbmLayoutError::BadRegion`] for unknown or already-released ids.
    pub fn release(&mut self, id: RegionId) -> Result<(), HbmLayoutError> {
        let pos = self
            .regions
            .iter()
            .position(|r| r.id == id)
            .ok_or(HbmLayoutError::BadRegion(id))?;
        self.regions.remove(pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_disjoint_and_accounted() {
        let mut hbm = HbmLayout::new(1_000);
        let a = hbm.allocate(300).unwrap();
        let b = hbm.allocate(500).unwrap();
        assert_eq!(hbm.free_bytes(), 200);
        assert_eq!(hbm.regions.len(), 2);
        let pa = hbm.base(a);
        let pb = hbm.base(b);
        assert!(pa + 300 <= pb || pb + 500 <= pa, "regions overlap");
    }

    #[test]
    fn admission_control_rejects_oversubscription() {
        let mut hbm = HbmLayout::new(1_000);
        let _ = hbm.allocate(900).unwrap();
        let err = hbm.allocate(200).unwrap_err();
        assert_eq!(
            err,
            HbmLayoutError::OutOfMemory {
                requested: 200,
                largest_free: 100
            }
        );
        assert!(err.to_string().contains("largest free: 100"));
    }

    #[test]
    fn release_enables_reuse_first_fit() {
        let mut hbm = HbmLayout::new(1_000);
        let a = hbm.allocate(400).unwrap();
        let _b = hbm.allocate(400).unwrap();
        hbm.release(a).unwrap();
        // The freed leading gap is reused first.
        let c = hbm.allocate(300).unwrap();
        assert_eq!(hbm.base(c), 0);
        assert_eq!(hbm.release(a).unwrap_err(), HbmLayoutError::BadRegion(a));
    }

    #[test]
    fn fragmentation_is_visible() {
        let mut hbm = HbmLayout::new(1_000);
        let a = hbm.allocate(250).unwrap();
        let _b = hbm.allocate(250).unwrap();
        let c = hbm.allocate(250).unwrap();
        hbm.release(a).unwrap();
        hbm.release(c).unwrap();
        // 500 free but split 250 + 250: a 300-byte region cannot fit.
        assert_eq!(hbm.free_bytes(), 750);
        assert!(hbm.largest_free_segment() >= 250);
        assert!(hbm.allocate(400).is_ok(), "trailing gap is 500 bytes");
    }

    #[test]
    fn zero_size_rejected() {
        let mut hbm = HbmLayout::new(16);
        assert_eq!(hbm.allocate(0).unwrap_err(), HbmLayoutError::EmptyRegion);
    }

    #[test]
    fn table5_capacity_hosts_many_tenants() {
        let mut hbm = HbmLayout::new(32 << 30);
        for _ in 0..8 {
            hbm.allocate(4 << 30).unwrap();
        }
        assert_eq!(hbm.free_bytes(), 0);
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use v10_sim::SimRng;

    /// Under arbitrary allocate/release sequences: regions never
    /// overlap and accounting is exact.
    #[test]
    fn layout_invariants() {
        let mut rng = SimRng::seed_from(0x1A07);
        for _ in 0..60 {
            let n_ops = 1 + rng.index(60);
            let mut hbm = HbmLayout::new(1_000);
            let mut live: Vec<(RegionId, u64)> = Vec::new();
            for _ in 0..n_ops {
                let is_alloc = rng.next_u64() & 1 == 0;
                let size = rng.uniform_u64(1, 200);
                if is_alloc || live.is_empty() {
                    if let Ok(id) = hbm.allocate(size) {
                        live.push((id, size));
                    }
                } else {
                    let (id, _) = live.remove((size as usize) % live.len());
                    hbm.release(id).unwrap();
                }
                // Accounting.
                let used: u64 = live.iter().map(|&(_, s)| s).sum();
                assert_eq!(hbm.free_bytes(), 1_000 - used);
                // Disjointness of the live regions' extents.
                let mut spans: Vec<(u64, u64)> =
                    live.iter().map(|&(id, s)| (hbm.base(id), s)).collect();
                spans.sort();
                for w in spans.windows(2) {
                    assert!(w[0].0 + w[0].1 <= w[1].0, "regions overlap");
                }
            }
        }
    }
}
