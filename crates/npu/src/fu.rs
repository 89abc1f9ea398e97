//! The functional-unit pool of one NPU core.
//!
//! A core holds `fu_count` systolic arrays and `fu_count` vector units
//! (Fig. 2 shows one of each; the scalability study of Fig. 25 scales both
//! together). [`FuId`] identifies a unit — it is the "FU ID" field of the
//! workload context table (Fig. 11).

use std::fmt;

use v10_isa::FuKind;
use v10_sim::{V10Error, V10Result};

/// Identifier of one functional unit within a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuId(usize);

impl FuId {
    /// The raw pool index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FU{}", self.0)
    }
}

/// The set of functional units in a core: SAs first, then VUs.
///
/// # Example
///
/// ```
/// use v10_isa::FuKind;
/// use v10_npu::FuPool;
///
/// let pool = FuPool::new(2).expect("non-empty pool"); // (2 SAs, 2 VUs) — a Fig. 25 point
/// assert_eq!(pool.len(), 4);
/// assert_eq!(pool.count(FuKind::Sa), 2);
/// let sa0 = pool.iter().next().unwrap();
/// assert_eq!(pool.kind(sa0), FuKind::Sa);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuPool {
    per_kind: usize,
}

impl FuPool {
    /// Creates a pool of `per_kind` SAs and `per_kind` VUs.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `per_kind` is zero.
    pub fn new(per_kind: usize) -> V10Result<Self> {
        if per_kind == 0 {
            return Err(V10Error::invalid(
                "FuPool::new",
                "need at least one SA/VU pair",
            ));
        }
        Ok(FuPool { per_kind })
    }

    /// Total number of functional units.
    #[must_use]
    pub fn len(&self) -> usize {
        2 * self.per_kind
    }

    /// A pool is never empty (construction requires ≥ 1 pair), so this is
    /// always `false`; provided for API completeness alongside `len`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of units of one kind.
    #[must_use]
    pub fn count(&self, kind: FuKind) -> usize {
        let _ = kind;
        self.per_kind
    }

    /// The kind of unit `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this pool.
    #[must_use]
    pub fn kind(&self, id: FuId) -> FuKind {
        assert!(
            id.0 < self.len(),
            "{id} out of range for pool of {}",
            self.len()
        );
        if id.0 < self.per_kind {
            FuKind::Sa
        } else {
            FuKind::Vu
        }
    }

    /// Iterates over every unit id.
    pub fn iter(&self) -> impl Iterator<Item = FuId> {
        (0..self.len()).map(FuId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_layout_sas_then_vus() {
        let p = FuPool::new(3).unwrap();
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        let kinds: Vec<FuKind> = p.iter().map(|id| p.kind(id)).collect();
        assert_eq!(kinds, [[FuKind::Sa; 3], [FuKind::Vu; 3]].concat());
    }

    #[test]
    fn iter_covers_all_units_once() {
        let p = FuPool::new(2).unwrap();
        let ids: Vec<usize> = p.iter().map(FuId::index).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(p.count(FuKind::Sa), 2);
        assert_eq!(p.count(FuKind::Vu), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FuId(3).to_string(), "FU3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kind_of_foreign_id_panics() {
        let p = FuPool::new(1).unwrap();
        let big = FuPool::new(4).unwrap().iter().last().unwrap();
        let _ = p.kind(big);
    }

    #[test]
    fn empty_pool_rejected() {
        let err = FuPool::new(0).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
    }
}
