//! Multi-core cluster occupancy for online admission.
//!
//! A serving deployment runs several NPU cores, each with its own Fig. 11
//! context table. [`ClusterState`] is the admission controller's view of
//! that hardware: how many tenants occupy each core's slots, and which
//! behavior class (an opaque label — in practice the collocation layer's
//! K-Means cluster id) each resident belongs to. The NPU layer knows
//! nothing about models or clustering pipelines; it only book-keeps slots
//! and class tags so a higher layer can score candidate placements.

use v10_sim::{V10Error, V10Result};

use crate::topology::FleetTopology;

/// Occupancy of one NPU core: resident tenant class tags bounded by the
/// core's context-table capacity, plus a health flag — a permanently
/// faulted core keeps its slots retired until the cluster is rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreOccupancy {
    residents: Vec<usize>,
    capacity: usize,
    failed: bool,
}

/// The admission controller's view of a multi-core NPU cluster.
///
/// # Example
///
/// ```
/// use v10_npu::ClusterState;
///
/// let mut cluster = ClusterState::new(2, 8).expect("non-degenerate cluster");
/// cluster.admit(0, 3).expect("core 0 has free slots");
/// assert_eq!(cluster.residents(0).expect("core 0 exists"), &[3]);
/// assert_eq!(cluster.free_slots(1).expect("core 1 exists"), 8);
/// cluster.release(0, 3).expect("a class-3 tenant is resident");
/// assert!(cluster.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    cores: Vec<CoreOccupancy>,
    topology: FleetTopology,
}

impl ClusterState {
    /// A cluster of `cores` empty cores, each with `slots_per_core`
    /// context-table slots, on the flat zero-hop compatibility topology
    /// ([`FleetTopology::flat`]) — the historical constructor, bit-identical
    /// in behavior to the pre-topology flat cluster.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `cores` or `slots_per_core`
    /// is zero.
    pub fn new(cores: usize, slots_per_core: usize) -> V10Result<Self> {
        if cores == 0 {
            return Err(V10Error::invalid(
                "ClusterState::new",
                "a cluster needs at least one core",
            ));
        }
        Self::with_topology(FleetTopology::flat(cores)?, slots_per_core)
    }

    /// A cluster whose cores sit on `topology` (one occupancy record per
    /// topology core), each with `slots_per_core` context-table slots.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `slots_per_core` is zero.
    pub fn with_topology(topology: FleetTopology, slots_per_core: usize) -> V10Result<Self> {
        if slots_per_core == 0 {
            return Err(V10Error::invalid(
                "ClusterState::with_topology",
                "each core needs at least one context-table slot",
            ));
        }
        Ok(ClusterState {
            cores: vec![
                CoreOccupancy {
                    residents: Vec::new(),
                    capacity: slots_per_core,
                    failed: false,
                };
                topology.cores()
            ],
            topology,
        })
    }

    /// The interconnect/HBM-affinity topology the cores sit on. The flat
    /// compatibility view for clusters built with [`ClusterState::new`].
    #[must_use]
    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// Mutable access to the topology, for the fleet fault path to mark
    /// links degraded, partitioned, or restored. Occupancy bookkeeping
    /// never goes through here — only link-health state changes.
    #[must_use]
    pub fn topology_mut(&mut self) -> &mut FleetTopology {
        &mut self.topology
    }

    /// Number of cores in the cluster.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Context-table capacity of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range.
    pub fn capacity(&self, core: usize) -> V10Result<usize> {
        Ok(self.core(core, "ClusterState::capacity")?.capacity)
    }

    /// The class tags of the tenants resident on `core`, in admission order.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range.
    pub fn residents(&self, core: usize) -> V10Result<&[usize]> {
        Ok(&self.core(core, "ClusterState::residents")?.residents)
    }

    /// Free context-table slots on `core`. A failed core reports zero: its
    /// slots are permanently retired, so placement scoring skips it with no
    /// special casing.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range.
    pub fn free_slots(&self, core: usize) -> V10Result<usize> {
        let c = self.core(core, "ClusterState::free_slots")?;
        if c.failed {
            return Ok(0);
        }
        Ok(c.capacity - c.residents.len())
    }

    /// Whether `core` has been retired by a permanent fault.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range.
    pub fn is_failed(&self, core: usize) -> V10Result<bool> {
        Ok(self.core(core, "ClusterState::is_failed")?.failed)
    }

    /// Indices of the cores retired by permanent faults, ascending.
    #[must_use]
    pub fn failed_cores(&self) -> Vec<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.failed.then_some(i))
            .collect()
    }

    /// Retires `core` after a permanent fault: every resident is evicted
    /// and the core's slots are withdrawn from the cluster. Returns the
    /// evicted residents' class tags in admission order, so the caller can
    /// re-place them elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range or
    /// already failed — retiring the same core twice indicates a
    /// double-counted fault upstream.
    pub fn fail(&mut self, core: usize) -> V10Result<Vec<usize>> {
        if self.core(core, "ClusterState::fail")?.failed {
            return Err(V10Error::invalid(
                "ClusterState::fail",
                format!("core {core} already failed"),
            ));
        }
        let c = &mut self.cores[core];
        c.failed = true;
        Ok(std::mem::take(&mut c.residents))
    }

    /// Total residents across all cores.
    #[must_use]
    pub fn total_residents(&self) -> usize {
        self.cores.iter().map(|c| c.residents.len()).sum()
    }

    /// True when no tenant is resident anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_residents() == 0
    }

    /// Admits a tenant of behavior class `class` onto `core`, consuming one
    /// slot.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range, has
    /// failed, or has no free context-table slot.
    pub fn admit(&mut self, core: usize, class: usize) -> V10Result<()> {
        if self.core(core, "ClusterState::admit")?.failed {
            return Err(V10Error::invalid(
                "ClusterState::admit",
                format!("core {core} has failed and cannot host tenants"),
            ));
        }
        let slot = {
            let c = self.core(core, "ClusterState::admit")?;
            c.residents.len() < c.capacity
        };
        if !slot {
            return Err(V10Error::invalid(
                "ClusterState::admit",
                format!("core {core} has no free context-table slot"),
            ));
        }
        self.cores[core].residents.push(class);
        Ok(())
    }

    /// Releases one resident of class `class` from `core` (the earliest
    /// admitted one), freeing its slot.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range or no
    /// resident of that class is on the core.
    pub fn release(&mut self, core: usize, class: usize) -> V10Result<()> {
        let pos = self
            .core(core, "ClusterState::release")?
            .residents
            .iter()
            .position(|&c| c == class);
        match pos {
            Some(i) => {
                self.cores[core].residents.remove(i);
                Ok(())
            }
            None => Err(V10Error::invalid(
                "ClusterState::release",
                format!("no class-{class} tenant resident on core {core}"),
            )),
        }
    }

    fn core(&self, core: usize, context: &'static str) -> V10Result<&CoreOccupancy> {
        self.cores.get(core).ok_or_else(|| {
            V10Error::invalid(
                context,
                format!(
                    "core {core} out of range for a {}-core cluster",
                    self.cores.len()
                ),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_clusters_rejected() {
        assert!(ClusterState::new(0, 8)
            .unwrap_err()
            .to_string()
            .contains("at least one core"));
        assert!(ClusterState::new(2, 0)
            .unwrap_err()
            .to_string()
            .contains("at least one context-table slot"));
    }

    #[test]
    fn admit_release_roundtrip() {
        let mut cluster = ClusterState::new(2, 2).unwrap();
        cluster.admit(0, 7).unwrap();
        cluster.admit(0, 9).unwrap();
        cluster.admit(1, 7).unwrap();
        assert_eq!(cluster.total_residents(), 3);
        assert_eq!(cluster.residents(0).unwrap(), &[7, 9]);
        assert_eq!(cluster.free_slots(0).unwrap(), 0);
        assert_eq!(cluster.free_slots(1).unwrap(), 1);
        cluster.release(0, 7).unwrap();
        assert_eq!(cluster.residents(0).unwrap(), &[9]);
        cluster.release(0, 9).unwrap();
        cluster.release(1, 7).unwrap();
        assert!(cluster.is_empty());
    }

    #[test]
    fn full_core_rejects_admission() {
        let mut cluster = ClusterState::new(1, 1).unwrap();
        cluster.admit(0, 0).unwrap();
        let err = cluster.admit(0, 1).unwrap_err();
        assert!(
            err.to_string().contains("no free context-table slot"),
            "{err}"
        );
        // The failed admit left the state untouched.
        assert_eq!(cluster.residents(0).unwrap(), &[0]);
    }

    #[test]
    fn out_of_range_core_rejected_everywhere() {
        let mut cluster = ClusterState::new(2, 2).unwrap();
        assert!(cluster.capacity(2).is_err());
        assert!(cluster.residents(2).is_err());
        assert!(cluster.free_slots(2).is_err());
        assert!(cluster.admit(2, 0).is_err());
        assert!(cluster.release(2, 0).is_err());
    }

    #[test]
    fn release_of_absent_class_rejected() {
        let mut cluster = ClusterState::new(1, 4).unwrap();
        cluster.admit(0, 3).unwrap();
        let err = cluster.release(0, 4).unwrap_err();
        assert!(err.to_string().contains("no class-4 tenant"), "{err}");
    }

    #[test]
    fn failed_core_retires_slots_and_evicts_residents() {
        let mut cluster = ClusterState::new(2, 4).unwrap();
        cluster.admit(0, 3).unwrap();
        cluster.admit(0, 5).unwrap();
        cluster.admit(1, 7).unwrap();
        let evicted = cluster.fail(0).unwrap();
        assert_eq!(evicted, vec![3, 5]);
        assert!(cluster.is_failed(0).unwrap());
        assert!(!cluster.is_failed(1).unwrap());
        assert_eq!(cluster.failed_cores(), vec![0]);
        // The failed core offers no capacity and rejects admissions.
        assert_eq!(cluster.free_slots(0).unwrap(), 0);
        let err = cluster.admit(0, 1).unwrap_err();
        assert!(err.to_string().contains("has failed"), "{err}");
        // The healthy core is untouched.
        assert_eq!(cluster.free_slots(1).unwrap(), 3);
        assert_eq!(cluster.total_residents(), 1);
        // Double-fail is a bug upstream.
        let err = cluster.fail(0).unwrap_err();
        assert!(err.to_string().contains("already failed"), "{err}");
        assert!(cluster.fail(2).is_err(), "out of range");
    }

    #[test]
    fn topology_rides_along_with_occupancy() {
        use crate::topology::FleetTopology;
        let flat = ClusterState::new(4, 2).unwrap();
        assert!(flat.topology().is_flat());
        assert_eq!(flat.topology().cores(), 4);

        let topo = FleetTopology::mesh(2, 2, 2, 64.0).unwrap();
        let mut cluster = ClusterState::with_topology(topo, 2).unwrap();
        assert_eq!(cluster.cores(), 4);
        assert!(!cluster.topology().is_flat());
        cluster.admit(3, 1).unwrap();
        assert_eq!(cluster.residents(3).unwrap(), &[1]);
        assert!(ClusterState::with_topology(FleetTopology::flat(2).unwrap(), 0).is_err());
    }

    #[test]
    fn release_removes_earliest_of_duplicate_classes() {
        let mut cluster = ClusterState::new(1, 4).unwrap();
        cluster.admit(0, 5).unwrap();
        cluster.admit(0, 2).unwrap();
        cluster.admit(0, 5).unwrap();
        cluster.release(0, 5).unwrap();
        assert_eq!(cluster.residents(0).unwrap(), &[2, 5]);
    }
}
