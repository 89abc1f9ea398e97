//! Fleet interconnect topology and HBM-affinity model.
//!
//! A production deployment is not a flat bag of cores: cores sit on an
//! on-package interconnect (a 2-D mesh), and each core has an
//! *HBM-affinity group* — the set of cores adjacent to one HBM stack's
//! memory controllers. A tenant whose weights are resident in group `g`'s
//! stack pays `hop × per-link serialization` for every weight fetch issued
//! from a core outside `g`, so placement quality depends on interconnect
//! distance, not just context-table occupancy (see "Topology-Aware
//! Virtualization over Inter-Core Connected NPUs" in PAPERS.md).
//!
//! [`FleetTopology`] captures exactly the geometry the serving plane
//! needs: core count, interconnect kind, per-link bandwidth, a
//! precomputed core × group hop-cost table, and the affinity group of
//! each core. [`FleetTopology::flat`] is the compatibility view — one
//! group, zero hops everywhere — under which every topology-aware code
//! path degenerates bit-for-bit to the historical flat-cluster behavior.
//!
//! Geometry conventions:
//!
//! * **Mesh** — `width × height` grid, core `id` at column `id % width`,
//!   row `id / width`. HBM stacks sit along vertical column bands (one
//!   band per group, balanced widths, leftmost bands one column wider
//!   when `width % groups != 0`); the hop cost to a group is the
//!   horizontal (X-dimension-routed) distance to the band's nearest
//!   column — zero inside the band.

use v10_sim::{V10Error, V10Result};

/// The interconnect wiring of a [`FleetTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interconnect {
    /// No modeled interconnect: every core is zero hops from every HBM
    /// group. The compatibility view of the pre-topology flat cluster.
    Flat,
    /// A 2-D mesh of `width × height` cores with X-dimension routing to
    /// the HBM column bands.
    Mesh {
        /// Columns in the grid.
        width: usize,
        /// Rows in the grid.
        height: usize,
    },
}

/// Interconnect geometry, per-link bandwidth, and HBM-affinity grouping
/// of a serving fleet.
///
/// # Example
///
/// ```
/// use v10_npu::FleetTopology;
///
/// // A 4×2 mesh with two HBM groups: columns {0,1} and {2,3}.
/// let topo = FleetTopology::mesh(4, 2, 2, 64.0).expect("valid mesh");
/// assert_eq!(topo.cores(), 8);
/// assert_eq!(topo.groups(), 2);
/// assert_eq!(topo.hop_cost(0, 0).expect("in range"), 0); // inside its band
/// assert_eq!(topo.hop_cost(0, 1).expect("in range"), 2); // column 0 → column 2
/// assert_eq!(topo.group_of(3).expect("in range"), 1);
/// // Moving b bytes over h hops serializes on each traversed link.
/// assert_eq!(topo.transfer_cycles(128.0, 2), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTopology {
    cores: usize,
    interconnect: Interconnect,
    link_bytes_per_cycle: f64,
    groups: usize,
    group_of: Vec<usize>,
    hop_table: Vec<u32>,
    /// Per-group uplink health: a transfer-cycle multiplier (1.0 nominal,
    /// above 1 degraded, `f64::INFINITY` partitioned). Mutated only by the
    /// fleet fault path; every constructor starts all links nominal, so
    /// topologies compare equal across construction sites.
    link_factors: Vec<f64>,
}

/// Balanced contiguous partition: the first `len % parts` parts get one
/// extra element. Returns the half-open range of part `part`.
fn band_range(len: usize, parts: usize, part: usize) -> (usize, usize) {
    let base = len / parts;
    let extra = len % parts;
    let big = base + 1;
    if part < extra {
        (part * big, part * big + big)
    } else {
        let start = extra * big + (part - extra) * base;
        (start, start + base)
    }
}

/// Distance from `x` to the nearest point of `[lo, hi)` on a line.
fn line_distance(x: usize, lo: usize, hi: usize) -> usize {
    if x < lo {
        lo - x
    } else if x >= hi {
        x - (hi - 1)
    } else {
        0
    }
}

impl FleetTopology {
    /// The compatibility view: `cores` cores, one HBM group, zero hops
    /// everywhere. Topology-aware scoring under this view is bit-identical
    /// to topology-blind scoring.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `cores` is zero.
    pub fn flat(cores: usize) -> V10Result<Self> {
        if cores == 0 {
            return Err(V10Error::invalid(
                "FleetTopology::flat",
                "a fleet needs at least one core",
            ));
        }
        Ok(FleetTopology {
            cores,
            interconnect: Interconnect::Flat,
            link_bytes_per_cycle: f64::INFINITY,
            groups: 1,
            group_of: vec![0; cores],
            hop_table: vec![0; cores],
            link_factors: vec![1.0],
        })
    }

    /// A `width × height` mesh with `groups` HBM column bands and
    /// `link_bytes_per_cycle` of per-link bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if either dimension is zero,
    /// `groups` is zero or exceeds `width` (every band needs a column), or
    /// the link bandwidth is not positive and finite.
    pub fn mesh(
        width: usize,
        height: usize,
        groups: usize,
        link_bytes_per_cycle: f64,
    ) -> V10Result<Self> {
        if width == 0 || height == 0 {
            return Err(V10Error::invalid(
                "FleetTopology::mesh",
                format!("mesh dimensions must be positive, got {width}x{height}"),
            ));
        }
        Self::validate_groups_and_link("FleetTopology::mesh", groups, width, link_bytes_per_cycle)?;
        let cores = width * height;
        let mut group_of = Vec::with_capacity(cores);
        let mut hop_table = Vec::with_capacity(cores * groups);
        for id in 0..cores {
            let col = id % width;
            let mut home = 0;
            for g in 0..groups {
                let (lo, hi) = band_range(width, groups, g);
                if col >= lo && col < hi {
                    home = g;
                }
                hop_table.push(Self::hops_u32(line_distance(col, lo, hi))?);
            }
            group_of.push(home);
        }
        Ok(FleetTopology {
            cores,
            interconnect: Interconnect::Mesh { width, height },
            link_bytes_per_cycle,
            groups,
            group_of,
            hop_table,
            link_factors: vec![1.0; groups],
        })
    }

    fn validate_groups_and_link(
        context: &'static str,
        groups: usize,
        span: usize,
        link_bytes_per_cycle: f64,
    ) -> V10Result<()> {
        if groups == 0 {
            return Err(V10Error::invalid(context, "need at least one HBM group"));
        }
        if groups > span {
            return Err(V10Error::invalid(
                context,
                format!("{groups} HBM groups cannot partition a span of {span}"),
            ));
        }
        if !(link_bytes_per_cycle.is_finite() && link_bytes_per_cycle > 0.0) {
            return Err(V10Error::invalid(
                context,
                format!("link bandwidth must be positive and finite, got {link_bytes_per_cycle}"),
            ));
        }
        Ok(())
    }

    fn hops_u32(hops: usize) -> V10Result<u32> {
        u32::try_from(hops).map_err(|_| {
            V10Error::invalid("FleetTopology", format!("hop count {hops} overflows u32"))
        })
    }

    /// Number of cores in the fleet.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The interconnect wiring.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// Number of HBM-affinity groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Per-link bandwidth in bytes per cycle. Infinite for the flat view,
    /// where no link is ever traversed.
    #[must_use]
    pub fn link_bytes_per_cycle(&self) -> f64 {
        self.link_bytes_per_cycle
    }

    /// The HBM-affinity group whose stack is nearest `core` (its weight
    /// home when the tenant's weights are loaded locally).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` is out of range.
    pub fn group_of(&self, core: usize) -> V10Result<usize> {
        self.group_of.get(core).copied().ok_or_else(|| {
            V10Error::invalid(
                "FleetTopology::group_of",
                format!("core {core} out of range for a {}-core fleet", self.cores),
            )
        })
    }

    /// Interconnect hops from `core` to HBM group `group` (zero inside
    /// the group's band).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `core` or `group` is out
    /// of range.
    pub fn hop_cost(&self, core: usize, group: usize) -> V10Result<u32> {
        if core >= self.cores {
            return Err(V10Error::invalid(
                "FleetTopology::hop_cost",
                format!("core {core} out of range for a {}-core fleet", self.cores),
            ));
        }
        if group >= self.groups {
            return Err(V10Error::invalid(
                "FleetTopology::hop_cost",
                format!("group {group} out of range for {} HBM groups", self.groups),
            ));
        }
        self.hop_table
            .get(core * self.groups + group)
            .copied()
            .ok_or_else(|| V10Error::invalid("FleetTopology::hop_cost", "hop table truncated"))
    }

    /// Cycles to move `bytes` across `hops` links, serializing on each
    /// traversed link (store-and-forward, zero for affinity-local
    /// traffic). This is the *incremental* cost over a local HBM access;
    /// the local access itself is already in the core performance model.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: f64, hops: u32) -> f64 {
        if hops == 0 {
            return 0.0;
        }
        f64::from(hops) * (bytes / self.link_bytes_per_cycle)
    }

    /// The current transfer-cycle multiplier of `group`'s uplink: 1.0
    /// nominal, > 1 degraded, `f64::INFINITY` partitioned.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `group` is out of range.
    pub fn link_factor(&self, group: usize) -> V10Result<f64> {
        let factor = self.link_factors.get(group).copied();
        factor.ok_or_else(|| no_link(group, self.groups))
    }

    /// Mutable access to `group`'s link factor, range-checked as
    /// [`link_factor`](Self::link_factor).
    fn link_factor_mut(&mut self, group: usize) -> V10Result<&mut f64> {
        let groups = self.groups;
        let factor = self.link_factors.get_mut(group);
        factor.ok_or_else(|| no_link(group, groups))
    }

    /// Whether `group`'s uplink is fully partitioned (no transfer through
    /// it completes until it is restored).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `group` is out of range.
    pub fn is_link_partitioned(&self, group: usize) -> V10Result<bool> {
        Ok(self.link_factor(group)?.is_infinite())
    }

    /// Degrades `group`'s uplink: transfers through it cost `factor ×`
    /// their nominal cycles until [`restore_link`](Self::restore_link).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `group` is out of range or
    /// `factor` is not finite and ≥ 1.
    pub fn degrade_link(&mut self, group: usize, factor: f64) -> V10Result<()> {
        if !factor.is_finite() || factor < 1.0 {
            return Err(V10Error::invalid(
                "FleetTopology::degrade_link",
                format!("degrade factor must be finite and >= 1, got {factor}"),
            ));
        }
        *self.link_factor_mut(group)? = factor;
        Ok(())
    }

    /// Partitions `group`'s uplink entirely: transfers through it never
    /// complete until [`restore_link`](Self::restore_link).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `group` is out of range.
    pub fn partition_link(&mut self, group: usize) -> V10Result<()> {
        *self.link_factor_mut(group)? = f64::INFINITY;
        Ok(())
    }

    /// Restores `group`'s uplink to nominal latency, clearing any degrade
    /// or partition.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `group` is out of range.
    pub fn restore_link(&mut self, group: usize) -> V10Result<()> {
        *self.link_factor_mut(group)? = 1.0;
        Ok(())
    }

    /// [`transfer_cycles`](Self::transfer_cycles) scaled by the current
    /// link factor of the group whose uplink the transfer traverses —
    /// infinite while the link is partitioned (the transfer cannot
    /// complete), identical to the nominal cost while the link is healthy.
    /// Zero-hop (affinity-local) transfers never touch the uplink and stay
    /// free regardless of link health.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `group` is out of range.
    pub fn faulted_transfer_cycles(&self, bytes: f64, hops: u32, group: usize) -> V10Result<f64> {
        let factor = self.link_factor(group)?;
        if hops == 0 {
            return Ok(0.0);
        }
        Ok(self.transfer_cycles(bytes, hops) * factor)
    }
}

fn no_link(group: usize, groups: usize) -> V10Error {
    V10Error::invalid(
        "FleetTopology::link_factor",
        format!("group {group} out of range for {groups} HBM groups"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_view_is_zero_hop_single_group() {
        let t = FleetTopology::flat(16).unwrap();
        assert_eq!(t.cores(), 16);
        assert_eq!(t.groups(), 1);
        assert_eq!(t.interconnect(), Interconnect::Flat);
        for core in 0..16 {
            assert_eq!(t.group_of(core).unwrap(), 0);
            assert_eq!(t.hop_cost(core, 0).unwrap(), 0);
        }
        assert_eq!(t.transfer_cycles(1.0e9, 0), 0.0);
        assert!(FleetTopology::flat(0).is_err());
    }

    #[test]
    fn mesh_hop_costs_are_column_band_distances() {
        // 8 columns, 4 rows, 4 groups of 2 columns each.
        let t = FleetTopology::mesh(8, 4, 4, 64.0).unwrap();
        assert_eq!(t.cores(), 32);
        assert_eq!(
            t.interconnect(),
            Interconnect::Mesh {
                width: 8,
                height: 4
            }
        );
        // Core 0 is at column 0: inside group 0, 2 hops to group 1's
        // nearest column (2), 6 hops to group 3's nearest column (6).
        assert_eq!(t.hop_cost(0, 0).unwrap(), 0);
        assert_eq!(t.hop_cost(0, 1).unwrap(), 2);
        assert_eq!(t.hop_cost(0, 3).unwrap(), 6);
        // Row does not matter: core 24 is also at column 0.
        assert_eq!(t.hop_cost(24, 3).unwrap(), 6);
        // Core at column 7: inside group 3, 4 hops back to group 1's far
        // edge (column 3).
        assert_eq!(t.hop_cost(7, 3).unwrap(), 0);
        assert_eq!(t.hop_cost(7, 1).unwrap(), 4);
        assert_eq!(t.group_of(7).unwrap(), 3);
        // The bands tile the grid: every core is zero hops from its home.
        for core in 0..32 {
            assert_eq!(t.hop_cost(core, t.group_of(core).unwrap()).unwrap(), 0);
        }
    }

    #[test]
    fn mesh_uneven_bands_put_extra_columns_first() {
        // 5 columns into 2 groups: band 0 = {0,1,2}, band 1 = {3,4}.
        let t = FleetTopology::mesh(5, 1, 2, 32.0).unwrap();
        assert_eq!(t.group_of(2).unwrap(), 0);
        assert_eq!(t.group_of(3).unwrap(), 1);
        assert_eq!(t.hop_cost(2, 1).unwrap(), 1);
        assert_eq!(t.hop_cost(4, 0).unwrap(), 2);
    }

    #[test]
    fn transfer_cycles_serialize_per_hop() {
        let t = FleetTopology::mesh(4, 1, 2, 64.0).unwrap();
        assert_eq!(t.transfer_cycles(128.0, 1), 2.0);
        assert_eq!(t.transfer_cycles(128.0, 3), 6.0);
        assert_eq!(t.transfer_cycles(128.0, 0), 0.0);
    }

    #[test]
    fn degenerate_geometries_rejected() {
        assert!(FleetTopology::mesh(0, 4, 1, 64.0).is_err());
        assert!(FleetTopology::mesh(4, 0, 1, 64.0).is_err());
        assert!(FleetTopology::mesh(4, 4, 0, 64.0).is_err());
        assert!(
            FleetTopology::mesh(4, 4, 5, 64.0).is_err(),
            "groups > width"
        );
        assert!(FleetTopology::mesh(4, 4, 2, 0.0).is_err());
        assert!(FleetTopology::mesh(4, 4, 2, f64::NAN).is_err());
        assert!(FleetTopology::mesh(4, 4, 2, f64::INFINITY).is_err());
    }

    #[test]
    fn link_health_scales_transfers_and_round_trips() {
        let mut t = FleetTopology::mesh(4, 1, 2, 64.0).unwrap();
        let nominal = FleetTopology::mesh(4, 1, 2, 64.0).unwrap();
        assert_eq!(t, nominal, "fresh topologies start with healthy links");
        assert_eq!(t.link_factor(0).unwrap(), 1.0);
        assert_eq!(t.faulted_transfer_cycles(128.0, 1, 0).unwrap(), 2.0);

        t.degrade_link(0, 4.0).unwrap();
        assert_eq!(t.link_factor(0).unwrap(), 4.0);
        assert_eq!(t.faulted_transfer_cycles(128.0, 1, 0).unwrap(), 8.0);
        assert_eq!(
            t.faulted_transfer_cycles(128.0, 1, 1).unwrap(),
            2.0,
            "other links unaffected"
        );
        assert_eq!(
            t.faulted_transfer_cycles(1.0e9, 0, 0).unwrap(),
            0.0,
            "local traffic never touches the uplink"
        );

        t.partition_link(1).unwrap();
        assert!(t.is_link_partitioned(1).unwrap());
        assert!(!t.is_link_partitioned(0).unwrap());
        assert!(t
            .faulted_transfer_cycles(128.0, 2, 1)
            .unwrap()
            .is_infinite());

        t.restore_link(0).unwrap();
        t.restore_link(1).unwrap();
        assert_eq!(t, nominal, "restored links compare equal to nominal");

        assert!(t.degrade_link(0, 0.5).is_err());
        assert!(t.degrade_link(0, f64::NAN).is_err());
        assert!(t.degrade_link(2, 2.0).is_err());
        assert!(t.partition_link(2).is_err());
        assert!(t.restore_link(2).is_err());
        assert!(t.link_factor(2).is_err());
        assert!(t.faulted_transfer_cycles(1.0, 1, 2).is_err());
    }

    #[test]
    fn out_of_range_lookups_rejected() {
        let t = FleetTopology::mesh(4, 2, 2, 64.0).unwrap();
        assert!(t.group_of(8).is_err());
        assert!(t.hop_cost(8, 0).is_err());
        assert!(t.hop_cost(0, 2).is_err());
    }
}
