//! The workload context table (Fig. 11 of the paper), as a slot allocator.
//!
//! The operator scheduler tracks one row per collocated workload. "Because
//! the operators within one workload execute sequentially, each row only
//! need to track the most recent operator of the workload": its id and FU
//! kind, a Ready bit (instruction DMA complete), an Active bit (issued to an
//! FU), the FU id, the workload's cumulative active cycles, its total
//! residence time, and its priority.
//!
//! The hardware provisions a fixed number of rows (Table 3 evaluates 2–8);
//! tenants are *admitted* into a free row on arrival and *retire* from it on
//! departure, so a long-running core serves an open-ended stream of tenants
//! through a bounded table. A [`WorkloadId`] names a slot *and* the
//! generation of its occupancy, so an id held past its tenant's departure
//! goes stale instead of silently aliasing the slot's next occupant.
//!
//! The table also computes the quantities Algorithm 1 schedules on:
//! `active_rate = active_time / total_time` and
//! `active_rate_p = active_rate / priority`. Both counters restart from
//! zero when a slot is reused — a new tenant starts with a clean fairness
//! history.

use std::fmt;

use v10_isa::FuKind;
use v10_npu::FuId;
use v10_sim::{V10Error, V10Result};

/// Identity of one tenancy in the context table: which slot it occupies and
/// which occupancy generation of that slot it is.
///
/// Ids are stable: they keep naming the same tenancy for its whole life, and
/// once the tenant retires every operation through the old id reports a
/// stale-id error rather than touching the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadId {
    slot: u32,
    gen: u32,
}

impl WorkloadId {
    /// Creates the id of `index`'s *first* occupancy — the id
    /// [`ContextTable::new`] hands out for closed-loop runs, where every
    /// workload is admitted once at cycle 0 and never retires.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        WorkloadId {
            slot: index as u32,
            gen: 0,
        }
    }

    /// The context-table slot (row index).
    #[must_use]
    pub const fn index(self) -> usize {
        self.slot as usize
    }

    /// The slot's occupancy generation this id belongs to (0 for the first
    /// tenant ever admitted into the slot).
    #[must_use]
    pub const fn generation(self) -> u32 {
        self.gen
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gen == 0 {
            write!(f, "W{}", self.slot)
        } else {
            write!(f, "W{}@{}", self.slot, self.gen)
        }
    }
}

/// One occupied row of the context table.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    gen: u32,
    op_id: u64,
    op_kind: Option<FuKind>,
    ready: bool,
    active: bool,
    fu: Option<FuId>,
    active_cycles: f64,
    arrival: f64,
    priority: f64,
}

/// The workload context table: a fixed-capacity slot allocator for tenant
/// rows.
///
/// # Example
///
/// ```
/// use v10_core::ContextTable;
/// use v10_isa::FuKind;
///
/// let mut table = ContextTable::with_capacity(2).expect("positive capacity");
/// let w0 = table.admit(1.0, 0.0).expect("free slot");
/// table.set_current_op(w0, 42, FuKind::Sa).expect("live id");
/// table.set_ready(w0, true).expect("live id");
/// assert!(table.is_ready(w0));
/// table.retire(w0).expect("live id");
/// // The id is stale now: the slot may be reused, but never under this id.
/// assert!(table.set_ready(w0, true).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContextTable {
    slots: Vec<Option<Row>>,
    /// Generation the next occupant of each slot will get.
    next_gen: Vec<u32>,
    live: usize,
    /// Algorithm 1's candidate sets, one per FU kind (indexed by
    /// [`kind_index`]): bit `s % 64` of word `s / 64` is set exactly while
    /// slot `s` holds a live row that is Ready, not Active, and whose
    /// current operator is of that kind — the set the hardware reads off
    /// the Ready/Active bits (Fig. 11). Every mutator that can change a
    /// slot's membership re-derives its bits through
    /// [`sync_candidate`](Self::sync_candidate).
    candidates: [Vec<u64>; 2],
}

/// Position of `kind`'s candidate set in [`ContextTable`].
const fn kind_index(kind: FuKind) -> usize {
    match kind {
        FuKind::Sa => 0,
        FuKind::Vu => 1,
    }
}

/// `active_rate_p` of one row at `now`: the float operations of
/// [`ContextTable::active_rate`] then [`ContextTable::active_rate_p`], in
/// the same order, so every caller computes it bit-identically.
fn row_arp(row: &Row, now: f64) -> f64 {
    let total = now - row.arrival;
    let rate = if total <= 0.0 {
        0.0
    } else {
        row.active_cycles / total
    };
    rate / row.priority
}

/// The slot indices of a candidate bitset, ascending.
struct Members<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Slot index of bit 0 of the word after `rest`'s.
    next_base: usize,
    /// The unvisited bits of the current word.
    rest: u64,
}

fn members(words: &[u64]) -> Members<'_> {
    Members {
        words: words.iter(),
        next_base: 0,
        rest: 0,
    }
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.rest = *self.words.next()?;
            self.next_base += 64;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(self.next_base - 64 + bit)
    }
}

fn stale(context: &'static str, id: WorkloadId) -> V10Error {
    V10Error::invalid(context, format!("stale or unknown workload id {id}"))
}

impl ContextTable {
    /// Creates an empty table with `capacity` hardware rows.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> V10Result<Self> {
        if capacity == 0 {
            return Err(V10Error::invalid(
                "ContextTable::with_capacity",
                "context table needs at least one slot",
            ));
        }
        let words = capacity.div_ceil(64);
        Ok(ContextTable {
            slots: vec![None; capacity],
            next_gen: vec![0; capacity],
            live: 0,
            candidates: [vec![0; words], vec![0; words]],
        })
    }

    /// Creates a table with one row per priority entry, every workload
    /// admitted at cycle 0 — the closed-loop construction, where the ids are
    /// exactly `WorkloadId::new(0..n)`.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `priorities` is empty or
    /// contains a non-positive or non-finite priority.
    pub fn new(priorities: &[f64]) -> V10Result<Self> {
        if priorities.is_empty() {
            return Err(V10Error::invalid(
                "ContextTable::new",
                "context table needs at least one workload",
            ));
        }
        let mut table = Self::with_capacity(priorities.len())?;
        for &p in priorities {
            table.admit(p, 0.0)?;
        }
        Ok(table)
    }

    /// Admits a tenant with the given `priority` arriving at cycle `now`
    /// into the lowest free slot. The row starts idle with zeroed
    /// active-rate accounting, so a reused slot carries nothing over from
    /// its previous occupant.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `priority` is not finite and
    /// positive, or if every slot is occupied.
    pub fn admit(&mut self, priority: f64, now: f64) -> V10Result<WorkloadId> {
        if !(priority.is_finite() && priority > 0.0) {
            return Err(V10Error::invalid(
                "ContextTable::admit",
                format!("priorities must be positive, got {priority}"),
            ));
        }
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            return Err(V10Error::invalid(
                "ContextTable::admit",
                format!(
                    "context table full: all {} slots occupied",
                    self.slots.len()
                ),
            ));
        };
        let gen = match self.next_gen.get_mut(slot) {
            Some(g) => {
                let gen = *g;
                *g += 1;
                gen
            }
            None => {
                return Err(V10Error::invalid(
                    "ContextTable::admit",
                    "generation table out of sync with slots",
                ))
            }
        };
        let entry = self
            .slots
            .get_mut(slot)
            .ok_or_else(|| V10Error::invalid("ContextTable::admit", "slot index out of range"))?;
        *entry = Some(Row {
            gen,
            op_id: 0,
            op_kind: None,
            ready: false,
            active: false,
            fu: None,
            active_cycles: 0.0,
            arrival: now,
            priority,
        });
        self.live += 1;
        // No candidate-set update: a free slot is in neither set (`retire`
        // cleared it) and the fresh row is not Ready.
        Ok(WorkloadId {
            slot: slot as u32,
            gen,
        })
    }

    /// Retires a tenant, freeing its slot for the next admission. The id —
    /// and any copy of it — is stale afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `id` is stale or unknown.
    pub fn retire(&mut self, id: WorkloadId) -> V10Result<()> {
        if self.row(id).is_none() {
            return Err(stale("ContextTable::retire", id));
        }
        if let Some(entry) = self.slots.get_mut(id.index()) {
            *entry = None;
        }
        self.live -= 1;
        self.sync_candidate(id.index());
        Ok(())
    }

    /// Number of live (admitted, not retired) workload rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no tenant currently occupies any slot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of hardware rows the table provisions.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when every hardware slot is occupied — the next
    /// [`admit`](Self::admit) will be rejected.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.live == self.slots.len()
    }

    /// Iterates over the ids of all live workloads, in slot order.
    pub fn ids(&self) -> impl Iterator<Item = WorkloadId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref().map(|row| WorkloadId {
                slot: i as u32,
                gen: row.gen,
            })
        })
    }

    /// The id of the tenant currently occupying `slot`, if any.
    #[must_use]
    pub fn id_at_slot(&self, slot: usize) -> Option<WorkloadId> {
        self.slots.get(slot)?.as_ref().map(|row| WorkloadId {
            slot: slot as u32,
            gen: row.gen,
        })
    }

    /// True while `id` names a live tenancy.
    #[must_use]
    pub fn contains(&self, id: WorkloadId) -> bool {
        self.row(id).is_some()
    }

    fn row(&self, id: WorkloadId) -> Option<&Row> {
        self.slots
            .get(id.index())?
            .as_ref()
            .filter(|row| row.gen == id.gen)
    }

    fn row_mut(&mut self, id: WorkloadId) -> Option<&mut Row> {
        self.slots
            .get_mut(id.index())?
            .as_mut()
            .filter(|row| row.gen == id.gen)
    }

    /// Re-derives slot `slot`'s membership in both candidate sets from its
    /// row. Every mutator of a row's liveness, Ready, Active or operator
    /// kind calls this after the change.
    #[inline]
    fn sync_candidate(&mut self, slot: usize) {
        let kind = self
            .slots
            .get(slot)
            .and_then(Option::as_ref)
            .filter(|row| row.ready && !row.active)
            .and_then(|row| row.op_kind);
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for k in FuKind::ALL {
            let set = self.candidates.get_mut(kind_index(k));
            if let Some(w) = set.and_then(|set| set.get_mut(word)) {
                if kind == Some(k) {
                    *w |= bit;
                } else {
                    *w &= !bit;
                }
            }
        }
    }

    /// Records that `id`'s most recent operator is `op_id` of kind `kind`
    /// (clears Ready and Active — the DMA for the new operator has not
    /// completed yet).
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `id` is stale or unknown.
    #[inline]
    pub fn set_current_op(&mut self, id: WorkloadId, op_id: u64, kind: FuKind) -> V10Result<()> {
        let row = self
            .row_mut(id)
            .ok_or_else(|| stale("ContextTable::set_current_op", id))?;
        row.op_id = op_id;
        row.op_kind = Some(kind);
        row.ready = false;
        row.active = false;
        row.fu = None;
        self.sync_candidate(id.index());
        Ok(())
    }

    /// Sets or clears the Ready bit.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `id` is stale or unknown.
    #[inline]
    pub fn set_ready(&mut self, id: WorkloadId, ready: bool) -> V10Result<()> {
        self.row_mut(id)
            .ok_or_else(|| stale("ContextTable::set_ready", id))?
            .ready = ready;
        self.sync_candidate(id.index());
        Ok(())
    }

    /// Marks the workload's operator as issued on `fu`: sets Active, zeroes
    /// Ready (§3.2: "the scheduler sets the Active bits and zeros out the
    /// Ready bits").
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `id` is stale or unknown.
    #[inline]
    pub fn mark_issued(&mut self, id: WorkloadId, fu: FuId) -> V10Result<()> {
        let row = self
            .row_mut(id)
            .ok_or_else(|| stale("ContextTable::mark_issued", id))?;
        debug_assert!(row.ready, "issuing a non-ready operator");
        row.ready = false;
        row.active = true;
        row.fu = Some(fu);
        self.sync_candidate(id.index());
        Ok(())
    }

    /// Marks the workload's operator as off the FU. If `back_to_ready`, the
    /// operator was preempted and can be re-issued immediately (its
    /// instructions are still resident); otherwise it completed.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `id` is stale or unknown.
    #[inline]
    pub fn mark_released(&mut self, id: WorkloadId, back_to_ready: bool) -> V10Result<()> {
        let row = self
            .row_mut(id)
            .ok_or_else(|| stale("ContextTable::mark_released", id))?;
        row.active = false;
        row.fu = None;
        row.ready = back_to_ready;
        self.sync_candidate(id.index());
        Ok(())
    }

    /// The most recent operator's id; 0 for a stale id.
    #[must_use]
    pub fn op_id(&self, id: WorkloadId) -> u64 {
        self.row(id).map_or(0, |row| row.op_id)
    }

    /// The most recent operator's FU kind, if one has been recorded;
    /// `None` for a stale id.
    #[must_use]
    pub fn op_kind(&self, id: WorkloadId) -> Option<FuKind> {
        self.row(id).and_then(|row| row.op_kind)
    }

    /// Ready bit: instructions DMA'd, operator can start (§3.2). A stale id
    /// is never ready.
    #[must_use]
    pub fn is_ready(&self, id: WorkloadId) -> bool {
        self.row(id).is_some_and(|row| row.ready)
    }

    /// Active bit: operator currently issued on an FU. A stale id is never
    /// active.
    #[must_use]
    pub fn is_active(&self, id: WorkloadId) -> bool {
        self.row(id).is_some_and(|row| row.active)
    }

    /// The FU the workload's operator occupies, if active; `None` for a
    /// stale id.
    #[must_use]
    pub fn fu(&self, id: WorkloadId) -> Option<FuId> {
        self.row(id).and_then(|row| row.fu)
    }

    /// The workload's configured priority; 0.0 for a stale id.
    #[must_use]
    pub fn priority(&self, id: WorkloadId) -> f64 {
        self.row(id).map_or(0.0, |row| row.priority)
    }

    /// Re-weights a live tenant's priority in place — the overload control
    /// plane's demotion/boost knob. The fairness counters are untouched:
    /// only the `active_rate_p` divisor changes, exactly as if the tenant
    /// had been admitted at the new weight.
    ///
    /// # Errors
    ///
    /// Returns [`V10Error::InvalidArgument`] if `priority` is not finite and
    /// positive, or if `id` is stale or unknown.
    pub fn set_priority(&mut self, id: WorkloadId, priority: f64) -> V10Result<()> {
        if !(priority.is_finite() && priority > 0.0) {
            return Err(V10Error::invalid(
                "ContextTable::set_priority",
                format!("priorities must be positive, got {priority}"),
            ));
        }
        self.row_mut(id)
            .ok_or_else(|| stale("ContextTable::set_priority", id))?
            .priority = priority;
        Ok(())
    }

    /// The cycle at which this tenancy was admitted; 0.0 for a stale id.
    #[must_use]
    pub fn arrival(&self, id: WorkloadId) -> f64 {
        self.row(id).map_or(0.0, |row| row.arrival)
    }

    /// Accumulates active execution time (called by the engine as simulated
    /// time advances with the workload's operator on an FU). A no-op for a
    /// stale id: this sits on the engine's hot per-step path, and a retired
    /// tenant has no accounting left to corrupt.
    #[inline]
    pub fn add_active_cycles(&mut self, id: WorkloadId, cycles: f64) {
        debug_assert!(cycles >= 0.0);
        if let Some(row) = self.row_mut(id) {
            row.active_cycles += cycles;
        }
    }

    /// `active_rate = active_time / total_time` — the workload's relative
    /// throughput versus a dedicated core (§3.2). Zero at arrival, and zero
    /// for a stale id.
    #[must_use]
    pub fn active_rate(&self, id: WorkloadId, now: f64) -> f64 {
        let Some(row) = self.row(id) else {
            return 0.0;
        };
        let total = now - row.arrival;
        if total <= 0.0 {
            0.0
        } else {
            row.active_cycles / total
        }
    }

    /// `active_rate_p = active_rate / priority` — Algorithm 1's scheduling
    /// key. The workload with the smallest value is the most starved
    /// relative to its priority and is scheduled first. Zero for a stale id.
    #[must_use]
    pub fn active_rate_p(&self, id: WorkloadId, now: f64) -> f64 {
        self.row(id).map_or(0.0, |row| row_arp(row, now))
    }

    /// Algorithm 1's pick: among the live rows that are not Active, are
    /// Ready, and whose current operator matches `fu_type` — `fu_type`'s
    /// candidate set — the id with the minimum `(active_rate_p, slot)`.
    /// Ties on the rate break toward the lowest slot.
    ///
    /// An empty set answers `None` and a one-member set answers that
    /// member, both without computing a rate. Otherwise every member's
    /// `active_rate_p` is computed in ascending slot order with the float
    /// operations of [`active_rate_p`](Self::active_rate_p), and the
    /// winner's rate comes back with it so a caller comparing it again
    /// (the preemption trigger) need not recompute it. This sits on the
    /// scheduler's per-free-FU hot path.
    #[must_use]
    #[inline]
    pub fn pick_min_arp(&self, fu_type: FuKind, now: f64) -> Option<(WorkloadId, Option<f64>)> {
        let mut members = members(self.candidates.get(kind_index(fu_type))?);
        let first = members.next()?;
        let Some(second) = members.next() else {
            return self.id_at_slot(first).map(|id| (id, None));
        };
        let mut best: Option<(f64, usize)> = None;
        for slot in [first, second].into_iter().chain(members) {
            let Some(row) = self.slots.get(slot).and_then(Option::as_ref) else {
                continue;
            };
            let arp = row_arp(row, now);
            if best.is_none_or(|(best_arp, _)| arp.total_cmp(&best_arp).is_lt()) {
                best = Some((arp, slot));
            }
        }
        let (arp, slot) = best?;
        self.id_at_slot(slot).map(|id| (id, Some(arp)))
    }

    /// Round-robin's pick: the first member of `fu_type`'s candidate set at
    /// or after slot `cursor`, wrapping around to the lowest member.
    #[must_use]
    #[inline]
    pub(crate) fn first_candidate_from(
        &self,
        fu_type: FuKind,
        cursor: usize,
    ) -> Option<WorkloadId> {
        let words = self.candidates.get(kind_index(fu_type))?;
        let slot = members(words)
            .find(|&s| s >= cursor)
            .or_else(|| members(words).next())?;
        self.id_at_slot(slot)
    }

    /// Re-derives both candidate sets from the rows and panics if either
    /// differs from the maintained one. Debug builds run this every engine
    /// step (from `EngineCore::debug_validate_spine`).
    ///
    /// # Panics
    ///
    /// Panics when a candidate set diverges from its rows.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_validate_candidates(&self) {
        for kind in FuKind::ALL {
            let words = &self.candidates[kind_index(kind)];
            assert_eq!(words.len(), self.slots.len().div_ceil(64));
            // Word by word, so the every-step check allocates nothing.
            for (i, (&word, rows)) in words.iter().zip(self.slots.chunks(64)).enumerate() {
                let derived = rows.iter().enumerate().fold(0u64, |acc, (bit, entry)| {
                    let member = entry
                        .as_ref()
                        .is_some_and(|row| row.ready && !row.active && row.op_kind == Some(kind));
                    acc | (u64::from(member) << bit)
                });
                assert_eq!(
                    word, derived,
                    "{kind} candidate set word {i} diverged from the rows"
                );
            }
        }
    }

    /// On-chip storage the table occupies, per Fig. 11's field widths:
    /// 32-bit op id, 1+1 Ready/Active bits, `max(1, ceil(log2(num_fus)))`
    /// FU-id bits, two 64-bit counters, 7-bit priority. The hardware
    /// provisions every slot whether occupied or not.
    #[must_use]
    pub fn storage_bytes(&self, num_fus: usize) -> u64 {
        let fu_bits = fu_id_bits(num_fus);
        let row_bits = 32 + 1 + 1 + fu_bits + 64 + 64 + 7;
        let total_bits = row_bits * self.slots.len() as u64;
        total_bits.div_ceil(8)
    }
}

/// Width of the FU-id field for a pool of `num_fus` units (min 2 bits, as
/// Fig. 11's example table uses; "the width of FU ID bits depends on the
/// number of FUs").
#[must_use]
pub fn fu_id_bits(num_fus: usize) -> u64 {
    let needed = (usize::BITS - num_fus.saturating_sub(1).leading_zeros()) as u64;
    needed.max(2)
}

/// The full row scans the candidate sets replaced, kept as the reference
/// the indexed picks must equal.
#[cfg(test)]
impl ContextTable {
    /// Algorithm 1 over every row: the qualifying row with the minimum
    /// `(active_rate_p, slot)`.
    pub(crate) fn scan_min_arp(&self, fu_type: FuKind, now: f64) -> Option<WorkloadId> {
        let mut best: Option<(f64, WorkloadId)> = None;
        for (slot, entry) in self.slots.iter().enumerate() {
            let Some(row) = entry.as_ref() else {
                continue;
            };
            if row.active || !row.ready || row.op_kind != Some(fu_type) {
                continue;
            }
            let total = now - row.arrival;
            let rate = if total <= 0.0 {
                0.0
            } else {
                row.active_cycles / total
            };
            let arp = rate / row.priority;
            if best.is_none_or(|(best_arp, _)| arp.total_cmp(&best_arp).is_lt()) {
                best = Some((
                    arp,
                    WorkloadId {
                        slot: slot as u32,
                        gen: row.gen,
                    },
                ));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Round-robin over every hardware slot from `cursor`, cyclically.
    pub(crate) fn scan_round_robin(&self, fu_type: FuKind, cursor: usize) -> Option<WorkloadId> {
        let n = self.capacity();
        (0..n).find_map(|off| {
            let id = self.id_at_slot((cursor + off) % n)?;
            (!self.is_active(id) && self.is_ready(id) && self.op_kind(id) == Some(fu_type))
                .then_some(id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v10_npu::FuPool;

    fn fu0() -> FuId {
        FuPool::new(1).unwrap().iter().next().unwrap()
    }

    #[test]
    fn new_rows_are_idle() {
        let t = ContextTable::new(&[1.0, 2.0]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        for id in t.ids() {
            assert!(!t.is_ready(id));
            assert!(!t.is_active(id));
            assert_eq!(t.fu(id), None);
            assert_eq!(t.op_kind(id), None);
            assert_eq!(t.active_rate(id, 100.0), 0.0);
        }
    }

    #[test]
    fn closed_loop_ids_are_dense_generation_zero() {
        let t = ContextTable::new(&[1.0, 1.0, 1.0]).unwrap();
        let ids: Vec<WorkloadId> = t.ids().collect();
        assert_eq!(
            ids,
            vec![WorkloadId::new(0), WorkloadId::new(1), WorkloadId::new(2)]
        );
        for (slot, id) in ids.iter().enumerate() {
            assert_eq!(t.id_at_slot(slot), Some(*id));
            assert_eq!(id.generation(), 0);
        }
    }

    #[test]
    fn issue_sets_active_and_clears_ready() {
        let mut t = ContextTable::new(&[1.0]).unwrap();
        let w = WorkloadId::new(0);
        t.set_current_op(w, 7, FuKind::Vu).unwrap();
        t.set_ready(w, true).unwrap();
        t.mark_issued(w, fu0()).unwrap();
        assert!(t.is_active(w));
        assert!(!t.is_ready(w));
        assert_eq!(t.fu(w), Some(fu0()));
        assert_eq!(t.op_id(w), 7);
    }

    #[test]
    fn release_to_ready_models_preemption() {
        let mut t = ContextTable::new(&[1.0]).unwrap();
        let w = WorkloadId::new(0);
        t.set_current_op(w, 1, FuKind::Sa).unwrap();
        t.set_ready(w, true).unwrap();
        t.mark_issued(w, fu0()).unwrap();
        t.mark_released(w, true).unwrap(); // preempted
        assert!(!t.is_active(w));
        assert!(t.is_ready(w));
        t.set_ready(w, true).unwrap();
        t.mark_issued(w, fu0()).unwrap();
        t.mark_released(w, false).unwrap(); // completed
        assert!(!t.is_ready(w));
    }

    #[test]
    fn active_rate_is_share_of_residence() {
        let mut t = ContextTable::new(&[1.0]).unwrap();
        let w = WorkloadId::new(0);
        t.add_active_cycles(w, 250.0);
        assert!((t.active_rate(w, 1_000.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn active_rate_p_divides_by_priority() {
        // §3.2's example: with active_rate 1/2 and priority 2, arp = 1/4.
        let mut t = ContextTable::new(&[2.0, 1.0]).unwrap();
        let (hi, lo) = (WorkloadId::new(0), WorkloadId::new(1));
        t.add_active_cycles(hi, 500.0);
        t.add_active_cycles(lo, 500.0);
        assert!(t.active_rate_p(hi, 1_000.0) < t.active_rate_p(lo, 1_000.0));
        assert!((t.active_rate_p(hi, 1_000.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mid_run_arrival_rates_from_admission_instant() {
        let mut t = ContextTable::with_capacity(2).unwrap();
        let w = t.admit(1.0, 1_000.0).unwrap();
        assert_eq!(t.arrival(w), 1_000.0);
        t.add_active_cycles(w, 250.0);
        // Residence is measured from admission, not cycle 0.
        assert!((t.active_rate(w, 2_000.0) - 0.25).abs() < 1e-12);
        assert_eq!(t.active_rate(w, 500.0), 0.0, "before arrival: zero");
    }

    #[test]
    fn admit_fills_lowest_free_slot_and_reuses_generations() {
        let mut t = ContextTable::with_capacity(3).unwrap();
        let a = t.admit(1.0, 0.0).unwrap();
        let b = t.admit(1.0, 0.0).unwrap();
        let c = t.admit(1.0, 0.0).unwrap();
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        t.retire(b).unwrap();
        assert_eq!(t.len(), 2);
        let d = t.admit(2.0, 50.0).unwrap();
        assert_eq!(d.index(), 1, "lowest free slot reused");
        assert_eq!(d.generation(), 1, "second occupancy of slot 1");
        assert_ne!(d, b);
        assert!(t.contains(d));
        assert!(!t.contains(b));
    }

    #[test]
    fn slot_reuse_restarts_active_rate_accounting() {
        let mut t = ContextTable::with_capacity(1).unwrap();
        let a = t.admit(1.0, 0.0).unwrap();
        t.add_active_cycles(a, 900.0);
        assert!(t.active_rate(a, 1_000.0) > 0.8);
        t.retire(a).unwrap();
        let b = t.admit(1.0, 1_000.0).unwrap();
        assert_eq!(b.index(), a.index());
        assert_eq!(
            t.active_rate(b, 2_000.0),
            0.0,
            "fresh tenant carries no active cycles"
        );
        assert_eq!(t.arrival(b), 1_000.0);
        t.add_active_cycles(b, 500.0);
        assert!((t.active_rate(b, 2_000.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stale_id_mutators_rejected() {
        let mut t = ContextTable::with_capacity(2).unwrap();
        let w = t.admit(1.0, 0.0).unwrap();
        t.retire(w).unwrap();
        // The slot is reused; the stale id still must not reach it.
        let fresh = t.admit(1.0, 10.0).unwrap();
        assert_eq!(fresh.index(), w.index());
        for err in [
            t.set_ready(w, true).unwrap_err(),
            t.mark_released(w, false).unwrap_err(),
            t.mark_issued(w, fu0()).unwrap_err(),
            t.set_current_op(w, 1, FuKind::Sa).unwrap_err(),
            t.retire(w).unwrap_err(),
        ] {
            assert!(err.to_string().contains("stale"), "{err}");
        }
        // Read accessors degrade to neutral values instead of panicking.
        assert!(!t.is_ready(w));
        assert!(!t.is_active(w));
        assert_eq!(t.op_kind(w), None);
        assert_eq!(t.fu(w), None);
        assert_eq!(t.active_rate_p(w, 100.0), 0.0);
        // The fresh occupant is untouched.
        assert!(t.contains(fresh));
        assert!(!t.is_ready(fresh));
    }

    #[test]
    fn retire_twice_rejected() {
        let mut t = ContextTable::with_capacity(1).unwrap();
        let w = t.admit(1.0, 0.0).unwrap();
        t.retire(w).unwrap();
        let err = t.retire(w).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn full_table_rejects_admission() {
        let mut t = ContextTable::with_capacity(2).unwrap();
        t.admit(1.0, 0.0).unwrap();
        t.admit(1.0, 0.0).unwrap();
        let err = t.admit(1.0, 0.0).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ids_skip_retired_slots() {
        let mut t = ContextTable::with_capacity(3).unwrap();
        let a = t.admit(1.0, 0.0).unwrap();
        let b = t.admit(1.0, 0.0).unwrap();
        let c = t.admit(1.0, 0.0).unwrap();
        t.retire(b).unwrap();
        let ids: Vec<WorkloadId> = t.ids().collect();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(t.id_at_slot(1), None);
        assert_eq!(t.len(), 2);
        t.retire(a).unwrap();
        t.retire(c).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 3);
    }

    #[test]
    fn storage_matches_table3_published_sizes() {
        // Table 3: (1 SA, 1 VU, 2 workloads) -> 43 bytes; (1,1,4) -> 86;
        // (2,2,4) -> 86; (4,4,8) -> 173 (ours: 172 — the paper appears to
        // round per-row for the largest config).
        assert_eq!(ContextTable::new(&[1.0; 2]).unwrap().storage_bytes(2), 43);
        assert_eq!(ContextTable::new(&[1.0; 4]).unwrap().storage_bytes(2), 86);
        assert_eq!(ContextTable::new(&[1.0; 4]).unwrap().storage_bytes(4), 86);
        let big = ContextTable::new(&[1.0; 8]).unwrap().storage_bytes(8);
        assert!((172..=173).contains(&big), "got {big}");
        // Storage is provisioned per slot, not per live tenant.
        let empty = ContextTable::with_capacity(2).unwrap();
        assert_eq!(empty.storage_bytes(2), 43);
    }

    #[test]
    fn fig11_example_row_is_22_bytes() {
        // Fig. 11's caption: "With 4 FUs, each row will only require 22
        // bytes of on-chip storage."
        let bits = 32 + 1 + 1 + fu_id_bits(4) + 64 + 64 + 7;
        assert_eq!(bits.div_ceil(8), 22);
    }

    #[test]
    fn fu_id_bits_grows_with_pool() {
        assert_eq!(fu_id_bits(1), 2);
        assert_eq!(fu_id_bits(2), 2);
        assert_eq!(fu_id_bits(4), 2);
        assert_eq!(fu_id_bits(5), 3);
        assert_eq!(fu_id_bits(8), 3);
        assert_eq!(fu_id_bits(16), 4);
    }

    #[test]
    fn non_positive_priority_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ContextTable::new(&[bad]).unwrap_err();
            assert!(err.to_string().contains("positive"), "{err}");
            let err = ContextTable::with_capacity(1)
                .unwrap()
                .admit(bad, 0.0)
                .unwrap_err();
            assert!(err.to_string().contains("positive"), "{err}");
        }
    }

    #[test]
    fn set_priority_rescales_active_rate_p_only() {
        let mut t = ContextTable::new(&[2.0]).unwrap();
        let w = WorkloadId::new(0);
        t.add_active_cycles(w, 500.0);
        assert!((t.active_rate_p(w, 1_000.0) - 0.25).abs() < 1e-12);
        t.set_priority(w, 1.0).unwrap();
        assert_eq!(t.priority(w), 1.0);
        // Same counters, new divisor: demotion doubles arp.
        assert!((t.active_rate_p(w, 1_000.0) - 0.5).abs() < 1e-12);
        assert!((t.active_rate(w, 1_000.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_priority_validates_and_rejects_stale_ids() {
        let mut t = ContextTable::with_capacity(1).unwrap();
        let w = t.admit(1.0, 0.0).unwrap();
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err = t.set_priority(w, bad).unwrap_err();
            assert!(err.to_string().contains("positive"), "{err}");
        }
        t.retire(w).unwrap();
        let fresh = t.admit(3.0, 1.0).unwrap();
        let err = t.set_priority(w, 1.0).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        assert_eq!(t.priority(fresh), 3.0, "stale write must not leak through");
    }

    #[test]
    fn empty_table_rejected() {
        let err = ContextTable::new(&[]).unwrap_err();
        assert!(err.to_string().contains("at least one workload"), "{err}");
        let err = ContextTable::with_capacity(0).unwrap_err();
        assert!(err.to_string().contains("at least one slot"), "{err}");
    }

    #[test]
    fn workload_id_display() {
        assert_eq!(WorkloadId::new(3).to_string(), "W3");
        assert_eq!(WorkloadId::new(3).index(), 3);
        let mut t = ContextTable::with_capacity(1).unwrap();
        let a = t.admit(1.0, 0.0).unwrap();
        t.retire(a).unwrap();
        let b = t.admit(1.0, 0.0).unwrap();
        assert_eq!(b.to_string(), "W0@1");
    }
}

#[cfg(test)]
mod seeded_tests {
    use super::*;
    use v10_npu::FuPool;
    use v10_sim::SimRng;

    /// Proptest-style property: slot reuse never corrupts fairness
    /// accounting. For any random interleaving of admissions, retirements,
    /// and active-cycle accrual, every live tenant's `active_rate_p` equals
    /// a fresh single-tenant reference table replaying only that tenant's
    /// history — bit for bit — and every retired id stays rejected forever.
    #[test]
    fn slot_reuse_never_corrupts_fairness_accounting() {
        let mut rng = SimRng::seed_from(0xFA12_0CA7);
        for case in 0..64 {
            let cap = 1 + rng.index(6);
            let mut table = ContextTable::with_capacity(cap).unwrap();
            // Shadow state per live tenant: (id, arrival, accrued, priority).
            let mut live: Vec<(WorkloadId, f64, f64, f64)> = Vec::new();
            let mut retired: Vec<WorkloadId> = Vec::new();
            let mut now = 0.0;
            for step in 0..160 {
                now += rng.uniform(0.0, 1_000.0);
                match rng.index(4) {
                    0 => {
                        let p = rng.uniform(0.5, 4.0);
                        match table.admit(p, now) {
                            Ok(id) => live.push((id, now, 0.0, p)),
                            Err(_) => assert_eq!(
                                live.len(),
                                cap,
                                "case {case} step {step}: admit failed below capacity"
                            ),
                        }
                    }
                    1 => {
                        if !live.is_empty() {
                            let (id, ..) = live.remove(rng.index(live.len()));
                            table.retire(id).unwrap();
                            retired.push(id);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let k = rng.index(live.len());
                            let dt = rng.uniform(0.0, 500.0);
                            table.add_active_cycles(live[k].0, dt);
                            live[k].2 += dt;
                        }
                    }
                }
                assert_eq!(table.len(), live.len());
                for &(id, arrival, accrued, priority) in &live {
                    let mut fresh = ContextTable::with_capacity(1).unwrap();
                    let fid = fresh.admit(priority, arrival).unwrap();
                    fresh.add_active_cycles(fid, accrued);
                    assert_eq!(
                        table.active_rate_p(id, now).to_bits(),
                        fresh.active_rate_p(fid, now).to_bits(),
                        "case {case} step {step}: {id} diverged from fresh-table reference"
                    );
                }
                for &id in &retired {
                    assert!(
                        !table.contains(id),
                        "case {case} step {step}: retired {id} resurrected"
                    );
                    assert!(table.set_ready(id, true).is_err());
                }
            }
        }
    }

    /// The candidate sets never drift from the rows. Random sequences of
    /// every row mutator run through tables of 1–130 slots (so sets span
    /// up to three words); after each operation both sets re-derive from
    /// the rows, and for both kinds the indexed priority pick equals the
    /// full row scan (its reported rate bit-equal to `active_rate_p`) and
    /// the indexed round-robin pick equals the slot walk from cursors at
    /// and around every word boundary.
    #[test]
    fn candidate_sets_match_the_row_scan() {
        let fu = FuPool::new(1).unwrap().iter().next().unwrap();
        let mut rng = SimRng::seed_from(0xCA9D_5E75);
        for case in 0..48 {
            let cap = match case % 3 {
                0 => 1 + rng.index(8),
                1 => 60 + rng.index(10),
                _ => 120 + rng.index(11),
            };
            let mut table = ContextTable::with_capacity(cap).unwrap();
            let mut live: Vec<WorkloadId> = Vec::new();
            let mut now = 0.0;
            for step in 0..400 {
                now += rng.uniform(0.0, 100.0);
                let pick = live.get(rng.index(live.len().max(1))).copied();
                let kind = if rng.next_u64() & 1 == 0 {
                    FuKind::Sa
                } else {
                    FuKind::Vu
                };
                match (rng.index(8), pick) {
                    (0, _) => {
                        if let Ok(id) = table.admit(rng.uniform(0.5, 4.0), now) {
                            live.push(id);
                        }
                    }
                    (1, Some(id)) => {
                        table.retire(id).unwrap();
                        live.retain(|&l| l != id);
                    }
                    (2, Some(id)) => table.set_current_op(id, step, kind).unwrap(),
                    (3, Some(id)) => table.set_ready(id, rng.next_u64() & 3 != 0).unwrap(),
                    (4, Some(id)) if table.is_ready(id) => table.mark_issued(id, fu).unwrap(),
                    (5, Some(id)) if table.is_active(id) => {
                        table.mark_released(id, rng.next_u64() & 1 == 0).unwrap();
                    }
                    (6, Some(id)) => table.set_priority(id, rng.uniform(0.5, 4.0)).unwrap(),
                    (_, Some(id)) => table.add_active_cycles(id, rng.uniform(0.0, 50.0)),
                    _ => {}
                }
                table.debug_validate_candidates();
                for kind in FuKind::ALL {
                    let indexed = table.pick_min_arp(kind, now);
                    assert_eq!(
                        indexed.map(|p| p.0),
                        table.scan_min_arp(kind, now),
                        "case {case} step {step}: {kind} priority pick diverged"
                    );
                    if let Some((id, Some(arp))) = indexed {
                        assert_eq!(
                            arp.to_bits(),
                            table.active_rate_p(id, now).to_bits(),
                            "case {case} step {step}: reported rate diverged"
                        );
                    }
                    let cursors = [0, 1, 63, 64, 65, 127, 128, cap - 1, rng.index(cap)];
                    for cursor in cursors.into_iter().filter(|&c| c < cap) {
                        assert_eq!(
                            table.first_candidate_from(kind, cursor),
                            table.scan_round_robin(kind, cursor),
                            "case {case} step {step}: {kind} round-robin from {cursor} diverged"
                        );
                    }
                }
            }
        }
    }
}
