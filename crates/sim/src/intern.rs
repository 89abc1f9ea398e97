//! Tenant-label interning.
//!
//! The fleet plane breaks ties between departures at the same instant on
//! the same core by tenant label ([`DepartureMsg`]). [`LabelInterner`] is
//! a small append-only symbol table that hands each distinct label out as
//! a dense [`LabelId`], so those messages carry a copyable `u32` instead
//! of an owned string.
//!
//! The table is deterministic by construction — ids are assigned in first
//! intern order, and the map is a [`BTreeMap`] so iteration and
//! serialization never depend on hash order (v10-lint rule D1).
//!
//! [`DepartureMsg`]: crate::DepartureMsg

use std::collections::BTreeMap;

/// Dense identifier of an interned label; index into the intern order.
pub type LabelId = u32;

/// An append-only string intern table with dense `u32` ids.
///
/// # Example
///
/// ```
/// use v10_sim::LabelInterner;
///
/// let mut t = LabelInterner::new();
/// let a = t.intern("bert");
/// let b = t.intern("dlrm");
/// assert_eq!(t.intern("bert"), a); // stable on re-intern
/// assert_ne!(a, b);
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelInterner {
    ids: BTreeMap<String, LabelId>,
}

impl LabelInterner {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        LabelInterner::default()
    }

    /// The id for `name`, interning it on first sight. Ids are assigned
    /// densely in first-intern order.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        // Saturate rather than panic in the (unreachable in practice)
        // event of more than u32::MAX distinct labels.
        let id = LabelId::try_from(self.ids.len()).unwrap_or(LabelId::MAX);
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Number of distinct labels interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = LabelInterner::new();
        assert!(t.is_empty());
        let ids: Vec<LabelId> = ["a", "b", "c", "b", "a"]
            .iter()
            .map(|s| t.intern(s))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 1, 0]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn empty_label_is_a_valid_symbol() {
        let mut t = LabelInterner::new();
        let id = t.intern("");
        assert_ne!(t.intern("x"), id);
        assert_eq!(t.intern(""), id);
    }
}
