//! Hardware bit-layout of a context-table row (Fig. 11).
//!
//! The paper specifies the row format exactly: a 32-bit op id, 1-bit
//! Active, 1-bit Ready, an FU-id field whose width depends on the FU count,
//! two 64-bit cycle counters, and a 7-bit priority. This module packs and
//! unpacks rows to that layout — the representation the Verilog prototype
//! stores on chip — so the storage numbers of Table 3 are grounded in an
//! actual encoding rather than arithmetic alone.

use v10_isa::FuKind;
use v10_npu::FuPool;
use v10_sim::convert::{f64_to_u64, u32_from_usize, usize_from_u64};
use v10_sim::Cycles;

use crate::context::{fu_id_bits, ContextTable};

/// Hardware rows the Fig. 11 context table provisions in the largest
/// configuration Table 3 evaluates (4 SAs + 4 VUs, 8 workloads). This is
/// the default slot capacity for open-loop serving: a core can hold at most
/// this many resident tenants, and arrivals beyond it are rejected or
/// routed to another core.
pub const FIG11_TABLE_ROWS: usize = 8;

/// A context-table row in its architectural form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedRowFields {
    /// 32-bit operator id (wraps in hardware).
    pub op_id: u32,
    /// The operator's FU kind (encoded through the FU-id field's range).
    pub op_kind: Option<FuKind>,
    /// Active bit.
    pub active: bool,
    /// Ready bit.
    pub ready: bool,
    /// FU id, meaningful while Active.
    pub fu_index: u32,
    /// unit: cycles — 64-bit saturating active-cycles counter.
    pub active_cycles: u64,
    /// unit: cycles — 64-bit saturating total-cycles counter.
    pub total_cycles: u64,
    /// 7-bit priority (the paper's field width).
    pub priority_7bit: u8,
}

/// Packs fields into the Fig. 11 bit layout. Bits are packed LSB-first in
/// field order: op id, active, ready, FU id, active cycles, total cycles,
/// priority. The returned vector is `ceil(row_bits / 8)` bytes.
///
/// # Panics
///
/// Panics if `priority_7bit` exceeds 7 bits or `fu_index` does not fit the
/// FU-id field for `num_fus`.
#[must_use]
pub fn pack_row(fields: &PackedRowFields, num_fus: usize) -> Vec<u8> {
    assert!(fields.priority_7bit < 128, "priority field is 7 bits");
    let fu_bits = width_u32(fu_id_bits(num_fus));
    assert!(
        u64::from(fields.fu_index) < (1u64 << fu_bits),
        "FU index {} does not fit {} bits",
        fields.fu_index,
        fu_bits
    );
    let mut bits = BitWriter::new();
    bits.push(u64::from(fields.op_id), 32);
    bits.push(u64::from(fields.active), 1);
    bits.push(u64::from(fields.ready), 1);
    bits.push(u64::from(fields.fu_index), fu_bits);
    bits.push(fields.active_cycles, 64);
    bits.push(fields.total_cycles, 64);
    bits.push(u64::from(fields.priority_7bit), 7);
    bits.into_bytes()
}

/// Unpacks a row previously packed with [`pack_row`] for the same FU count.
///
/// # Panics
///
/// Panics if `bytes` is shorter than the row layout requires.
#[must_use]
pub fn unpack_row(bytes: &[u8], num_fus: usize) -> PackedRowFields {
    let fu_bits = width_u32(fu_id_bits(num_fus));
    let mut bits = BitReader::new(bytes);
    PackedRowFields {
        op_id: low_u32(bits.pull(32)),
        active: bits.pull(1) == 1,
        ready: bits.pull(1) == 1,
        fu_index: low_u32(bits.pull(fu_bits)),
        active_cycles: bits.pull(64),
        total_cycles: bits.pull(64),
        priority_7bit: low_u8(bits.pull(7)),
        op_kind: None, // kind is implied by the FU pool layout, not stored
    }
}

/// A bit-field width as the `u32` shift type; widths here are ≤ 64.
fn width_u32(bits: u64) -> u32 {
    u32::try_from(bits).unwrap_or(u32::MAX)
}

/// Low 32 bits of a pulled field — exact for fields pulled with width ≤ 32.
fn low_u32(v: u64) -> u32 {
    u32::try_from(v & 0xFFFF_FFFF).unwrap_or(u32::MAX)
}

/// Low 8 bits of a pulled field — exact for fields pulled with width ≤ 8.
fn low_u8(v: u64) -> u8 {
    u8::try_from(v & 0xFF).unwrap_or(u8::MAX)
}

/// Snapshots a live [`ContextTable`] into its on-chip image: one packed row
/// per workload, concatenated. `now` fixes the total-cycles counters
/// (fractional engine time truncates onto the 64-bit hardware counters, as
/// the Fig. 11 row stores integer cycles).
///
/// The image length matches [`ContextTable::storage_bytes`] within the
/// per-row byte rounding.
#[must_use]
// v10-lint: allow(S1) the Fig. 11 on-chip image of a live table, which grounds Table 3's storage numbers in an encoding; pinned by its parse-back test
pub fn snapshot_table(table: &ContextTable, pool: &FuPool, now: Cycles) -> Vec<u8> {
    let mut image = Vec::new();
    for id in table.ids() {
        let fields = PackedRowFields {
            op_id: low_u32(table.op_id(id)),
            op_kind: table.op_kind(id),
            active: table.is_active(id),
            ready: table.is_ready(id),
            fu_index: table.fu(id).map(|f| u32_from_usize(f.index())).unwrap_or(0),
            active_cycles: f64_to_u64(table.active_rate(id, now.as_f64()) * now.as_f64()),
            total_cycles: now.as_u64(),
            priority_7bit: low_u8(f64_to_u64(table.priority(id).clamp(0.0, 127.0))),
        };
        image.extend(pack_row(&fields, pool.len()));
    }
    image
}

/// Recovers the per-row fields from a table image.
///
/// # Panics
///
/// Panics if `image` is not a whole number of rows for this FU count.
#[must_use]
// v10-lint: allow(S1) reads back the Fig. 11 image that `snapshot_table` writes; pinned by the parse-back and truncated-image tests
pub fn parse_table_image(image: &[u8], num_fus: usize, workloads: usize) -> Vec<PackedRowFields> {
    let row_bits = 32 + 1 + 1 + fu_id_bits(num_fus) + 64 + 64 + 7;
    let row_bytes = usize_from_u64(row_bits.div_ceil(8));
    assert_eq!(
        image.len(),
        row_bytes * workloads,
        "image length {} is not {workloads} rows of {row_bytes} bytes",
        image.len()
    );
    image
        .chunks(row_bytes)
        .map(|row| unpack_row(row, num_fus))
        .collect()
}

struct BitWriter {
    bytes: Vec<u8>,
    bit: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            bytes: Vec::new(),
            bit: 0,
        }
    }

    fn push(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        for i in 0..width {
            if self.bit.is_multiple_of(8) {
                self.bytes.push(0);
            }
            let b = low_u8((value >> i) & 1);
            // The byte at bit / 8 is always the one just pushed (or the one
            // the previous iterations were filling): it is the last byte.
            if let Some(byte) = self.bytes.last_mut() {
                *byte |= b << (self.bit % 8);
            }
            self.bit += 1;
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit: 0 }
    }

    fn pull(&mut self, width: u32) -> u64 {
        let mut out = 0u64;
        for i in 0..width {
            let idx = usize_from_u64(u64::from(self.bit / 8));
            let byte = self.bytes.get(idx).copied();
            assert!(byte.is_some(), "row image too short");
            let b = (byte.unwrap_or(0) >> (self.bit % 8)) & 1;
            out |= u64::from(b) << i;
            self.bit += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::WorkloadId;
    use v10_isa::FuKind;

    fn sample() -> PackedRowFields {
        PackedRowFields {
            op_id: 0xDEAD_BEEF,
            op_kind: None,
            active: true,
            ready: false,
            fu_index: 2,
            active_cycles: 123_456_789_012,
            total_cycles: 987_654_321_098,
            priority_7bit: 80,
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let f = sample();
        for num_fus in [2usize, 4, 8, 16] {
            let bytes = pack_row(&f, num_fus);
            let back = unpack_row(&bytes, num_fus);
            assert_eq!(back.op_id, f.op_id);
            assert_eq!(back.active, f.active);
            assert_eq!(back.ready, f.ready);
            assert_eq!(back.fu_index, f.fu_index);
            assert_eq!(back.active_cycles, f.active_cycles);
            assert_eq!(back.total_cycles, f.total_cycles);
            assert_eq!(back.priority_7bit, f.priority_7bit);
        }
    }

    #[test]
    fn row_width_matches_fig11() {
        // With 4 FUs a row is 22 bytes (Fig. 11's caption).
        let bytes = pack_row(&sample(), 4);
        assert_eq!(bytes.len(), 22);
        // With 2 FUs the FU field is still 2 bits (min width): 22 bytes too.
        assert_eq!(pack_row(&sample(), 2).len(), 22);
        // 8 FUs: 3 FU-id bits -> 172 bits -> still 22 bytes after rounding.
        assert_eq!(pack_row(&sample(), 8).len(), 22);
    }

    #[test]
    fn snapshot_parses_back() {
        let mut table = ContextTable::new(&[2.0, 1.0]).unwrap();
        let pool = FuPool::new(1).unwrap();
        let w0 = WorkloadId::new(0);
        table.set_current_op(w0, 7, FuKind::Sa).unwrap();
        table.set_ready(w0, true).unwrap();
        table.add_active_cycles(w0, 500.0);
        let image = snapshot_table(&table, &pool, Cycles::new(1_000.0));
        let rows = parse_table_image(&image, pool.len(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].op_id, 7);
        assert!(rows[0].ready);
        assert!(!rows[0].active);
        assert_eq!(rows[0].active_cycles, 500);
        assert_eq!(rows[0].total_cycles, 1_000);
        assert_eq!(rows[0].priority_7bit, 2);
        assert_eq!(rows[1].op_id, 0);
        assert_eq!(rows[1].active_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "7 bits")]
    fn oversized_priority_rejected() {
        let mut f = sample();
        f.priority_7bit = 128;
        let _ = pack_row(&f, 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_fu_index_rejected() {
        let mut f = sample();
        f.fu_index = 4; // needs 3 bits, pool of 4 FUs has 2
        let _ = pack_row(&f, 4);
    }

    #[test]
    #[should_panic(expected = "not 2 rows")]
    fn truncated_image_rejected() {
        let _ = parse_table_image(&[0u8; 10], 2, 2);
    }
}
