//! The software-managed vector memory, with §3.6's partitioning scheme.
//!
//! "For vector memory, V10 partitions the address space evenly among
//! collocated workloads and adds the partition offset on each memory access
//! at runtime. Thus, operators in the same workload can share data in vector
//! memory without interfering with collocated workloads."

use std::fmt;

/// Words per register tile: the 8×128 2-D vector registers of §2.1.
pub const TILE_WORDS: usize = 8 * 128;

/// Error type for vector-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmemError {
    /// The access runs past the end of the (partition's) address space.
    OutOfBounds {
        /// First word of the access.
        addr: usize,
        /// Words accessed.
        len: usize,
        /// Words available.
        capacity: usize,
    },
    /// A partition was requested for a workload id ≥ the partition count.
    BadPartition {
        /// The requested workload slot.
        workload: usize,
        /// Number of partitions.
        partitions: usize,
    },
}

impl fmt::Display for VmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmemError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "vmem access [{addr}, {}) exceeds capacity {capacity}",
                addr + len
            ),
            VmemError::BadPartition {
                workload,
                partitions,
            } => {
                write!(
                    f,
                    "workload {workload} has no partition (only {partitions})"
                )
            }
        }
    }
}

impl std::error::Error for VmemError {}

/// A flat, word-addressable vector memory.
///
/// # Example
///
/// ```
/// use v10_systolic::VectorMemory;
/// let mut vmem = VectorMemory::with_words(1024);
/// vmem.write(0, &[1.0, 2.0, 3.0])?;
/// assert_eq!(vmem.read(1, 2)?, &[2.0, 3.0]);
/// # Ok::<(), v10_systolic::VmemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VectorMemory {
    words: Vec<f32>,
}

impl VectorMemory {
    /// Creates a memory of `words` 32-bit words, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    #[must_use]
    pub fn with_words(words: usize) -> Self {
        assert!(words > 0, "vector memory must be non-empty");
        VectorMemory {
            words: vec![0.0; words],
        }
    }

    /// Capacity in words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.words.len()
    }

    /// Reads `len` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::OutOfBounds`] if the range is invalid.
    pub fn read(&self, addr: usize, len: usize) -> Result<&[f32], VmemError> {
        self.check(addr, len)?;
        Ok(&self.words[addr..addr + len])
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::OutOfBounds`] if the range is invalid.
    pub fn write(&mut self, addr: usize, data: &[f32]) -> Result<(), VmemError> {
        self.check(addr, data.len())?;
        self.words[addr..addr + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn check(&self, addr: usize, len: usize) -> Result<(), VmemError> {
        if addr
            .checked_add(len)
            .is_none_or(|end| end > self.words.len())
        {
            Err(VmemError::OutOfBounds {
                addr,
                len,
                capacity: self.words.len(),
            })
        } else {
            Ok(())
        }
    }
}

/// A vector memory divided evenly among collocated workloads; every access
/// is offset into the owning workload's partition and bounds-checked against
/// it, so workloads cannot interfere (§3.6).
///
/// # Example
///
/// ```
/// use v10_systolic::PartitionedVmem;
/// let mut vmem = PartitionedVmem::new(1024, 2);
/// vmem.write(0, 0, &[7.0])?; // workload 0, partition-local address 0
/// vmem.write(1, 0, &[9.0])?; // workload 1's address 0 is a different word
/// assert_eq!(vmem.read(0, 0, 1)?, &[7.0]);
/// assert_eq!(vmem.read(1, 0, 1)?, &[9.0]);
/// # Ok::<(), v10_systolic::VmemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedVmem {
    memory: VectorMemory,
    partitions: usize,
}

impl PartitionedVmem {
    /// Divides a `total_words` memory evenly into `partitions`.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or exceeds `total_words`.
    #[must_use]
    pub fn new(total_words: usize, partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        assert!(
            partitions <= total_words,
            "more partitions ({partitions}) than words ({total_words})"
        );
        PartitionedVmem {
            memory: VectorMemory::with_words(total_words),
            partitions,
        }
    }

    /// Number of partitions (collocated workloads).
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Words available to each workload.
    #[must_use]
    pub fn partition_words(&self) -> usize {
        self.memory.capacity_words() / self.partitions
    }

    fn base(&self, workload: usize) -> Result<usize, VmemError> {
        if workload >= self.partitions {
            Err(VmemError::BadPartition {
                workload,
                partitions: self.partitions,
            })
        } else {
            Ok(workload * self.partition_words())
        }
    }

    /// Reads from `workload`'s partition at partition-local `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError`] for an unknown workload or an access that
    /// escapes the partition.
    pub fn read(&self, workload: usize, addr: usize, len: usize) -> Result<&[f32], VmemError> {
        let base = self.base(workload)?;
        self.check_partition(addr, len)?;
        self.memory.read(base + addr, len)
    }

    /// Writes into `workload`'s partition at partition-local `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError`] for an unknown workload or an access that
    /// escapes the partition.
    pub fn write(&mut self, workload: usize, addr: usize, data: &[f32]) -> Result<(), VmemError> {
        let base = self.base(workload)?;
        self.check_partition(addr, data.len())?;
        self.memory.write(base + addr, data)
    }

    fn check_partition(&self, addr: usize, len: usize) -> Result<(), VmemError> {
        let cap = self.partition_words();
        if addr.checked_add(len).is_none_or(|end| end > cap) {
            Err(VmemError::OutOfBounds {
                addr,
                len,
                capacity: cap,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = VectorMemory::with_words(16);
        m.write(4, &[1.0, 2.0]).unwrap();
        assert_eq!(m.read(4, 2).unwrap(), &[1.0, 2.0]);
        assert_eq!(m.read(0, 1).unwrap(), &[0.0]);
    }

    #[test]
    fn out_of_bounds_reported_with_context() {
        let m = VectorMemory::with_words(8);
        let err = m.read(6, 4).unwrap_err();
        assert_eq!(
            err,
            VmemError::OutOfBounds {
                addr: 6,
                len: 4,
                capacity: 8
            }
        );
        assert!(err.to_string().contains("exceeds capacity 8"));
    }

    #[test]
    fn overflow_addr_is_oob_not_panic() {
        let m = VectorMemory::with_words(8);
        assert!(m.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn partitions_are_isolated() {
        let mut p = PartitionedVmem::new(64, 4);
        assert_eq!(p.partition_words(), 16);
        for w in 0..4 {
            p.write(w, 0, &[w as f32 + 1.0]).unwrap();
        }
        for w in 0..4 {
            assert_eq!(p.read(w, 0, 1).unwrap(), &[w as f32 + 1.0]);
        }
    }

    #[test]
    fn partition_bounds_enforced() {
        let mut p = PartitionedVmem::new(64, 4);
        // Address 16 would land in workload 1's partition; must be rejected
        // for workload 0 rather than silently crossing over.
        let err = p.write(0, 16, &[1.0]).unwrap_err();
        assert_eq!(
            err,
            VmemError::OutOfBounds {
                addr: 16,
                len: 1,
                capacity: 16
            }
        );
    }

    #[test]
    fn unknown_workload_rejected() {
        let p = PartitionedVmem::new(64, 2);
        assert_eq!(
            p.read(2, 0, 1).unwrap_err(),
            VmemError::BadPartition {
                workload: 2,
                partitions: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = PartitionedVmem::new(64, 0);
    }
}
