//! Line/sector size arithmetic.
//!
//! Hybrid2 moves data at two granularities: *cache lines* (fetched into the
//! DRAM cache, 64–512 B in the design-space exploration) and *sectors* (the
//! migration/tag granule, 2–4 KB). [`Geometry`] captures one such pair and
//! provides the bit-twiddling used throughout the workspace.

use core::fmt;

use crate::{PAddr, SectorId};

/// Errors returned when constructing an invalid [`Geometry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryError {
    /// The line size was zero or not a power of two.
    BadLineSize(u64),
    /// The sector size was zero or not a power of two.
    BadSectorSize(u64),
    /// The sector size was smaller than the line size.
    SectorSmallerThanLine {
        /// Offending line size in bytes.
        line: u64,
        /// Offending sector size in bytes.
        sector: u64,
    },
    /// A sector holds more lines than the per-entry bit-vectors support (64).
    TooManyLinesPerSector(u64),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryError::BadLineSize(s) => {
                write!(f, "line size {s} is not a non-zero power of two")
            }
            GeometryError::BadSectorSize(s) => {
                write!(f, "sector size {s} is not a non-zero power of two")
            }
            GeometryError::SectorSmallerThanLine { line, sector } => {
                write!(f, "sector size {sector} is smaller than line size {line}")
            }
            GeometryError::TooManyLinesPerSector(n) => {
                write!(
                    f,
                    "{n} lines per sector exceeds the 64-line bit-vector limit"
                )
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// A (line size, sector size) pair with power-of-two arithmetic helpers.
///
/// ```
/// use sim_types::{Geometry, PAddr};
/// let g = Geometry::new(256, 2048)?;
/// assert_eq!(g.lines_per_sector(), 8);
/// let a = PAddr::new(0x1234);
/// assert_eq!(g.sector_of(a).raw(), 0x2);
/// assert_eq!(g.line_within_sector(a), 2); // 0x234 / 0x100
/// # Ok::<(), sim_types::GeometryError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    line_size: u64,
    sector_size: u64,
    line_shift: u32,
    sector_shift: u32,
}

impl Geometry {
    /// Creates a geometry from a line size and sector size, both in bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if either size is not a non-zero power of
    /// two, if the sector is smaller than the line, or if a sector would hold
    /// more than 64 lines (the valid/dirty bit-vector width used by the XTA).
    pub const fn new(line_size: u64, sector_size: u64) -> Result<Self, GeometryError> {
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(GeometryError::BadLineSize(line_size));
        }
        if sector_size == 0 || !sector_size.is_power_of_two() {
            return Err(GeometryError::BadSectorSize(sector_size));
        }
        if sector_size < line_size {
            return Err(GeometryError::SectorSmallerThanLine {
                line: line_size,
                sector: sector_size,
            });
        }
        let lines = sector_size / line_size;
        if lines > 64 {
            return Err(GeometryError::TooManyLinesPerSector(lines));
        }
        Ok(Geometry {
            line_size,
            sector_size,
            line_shift: line_size.trailing_zeros(),
            sector_shift: sector_size.trailing_zeros(),
        })
    }

    /// The paper's chosen configuration: 256 B lines in 2 KB sectors.
    ///
    /// # Panics
    ///
    /// Never panics; the constants are valid.
    pub fn paper_default() -> Self {
        match Self::new(256, 2048) {
            Ok(g) => g,
            Err(_) => unreachable!(),
        }
    }

    /// Line size in bytes.
    #[inline]
    pub const fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Sector size in bytes.
    #[inline]
    pub const fn sector_size(&self) -> u64 {
        self.sector_size
    }

    /// Number of cache lines per sector (`Nall` in the paper's cost model).
    #[inline]
    pub const fn lines_per_sector(&self) -> u32 {
        (self.sector_size / self.line_size) as u32
    }

    /// The sector containing physical address `addr`.
    #[inline]
    pub const fn sector_of(&self, addr: PAddr) -> SectorId {
        SectorId::new(addr.raw() >> self.sector_shift)
    }

    /// The line slot (0-based) of `addr` within its sector.
    #[inline]
    pub const fn line_within_sector(&self, addr: PAddr) -> u32 {
        ((addr.raw() >> self.line_shift) & ((1 << (self.sector_shift - self.line_shift)) - 1))
            as u32
    }

    /// The physical address of line slot `line` within sector `sector`.
    #[inline]
    pub const fn line_addr(&self, sector: SectorId, line: u32) -> PAddr {
        PAddr::new((sector.raw() << self.sector_shift) + ((line as u64) << self.line_shift))
    }

    /// `log2(line_size)`.
    #[inline]
    pub const fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// `log2(sector_size)`.
    #[inline]
    pub const fn sector_shift(&self) -> u32 {
        self.sector_shift
    }
}

impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Geometry {{ line: {} B, sector: {} B ({} lines) }}",
            self.line_size,
            self.sector_size,
            self.lines_per_sector()
        )
    }
}

impl Default for Geometry {
    /// The paper's best configuration (256 B lines, 2 KB sectors).
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_256b_in_2kb() {
        let g = Geometry::paper_default();
        assert_eq!(g.line_size(), 256);
        assert_eq!(g.sector_size(), 2048);
        assert_eq!(g.lines_per_sector(), 8);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(
            Geometry::new(100, 2048),
            Err(GeometryError::BadLineSize(100))
        );
        assert_eq!(
            Geometry::new(64, 3000),
            Err(GeometryError::BadSectorSize(3000))
        );
        assert_eq!(Geometry::new(0, 2048), Err(GeometryError::BadLineSize(0)));
    }

    #[test]
    fn rejects_sector_smaller_than_line() {
        assert_eq!(
            Geometry::new(4096, 2048),
            Err(GeometryError::SectorSmallerThanLine {
                line: 4096,
                sector: 2048
            })
        );
    }

    #[test]
    fn rejects_too_many_lines() {
        // 64 B lines in 8 KB sectors = 128 lines > 64.
        assert_eq!(
            Geometry::new(64, 8192),
            Err(GeometryError::TooManyLinesPerSector(128))
        );
        // Exactly 64 is fine (64 B in 4 KB).
        assert!(Geometry::new(64, 4096).is_ok());
    }

    #[test]
    fn sector_and_line_decomposition() {
        let g = Geometry::new(256, 2048).unwrap();
        let a = PAddr::new(3 * 2048 + 5 * 256 + 17);
        assert_eq!(g.sector_of(a).raw(), 3);
        assert_eq!(g.line_within_sector(a), 5);
        assert_eq!(g.line_addr(SectorId::new(3), 0).raw(), 3 * 2048);
        assert_eq!(g.line_addr(SectorId::new(3), 5).raw(), 3 * 2048 + 5 * 256);
    }

    #[test]
    fn equal_line_and_sector_is_one_line() {
        let g = Geometry::new(2048, 2048).unwrap();
        assert_eq!(g.lines_per_sector(), 1);
        assert_eq!(g.line_within_sector(PAddr::new(2047)), 0);
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = Geometry::new(0, 2048).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn round_trip_line_addr() {
        let g = Geometry::new(128, 4096).unwrap();
        for line in 0..g.lines_per_sector() {
            let a = g.line_addr(SectorId::new(9), line);
            assert_eq!(g.sector_of(a).raw(), 9);
            assert_eq!(g.line_within_sector(a), line);
        }
    }
}
