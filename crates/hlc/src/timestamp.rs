//! The 64-bit HLC timestamp layout.

use std::fmt;

/// Number of bits for the logical-clock component.
pub const LC_BITS: u32 = 16;
/// Number of bits for the physical-time component.
pub const PT_BITS: u32 = 46;
/// Mask for the logical component.
const LC_MASK: u64 = (1 << LC_BITS) - 1;
/// Maximum physical-time value (milliseconds).
pub const PT_MAX: u64 = (1 << PT_BITS) - 1;

/// An HLC timestamp: `{reserved:2, pt:46, lc:16}` packed into a `u64`
/// exactly as §IV describes. `pt` is wall time in milliseconds; `lc` counts
/// up to 65,535 events within one millisecond — "more than tens of millions
/// of transactions per second".
///
/// Ordering of the packed integer equals lexicographic `(pt, lc)` ordering,
/// which is why the whole timestamp can live in one atomic word.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct HlcTimestamp(pub u64);

impl HlcTimestamp {
    /// Pack physical milliseconds and a logical counter.
    pub fn new(pt_millis: u64, lc: u16) -> HlcTimestamp {
        debug_assert!(pt_millis <= PT_MAX, "physical time overflows 46 bits");
        HlcTimestamp((pt_millis << LC_BITS) | lc as u64)
    }

    /// Build from a raw packed value.
    pub fn from_raw(raw: u64) -> HlcTimestamp {
        HlcTimestamp(raw)
    }

    /// Raw packed value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Physical-time component in milliseconds.
    pub(crate) fn pt(self) -> u64 {
        (self.0 >> LC_BITS) & PT_MAX
    }

    /// Logical-clock component.
    pub(crate) fn lc(self) -> u16 {
        (self.0 & LC_MASK) as u16
    }

    /// The next timestamp: logical component incremented by one. A full
    /// logical component naturally carries into `pt`, keeping order intact.
    pub fn next(self) -> HlcTimestamp {
        HlcTimestamp(self.0 + 1)
    }

    /// A timestamp at the given physical time with a zero logical component.
    pub fn at_pt(pt_millis: u64) -> HlcTimestamp {
        HlcTimestamp::new(pt_millis, 0)
    }
}

impl fmt::Display for HlcTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hlc({}.{})", self.pt(), self.lc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let ts = HlcTimestamp::new(1_700_000_000_000 & PT_MAX, 1234);
        assert_eq!(ts.pt(), 1_700_000_000_000 & PT_MAX);
        assert_eq!(ts.lc(), 1234);
    }

    #[test]
    fn packed_order_equals_tuple_order() {
        let a = HlcTimestamp::new(100, 65535);
        let b = HlcTimestamp::new(101, 0);
        assert!(a < b, "pt dominates lc");
        let c = HlcTimestamp::new(100, 1);
        let d = HlcTimestamp::new(100, 2);
        assert!(c < d, "lc breaks ties");
    }

    #[test]
    fn next_carries_into_pt() {
        let a = HlcTimestamp::new(100, 65535);
        let b = a.next();
        assert_eq!(b.pt(), 101);
        assert_eq!(b.lc(), 0);
        assert!(b > a);
    }

    #[test]
    fn lc_capacity_matches_paper() {
        // "it counts 65,535 times per millisecond"
        assert_eq!(LC_MASK, 65_535);
        // 46 bits of milliseconds covers > 2000 years.
        const { assert!(PT_MAX / (1000 * 3600 * 24 * 365) > 2000) };
    }
}
