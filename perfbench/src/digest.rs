//! The correctness gate: every cell's (class, value, trace hash) folded
//! into a per-cell digest, the per-cell digests folded into one
//! workload digest, and comparison against a reference cell by cell.

use asym_core::{RunClass, SweepReport};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The per-cell digests of one sweep, in plan order. A cell that
/// panicked or carries no trace hash has no digest: it can never match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests(pub Vec<Option<u64>>);

impl Digests {
    /// Digests every cell of `report`.
    pub fn of(report: &SweepReport) -> Digests {
        Digests(
            report
                .cells
                .iter()
                .map(|c| {
                    if c.class == RunClass::Panicked {
                        return None;
                    }
                    let hash = c.trace_hash?;
                    let value = c.value.map_or(u64::MAX, f64::to_bits);
                    let mut h = fnv(FNV_OFFSET, c.class.to_string().as_bytes());
                    h = fnv(h, &value.to_le_bytes());
                    Some(fnv(h, &hash.to_le_bytes()))
                })
                .collect(),
        )
    }

    /// Parses a pinned file: one 16-digit hex digest per cell, `#`
    /// comment lines ignored.
    pub fn parse(text: &str) -> Digests {
        Digests(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| u64::from_str_radix(l, 16).ok())
                .collect(),
        )
    }

    /// Renders the pinned-file form of these digests.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        for d in &self.0 {
            match d {
                Some(d) => out += &format!("{d:016x}\n"),
                None => out += "missing\n",
            }
        }
        out
    }

    /// The workload digest: every cell digest folded in plan order.
    pub fn fold(&self) -> u64 {
        let mut h = fnv(FNV_OFFSET, &(self.0.len() as u64).to_le_bytes());
        for d in &self.0 {
            h = fnv(h, &d.unwrap_or(0).to_le_bytes());
        }
        h
    }

    /// Plan indices of the cells of `self` that are missing, lack a
    /// digest, or differ from `reference`.
    pub fn differing<'a>(&'a self, reference: &'a Digests) -> impl Iterator<Item = usize> + 'a {
        let n = self.0.len().max(reference.0.len());
        (0..n).filter(|&i| match (self.0.get(i), reference.0.get(i)) {
            (Some(Some(a)), Some(Some(b))) => a != b,
            _ => true,
        })
    }
}
