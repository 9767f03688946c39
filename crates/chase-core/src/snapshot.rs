//! Columnar snapshot (de)serialization for [`Instance`].
//!
//! The columnar store was designed to be dumpable: every table is a set of
//! flat `Vec<TermId>` columns, fact identity is an insertion-order index, and
//! all secondary structures (dedup table, per-predicate and positional
//! indexes, distinct-value stats) are derivable from the columns by replaying inserts
//! in fact-id order. A snapshot therefore serializes exactly the primary
//! data — tables, insertion order, the null counter — and *rebuild markers*
//! stand in for the indexes: [`Instance::from_snapshot_bytes`] reconstructs
//! them through the ordinary [`Instance::insert_ids`] path, so a decoded
//! instance is index-consistent by construction.
//!
//! # Why ids cannot be written raw
//!
//! A [`TermId`] packs either a [`Sym`] interner id (top bit clear) or a
//! labeled-null id (top bit set). Null ids are instance-local and stable, so
//! they serialize as-is. `Sym` ids are **process-run-local** — the interner
//! assigns them in first-use order — so the snapshot carries a file-local
//! symbol-name table and rewrites every constant id to an index into it.
//! Decoding re-interns the names and maps back; the decoded instance is
//! equal to the encoded one as a set of atoms even across processes whose
//! interners disagree.
//!
//! # On-disk layout (version 1)
//!
//! The fields are [`crate::bytes`]'s `u8`/`u32`/`str`, and the whole byte
//! string is one `seal` (the content below, then a `u32` CRC-32 of it):
//!
//! ```text
//! magic   "CSNP"                       4 bytes
//! version u8 = 1
//! symtab  u32 count, then per name: str
//! nulls   u32 next_null                 (exact counter, not derived)
//! tables  u32 count, then per table:
//!           u32 pred   (symtab index)
//!           u32 arity
//!           u32 rows
//!           arity columns of <rows> u32 file-local term ids
//! order   u32 count, then per fact: u32 table, u32 row
//! ```
//!
//! A *file-local term id* keeps the null tag bit: nulls are stored verbatim,
//! constants store a symtab index in the low 31 bits.
//!
//! `next_null` is carried explicitly rather than recomputed as
//! `max(null id) + 1`: EGD merges can rewrite away the highest null while the
//! counter stays put, and a resumed chase must not re-issue a null id the
//! trace has already seen.
//!
//! ```
//! use chase_core::Instance;
//!
//! let inst = Instance::parse("S(a). E(a,_n0). E(_n0,_n1).").unwrap();
//! let bytes = inst.to_snapshot_bytes();
//! let back = Instance::from_snapshot_bytes(&bytes).unwrap();
//! assert_eq!(back, inst);
//! ```

use crate::bytes::{crc32, split_seal, DecodeError, Reader, Writer};
use crate::fx::FxHashMap;
use crate::instance::Instance;
use crate::symbol::Sym;
use crate::term::{Term, TermId};
use std::fmt;

/// Snapshot format version written by [`Instance::to_snapshot_bytes`].
pub const SNAPSHOT_VERSION: u8 = 1;

/// Magic prefix of a serialized instance snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CSNP";

/// Top bit of a file-local term id: set for labeled nulls (mirroring the
/// in-memory [`TermId`] encoding), clear for symtab indexes.
const FILE_NULL_BIT: u32 = 1 << 31;

/// Why a snapshot byte string failed to decode.
///
/// Every variant is a *total* rejection: decoding never panics on foreign
/// bytes, it classifies them. Callers treating snapshots as cache (the WAL
/// recovery path in `chase-serve`) fall back to replaying the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte string ended before the declared structure did.
    Truncated,
    /// The leading magic was not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// A version this build does not read.
    BadVersion(u8),
    /// The trailing CRC-32 did not match the content.
    BadChecksum {
        /// CRC recomputed over the content.
        expected: u32,
        /// CRC stored in the file.
        found: u32,
    },
    /// A symbol name was not valid UTF-8.
    BadUtf8,
    /// Structurally impossible content (out-of-range index, fact-count
    /// mismatch, duplicate row reference).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not an instance snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadChecksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (computed {expected:#010x}, stored {found:#010x})"
            ),
            SnapshotError::BadUtf8 => write!(f, "snapshot symbol table is not UTF-8"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> SnapshotError {
        match e {
            DecodeError::Short => SnapshotError::Truncated,
            DecodeError::Utf8 => SnapshotError::BadUtf8,
            DecodeError::Bool(_) => SnapshotError::Corrupt("bad boolean"),
            DecodeError::Trailing(_) => SnapshotError::Corrupt("trailing bytes"),
        }
    }
}

impl Instance {
    /// Serialize this instance to the columnar snapshot format.
    ///
    /// The encoding reads straight off the flat column vectors — no
    /// per-atom materialization — and is deterministic for a given
    /// instance history (table order is first-insert order, facts are
    /// listed in insertion order).
    ///
    /// # Examples
    ///
    /// ```
    /// use chase_core::Instance;
    ///
    /// let inst = Instance::parse("edge(a,b). edge(b,_n0).").unwrap();
    /// let bytes = inst.to_snapshot_bytes();
    /// assert_eq!(Instance::from_snapshot_bytes(&bytes).unwrap(), inst);
    /// ```
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        // File-local symbol table: predicates first, then every constant, in
        // first-appearance order over the columns. Deterministic because
        // table order and column contents are.
        let mut sym_index: FxHashMap<Sym, u32> = FxHashMap::default();
        let mut names: Vec<&'static str> = Vec::new();
        let mut local = |s: Sym, names: &mut Vec<&'static str>| -> u32 {
            *sym_index.entry(s).or_insert_with(|| {
                names.push(s.as_str());
                (names.len() - 1) as u32
            })
        };
        let pred_locals: Vec<u32> = self
            .table_preds
            .iter()
            .map(|&p| local(p, &mut names))
            .collect();
        let mut col_locals: Vec<Vec<Vec<u32>>> = Vec::with_capacity(self.tables.len());
        for t in &self.tables {
            let mut cols = Vec::with_capacity(t.cols.len());
            for col in &t.cols {
                cols.push(
                    col.iter()
                        .map(|&id| match id.term() {
                            Term::Null(_) => id.raw(), // tag bit already set
                            Term::Const(c) => local(c, &mut names),
                            Term::Var(_) => unreachable!("instances hold only ground terms"),
                        })
                        .collect::<Vec<u32>>(),
                );
            }
            col_locals.push(cols);
        }

        let mut w = Writer(SNAPSHOT_MAGIC.to_vec());
        w.u8(SNAPSHOT_VERSION);
        w.u32(names.len() as u32);
        for name in &names {
            w.str(name);
        }
        w.u32(self.next_null);
        w.u32(self.tables.len() as u32);
        for (i, t) in self.tables.iter().enumerate() {
            w.u32(pred_locals[i]);
            w.u32(t.cols.len() as u32);
            w.u32(t.rows);
            for col in &col_locals[i] {
                for &v in col {
                    w.u32(v);
                }
            }
        }
        w.u32(self.locs.len() as u32);
        for loc in &self.locs {
            w.u32(loc.table);
            w.u32(loc.row);
        }
        w.seal()
    }

    /// Decode a snapshot produced by [`Instance::to_snapshot_bytes`].
    ///
    /// Decoding is *total*: any byte string either yields an instance or a
    /// classified [`SnapshotError`], never a panic. Indexes, dedup tables
    /// and statistics are rebuilt by replaying the facts in insertion order
    /// through the regular insert path, so the result is index-consistent
    /// with a freshly built instance holding the same atoms; the null
    /// counter is restored exactly.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Instance, SnapshotError> {
        // The magic is checked before the seal, so foreign bytes read as
        // `BadMagic` rather than as a checksum mismatch.
        let (content, found) = split_seal(bytes)?;
        let mut c = Reader::new(content);
        if c.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let expected = crc32(content);
        if expected != found {
            return Err(SnapshotError::BadChecksum { expected, found });
        }
        let version = c.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }

        let sym_count = c.u32()? as usize;
        let mut syms = Vec::with_capacity(sym_count.min(1 << 16));
        for _ in 0..sym_count {
            syms.push(Sym::new(c.str()?));
        }
        let next_null = c.u32()?;
        let resolve = |v: u32, syms: &[Sym]| -> Result<TermId, SnapshotError> {
            if v & FILE_NULL_BIT != 0 {
                let t = TermId::from_ground(Term::Null(v & !FILE_NULL_BIT))
                    .ok_or(SnapshotError::Corrupt("null id out of range"))?;
                Ok(t)
            } else {
                let s = *syms
                    .get(v as usize)
                    .ok_or(SnapshotError::Corrupt("symbol index out of range"))?;
                Ok(TermId::from_ground(Term::Const(s)).expect("constants are ground"))
            }
        };

        struct RawTable {
            pred: Sym,
            cols: Vec<Vec<TermId>>,
            rows: u32,
        }
        let table_count = c.u32()? as usize;
        let mut tables = Vec::with_capacity(table_count.min(1 << 16));
        for _ in 0..table_count {
            let pred_ix = c.u32()? as usize;
            let pred = *syms
                .get(pred_ix)
                .ok_or(SnapshotError::Corrupt("predicate index out of range"))?;
            let arity = c.u32()? as usize;
            let rows = c.u32()?;
            let mut cols = Vec::with_capacity(arity.min(64));
            for _ in 0..arity {
                let mut col = Vec::with_capacity((rows as usize).min(1 << 20));
                for _ in 0..rows {
                    col.push(resolve(c.u32()?, &syms)?);
                }
                cols.push(col);
            }
            tables.push(RawTable { pred, cols, rows });
        }

        let fact_count = c.u32()? as usize;
        let total_rows: u64 = tables.iter().map(|t| t.rows as u64).sum();
        if fact_count as u64 != total_rows {
            return Err(SnapshotError::Corrupt("fact count != total rows"));
        }
        let mut inst = Instance::new();
        let mut scratch: Vec<TermId> = Vec::new();
        let mut seen: Vec<Vec<bool>> = tables
            .iter()
            .map(|t| vec![false; t.rows as usize])
            .collect();
        for _ in 0..fact_count {
            let ti = c.u32()? as usize;
            let row = c.u32()? as usize;
            let t = tables
                .get(ti)
                .ok_or(SnapshotError::Corrupt("fact table index out of range"))?;
            if row >= t.rows as usize {
                return Err(SnapshotError::Corrupt("fact row index out of range"));
            }
            if std::mem::replace(&mut seen[ti][row], true) {
                return Err(SnapshotError::Corrupt("duplicate fact location"));
            }
            scratch.clear();
            for col in &t.cols {
                scratch.push(col[row]);
            }
            if !inst.insert_ids(t.pred, &scratch) {
                return Err(SnapshotError::Corrupt("duplicate fact content"));
            }
        }
        c.finish()?;
        // Restore the null counter exactly; replay only raised it to
        // max(null)+1, which undershoots after merges collapsed high nulls.
        if inst.next_null > next_null {
            return Err(SnapshotError::Corrupt("next_null below live null ids"));
        }
        inst.next_null = next_null;
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    #[test]
    fn empty_instance_round_trips() {
        let inst = Instance::new();
        let back = Instance::from_snapshot_bytes(&inst.to_snapshot_bytes()).unwrap();
        assert_eq!(back, inst);
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn mixed_instance_round_trips_atoms_in_order() {
        let inst =
            Instance::parse("S(a). E(a,_n0). E(_n0,_n1). T(b,c,d). zero(). S(_n5).").unwrap();
        let bytes = inst.to_snapshot_bytes();
        let back = Instance::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(back, inst);
        let a: Vec<Atom> = inst.atoms();
        let b: Vec<Atom> = back.atoms();
        assert_eq!(a, b, "insertion order must survive the round trip");
    }

    #[test]
    fn next_null_restored_exactly() {
        let mut inst = Instance::parse("E(_n0,_n3).").unwrap();
        // Merge away the highest null: the counter must not rewind.
        let effect = inst.merge_terms(Term::Null(3), Term::Null(0));
        assert!(!effect.is_noop());
        let back = Instance::from_snapshot_bytes(&inst.to_snapshot_bytes()).unwrap();
        assert_eq!(back, inst);
        // The counter survives byte-for-byte: re-encoding reproduces it.
        assert_eq!(back.to_snapshot_bytes(), inst.to_snapshot_bytes());
    }

    #[test]
    fn truncation_and_corruption_are_classified() {
        let inst = Instance::parse("S(a). E(a,b).").unwrap();
        let bytes = inst.to_snapshot_bytes();
        assert_eq!(
            Instance::from_snapshot_bytes(&bytes[..2]),
            Err(SnapshotError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Instance::from_snapshot_bytes(&bad_magic),
            Err(SnapshotError::BadMagic)
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            Instance::from_snapshot_bytes(&flipped),
            Err(SnapshotError::BadChecksum { .. })
        ));
        // Truncating whole trailing words still fails the checksum or length.
        assert!(Instance::from_snapshot_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = Instance::parse("fly(p,q,d1). rail(q,p,d2). hasAirport(p).").unwrap();
        let b = Instance::parse("fly(p,q,d1). rail(q,p,d2). hasAirport(p).").unwrap();
        assert_eq!(a.to_snapshot_bytes(), b.to_snapshot_bytes());
    }
}
