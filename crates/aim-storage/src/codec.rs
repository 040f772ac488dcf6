//! Binary (de)serialization for the disk backend.
//!
//! Everything the pager stores inside a page cell — row tuples, index key
//! tuples, the catalog blob — goes through this module. The encoding is a
//! simple tagged format, *not* an order-preserving one: the paged B+-tree
//! compares keys with [`compare_keys`], which reads the encoded values
//! where they lie and orders them exactly as [`Value`] does, so `Int(3)`
//! and `Float(3.0)` collate identically on disk and in memory.

use crate::error::StorageError;
use crate::schema::{ColumnDef, ColumnType, IndexDef, TableSchema};
use crate::value::{Row, Value};
use std::cmp::Ordering;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_MAXKEY: u8 = 5;

fn corrupt(detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        detail: detail.into(),
    }
}

// ------------------------------------------------------------------ writer

/// Appends a single value to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::MaxKey => out.push(TAG_MAXKEY),
    }
}

/// Appends a key/row tuple to `out`: `u16` value count followed by tagged
/// values.
pub fn encode_tuple_into(vals: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(vals.len() as u16).to_le_bytes());
    for v in vals {
        encode_value(v, out);
    }
}

/// Encodes a key/row tuple into a fresh buffer.
pub fn encode_tuple(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + vals.len() * 9);
    encode_tuple_into(vals, &mut out);
    out
}

// ------------------------------------------------------------------ reader

/// A value as its encoding holds it: what [`Value`] holds, with a string
/// still the bytes in the buffer. Ordered as `Value` is.
#[derive(Debug, Clone, Copy)]
enum Encoded<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// UTF-8 when written by [`encode_value`]; only [`Cursor::value`]
    /// checks. `str` orders by its bytes, so comparing does not need to.
    Str(&'a [u8]),
    MaxKey,
}

impl<'a> Encoded<'a> {
    /// The borrowed view of a `Value`.
    fn of(v: &'a Value) -> Self {
        match v {
            Value::Null => Encoded::Null,
            Value::Bool(b) => Encoded::Bool(*b),
            Value::Int(i) => Encoded::Int(*i),
            Value::Float(f) => Encoded::Float(*f),
            Value::Str(s) => Encoded::Str(s.as_bytes()),
            Value::MaxKey => Encoded::MaxKey,
        }
    }

    /// Same ranks as `Value::type_rank`.
    fn type_rank(&self) -> u8 {
        match self {
            Encoded::Null => 0,
            Encoded::Bool(_) => 1,
            Encoded::Int(_) | Encoded::Float(_) => 2,
            Encoded::Str(_) => 3,
            Encoded::MaxKey => u8::MAX,
        }
    }

    /// `Value`'s total order (`Value::cmp`, arm for arm).
    fn collate(&self, other: &Encoded<'_>) -> Ordering {
        use Encoded::*;
        match (self, other) {
            (Null, Null) | (MaxKey, MaxKey) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Orders an encoded key tuple against a key, as `decode_tuple(enc)?.cmp(key)`
/// would, without building a value: lexicographic over the values, the
/// shorter tuple first when one is a prefix of the other.
pub fn compare_keys(enc: &[u8], key: &[Value]) -> Result<Ordering, StorageError> {
    let mut c = Cursor::new(enc);
    let n = c.u16()? as usize;
    for v in key.iter().take(n) {
        match c.encoded()?.collate(&Encoded::of(v)) {
            Ordering::Equal => {}
            unequal => return Ok(unequal),
        }
    }
    Ok(n.cmp(&key.len()))
}

/// A bounds-checked little-endian reader over a byte slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated record: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, StorageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next value, read where it lies.
    fn encoded(&mut self) -> Result<Encoded<'a>, StorageError> {
        match self.u8()? {
            TAG_NULL => Ok(Encoded::Null),
            TAG_BOOL => Ok(Encoded::Bool(self.u8()? != 0)),
            TAG_INT => Ok(Encoded::Int(self.u64()? as i64)),
            TAG_FLOAT => Ok(Encoded::Float(f64::from_bits(self.u64()?))),
            TAG_STR => {
                let len = self.u32()? as usize;
                Ok(Encoded::Str(self.take(len)?))
            }
            TAG_MAXKEY => Ok(Encoded::MaxKey),
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    pub fn value(&mut self) -> Result<Value, StorageError> {
        Ok(match self.encoded()? {
            Encoded::Null => Value::Null,
            Encoded::Bool(b) => Value::Bool(b),
            Encoded::Int(i) => Value::Int(i),
            Encoded::Float(f) => Value::Float(f),
            Encoded::Str(bytes) => {
                let s = std::str::from_utf8(bytes)
                    .map_err(|e| corrupt(format!("non-UTF-8 string value: {e}")))?;
                Value::Str(s.to_string())
            }
            Encoded::MaxKey => Value::MaxKey,
        })
    }

    pub fn string(&mut self) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|e| corrupt(format!("non-UTF-8 catalog string: {e}")))
    }
}

/// Decodes a key/row tuple written by [`encode_tuple`].
pub fn decode_tuple(bytes: &[u8]) -> Result<Row, StorageError> {
    let mut c = Cursor::new(bytes);
    let n = c.u16()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(c.value()?);
    }
    Ok(out)
}

fn push_string(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ----------------------------------------------------------------- catalog

/// On-disk description of one secondary index: its definition plus the
/// page number of its B+-tree root.
#[derive(Debug, Clone, PartialEq)]
pub struct CatIndex {
    pub def: IndexDef,
    pub root: u32,
}

/// On-disk description of one table: schema plus the page numbers anchoring
/// its heap chain and primary-key B+-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CatTable {
    pub schema: TableSchema,
    pub heap_first: u32,
    pub heap_last: u32,
    pub pk_root: u32,
    pub indexes: Vec<CatIndex>,
}

fn column_type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Str => 2,
        ColumnType::Bool => 3,
    }
}

fn column_type_from_tag(tag: u8) -> Result<ColumnType, StorageError> {
    match tag {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Float),
        2 => Ok(ColumnType::Str),
        3 => Ok(ColumnType::Bool),
        t => Err(corrupt(format!("unknown column type tag {t}"))),
    }
}

/// Serializes the full catalog (all tables) into one blob.
pub fn encode_catalog(tables: &[CatTable]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for t in tables {
        push_string(&t.schema.name, &mut out);
        out.extend_from_slice(&(t.schema.columns.len() as u32).to_le_bytes());
        for c in &t.schema.columns {
            push_string(&c.name, &mut out);
            out.push(column_type_tag(c.ty));
            out.extend_from_slice(&c.avg_width.to_le_bytes());
        }
        out.extend_from_slice(&(t.schema.primary_key.len() as u32).to_le_bytes());
        for &p in &t.schema.primary_key {
            out.extend_from_slice(&(p as u32).to_le_bytes());
        }
        out.extend_from_slice(&t.heap_first.to_le_bytes());
        out.extend_from_slice(&t.heap_last.to_le_bytes());
        out.extend_from_slice(&t.pk_root.to_le_bytes());
        out.extend_from_slice(&(t.indexes.len() as u32).to_le_bytes());
        for ix in &t.indexes {
            push_string(&ix.def.name, &mut out);
            push_string(&ix.def.table, &mut out);
            out.extend_from_slice(&(ix.def.columns.len() as u32).to_le_bytes());
            for c in &ix.def.columns {
                push_string(c, &mut out);
            }
            out.push(u8::from(ix.def.unique));
            out.extend_from_slice(&ix.root.to_le_bytes());
        }
    }
    out
}

/// Decodes a catalog blob written by [`encode_catalog`].
pub fn decode_catalog(bytes: &[u8]) -> Result<Vec<CatTable>, StorageError> {
    let mut c = Cursor::new(bytes);
    let ntables = c.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = c.string()?;
        let ncols = c.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = c.string()?;
            let ty = column_type_from_tag(c.u8()?)?;
            let avg_width = c.u32()?;
            columns.push(ColumnDef {
                name: cname,
                ty,
                avg_width,
            });
        }
        let npk = c.u32()? as usize;
        let mut primary_key = Vec::with_capacity(npk);
        for _ in 0..npk {
            let p = c.u32()? as usize;
            if p >= columns.len() {
                return Err(corrupt(format!(
                    "catalog: pk position {p} out of range for table {name}"
                )));
            }
            primary_key.push(p);
        }
        let heap_first = c.u32()?;
        let heap_last = c.u32()?;
        let pk_root = c.u32()?;
        let nix = c.u32()? as usize;
        let mut indexes = Vec::with_capacity(nix);
        for _ in 0..nix {
            let iname = c.string()?;
            let itable = c.string()?;
            let nc = c.u32()? as usize;
            let mut cols = Vec::with_capacity(nc);
            for _ in 0..nc {
                cols.push(c.string()?);
            }
            let unique = c.u8()? != 0;
            let root = c.u32()?;
            indexes.push(CatIndex {
                def: IndexDef {
                    name: iname,
                    table: itable,
                    columns: cols,
                    unique,
                },
                root,
            });
        }
        tables.push(CatTable {
            schema: TableSchema {
                name,
                columns,
                primary_key,
            },
            heap_first,
            heap_last,
            pk_root,
            indexes,
        });
    }
    Ok(tables)
}

/// Encodes a row id `(page, slot)` as the 8-byte payload stored in primary
/// key B+-tree leaves.
pub fn encode_rowid(page: u32, slot: u16) -> [u8; 8] {
    (u64::from(page) << 16 | u64::from(slot)).to_le_bytes()
}

/// Inverse of [`encode_rowid`].
pub fn decode_rowid(bytes: &[u8]) -> Result<(u32, u16), StorageError> {
    if bytes.len() != 8 {
        return Err(corrupt(format!("rowid payload of {} bytes", bytes.len())));
    }
    let v = u64::from_le_bytes(bytes.try_into().unwrap());
    Ok(((v >> 16) as u32, (v & 0xffff) as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: Vec<Value>) {
        let enc = encode_tuple(&vals);
        let dec = decode_tuple(&enc).unwrap();
        assert_eq!(dec, vals);
    }

    #[test]
    fn tuple_roundtrip_all_variants() {
        roundtrip(vec![]);
        roundtrip(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Str("héllo".into()),
            Value::Str(String::new()),
            Value::MaxKey,
        ]);
    }

    #[test]
    fn float_roundtrip_is_bit_identical() {
        for f in [0.0, -0.0, f64::NAN, f64::INFINITY, 1e-300] {
            let enc = encode_tuple(&[Value::Float(f)]);
            match &decode_tuple(&enc).unwrap()[0] {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_tuple_is_corrupt_not_panic() {
        let enc = encode_tuple(&[Value::Str("hello world".into())]);
        for cut in 0..enc.len() {
            match decode_tuple(&enc[..cut]) {
                Ok(v) => assert_ne!(v, vec![Value::Str("hello world".into())]),
                Err(StorageError::Corrupt { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }

    #[test]
    fn encoded_compare_matches_value_order() {
        // Every variant against every variant, the numeric edge cases, and
        // tuples that are prefixes of one another.
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(3),
            Value::Int(i64::MAX),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(9.3e18),
            Value::Float(f64::NAN),
            Value::Str(String::new()),
            Value::Str("b".into()),
            Value::Str("ba".into()),
            Value::Str("héllo".into()),
            Value::MaxKey,
        ];
        let mut tuples: Vec<Vec<Value>> = vec![vec![]];
        for a in &values {
            tuples.push(vec![a.clone()]);
            for b in &values {
                tuples.push(vec![a.clone(), b.clone()]);
            }
        }
        tuples.push(vec![Value::Int(1), Value::Str("b".into()), Value::MaxKey]);
        for a in &tuples {
            let enc = encode_tuple(a);
            assert_eq!(decode_tuple(&enc).unwrap().cmp(a), Ordering::Equal);
            for b in &tuples {
                assert_eq!(
                    compare_keys(&enc, b).unwrap(),
                    a.cmp(b),
                    "{a:?} against {b:?}"
                );
            }
        }
        assert_eq!(
            compare_keys(&encode_tuple(&[Value::Int(3)]), &[Value::Float(3.0)]).unwrap(),
            Ordering::Equal
        );
        // A truncated key is corrupt, not a panic and not an order.
        let enc = encode_tuple(&[Value::Str("hello".into())]);
        assert!(compare_keys(&enc[..enc.len() - 1], &[Value::Str("hello".into())]).is_err());
    }

    #[test]
    fn catalog_roundtrip() {
        let schema = TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef {
                    avg_width: 40,
                    ..ColumnDef::new("who", ColumnType::Str)
                },
                ColumnDef::new("paid", ColumnType::Bool),
                ColumnDef::new("amt", ColumnType::Float),
            ],
            &["id"],
        )
        .unwrap();
        let mut def = IndexDef::new("ix_who", "orders", vec!["who".into()]);
        def.unique = true;
        let cat = vec![CatTable {
            schema,
            heap_first: 3,
            heap_last: 9,
            pk_root: 4,
            indexes: vec![CatIndex { def, root: 17 }],
        }];
        let enc = encode_catalog(&cat);
        assert_eq!(decode_catalog(&enc).unwrap(), cat);
        assert!(decode_catalog(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn rowid_roundtrip() {
        let enc = encode_rowid(0xdead_beef, 0x1234);
        assert_eq!(decode_rowid(&enc).unwrap(), (0xdead_beef, 0x1234));
        assert!(decode_rowid(&enc[..7]).is_err());
    }
}
