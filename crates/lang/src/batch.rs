//! Batches: the unit of data-plane exchange — rows in memory, columnar
//! encoding on the wire.
//!
//! In memory a [`Batch`] is a plain sequence of [`Value`] rows, so building
//! one from a vector, reading it back, and handing it from one operator to
//! the next are moves, and the element-wise kernels walk the rows directly.
//!
//! The columnar layout exists only inside the wire codec
//! ([`Batch::encode`] / [`Batch::decode`]). The encoder splits the rows into
//! runs:
//!
//! * consecutive scalars of one type (`I64`, `F64`, `Bool`, `Str`) form a
//!   typed column with no per-element tag;
//! * consecutive tuples of one arity (1 to 255 fields) form one column per
//!   field, typed by the run's first element and degrading to a tagged
//!   mixed column when that field's type varies within the run;
//! * everything else — units, lists, empty tuples, tuples wider than 255
//!   fields — goes to a row run of tagged values, so any value sequence
//!   encodes exactly.
//!
//! On the wire a batch is `u32 run_count` followed by the runs; a run is
//! `u8 run_tag, u32 count` and then its body (one column for a scalar run,
//! `u8 arity` and one column per field for a tuple run, `count` tagged
//! values for a row run); a column is `u8 column_tag` and its data. All
//! integers are little-endian. Floats travel as raw bit patterns, so NaN
//! payloads and signed zeros survive the round trip.
//!
//! [`Batch::encoded_len`] computes the exact encoded size from the rows
//! without allocating; it is what the runtime charges as network bytes.
//! Setting the `MITOS_BATCH_OFF` environment variable (read once per
//! process) only switches that accounting back to the legacy per-element
//! estimate ([`Batch::estimated_bytes`]); batches, their encoding and the
//! computed outputs are the same either way.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

/// Returns true when `MITOS_BATCH_OFF` is set: the runtime then charges the
/// legacy estimated wire bytes instead of the exact encoded size, for A/B
/// comparison runs.
pub fn batch_off() -> bool {
    static OFF: OnceLock<bool> = OnceLock::new();
    *OFF.get_or_init(|| std::env::var_os("MITOS_BATCH_OFF").is_some())
}

/// Run tags on the wire.
const RUN_ROWS: u8 = 0;
const RUN_SCALAR: u8 = 1;
const RUN_TUPLE: u8 = 2;

/// Column tags on the wire.
const COL_MIXED: u8 = 0;
const COL_I64: u8 = 1;
const COL_F64: u8 = 2;
const COL_BOOL: u8 = 3;
const COL_STR: u8 = 4;

/// Value tags on the wire (mirrors the [`Value`] variant order).
const VAL_UNIT: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_F64: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_TUPLE: u8 = 5;
const VAL_LIST: u8 = 6;

/// Widest tuple encoded as a columnar run: the arity travels as one byte.
/// Wider tuples take the row fallback.
const MAX_ARITY: usize = u8::MAX as usize;

/// Nesting bound for decoded tuples/lists, so a hostile or corrupt slab
/// cannot recurse the decoder off the stack.
const MAX_DEPTH: u32 = 64;

/// A sequence of [`Value`] rows with a compact columnar wire encoding.
///
/// See the [module docs](self) for the encoding. Build one with
/// [`Batch::from_values`] (or [`Batch::push`]), read it back with
/// [`Batch::iter`] / [`Batch::into_values`], and move it across the
/// network with [`Batch::encode`] / [`Batch::decode`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    rows: Vec<Value>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Wraps a value sequence (a move; no per-element work).
    pub fn from_values(values: Vec<Value>) -> Batch {
        Batch { rows: values }
    }

    /// Builds a batch from a slice of values (cloning each).
    pub fn from_slice(values: &[Value]) -> Batch {
        Batch::from_values(values.to_vec())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no elements.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one value.
    pub fn push(&mut self, v: Value) {
        self.rows.push(v);
    }

    /// Iterates the batch's elements in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.rows.iter()
    }

    /// Consumes the batch into its value vector (a move).
    pub fn into_values(self) -> Vec<Value> {
        self.rows
    }

    /// Sum of the elements' legacy in-memory size estimates
    /// ([`Value::estimated_bytes`]) — the basis of the pre-encoding wire
    /// estimate and of state-residency accounting.
    pub fn estimated_bytes(&self) -> u64 {
        self.rows.iter().map(Value::estimated_bytes).sum()
    }

    /// Exact size of [`Batch::encode`]'s output, computed from the rows
    /// without allocating.
    pub fn encoded_len(&self) -> usize {
        4 + runs(&self.rows)
            .map(|(kind, run)| {
                1 + 4
                    + match kind {
                        RunKind::Scalar(tag) => 1 + col_data_len(tag, run.iter()),
                        RunKind::Tuple(arity) => 1 + tuple_cols_len(arity, run),
                        RunKind::Rows => run.iter().map(value_encoded_len).sum::<usize>(),
                    }
            })
            .sum::<usize>()
    }

    /// Serializes the batch to an owned byte slab in the length-delimited
    /// columnar wire format (see the [module docs](self)).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        // The run count is patched in once the runs are written.
        out.extend_from_slice(&[0; 4]);
        let mut n_runs = 0u32;
        for (kind, run) in runs(&self.rows) {
            n_runs += 1;
            let count = u32::try_from(run.len()).expect("a batch run holds under 2^32 elements");
            match kind {
                RunKind::Scalar(tag) => {
                    out.push(RUN_SCALAR);
                    out.extend_from_slice(&count.to_le_bytes());
                    encode_col(tag, run.iter(), &mut out);
                }
                RunKind::Tuple(arity) => {
                    out.push(RUN_TUPLE);
                    out.extend_from_slice(&count.to_le_bytes());
                    out.push(u8::try_from(arity).expect("tuple runs are at most MAX_ARITY wide"));
                    for j in 0..arity {
                        let col = run.iter().map(|t| &tuple_fields(t)[j]);
                        encode_col(field_tag(run, j), col, &mut out);
                    }
                }
                RunKind::Rows => {
                    out.push(RUN_ROWS);
                    out.extend_from_slice(&count.to_le_bytes());
                    for v in run {
                        encode_value(v, &mut out);
                    }
                }
            }
        }
        out[..4].copy_from_slice(&n_runs.to_le_bytes());
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Deserializes a batch from a slab produced by [`Batch::encode`].
    /// Fails (never panics) on truncated or corrupt input, including
    /// trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Batch, DecodeError> {
        let mut pos = 0usize;
        let n_runs = take_u32(buf, &mut pos)? as usize;
        if n_runs > buf.len() {
            // Each run costs at least one byte; reject absurd counts
            // before reserving anything.
            return Err(DecodeError::new(format!(
                "run count {n_runs} exceeds input size {}",
                buf.len()
            )));
        }
        let mut rows = Vec::new();
        // A tuple run's fields, column after column, before they are
        // reassembled into rows.
        let mut fields = Vec::new();
        for _ in 0..n_runs {
            let tag = take_u8(buf, &mut pos)?;
            let count = take_u32(buf, &mut pos)? as usize;
            if count > buf.len() {
                return Err(DecodeError::new(format!(
                    "element count {count} exceeds input size {}",
                    buf.len()
                )));
            }
            match tag {
                RUN_SCALAR => decode_col(buf, &mut pos, count, &mut rows)?,
                RUN_TUPLE => {
                    let arity = take_u8(buf, &mut pos)? as usize;
                    if arity == 0 {
                        return Err(DecodeError::new("tuple run with arity 0"));
                    }
                    fields.clear();
                    for _ in 0..arity {
                        decode_col(buf, &mut pos, count, &mut fields)?;
                    }
                    rows.reserve(count);
                    for i in 0..count {
                        rows.push(Value::tuple((0..arity).map(|j| {
                            std::mem::replace(&mut fields[j * count + i], Value::Unit)
                        })));
                    }
                }
                RUN_ROWS => {
                    rows.reserve(count);
                    for _ in 0..count {
                        rows.push(decode_value(buf, &mut pos, 0)?);
                    }
                }
                other => return Err(DecodeError::new(format!("unknown run tag {other}"))),
            }
        }
        if pos != buf.len() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after batch",
                buf.len() - pos
            )));
        }
        Ok(Batch { rows })
    }
}

impl FromIterator<Value> for Batch {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Batch {
        Batch::from_values(iter.into_iter().collect())
    }
}

/// How a run of the wire encoding lays out its elements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunKind {
    /// Same-typed scalars in one typed column (the column tag).
    Scalar(u8),
    /// Tuples of one arity (1 to [`MAX_ARITY`]), one column per field.
    Tuple(usize),
    /// The row fallback: tagged values.
    Rows,
}

fn run_kind(v: &Value) -> RunKind {
    match v {
        Value::Tuple(fs) if (1..=MAX_ARITY).contains(&fs.len()) => RunKind::Tuple(fs.len()),
        _ => match scalar_tag(v) {
            COL_MIXED => RunKind::Rows,
            tag => RunKind::Scalar(tag),
        },
    }
}

/// The typed column tag a scalar value fits, or [`COL_MIXED`].
fn scalar_tag(v: &Value) -> u8 {
    match v {
        Value::I64(_) => COL_I64,
        Value::F64(_) => COL_F64,
        Value::Bool(_) => COL_BOOL,
        Value::Str(_) => COL_STR,
        _ => COL_MIXED,
    }
}

/// Splits rows into the encoding's maximal runs of one [`RunKind`].
fn runs(rows: &[Value]) -> impl Iterator<Item = (RunKind, &[Value])> {
    let mut rest = rows;
    std::iter::from_fn(move || {
        let kind = run_kind(rest.first()?);
        let n = 1 + rest[1..].iter().take_while(|v| run_kind(v) == kind).count();
        let (run, tail) = rest.split_at(n);
        rest = tail;
        Some((kind, run))
    })
}

fn tuple_fields(v: &Value) -> &[Value] {
    match v {
        Value::Tuple(fs) => fs,
        other => unreachable!("tuple run holds a non-tuple {other:?}"),
    }
}

/// The column tag of field `j` across a tuple run: the first element's
/// typed tag when every element agrees with it, otherwise mixed.
fn field_tag(run: &[Value], j: usize) -> u8 {
    let tag = scalar_tag(&tuple_fields(&run[0])[j]);
    if tag != COL_MIXED
        && run[1..]
            .iter()
            .all(|t| scalar_tag(&tuple_fields(t)[j]) == tag)
    {
        tag
    } else {
        COL_MIXED
    }
}

/// Wire size of a column's data (after its tag byte).
fn col_data_len<'a>(tag: u8, vals: impl ExactSizeIterator<Item = &'a Value>) -> usize {
    match tag {
        COL_I64 | COL_F64 => 8 * vals.len(),
        COL_BOOL => vals.len(),
        COL_STR => vals.map(|v| 4 + v.as_str().map_or(0, str::len)).sum(),
        _ => vals.map(value_encoded_len).sum(),
    }
}

/// Wire size of a tuple run's columns, tags included, in one pass over the
/// rows: every field costs its tagged size, less the tag byte per element
/// of each column that stays typed across the whole run.
fn tuple_cols_len(arity: usize, run: &[Value]) -> usize {
    let first = tuple_fields(&run[0]);
    // Bit j is set once field j disagrees with the first element's type.
    let mut mixed = [0u64; MAX_ARITY.div_ceil(64)];
    let mut len = arity;
    for t in run {
        for (j, f) in tuple_fields(t).iter().enumerate() {
            len += value_encoded_len(f);
            mixed[j / 64] |= u64::from(scalar_tag(f) != scalar_tag(&first[j])) << (j % 64);
        }
    }
    let typed = (0..arity)
        .filter(|&j| mixed[j / 64] >> (j % 64) & 1 == 0 && scalar_tag(&first[j]) != COL_MIXED)
        .count();
    len - typed * run.len()
}

/// Encodes one column: its tag, then each value untagged when the column
/// is typed, tagged when it is mixed.
fn encode_col<'a>(tag: u8, vals: impl Iterator<Item = &'a Value>, out: &mut Vec<u8>) {
    out.push(tag);
    for v in vals {
        match v {
            Value::I64(x) if tag == COL_I64 => out.extend_from_slice(&x.to_le_bytes()),
            Value::F64(x) if tag == COL_F64 => out.extend_from_slice(&x.to_bits().to_le_bytes()),
            Value::Bool(x) if tag == COL_BOOL => out.push(*x as u8),
            Value::Str(s) if tag == COL_STR => encode_str(s, out),
            _ => {
                debug_assert_eq!(tag, COL_MIXED, "typed column holds {v:?}");
                encode_value(v, out);
            }
        }
    }
}

/// Decodes one column of `count` values, appending them to `out`.
fn decode_col(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<Value>,
) -> Result<(), DecodeError> {
    type Read = fn(&[u8], &mut usize) -> Result<Value, DecodeError>;
    let read: Read = match take_u8(buf, pos)? {
        COL_I64 => |buf, pos| Ok(Value::I64(i64::from_le_bytes(take_array(buf, pos)?))),
        COL_F64 => |buf, pos| {
            Ok(Value::F64(f64::from_bits(u64::from_le_bytes(take_array(
                buf, pos,
            )?))))
        },
        COL_BOOL => |buf, pos| Ok(Value::Bool(take_u8(buf, pos)? != 0)),
        COL_STR => |buf, pos| Ok(Value::Str(decode_str(buf, pos)?)),
        COL_MIXED => |buf, pos| decode_value(buf, pos, 0),
        other => return Err(DecodeError::new(format!("unknown column tag {other}"))),
    };
    out.reserve(count);
    for _ in 0..count {
        out.push(read(buf, pos)?);
    }
    Ok(())
}

/// An error from [`Batch::decode`]: the input slab was truncated,
/// corrupt, or not a batch at all.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Description of the failure.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated input"))?;
    *pos += 1;
    Ok(b)
}

fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], DecodeError> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DecodeError::new("truncated input"))?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(arr)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    Ok(u32::from_le_bytes(take_array(buf, pos)?))
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(buf: &[u8], pos: &mut usize) -> Result<Arc<str>, DecodeError> {
    let n = take_u32(buf, pos)? as usize;
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DecodeError::new("truncated string"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| DecodeError::new("string is not UTF-8"))?;
    *pos = end;
    Ok(Arc::from(s))
}

/// Wire size of one tagged value.
fn value_encoded_len(v: &Value) -> usize {
    1 + match v {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::I64(_) | Value::F64(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Tuple(fs) => 4 + fs.iter().map(value_encoded_len).sum::<usize>(),
        Value::List(fs) => 4 + fs.iter().map(value_encoded_len).sum::<usize>(),
    }
}

/// Encodes one tagged value (the row-fallback / mixed-column element
/// format).
fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(VAL_UNIT),
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
        Value::I64(x) => {
            out.push(VAL_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(VAL_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            encode_str(s, out);
        }
        Value::Tuple(fs) => {
            out.push(VAL_TUPLE);
            out.extend_from_slice(&(fs.len() as u32).to_le_bytes());
            for f in fs.iter() {
                encode_value(f, out);
            }
        }
        Value::List(fs) => {
            out.push(VAL_LIST);
            out.extend_from_slice(&(fs.len() as u32).to_le_bytes());
            for f in fs.iter() {
                encode_value(f, out);
            }
        }
    }
}

fn decode_value(buf: &[u8], pos: &mut usize, depth: u32) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::new("value nesting too deep"));
    }
    Ok(match take_u8(buf, pos)? {
        VAL_UNIT => Value::Unit,
        VAL_BOOL => Value::Bool(take_u8(buf, pos)? != 0),
        VAL_I64 => Value::I64(i64::from_le_bytes(take_array(buf, pos)?)),
        VAL_F64 => Value::F64(f64::from_bits(u64::from_le_bytes(take_array(buf, pos)?))),
        VAL_STR => Value::Str(decode_str(buf, pos)?),
        tag @ (VAL_TUPLE | VAL_LIST) => {
            let n = take_u32(buf, pos)? as usize;
            if n > buf.len() {
                return Err(DecodeError::new(format!(
                    "field count {n} exceeds input size {}",
                    buf.len()
                )));
            }
            let fields = (0..n)
                .map(|_| decode_value(buf, pos, depth + 1))
                .collect::<Result<Vec<_>, _>>()?;
            if tag == VAL_TUPLE {
                Value::tuple(fields)
            } else {
                Value::list(fields)
            }
        }
        other => return Err(DecodeError::new(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: Vec<Value>) {
        let b = Batch::from_values(values.clone());
        assert_eq!(b.len(), values.len());
        assert_eq!(b.iter().cloned().collect::<Vec<_>>(), values, "iter");
        let encoded = b.encode();
        assert_eq!(encoded.len(), b.encoded_len(), "encoded_len is exact");
        let decoded = Batch::decode(&encoded).expect("decodes");
        assert_eq!(decoded, b, "round-trip");
        assert_eq!(decoded.into_values(), values);
    }

    /// The row-fallback size of `values`: one row run of tagged values.
    fn rows_len(values: &[Value]) -> usize {
        4 + 1 + 4 + values.iter().map(value_encoded_len).sum::<usize>()
    }

    #[test]
    fn empty_batch_round_trips() {
        roundtrip(Vec::new());
    }

    #[test]
    fn monomorphic_columns_round_trip() {
        roundtrip((0..100).map(Value::I64).collect());
        roundtrip((0..10).map(|i| Value::F64(i as f64 / 3.0)).collect());
        roundtrip((0..10).map(|i| Value::Bool(i % 2 == 0)).collect());
        roundtrip((0..10).map(|i| Value::str(format!("s{i}"))).collect());
    }

    #[test]
    fn tuple_runs_are_columnar() {
        let values: Vec<Value> = (0..50)
            .map(|i| Value::tuple([Value::I64(i), Value::str(format!("v{i}"))]))
            .collect();
        let encoded = Batch::from_values(values.clone()).encode();
        // One run: a 2-field tuple run of 50 elements, whose first column
        // is typed i64 (8 bytes per element, no tags).
        assert_eq!(encoded[..4], 1u32.to_le_bytes(), "one run");
        assert_eq!(encoded[4], RUN_TUPLE);
        assert_eq!(encoded[5..9], 50u32.to_le_bytes());
        assert_eq!(encoded[9], 2, "arity");
        assert_eq!(encoded[10], COL_I64);
        assert_eq!(encoded[11..19], 0i64.to_le_bytes());
        assert_eq!(encoded[11 + 8 * 50], COL_STR, "second column is typed str");
        roundtrip(values);
    }

    #[test]
    fn type_changes_split_runs_and_round_trip() {
        roundtrip(vec![
            Value::I64(1),
            Value::I64(2),
            Value::str("x"),
            Value::F64(-0.0),
            Value::Unit,
            Value::tuple([Value::I64(1), Value::I64(2)]),
            Value::tuple([Value::I64(3), Value::str("mixed field")]),
            Value::tuple([Value::I64(4), Value::I64(5), Value::I64(6)]),
            Value::list([Value::I64(9), Value::str("nested")]),
            Value::tuple([
                Value::tuple([Value::I64(1), Value::I64(2)]),
                Value::list([Value::Bool(true)]),
            ]),
            Value::Bool(false),
        ]);
    }

    /// The wire format is pinned: these bytes are the encoding of a fixed
    /// sequence covering an i64 run, a 2-tuple run whose second column
    /// degrades to mixed, a string run, f64 and bool runs, and a
    /// row-fallback tail.
    #[test]
    fn encoding_matches_golden_bytes() {
        let seq = vec![
            Value::I64(1),
            Value::I64(-2),
            Value::I64(300),
            Value::tuple([Value::I64(1), Value::I64(10)]),
            Value::tuple([Value::I64(2), Value::str("x")]),
            Value::tuple([Value::I64(3), Value::Bool(true)]),
            Value::str("ab"),
            Value::str(""),
            Value::F64(-0.0),
            Value::F64(1.5),
            Value::Bool(true),
            Value::Bool(false),
            Value::Unit,
            Value::list([Value::I64(7)]),
            Value::tuple(Vec::<Value>::new()),
        ];
        #[rustfmt::skip]
        let golden: [u8; 154] = [
            6, 0, 0, 0,
            // i64 run: 1, -2, 300
            1, 3, 0, 0, 0, 1,
            1, 0, 0, 0, 0, 0, 0, 0,
            254, 255, 255, 255, 255, 255, 255, 255,
            44, 1, 0, 0, 0, 0, 0, 0,
            // 2-tuple run: typed i64 column, mixed column (10, "x", true)
            2, 3, 0, 0, 0, 2, 1,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0, 2, 10, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 120, 1, 1,
            // str run: "ab", ""
            1, 2, 0, 0, 0, 4, 2, 0, 0, 0, 97, 98, 0, 0, 0, 0,
            // f64 run: -0.0, 1.5 (raw bits)
            1, 2, 0, 0, 0, 2,
            0, 0, 0, 0, 0, 0, 0, 128,
            0, 0, 0, 0, 0, 0, 248, 63,
            // bool run: true, false
            1, 2, 0, 0, 0, 3, 1, 0,
            // row run: (), [7], ()-tuple
            0, 3, 0, 0, 0, 0, 6, 1, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0,
        ];
        let b = Batch::from_values(seq);
        assert_eq!(b.encode(), golden);
        assert_eq!(b.encoded_len(), golden.len());
        assert_eq!(Batch::new().encode(), [0, 0, 0, 0]);
        assert_eq!(Batch::new().encoded_len(), 4);
    }

    #[test]
    fn tuples_wider_than_a_byte_round_trip() {
        for arity in [255i64, 256, 257] {
            let wide = Value::tuple((0..arity).map(Value::I64));
            let values = vec![wide.clone(), wide];
            roundtrip(values.clone());
            let columnar = arity as usize <= MAX_ARITY;
            assert_eq!(
                Batch::from_values(values.clone()).encoded_len() < rows_len(&values),
                columnar,
                "arity {arity}: columnar only up to {MAX_ARITY} fields"
            );
        }
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let values = vec![Value::F64(weird), Value::F64(f64::NEG_INFINITY)];
        let b = Batch::from_values(values);
        let decoded = Batch::decode(&b.encode()).unwrap();
        let out = decoded.into_values();
        match out[0] {
            Value::F64(x) => assert_eq!(x.to_bits(), 0x7ff8_dead_beef_0001),
            ref other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn estimated_bytes_matches_value_sum() {
        let values = vec![
            Value::I64(1),
            Value::str("abc"),
            Value::tuple([Value::I64(1), Value::F64(2.0)]),
            Value::Unit,
            Value::list([Value::I64(1)]),
        ];
        let expected: u64 = values.iter().map(Value::estimated_bytes).sum();
        assert_eq!(Batch::from_values(values).estimated_bytes(), expected);
    }

    #[test]
    fn columnar_encoding_beats_row_fallback_for_tuples() {
        let values: Vec<Value> = (0..1000)
            .map(|i| Value::tuple([Value::I64(i), Value::I64(i * 2)]))
            .collect();
        let columnar = Batch::from_values(values.clone()).encoded_len();
        assert!(
            columnar < rows_len(&values),
            "columnar {columnar} vs rows {}",
            rows_len(&values)
        );
    }

    #[test]
    fn truncated_and_corrupt_inputs_fail_cleanly() {
        let b = Batch::from_values((0..10).map(Value::I64).collect());
        let encoded = b.encode();
        for cut in 0..encoded.len() {
            assert!(
                Batch::decode(&encoded[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut garbage = encoded.clone();
        garbage.push(0);
        assert!(Batch::decode(&garbage).is_err(), "trailing byte must fail");
        let mut bad_tag = encoded;
        bad_tag[4] = 0xEE;
        assert!(Batch::decode(&bad_tag).is_err(), "bad run tag must fail");
    }

    #[test]
    fn absurd_counts_are_rejected_without_allocation() {
        // Claims u32::MAX runs with a 4-byte body.
        let claim = u32::MAX.to_le_bytes().to_vec();
        assert!(Batch::decode(&claim).is_err());
    }
}
