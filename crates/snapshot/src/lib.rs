//! # vortex-snapshot
//!
//! Versioned, checksummed serialization of simulator state — the wire
//! format behind `Gpu::save_snapshot` / `Gpu::restore_snapshot` and the
//! `vxsim --checkpoint-every` / `--resume` flags.
//!
//! The format is deliberately simple (DESIGN.md §11):
//!
//! ```text
//! +---------------------------+
//! | magic   "VXSNAP01"  8 B   |
//! | version u32 (LE)          |
//! | config  u64 fingerprint   |
//! | len     u64 payload bytes |
//! | payload ...               |
//! | crc32   u32 over all of   |
//! |         the above         |
//! +---------------------------+
//! ```
//!
//! All integers are little-endian. The payload is a flat field-order
//! walk of the machine produced by each component's `save_state` — there
//! is no in-band schema; the *version* number is the schema. Readers
//! refuse any version they do not know, so a payload is never
//! misinterpreted. The config fingerprint binds a snapshot to the
//! machine shape it was taken from (core count, cache geometry, ...);
//! restoring into a differently-shaped machine is a structured error,
//! never a mis-sized read.
//!
//! Everything is hand-rolled per the offline-shim policy: no serde, no
//! external crates. Corruption anywhere — truncation, bit flips, a bad
//! length — surfaces as a [`SnapError`], never a panic: the reader
//! bounds-checks every access and the CRC catches payload damage before
//! any field is interpreted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Magic bytes opening every snapshot container.
pub const MAGIC: [u8; 8] = *b"VXSNAP01";

/// Current snapshot format version. Bump on any payload layout change;
/// readers reject other versions with [`SnapError::UnsupportedVersion`].
pub const VERSION: u32 = 1;

/// Byte overhead of the container around the payload.
pub const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// A structured snapshot decode failure. Every variant is a *diagnosis*:
/// nothing in this crate panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before a field (or the container frame) was
    /// complete.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// Bytes the failed read wanted.
        wanted: usize,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The CRC32 trailer does not match the container contents.
    ChecksumMismatch {
        /// CRC recorded in the trailer.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The snapshot was taken from a machine with a different
    /// configuration (core count, cache geometry, sampling interval...).
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        stored: u64,
        /// Fingerprint of the machine restoring it.
        expected: u64,
    },
    /// A field decoded to a value the target state cannot hold (bad enum
    /// tag, length exceeding a configured capacity, undecodable
    /// instruction word, ...). Names the field.
    BadValue(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { offset, wanted } => write!(
                f,
                "snapshot truncated: needed {wanted} more bytes at offset {offset}"
            ),
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::ConfigMismatch { stored, expected } => write!(
                f,
                "snapshot was taken from a differently-configured machine \
                 (fingerprint {stored:#018x}, this machine is {expected:#018x})"
            ),
            Self::BadValue(what) => write!(f, "snapshot field `{what}` holds an invalid value"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Convenience alias for snapshot results.
pub type SnapResult<T> = Result<T, SnapError>;

/// A little-endian byte-stream encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a u64 (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends raw bytes with *no* length prefix (fixed-size fields).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a u64 length prefix followed by the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// A bounds-checked little-endian decoder over a byte slice. Every read
/// either succeeds completely or returns [`SnapError::Truncated`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                offset: self.pos,
                wanted: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is a [`SnapError::BadValue`].
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue("bool")),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> SnapResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> SnapResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> SnapResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a usize (stored as u64); values beyond the platform's range
    /// are a [`SnapError::BadValue`].
    pub fn usize(&mut self) -> SnapResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue("usize"))
    }

    /// Reads a length prefix for a collection about to be filled.
    /// `element_floor` is the smallest possible encoded size of one
    /// element; a length that could not possibly fit in the remaining
    /// bytes is rejected up front so corrupt lengths cannot drive huge
    /// allocations.
    pub fn len(&mut self, element_floor: usize) -> SnapResult<usize> {
        let n = self.usize()?;
        if n.checked_mul(element_floor.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapError::BadValue("length"));
        }
        Ok(n)
    }

    /// Reads an `f32` by bit pattern.
    pub fn f32(&mut self) -> SnapResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a u64-length-prefixed byte string.
    pub fn bytes(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Fails unless every byte has been consumed — catches payloads with
    /// trailing garbage (a symptom of a schema mismatch the version
    /// check did not see, e.g. a hand-edited file).
    pub fn finish(self) -> SnapResult<()> {
        if self.remaining() != 0 {
            return Err(SnapError::BadValue("trailing bytes"));
        }
        Ok(())
    }
}

/// Value-level serialization: types whose bytes fully determine them.
/// Structural components (caches, cores...) get in-place
/// `save_state`/`restore_state` methods from [`snapshot!`] instead, so
/// configuration-derived shape never comes from the (untrusted) payload.
pub trait Snap: Sized {
    /// Appends this value to `w`.
    fn save(&self, w: &mut Writer);
    /// Decodes one value from `r`.
    fn load(r: &mut Reader<'_>) -> SnapResult<Self>;
    /// Decodes one value from `r` into `self`. Collections clear and
    /// refill, so they keep the capacity they were built with.
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        *self = Self::load(r)?;
        Ok(())
    }
}

macro_rules! snap_prim {
    ($t:ty, $m:ident) => {
        impl Snap for $t {
            fn save(&self, w: &mut Writer) {
                w.$m(*self);
            }
            fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
                r.$m()
            }
        }
    };
}

snap_prim!(u8, u8);
snap_prim!(u16, u16);
snap_prim!(u32, u32);
snap_prim!(u64, u64);
snap_prim!(usize, usize);
snap_prim!(bool, bool);
snap_prim!(f32, f32);

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapError::BadValue("option tag")),
        }
    }
}

/// A fixed-size array: its elements in order, with no length.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        let items = (0..N).map(|_| T::load(r)).collect::<SnapResult<Vec<T>>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N items")))
    }
    fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.iter_mut().try_for_each(|v| v.load_into(r))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// A variable-length collection: saved as a `u64` length and its items in
/// order, restored in place by [`fill`].
pub trait Seq: Default {
    /// One saved item (a key-value pair for maps).
    type Item: Snap;
    /// Empties the collection and makes room for `n` items.
    fn reset(&mut self, n: usize);
    /// Appends one loaded item.
    fn put(&mut self, item: Self::Item);
}

/// Refills `seq` in place from a length-prefixed list. A length above
/// `max` is refused as soon as it is read, and an item `ok` rejects as
/// soon as it is loaded, both as [`SnapError::BadValue`]`(what)`.
///
/// # Errors
/// That refusal, or any error of the items' own decoding.
pub fn fill<S: Seq>(
    seq: &mut S,
    r: &mut Reader<'_>,
    max: usize,
    ok: impl Fn(&S::Item) -> bool,
    what: &'static str,
) -> SnapResult<()> {
    let n = r.len(1)?;
    if n > max {
        return Err(SnapError::BadValue(what));
    }
    seq.reset(n);
    for _ in 0..n {
        let item = S::Item::load(r)?;
        if !ok(&item) {
            return Err(SnapError::BadValue(what));
        }
        seq.put(item);
    }
    Ok(())
}

/// Decodes a value of the type of the field `field` projects, so that
/// [`snapshot!`] can check it before the struct it belongs to is built.
#[doc(hidden)]
pub fn load_field<S, T: Snap>(_field: fn(&S) -> &T, r: &mut Reader<'_>) -> SnapResult<T> {
    T::load(r)
}

impl<T: Snap> Seq for Vec<T> {
    type Item = T;
    fn reset(&mut self, n: usize) {
        self.clear();
        self.reserve(n);
    }
    fn put(&mut self, item: T) {
        self.push(item);
    }
}

impl<T: Snap> Seq for VecDeque<T> {
    type Item = T;
    fn reset(&mut self, n: usize) {
        self.clear();
        self.reserve(n);
    }
    fn put(&mut self, item: T) {
        self.push_back(item);
    }
}

impl<K: Snap + Ord, V: Snap> Seq for BTreeMap<K, V> {
    type Item = (K, V);
    fn reset(&mut self, _: usize) {
        self.clear();
    }
    fn put(&mut self, (k, v): (K, V)) {
        self.insert(k, v);
    }
}

impl<K: Snap + Ord + Hash, V: Snap> Seq for HashMap<K, V> {
    type Item = (K, V);
    fn reset(&mut self, n: usize) {
        self.clear();
        self.reserve(n);
    }
    fn put(&mut self, (k, v): (K, V)) {
        self.insert(k, v);
    }
}

/// `Snap` for collections: the length, then `$save` writes the items.
macro_rules! snap_seq {
    ($([$($g:tt)*] $t:ty => |$s:ident, $w:ident| $save:block)*) => {$(
        impl<$($g)*> Snap for $t {
            fn save(&self, $w: &mut Writer) {
                $w.usize(self.len());
                let $s = self;
                $save
            }
            fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
                let mut seq = Self::default();
                seq.load_into(r)?;
                Ok(seq)
            }
            fn load_into(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
                fill(self, r, usize::MAX, |_| true, "length")
            }
        }
    )*};
}

snap_seq! {
    [T: Snap] Vec<T> => |s, w| { s.iter().for_each(|v| v.save(w)) }
    [T: Snap] VecDeque<T> => |s, w| { s.iter().for_each(|v| v.save(w)) }
    [K: Snap + Ord, V: Snap] BTreeMap<K, V> => |s, w| {
        for (k, v) in s {
            k.save(w);
            v.save(w);
        }
    }
    [K: Snap + Ord + Hash, V: Snap] HashMap<K, V> => |s, w| {
        // Iteration order is unspecified: save in key order, so the bytes
        // are a pure function of the contents.
        let mut items: Vec<_> = s.iter().collect();
        items.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (k, v) in items {
            k.save(w);
            v.save(w);
        }
    }
}

/// Generates a type's snapshot code from one list of its fields, in stream
/// order, so the byte layout is written once.
///
/// `impl Snap for T { .. }` implements [`Snap`] for a value type.
/// `impl [generics] vis state for T { .. }` gives a component in-place
/// `save_state`/`restore_state` methods: its configuration-derived shape
/// stays as built, and collections keep their capacity. Either form
/// destructures `Self` exhaustively, so a field that is neither listed nor
/// skipped does not compile. The items, comma-separated:
///
/// * `f` — a [`Snap`] value; `f: state` — a component with its own methods;
///   `f: each`, `f: each state`, `f: each each` — a shape fixed by the
///   configuration (a `Vec`, an array, an `Option` that the configuration
///   makes present), walked element by element with no length or tag.
/// * `f if ok => "name"` — refuse with [`SnapError::BadValue`]`("name")`
///   unless `ok` holds once `f` is loaded (with `each`, per element, `f`
///   naming the element). `f as new if ok => "name"` loads `new` and checks
///   it against the value `f` holds before replacing it.
/// * `f <= max => "name"` — a collection whose length is refused above
///   `max` as soon as it is read; `f for pat if ok => "name"` — one whose
///   items are each checked as soon as they are loaded.
/// * `reserved T = v => "name"` — a retired word, always `v`.
/// * `check ok => "name"` — a check between fields.
/// * `config f` — construction state, left as built; `scratch f` — host
///   state outside the simulation, left as it is; `derived f = e` and
///   `scratch f = e` — set to `e` on restore, at that point of the list.
///
/// Checks and `= e` expressions name fields directly: in `restore_state`
/// every field, as `&mut`; in `Snap::load` the fields loaded so far.
///
/// ```compile_fail,E0027
/// struct Counters {
///     hits: u64,
///     misses: u64,
/// }
/// // `misses` is neither listed nor skipped.
/// vortex_snapshot::snapshot! {
///     impl Snap for Counters { hits }
/// }
/// ```
#[macro_export]
macro_rules! snapshot {
    (impl $([$($g:tt)*])? Snap for $ty:ty { $($items:tt)* }) => {
        $crate::snapshot!(@item value w r (([$($($g)*)?] $ty) [] [] []); $($items)*,);
    };
    (impl [$($g:tt)*] $vis:vis state for $ty:ty { $($items:tt)* }) => {
        $crate::snapshot!(@item state w r (([$($g)*] $vis $ty) [] [] []); $($items)*,);
    };
    (impl $vis:vis state for $ty:ty { $($items:tt)* }) => {
        $crate::snapshot!(@item state w r (([] $vis $ty) [] [] []); $($items)*,);
    };

    // Each item adds to three lists (`@add`): the field names, the save
    // statements and the load statements.
    (@item $m:ident $w:ident $r:ident ($head:tt $n:tt $s:tt $l:tt); $(,)*) => {
        $crate::snapshot!(@emit $m $w $r $head $n $s $l);
    };
    (@item $m:ident $w:ident $r:ident $acc:tt;
        reserved $t:ty = $v:expr => $what:literal, $($rest:tt)*) => {
        $crate::snapshot!(@add $m $w $r $acc [] [<$t as $crate::Snap>::save(&$v, $w);]
            [$crate::snapshot!(@check <$t as $crate::Snap>::load($r)? == $v, $what);]; $($rest)*);
    };
    (@item $m:ident $w:ident $r:ident $acc:tt; check $ok:expr => $what:literal, $($rest:tt)*) => {
        $crate::snapshot!(@add $m $w $r $acc [] [] [$crate::snapshot!(@check $ok, $what);];
            $($rest)*);
    };
    (@item $m:ident $w:ident $r:ident $acc:tt; $why:ident $f:ident, $($rest:tt)*) => {
        $crate::snapshot!(@add $m $w $r $acc [$f] [] [$crate::snapshot!(@why $why);]; $($rest)*);
    };
    (@item $m:ident $w:ident $r:ident $acc:tt; $why:ident $f:ident = $e:expr, $($rest:tt)*) => {
        $crate::snapshot!(@add $m $w $r $acc [$f] []
            [$crate::snapshot!(@why $why); $crate::snapshot!(@set $m $f $e);]; $($rest)*);
    };
    (@item state $w:ident $r:ident $acc:tt; $f:ident: $($k:ident)+, $($rest:tt)*) => {
        $crate::snapshot!(@add state $w $r $acc [$f] [$crate::snapshot!(@save [$($k)+] $f $w);]
            [$crate::snapshot!(@load [$($k)+] $f $r);]; $($rest)*);
    };
    (@item state $w:ident $r:ident $acc:tt;
        $f:ident: each if $ok:expr => $what:literal, $($rest:tt)*) => {
        $crate::snapshot!(@add state $w $r $acc [$f] [$crate::snapshot!(@save [each] $f $w);]
            [for $f in $f.iter_mut() {
                $crate::Snap::load_into($f, $r)?;
                $crate::snapshot!(@check $ok, $what);
            }]; $($rest)*);
    };
    (@item state $w:ident $r:ident $acc:tt;
        $f:ident <= $max:expr => $what:literal, $($rest:tt)*) => {
        $crate::snapshot!(@add state $w $r $acc [$f] [$crate::Snap::save($f, $w);]
            [$crate::fill($f, $r, $max, |_| true, $what)?;]; $($rest)*);
    };
    (@item state $w:ident $r:ident $acc:tt;
        $f:ident for $p:pat_param if $ok:expr => $what:literal, $($rest:tt)*) => {
        $crate::snapshot!(@add state $w $r $acc [$f] [$crate::Snap::save($f, $w);]
            [$crate::fill($f, $r, usize::MAX, |$p| $ok, $what)?;]; $($rest)*);
    };
    (@item state $w:ident $r:ident $acc:tt;
        $f:ident as $new:ident if $ok:expr => $what:literal, $($rest:tt)*) => {
        $crate::snapshot!(@add state $w $r $acc [$f] [$crate::Snap::save($f, $w);]
            [let $new = $crate::load_field(|s: &Self| &s.$f, $r)?;
                $crate::snapshot!(@check $ok, $what);
                *$f = $new;]; $($rest)*);
    };
    (@item $m:ident $w:ident $r:ident $acc:tt;
        $f:ident $(if $ok:expr => $what:literal)?, $($rest:tt)*) => {
        $crate::snapshot!(@add $m $w $r $acc [$f] [$crate::Snap::save($f, $w);]
            [$crate::snapshot!(@field $m $f $r); $($crate::snapshot!(@check $ok, $what);)?];
            $($rest)*);
    };
    (@add $m:ident $w:ident $r:ident ($head:tt [$($n:tt)*] [$($s:tt)*] [$($l:tt)*])
        [$($n2:tt)*] [$($s2:tt)*] [$($l2:tt)*]; $($rest:tt)*) => {
        $crate::snapshot!(@item $m $w $r
            ($head [$($n)* $($n2)*] [$($s)* $($s2)*] [$($l)* $($l2)*]); $($rest)*);
    };

    // Walks: a value, a component, or a fixed-shape collection of either.
    (@save [state] $x:ident $w:ident) => { $x.save_state($w) };
    (@save [each $($k:ident)*] $x:ident $w:ident) => {
        for y in $x.iter() { $crate::snapshot!(@save [$($k)*] y $w); }
    };
    (@save [] $x:ident $w:ident) => { $crate::Snap::save($x, $w) };
    (@load [state] $x:ident $r:ident) => { $x.restore_state($r)? };
    (@load [each $($k:ident)*] $x:ident $r:ident) => {
        for y in $x.iter_mut() { $crate::snapshot!(@load [$($k)*] y $r); }
    };
    (@load [] $x:ident $r:ident) => { $crate::Snap::load_into($x, $r)? };
    // A plain field: loaded into a binding for `Snap::load`, in place for
    // `restore_state`.
    (@field value $f:ident $r:ident) => { let $f = $crate::load_field(|s: &Self| &s.$f, $r)?; };
    (@field state $f:ident $r:ident) => { $crate::Snap::load_into($f, $r)?; };
    (@set value $f:ident $e:expr) => { let $f = $e; };
    (@set state $f:ident $e:expr) => { *$f = $e; };
    // Why a listed field is not loaded.
    (@why config) => {};
    (@why derived) => {};
    (@why scratch) => {};
    (@check $ok:expr, $what:literal) => {
        if !($ok) {
            return Err($crate::SnapError::BadValue($what));
        }
    };

    (@emit value $w:ident $r:ident ([$($g:tt)*] $ty:ty) [$($n:ident)*] [$($s:tt)*] [$($l:tt)*]) => {
        impl<$($g)*> $crate::Snap for $ty {
            fn save(&self, $w: &mut $crate::Writer) {
                #[allow(unused_variables)]
                let Self { $($n),* } = self;
                $($s)*
            }
            fn load($r: &mut $crate::Reader<'_>) -> $crate::SnapResult<Self> {
                $($l)*
                Ok(Self { $($n),* })
            }
        }
    };
    (@emit state $w:ident $r:ident ([$($g:tt)*] $vis:vis $ty:ty) [$($n:ident)*] [$($s:tt)*] [$($l:tt)*]) => {
        impl<$($g)*> $ty {
            /// Appends this component's state in its `snapshot!` list order.
            $vis fn save_state(&self, $w: &mut $crate::Writer) {
                #[allow(unused_variables)]
                let Self { $($n),* } = self;
                $($s)*
            }
            /// Restores this component in place from [`Self::save_state`]
            /// bytes; on an error it must be discarded.
            ///
            /// # Errors
            /// A `SnapError` on malformed bytes.
            $vis fn restore_state(&mut self, $r: &mut $crate::Reader<'_>) -> $crate::SnapResult<()> {
                #[allow(unused_variables)]
                let Self { $($n),* } = self;
                $($l)*
                Ok(())
            }
        }
    };
}

/// CRC32 (IEEE 802.3, reflected) lookup table, built at first use.
fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes` — the container's integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit hash — used to fingerprint machine configurations.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Wraps `payload` in the versioned, checksummed container.
pub fn seal(config_fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&config_fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a container and returns its payload slice.
///
/// Checks, in order: magic, version, frame completeness, CRC, and the
/// config fingerprint against `expected_fingerprint`. Only a payload
/// that passed *all* of them is handed back for field decoding.
///
/// # Errors
/// The respective [`SnapError`] variant for each failed check.
pub fn open(bytes: &[u8], expected_fingerprint: u64) -> SnapResult<&[u8]> {
    let mut r = Reader::new(bytes);
    if r.raw(8).map_err(|_| SnapError::BadMagic)? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let fingerprint = r.u64()?;
    let len = r.usize()?;
    // Frame check before the CRC so a truncated file reports *truncation*,
    // not a checksum mismatch against garbage.
    if r.remaining() < len + 4 {
        return Err(SnapError::Truncated {
            offset: bytes.len(),
            wanted: HEADER_BYTES + len + 4 - bytes.len(),
        });
    }
    let body_end = HEADER_BYTES + len;
    let stored = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    if fingerprint != expected_fingerprint {
        return Err(SnapError::ConfigMismatch {
            stored: fingerprint,
            expected: expected_fingerprint,
        });
    }
    Ok(&bytes[HEADER_BYTES..body_end])
}

/// Opens a container with [`open`], decodes its payload with `load`, and
/// requires every payload byte to be consumed.
///
/// # Errors
/// The first [`SnapError`] of the three steps.
pub fn unseal<'a, T>(
    bytes: &'a [u8],
    expected_fingerprint: u64,
    load: impl FnOnce(&mut Reader<'a>) -> SnapResult<T>,
) -> SnapResult<T> {
    let mut r = Reader::new(open(bytes, expected_fingerprint)?);
    let value = load(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.bool(true);
        w.f32(1.5);
        w.usize(42);
        w.bytes(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.bool().unwrap());
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn collections_and_options_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let q: std::collections::VecDeque<(u64, u32)> =
            [(9u64, 1u32), (8, 2)].into_iter().collect();
        let mut w = Writer::new();
        v.save(&mut w);
        q.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<Option<u32>>::load(&mut r).unwrap(), v);
        assert_eq!(
            std::collections::VecDeque::<(u64, u32)>::load(&mut r).unwrap(),
            q
        );
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_errors_not_panics() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapError::BadValue("length"))
        ));
    }

    #[test]
    fn container_round_trips_and_checks_integrity() {
        let payload = b"state bytes".to_vec();
        let sealed = seal(0x1234, &payload);
        assert_eq!(open(&sealed, 0x1234).unwrap(), &payload[..]);

        // Wrong magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(open(&bad, 0x1234), Err(SnapError::BadMagic));

        // Unknown version.
        let mut bad = sealed.clone();
        bad[8] = 99;
        assert!(matches!(
            open(&bad, 0x1234),
            Err(SnapError::UnsupportedVersion { found: 99, .. })
        ));

        // Truncation, every prefix length: structured error, no panic.
        for cut in 0..sealed.len() {
            let err = open(&sealed[..cut], 0x1234).unwrap_err();
            assert!(
                matches!(err, SnapError::Truncated { .. } | SnapError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }

        // A flipped payload bit fails the CRC.
        let mut bad = sealed.clone();
        let mid = HEADER_BYTES + payload.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            open(&bad, 0x1234),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Config fingerprint mismatch.
        assert!(matches!(
            open(&sealed, 0x9999),
            Err(SnapError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let a = fnv1a64(b"4W-4T");
        assert_eq!(a, fnv1a64(b"4W-4T"));
        assert_ne!(a, fnv1a64(b"4W-8T"));
    }

    #[derive(Debug, PartialEq)]
    struct Entry {
        id: u8,
        tags: Vec<u32>,
    }

    crate::snapshot! {
        impl Snap for Entry {
            id if id < 8 => "entry id",
            tags,
        }
    }

    /// A component: fixed-shape slots, a bounded queue, a derived count and
    /// a scratch pool.
    struct Unit {
        slots: Vec<Option<u16>>,
        queue: VecDeque<Entry>,
        capacity: usize,
        busy: usize,
        pool: Vec<u8>,
    }

    crate::snapshot! {
        impl state for Unit {
            slots: each,
            queue <= *capacity => "queue occupancy",
            reserved u8 = 0 => "reserved byte",
            config capacity,
            derived busy = slots.iter().flatten().count(),
            scratch pool = Vec::new(),
        }
    }

    fn unit() -> Unit {
        Unit {
            slots: vec![None; 3],
            queue: VecDeque::with_capacity(2),
            capacity: 2,
            busy: 0,
            pool: Vec::new(),
        }
    }

    #[test]
    fn generated_codecs_round_trip_in_place() {
        let mut a = unit();
        a.slots[1] = Some(7);
        a.queue.push_back(Entry {
            id: 3,
            tags: vec![1, 2],
        });
        a.pool.push(9);
        let mut w = Writer::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        // Slots walk with no length; the queue carries one; then the
        // reserved byte.
        assert_eq!(bytes.len(), 1 + (1 + 2) + 1 + 8 + (1 + 8 + 2 * 4) + 1);
        let mut b = unit();
        let mut r = Reader::new(&bytes);
        b.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((b.slots, b.busy, b.pool.len()), (a.slots, 1, 0));
        assert_eq!(b.queue, a.queue);
        assert!(b.queue.capacity() >= 2, "the queue refills in place");
    }

    #[test]
    fn generated_checks_name_their_field() {
        let refuse = |bytes: &[u8]| unit().restore_state(&mut Reader::new(bytes)).unwrap_err();
        let mut w = Writer::new();
        [None::<u16>; 3].save(&mut w);
        w.usize(3);
        w.raw(&[0; 64]);
        assert_eq!(
            refuse(&w.into_bytes()),
            SnapError::BadValue("queue occupancy")
        );
        let mut w = Writer::new();
        [None::<u16>; 3].save(&mut w);
        w.usize(1);
        w.u8(8);
        assert_eq!(refuse(&w.into_bytes()), SnapError::BadValue("entry id"));
        let mut w = Writer::new();
        [None::<u16>; 3].save(&mut w);
        w.usize(0);
        w.u8(1);
        assert_eq!(
            refuse(&w.into_bytes()),
            SnapError::BadValue("reserved byte")
        );
    }
}
