//! Offline substitute for `serde` (see shims/README.md).
//!
//! Unlike the original marker-only shim, this is a real — if minimal —
//! serialization framework: `derive(Serialize, Deserialize)` expands to
//! working implementations (see `serde_derive`), driving a compact
//! self-describing token format. The workbench's persistent run store
//! (`vstress::exec::store`) round-trips `CharacterizationRun`s and
//! captured event streams through it across processes.
//!
//! This is **not** the crates.io serde API. There is no `Serializer`
//! trait hierarchy and no visitors. What it guarantees instead is
//! exactly what the run store needs:
//!
//! * **bit-exact round-trips** — `f64`/`f32` are written as the hex of
//!   their IEEE-754 bits, so a deserialized value is the *identical*
//!   bit pattern, never a nearest-decimal approximation;
//! * **self-describing tokens** — every token carries a one-byte kind
//!   prefix, so a corrupt or truncated entry fails parsing loudly
//!   instead of being misread;
//! * **schema tags** — struct and enum-variant names are embedded, so
//!   decoding a value as the wrong type is an error, not garbage;
//! * **bounded allocation** — a length prefix is checked against the
//!   input that is actually left before anything is allocated for it.
//!
//! # Wire format
//!
//! A serialized value is a sequence of space-terminated tokens:
//!
//! | token | meaning |
//! |---|---|
//! | `u<dec>` | unsigned integer (`u8`..`u64`, `usize`) |
//! | `i<dec>` | signed integer (`i8`..`i64`, `isize`) |
//! | `f<hex>` | `f64` IEEE-754 bits (`f32` widened losslessly) |
//! | `b0` / `b1` | boolean |
//! | `s<len>:<bytes>` | UTF-8 string, byte-length prefixed |
//! | `x<len>:<bytes>` | raw byte string, `len` bytes (see below) |
//! | `t<ident>` | tag: struct name or enum variant |
//! | `q<dec>` | sequence header: element count follows |
//!
//! Structs serialize as their name tag followed by each field in
//! declaration order; fieldless enums as their variant tag; sequences
//! (`Vec<T>`, slices, arrays) as a `q` header followed by elements.
//!
//! The format has a **text** and a **binary** form, which differ only in
//! the `x` token's payload. [`to_string`] / [`from_str`] use the text
//! form: the `len` raw bytes travel as `2 * len` lowercase hex digits, so
//! the output is always UTF-8. [`to_bytes`] / [`from_bytes`] use the
//! binary form: the payload is the `len` bytes themselves, and
//! [`Deserializer::read_bytes`] borrows them from the input without a
//! copy. Every other token is spelled identically in both forms.
//!
//! A [`SharedBytes`] value read from a [`Deserializer::shared`] input
//! goes one step further: it is a range of the input's own buffer, so a
//! value can keep its byte strings after the deserializer is gone
//! without copying them out.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex};

/// Error produced by deserialization (serialization is infallible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// Error for an unknown enum variant tag (used by derived code).
    pub fn unknown_variant(enum_name: &str, got: &str) -> Self {
        Error::new(format!("unknown {enum_name} variant tag {got:?}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A value serializable to the shim's wire format.
pub trait Serialize {
    /// Appends this value's tokens to `s`.
    fn serialize(&self, s: &mut Serializer);
}

/// A value deserializable from the shim's wire format.
pub trait Deserialize<'de>: Sized {
    /// Parses one value from the deserializer's current position.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the input does not encode `Self` at the
    /// current position (wrong token kind, bad tag, short input, …).
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error>;
}

/// Serializes `value` to a `String` in the text form of the wire format
/// (byte strings as hex).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut s = Serializer::new();
    value.serialize(&mut s);
    String::from_utf8(s.finish()).expect("the text form is UTF-8 by construction")
}

/// Deserializes a value from a string produced by [`to_string`].
///
/// The entire input must be consumed; trailing tokens are an error.
///
/// # Errors
///
/// Returns [`Error`] on any malformed, truncated, or trailing input.
pub fn from_str<T>(input: &str) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    Deserializer::new(input.as_bytes()).read_all()
}

/// Serializes `value` to bytes in the binary form of the wire format
/// (byte strings raw).
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut s = Serializer::binary();
    value.serialize(&mut s);
    s.finish()
}

/// Deserializes a value from bytes produced by [`to_bytes`].
///
/// The entire input must be consumed; trailing tokens are an error.
///
/// # Errors
///
/// Returns [`Error`] on any malformed, truncated, or trailing input.
pub fn from_bytes<T>(input: &[u8]) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    Deserializer::binary(input).read_all()
}

/// Appends `bytes` to `out` as lowercase hex.
fn hex_encode(bytes: &[u8], out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)]);
        out.push(HEX[usize::from(b & 0xf)]);
    }
}

/// Inverse of [`hex_encode`]; rejects odd lengths and anything but
/// lowercase hex digits.
fn hex_decode(text: &[u8]) -> Result<Vec<u8>, Error> {
    if !text.len().is_multiple_of(2) {
        return Err(Error::new("odd-length hex byte string"));
    }
    let nibble = |c: u8| -> Result<u8, Error> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(Error::new("bad hex digit in byte string")),
        }
    };
    let mut out = Vec::with_capacity(text.len() / 2);
    for pair in text.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Ok(out)
}

/// Token writer for the wire format; the default is the text form.
#[derive(Debug, Default)]
pub struct Serializer {
    out: Vec<u8>,
    /// Whether `x` tokens carry raw bytes (binary form) or hex (text).
    binary: bool,
}

impl Serializer {
    /// An empty serializer for the text form (byte strings as hex).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty serializer for the binary form (byte strings raw).
    pub fn binary() -> Self {
        Serializer { out: Vec::new(), binary: true }
    }

    /// The serialized tokens accumulated so far.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Writes `kind`, the body `v` and `end`: a space closes a token,
    /// a `:` opens a length-prefixed payload.
    fn write_head(&mut self, kind: u8, v: impl fmt::Display, end: char) {
        use std::io::Write as _;
        self.out.push(kind);
        write!(self.out, "{v}{end}").expect("writing to a Vec cannot fail");
    }

    /// Writes an unsigned integer token.
    pub fn write_u64(&mut self, v: u64) {
        self.write_head(b'u', v, ' ');
    }

    /// Writes a signed integer token.
    pub fn write_i64(&mut self, v: i64) {
        self.write_head(b'i', v, ' ');
    }

    /// Writes a float token (IEEE-754 bits in hex; bit-exact round-trip).
    pub fn write_f64(&mut self, v: f64) {
        self.write_head(b'f', format_args!("{:x}", v.to_bits()), ' ');
    }

    /// Writes a boolean token.
    pub fn write_bool(&mut self, v: bool) {
        self.out.extend_from_slice(if v { b"b1 " } else { b"b0 " });
    }

    /// Writes a byte-length-prefixed string token.
    pub fn write_str(&mut self, v: &str) {
        self.write_head(b's', v.len(), ':');
        self.out.extend_from_slice(v.as_bytes());
        self.out.push(b' ');
    }

    /// Writes a byte-string token: the bytes themselves in the binary
    /// form, their hex in the text form.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_head(b'x', v.len(), ':');
        if self.binary {
            self.out.extend_from_slice(v);
        } else {
            hex_encode(v, &mut self.out);
        }
        self.out.push(b' ');
    }

    /// Writes a tag token (a struct name or enum variant; must be a
    /// plain identifier).
    pub fn write_tag(&mut self, tag: &str) {
        debug_assert!(
            !tag.is_empty() && tag.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "tags must be identifiers, got {tag:?}"
        );
        self.out.push(b't');
        self.out.extend_from_slice(tag.as_bytes());
        self.out.push(b' ');
    }

    /// Writes a sequence header announcing `len` elements.
    pub fn write_seq_len(&mut self, len: usize) {
        self.write_head(b'q', len, ' ');
    }
}

/// Token reader over input produced by [`Serializer`].
#[derive(Debug)]
pub struct Deserializer<'de> {
    input: &'de [u8],
    pos: usize,
    /// Whether `x` tokens carry raw bytes (binary form) or hex (text).
    binary: bool,
    /// The buffer `input` is, when [`SharedBytes`] may share it.
    owner: Option<&'de Arc<Vec<u8>>>,
}

impl<'de> Deserializer<'de> {
    /// A deserializer at the start of text-form `input`.
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input, pos: 0, binary: false, owner: None }
    }

    /// A deserializer at the start of binary-form `input`.
    pub fn binary(input: &'de [u8]) -> Self {
        Deserializer { input, pos: 0, binary: true, owner: None }
    }

    /// A deserializer at the start of the binary-form buffer `input`,
    /// whose byte strings [`Deserializer::read_shared_bytes`] hands out
    /// as ranges of `input` itself.
    pub fn shared(input: &'de Arc<Vec<u8>>) -> Self {
        Deserializer { input, pos: 0, binary: true, owner: Some(input) }
    }

    /// Parses one `T` and checks that nothing but whitespace follows.
    fn read_all<T: Deserialize<'de>>(mut self) -> Result<T, Error> {
        let v = T::deserialize(&mut self)?;
        self.end()?;
        Ok(v)
    }

    /// Asserts the whole input was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if non-whitespace input remains.
    pub fn end(&self) -> Result<(), Error> {
        if self.remaining().iter().all(u8::is_ascii_whitespace) {
            Ok(())
        } else {
            Err(Error::new(format!("trailing input at byte {}", self.pos)))
        }
    }

    /// The input not consumed yet. Lets a caller read a token header and
    /// then take the rest of the input as an opaque payload.
    pub fn remaining(&self) -> &'de [u8] {
        &self.input[self.pos..]
    }

    /// Reads the next token's kind byte and body. For string and byte
    /// tokens the body is only the length prefix; the payload is read
    /// separately.
    fn next_token(&mut self) -> Result<(u8, &'de [u8]), Error> {
        let skipped = self.remaining().iter().take_while(|c| c.is_ascii_whitespace()).count();
        self.pos += skipped;
        let Some((&kind, rest)) = self.remaining().split_first() else {
            return Err(Error::new("unexpected end of input"));
        };
        self.pos += 1;
        // String and byte tokens are followed by raw payload bytes
        // (possibly spaces), so their token text ends at the ':' length
        // delimiter instead.
        let (len, delimiter) = match kind {
            b's' | b'x' => match rest.iter().position(|&c| c == b':') {
                Some(i) => (i, 1),
                None => return Err(Error::new("length-prefixed token missing ':' delimiter")),
            },
            _ => match rest.iter().position(|&c| c == b' ') {
                Some(i) => (i, 1),
                None => (rest.len(), 0),
            },
        };
        self.pos += len + delimiter;
        Ok((kind, &rest[..len]))
    }

    fn expect_kind(&mut self, want: u8, what: &str) -> Result<&'de [u8], Error> {
        let (kind, body) = self.next_token()?;
        if kind != want {
            return Err(Error::new(format!(
                "expected {what}, found token kind {:?} at byte {}",
                kind as char, self.pos
            )));
        }
        Ok(body)
    }

    /// Reads a token of kind `want` and parses its body as a `T`.
    fn parse_kind<T: std::str::FromStr>(&mut self, want: u8, what: &str) -> Result<T, Error> {
        let body = self.expect_kind(want, what)?;
        std::str::from_utf8(body)
            .ok()
            .and_then(|text| text.parse().ok())
            .ok_or_else(|| Error::new(format!("bad {what} {:?}", String::from_utf8_lossy(body))))
    }

    /// Takes the `len`-byte payload of a length-prefixed token and the
    /// separator after it. `len` is untrusted: it is checked against the
    /// input left before anything else happens.
    fn take_payload(&mut self, len: usize) -> Result<&'de [u8], Error> {
        let payload = self
            .pos
            .checked_add(len)
            .and_then(|end| self.input.get(self.pos..end))
            .ok_or_else(|| Error::new(format!("payload of {len} bytes runs past the input")))?;
        self.pos += len;
        // Consume the trailing space separator, if present.
        if self.input.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
        Ok(payload)
    }

    /// Reads an unsigned integer token.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the next token is not a valid `u` token.
    pub fn read_u64(&mut self) -> Result<u64, Error> {
        self.parse_kind(b'u', "unsigned integer")
    }

    /// Reads a signed integer token.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the next token is not a valid `i` token.
    pub fn read_i64(&mut self) -> Result<i64, Error> {
        self.parse_kind(b'i', "signed integer")
    }

    /// Reads a float token (bit-exact).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the next token is not a valid `f` token.
    pub fn read_f64(&mut self) -> Result<f64, Error> {
        let body = self.expect_kind(b'f', "float")?;
        std::str::from_utf8(body)
            .ok()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .map(f64::from_bits)
            .ok_or_else(|| {
                Error::new(format!("bad float bits {:?}", String::from_utf8_lossy(body)))
            })
    }

    /// Reads a boolean token.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the next token is not `b0` or `b1`.
    pub fn read_bool(&mut self) -> Result<bool, Error> {
        match self.expect_kind(b'b', "boolean")? {
            b"0" => Ok(false),
            b"1" => Ok(true),
            other => Err(Error::new(format!("bad boolean {:?}", String::from_utf8_lossy(other)))),
        }
    }

    /// Reads a string token, borrowing the payload from the input.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on a malformed length prefix, a short payload or
    /// a payload that is not UTF-8.
    pub fn read_str(&mut self) -> Result<&'de str, Error> {
        let len = self.parse_kind(b's', "string length")?;
        std::str::from_utf8(self.take_payload(len)?)
            .map_err(|_| Error::new("string payload is not UTF-8"))
    }

    /// Reads a byte-string token. In the binary form the bytes are
    /// borrowed from the input; in the text form they are decoded from
    /// hex.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on a malformed length prefix, a short payload or
    /// (text form) bad hex.
    pub fn read_bytes(&mut self) -> Result<Cow<'de, [u8]>, Error> {
        let len: usize = self.parse_kind(b'x', "byte-string length")?;
        if self.binary {
            return Ok(Cow::Borrowed(self.take_payload(len)?));
        }
        let hex_len = len
            .checked_mul(2)
            .ok_or_else(|| Error::new(format!("byte-string length {len} overflows")))?;
        Ok(Cow::Owned(hex_decode(self.take_payload(hex_len)?)?))
    }

    /// Reads a byte-string token as [`SharedBytes`]: a range of the
    /// input buffer when the deserializer is [`Deserializer::shared`],
    /// otherwise a copy in a buffer of its own.
    ///
    /// # Errors
    ///
    /// As [`Deserializer::read_bytes`].
    pub fn read_shared_bytes(&mut self) -> Result<SharedBytes, Error> {
        let Some(buf) = self.owner else {
            return Ok(self.read_bytes()?.into_owned().into());
        };
        let len: usize = self.parse_kind(b'x', "byte-string length")?;
        let start = self.pos;
        self.take_payload(len)?;
        Ok(SharedBytes { buf: Arc::clone(buf), range: start..start + len })
    }

    /// Reads a tag token (struct name / enum variant).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the next token is not a tag.
    pub fn read_tag(&mut self) -> Result<&'de str, Error> {
        let body = self.expect_kind(b't', "tag")?;
        std::str::from_utf8(body).map_err(|_| Error::new("tag is not UTF-8"))
    }

    /// Reads a tag token and checks it equals `want`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on a missing or mismatching tag.
    pub fn expect_tag(&mut self, want: &str) -> Result<(), Error> {
        let got = self.read_tag()?;
        if got == want {
            Ok(())
        } else {
            Err(Error::new(format!("expected tag {want:?}, found {got:?}")))
        }
    }

    /// Reads a sequence header, returning the element count.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the next token is not a sequence header.
    pub fn read_seq_len(&mut self) -> Result<usize, Error> {
        self.parse_kind(b'q', "sequence length")
    }
}

/// An immutable byte string that shares its buffer: an `Arc` over a
/// byte buffer plus the range of it this value covers.
///
/// Clones share the buffer, and equality compares bytes, never buffers.
/// A value read from a [`Deserializer::shared`] input is a range of
/// that input's buffer; one made from a `Vec<u8>` owns the whole `Vec`,
/// without copying it.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl SharedBytes {
    /// The buffer these bytes are a range of.
    pub fn buffer(&self) -> &Arc<Vec<u8>> {
        &self.buf
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        let range = 0..bytes.len();
        SharedBytes { buf: Arc::new(bytes), range }
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len())
            .field("buffer_len", &self.buf.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Implementations for std types.

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.write_u64(*self as u64);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
                let v = d.read_u64()?;
                <$t>::try_from(v)
                    .map_err(|_| Error::new(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.write_i64(*self as i64);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
                let v = d.read_i64()?;
                <$t>::try_from(v)
                    .map_err(|_| Error::new(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) {
        s.write_f64(*self);
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        d.read_f64()
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) {
        s.write_f64(f64::from(*self));
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        // Widening f32 -> f64 is exact, so narrowing back is too.
        Ok(d.read_f64()? as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) {
        s.write_bool(*self);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        d.read_bool()
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) {
        s.write_str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) {
        s.write_str(self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        Ok(d.read_str()?.to_owned())
    }
}

/// Interns `s`, leaking at most one copy per distinct string.
///
/// Exists so `&'static str` fields (e.g. catalogue clip names) can
/// round-trip; the pool is tiny and bounded by the set of distinct
/// strings ever deserialized into `&'static str` positions.
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(hit) = pool.iter().find(|x| **x == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

impl<'de> Deserialize<'de> for &'static str {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        Ok(intern(d.read_str()?))
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) {
        s.write_seq_len(self.len());
        for item in self {
            item.serialize(s);
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        let len = d.read_seq_len()?;
        // Cap the pre-allocation: `len` is untrusted input.
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::deserialize(d)?);
        }
        Ok(v)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        let len = d.read_seq_len()?;
        if len != N {
            return Err(Error::new(format!("expected array of {N} elements, found {len}")));
        }
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::deserialize(d)?);
        }
        v.try_into().map_err(|_| Error::new("array length mismatch"))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, s: &mut Serializer) {
        self.0.serialize(s);
        self.1.serialize(s);
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        Ok((A::deserialize(d)?, B::deserialize(d)?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self, s: &mut Serializer) {
        self.0.serialize(s);
        self.1.serialize(s);
        self.2.serialize(s);
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>, C: Deserialize<'de>> Deserialize<'de>
    for (A, B, C)
{
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        Ok((A::deserialize(d)?, B::deserialize(d)?, C::deserialize(d)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Some(v) => {
                s.write_bool(true);
                v.serialize(s);
            }
            None => s.write_bool(false),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        if d.read_bool()? {
            Ok(Some(T::deserialize(d)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        from_str(&to_string(v)).expect("round-trip")
    }

    #[test]
    fn integers_roundtrip() {
        assert_eq!(roundtrip(&0u64), 0);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&255u8), 255);
        assert_eq!(roundtrip(&-42i64), -42);
        assert_eq!(roundtrip(&i64::MIN), i64::MIN);
        assert_eq!(roundtrip(&usize::MAX), usize::MAX);
    }

    #[test]
    fn narrowing_out_of_range_is_an_error() {
        assert!(from_str::<u8>(&to_string(&300u64)).is_err());
        assert!(from_str::<i8>(&to_string(&-300i64)).is_err());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, 1.0 / 3.0, f64::NAN] {
            let back = roundtrip(&v);
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(roundtrip(&0.1f32).to_bits(), 0.1f32.to_bits());
    }

    #[test]
    fn strings_roundtrip_including_spaces_and_unicode() {
        for s in ["", "plain", "with spaces and  runs", "tabs\tand\nnewlines", "ünïcödé → ok"]
        {
            assert_eq!(roundtrip(&s.to_owned()), s);
        }
    }

    #[test]
    fn static_str_interns() {
        let a: &'static str = from_str(&to_string("game1")).unwrap();
        let b: &'static str = from_str(&to_string("game1")).unwrap();
        assert_eq!(a, "game1");
        assert!(std::ptr::eq(a, b), "same string must intern to the same allocation");
    }

    #[test]
    fn sequences_and_tuples_roundtrip() {
        let v = vec![vec![1u64, 2], vec![], vec![3]];
        assert_eq!(roundtrip(&v), v);
        let arr = [1.5f64, -2.5, 0.0];
        assert_eq!(roundtrip(&arr), arr);
        let t = (vec!["a".to_owned()], 7u64);
        assert_eq!(roundtrip(&t), t);
        assert_eq!(roundtrip(&Some(5u32)), Some(5));
        assert_eq!(roundtrip(&None::<u32>), None);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let full = to_string(&vec![1u64, 2, 3]);
        for cut in 1..full.len() - 1 {
            // Every strict prefix must fail loudly, never misparse.
            assert!(from_str::<Vec<u64>>(&full[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn trailing_input_is_an_error() {
        let mut text = to_string(&1u64);
        text.push_str("u2 ");
        assert!(from_str::<u64>(&text).is_err());
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        assert!(from_str::<u64>(&to_string(&1.5f64)).is_err());
        assert!(from_str::<String>(&to_string(&true)).is_err());
    }

    /// A byte string in both forms, read back through `read_bytes`.
    struct Blob(Vec<u8>);

    impl Serialize for Blob {
        fn serialize(&self, s: &mut Serializer) {
            s.write_bytes(&self.0);
        }
    }

    impl<'de> Deserialize<'de> for Blob {
        fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
            Ok(Blob(d.read_bytes()?.into_owned()))
        }
    }

    #[test]
    fn byte_strings_roundtrip_in_both_forms() {
        let all: Vec<u8> = (0..=255).collect();
        for bytes in [vec![], vec![b' ', b':', 0, 0xff], all] {
            let blob = Blob(bytes.clone());
            assert_eq!(from_str::<Blob>(&to_string(&blob)).unwrap().0, bytes);
            assert_eq!(from_bytes::<Blob>(&to_bytes(&blob)).unwrap().0, bytes);
        }
    }

    #[test]
    fn text_form_spells_bytes_as_hex_and_binary_form_raw() {
        let blob = Blob(vec![0x00, 0xab, b' ']);
        assert_eq!(to_string(&blob), "x3:00ab20 ");
        assert_eq!(to_bytes(&blob), b"x3:\x00\xab  ");
        // Other tokens are spelled identically in both forms.
        let v = (vec!["a b".to_owned()], 1.5f64, -3i64);
        assert_eq!(to_string(&v).as_bytes(), to_bytes(&v).as_slice());
    }

    #[test]
    fn binary_byte_strings_are_borrowed() {
        let wire = to_bytes(&Blob(vec![1, 2, 3]));
        let mut d = Deserializer::binary(&wire);
        assert!(matches!(d.read_bytes().unwrap(), Cow::Borrowed([1, 2, 3])));
        assert!(d.end().is_ok());
    }

    #[test]
    fn shared_byte_strings_are_ranges_of_the_input() {
        let wire = Arc::new(to_bytes(&(Blob(vec![1, 2, 3]), 7u64, Blob(vec![4; 9]))));
        let mut d = Deserializer::shared(&wire);
        let a = d.read_shared_bytes().unwrap();
        assert_eq!(u64::deserialize(&mut d).unwrap(), 7);
        let b = d.read_shared_bytes().unwrap();
        assert!(d.end().is_ok());
        assert_eq!((&a[..], &b[..]), (&[1, 2, 3][..], &[4; 9][..]));
        for bytes in [&a, &b] {
            assert!(Arc::ptr_eq(bytes.buffer(), &wire));
        }
        // Any other input copies; equality is by bytes either way.
        let copied = Deserializer::binary(&wire).read_shared_bytes().unwrap();
        assert!(!Arc::ptr_eq(copied.buffer(), &wire));
        assert_eq!(copied, a);
        let text = to_string(&Blob(a.to_vec()));
        assert_eq!(Deserializer::new(text.as_bytes()).read_shared_bytes().unwrap(), a);
        assert_ne!(a, b);
        assert!(Deserializer::shared(&Arc::new(b"x9:abc ".to_vec())).read_shared_bytes().is_err());
    }

    #[test]
    fn huge_length_prefixes_are_errors_not_allocations() {
        for wire in [
            format!("x{}:abc ", u64::MAX),
            format!("x{}:abc ", usize::MAX / 2 + 1),
            format!("s{}:abc ", u64::MAX),
            "x99999999999999999999999:abc ".to_owned(),
        ] {
            assert!(from_bytes::<Blob>(wire.as_bytes()).is_err(), "{wire}");
            assert!(from_str::<Blob>(&wire).is_err(), "{wire}");
        }
        assert!(from_bytes::<String>(format!("s{}:abc ", u64::MAX).as_bytes()).is_err());
    }

    #[test]
    fn truncated_binary_input_is_an_error() {
        let full = to_bytes(&(Blob(vec![7; 40]), 5u64));
        for cut in 0..full.len() - 1 {
            assert!(from_bytes::<(Blob, u64)>(&full[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn binary_strings_must_be_utf8() {
        assert!(from_bytes::<String>(b"s2:\xff\xfe ").is_err());
    }

    #[test]
    fn malformed_hex_is_an_error() {
        assert!(from_str::<Blob>("x2:0g12 ").is_err());
        assert!(from_str::<Blob>("x2:ABCD ").is_err(), "uppercase is not the text form");
    }

    #[test]
    fn tags_check_identity() {
        let mut s = Serializer::new();
        s.write_tag("CoreReport");
        let text = s.finish();
        let mut d = Deserializer::new(&text);
        assert!(d.expect_tag("OtherThing").is_err());
        let mut d = Deserializer::new(&text);
        assert!(d.expect_tag("CoreReport").is_ok());
    }
}
