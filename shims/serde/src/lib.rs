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
//! Neither direction needs a whole value's bytes in memory at once.
//! [`to_writer`] writes the binary form through a bounded spill buffer,
//! handing byte strings to the writer as they are. A [`SparseInput`]
//! reads a binary-form file through a bounded buffer and keeps only its
//! small tokens; each byte string stays in the file, and
//! [`Deserializer::read_shared_bytes`] hands it out as a file-backed
//! [`SharedBytes`] span that is read when it is used.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::sync::{Arc, Mutex};

/// Bytes of small tokens a [`to_writer`] serializer gathers before it
/// writes them, and the buffer a [`SparseInput`] reads its file through.
const BUFFER_BYTES: usize = 64 << 10;

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
///
/// # Panics
///
/// Panics if a file-backed [`SharedBytes`] in `value` cannot be read.
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
///
/// # Panics
///
/// Panics if a file-backed [`SharedBytes`] in `value` cannot be read.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut s = Serializer::binary();
    value.serialize(&mut s);
    s.finish()
}

/// Writes `value` to `w` in the binary form, exactly the bytes of
/// [`to_bytes`], without holding them in memory: small tokens gather in
/// a 64 KiB buffer, and each byte string goes to `w` as it is.
///
/// # Errors
///
/// Returns the first error from `w`, or from reading a file-backed
/// [`SharedBytes`] in `value`; nothing is written after it.
pub fn to_writer<T: Serialize + ?Sized, W: Write>(value: &T, mut w: W) -> io::Result<()> {
    let mut s = Serializer { sink: Some(&mut w), ..Serializer::binary() };
    value.serialize(&mut s);
    s.spill();
    s.error.map_or(Ok(()), Err)
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
///
/// It gathers the tokens in memory ([`Serializer::finish`]), or, inside
/// [`to_writer`], spills them to a writer as they come.
#[derive(Default)]
pub struct Serializer<'w> {
    out: Vec<u8>,
    /// Whether `x` tokens carry raw bytes (binary form) or hex (text).
    binary: bool,
    /// Where `out` spills once it holds [`BUFFER_BYTES`], and where byte
    /// strings go directly; `None` keeps every token in `out`.
    sink: Option<&'w mut dyn Write>,
    /// The first write or read error; nothing is written after it.
    error: Option<io::Error>,
}

impl fmt::Debug for Serializer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Serializer")
            .field("buffered", &self.out.len())
            .field("binary", &self.binary)
            .field("spills", &self.sink.is_some())
            .finish()
    }
}

impl Serializer<'_> {
    /// An empty serializer for the text form (byte strings as hex).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty serializer for the binary form (byte strings raw).
    pub fn binary() -> Self {
        Serializer { binary: true, ..Self::default() }
    }

    /// The serialized tokens accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if a file-backed [`SharedBytes`] could not be read.
    pub fn finish(self) -> Vec<u8> {
        if let Some(e) = self.error {
            panic!("serde: reading a file-backed byte string failed: {e}");
        }
        self.out
    }

    /// Writes `bytes` to the sink, keeping the first error.
    fn emit(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Some(sink) = self.sink.as_mut() {
                self.error = sink.write_all(bytes).err();
            }
        }
    }

    /// Spills the gathered tokens once they fill [`BUFFER_BYTES`].
    fn bound(&mut self) {
        if self.out.len() >= BUFFER_BYTES {
            self.spill();
        }
    }

    /// Hands the gathered tokens to the sink, if there is one.
    fn spill(&mut self) {
        if self.sink.is_some() && !self.out.is_empty() {
            let out = std::mem::take(&mut self.out);
            self.emit(&out);
            self.out = out;
            self.out.clear();
        }
    }

    /// Appends raw payload bytes: straight to the sink when there is one,
    /// after the tokens gathered before them.
    fn write_raw(&mut self, bytes: &[u8]) {
        if self.sink.is_some() {
            self.spill();
            self.emit(bytes);
        } else {
            self.out.extend_from_slice(bytes);
        }
    }

    /// Writes `kind`, the body `v` and `end`: a space closes a token,
    /// a `:` opens a length-prefixed payload.
    fn write_head(&mut self, kind: u8, v: impl fmt::Display, end: char) {
        self.bound();
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
        self.bound();
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
        self.write_payload(v);
        self.out.push(b' ');
    }

    /// Writes a [`SharedBytes`] as a byte-string token, reading a
    /// file-backed one in 64 KiB pieces. A read error is kept (see
    /// [`to_writer`] and [`Serializer::finish`]).
    pub fn write_shared_bytes(&mut self, v: &SharedBytes) {
        let (file, offset, len) = match &v.0 {
            Backing::Memory(bytes) => return self.write_bytes(bytes),
            Backing::File { file, offset, len } => (file, offset, len),
        };
        self.write_head(b'x', len, ':');
        let mut piece = vec![0; (*len).min(BUFFER_BYTES)];
        let mut at = 0;
        while at < *len && self.error.is_none() {
            let n = piece.len().min(len - at);
            match file.read_exact_at(&mut piece[..n], offset + at as u64) {
                Ok(()) => self.write_payload(&piece[..n]),
                Err(e) => self.error = Some(e),
            }
            at += n;
        }
        self.out.push(b' ');
    }

    /// The payload of a byte-string token: raw or as hex.
    fn write_payload(&mut self, v: &[u8]) {
        if self.binary {
            self.write_raw(v);
        } else {
            hex_encode(v, &mut self.out);
        }
    }

    /// Writes a tag token (a struct name or enum variant; must be a
    /// plain identifier).
    pub fn write_tag(&mut self, tag: &str) {
        debug_assert!(
            !tag.is_empty() && tag.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "tags must be identifiers, got {tag:?}"
        );
        self.bound();
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
    /// For a [`Deserializer::sparse`] input: the input, and the index of
    /// the next byte string's span.
    sparse: Option<(&'de SparseInput, usize)>,
}

impl<'de> Deserializer<'de> {
    /// A deserializer at the start of text-form `input`.
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input, pos: 0, binary: false, sparse: None }
    }

    /// A deserializer at the start of binary-form `input`.
    pub fn binary(input: &'de [u8]) -> Self {
        Deserializer { input, pos: 0, binary: true, sparse: None }
    }

    /// A deserializer at the start of a [`SparseInput`]: every byte string
    /// is a span of its file. [`Deserializer::read_shared_bytes`] hands
    /// the span out as it is; [`Deserializer::read_bytes`] reads it into a
    /// `Vec` of its own.
    pub fn sparse(input: &'de SparseInput) -> Self {
        Deserializer { input: &input.tokens, pos: 0, binary: true, sparse: Some((input, 0)) }
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
        let spans_left = self.sparse.is_some_and(|(input, next)| next < input.spans.len());
        if !spans_left && self.remaining().iter().all(u8::is_ascii_whitespace) {
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
        if self.sparse.is_some() {
            let mut bytes = Vec::new();
            self.take_span(len)?
                .read(&mut bytes)
                .map_err(|e| Error::new(format!("reading a byte string: {e}")))?;
            return Ok(Cow::Owned(bytes));
        }
        if self.binary {
            return Ok(Cow::Borrowed(self.take_payload(len)?));
        }
        let hex_len = len
            .checked_mul(2)
            .ok_or_else(|| Error::new(format!("byte-string length {len} overflows")))?;
        Ok(Cow::Owned(hex_decode(self.take_payload(hex_len)?)?))
    }

    /// Reads a byte-string token as [`SharedBytes`]: a span of the file
    /// when the deserializer is [`Deserializer::sparse`], otherwise a
    /// copy in a buffer of its own.
    ///
    /// # Errors
    ///
    /// As [`Deserializer::read_bytes`].
    pub fn read_shared_bytes(&mut self) -> Result<SharedBytes, Error> {
        if self.sparse.is_none() {
            return Ok(self.read_bytes()?.into_owned().into());
        }
        let len: usize = self.parse_kind(b'x', "byte-string length")?;
        self.take_span(len)
    }

    /// The next byte string's span of a sparse input, whose `x` token
    /// says it holds `len` bytes.
    fn take_span(&mut self, len: usize) -> Result<SharedBytes, Error> {
        let (input, next) = self.sparse.as_mut().expect("a sparse input");
        let &(offset, span_len) =
            input.spans.get(*next).ok_or_else(|| Error::new("no byte string left in the file"))?;
        *next += 1;
        if span_len != len {
            return Err(Error::new(format!("byte string of {len} bytes spans {span_len}")));
        }
        if self.input.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
        Ok(SharedBytes(Backing::File { file: Arc::clone(&input.file), offset, len }))
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

/// An immutable byte string that shares its bytes: a buffer in memory,
/// or a span of an open file.
///
/// Clones share the buffer or the file, and equality compares bytes.
/// One made from a `Vec<u8>` owns the whole `Vec`, without copying it. A
/// value read from a [`Deserializer::sparse`] input is a span of that
/// input's file, read each time it is used ([`SharedBytes::read`]); it
/// reads the bytes the file holds then. The open file keeps its bytes
/// when the path is renamed over or deleted, but not when the file itself
/// is written to or cut short.
#[derive(Clone)]
pub struct SharedBytes(Backing);

#[derive(Clone)]
enum Backing {
    /// A buffer of its own, shared by clones.
    Memory(Arc<Vec<u8>>),
    /// `len` bytes at `offset` of `file`.
    File { file: Arc<File>, offset: u64, len: usize },
}

impl SharedBytes {
    /// Number of bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Backing::Memory(bytes) => bytes.len(),
            Backing::File { len, .. } => *len,
        }
    }

    /// Whether there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, if they are in memory; `None` for a span of a file.
    pub fn as_slice(&self) -> Option<&[u8]> {
        match &self.0 {
            Backing::Memory(bytes) => Some(bytes),
            Backing::File { .. } => None,
        }
    }

    /// The bytes: borrowed when they are in memory, otherwise read from
    /// the file into `buf`, which is resized to fit them and can be reused
    /// from call to call.
    ///
    /// # Errors
    ///
    /// Returns the error of reading the file; a file cut short since the
    /// span was made is an [`io::ErrorKind::UnexpectedEof`].
    pub fn read<'a>(&'a self, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        match &self.0 {
            Backing::Memory(bytes) => Ok(bytes),
            Backing::File { file, offset, len } => {
                // Grow to fit exactly: chunks differ by a few bytes, and
                // the default doubling would hold twice the largest.
                buf.reserve_exact(len.saturating_sub(buf.len()));
                buf.resize(*len, 0);
                file.read_exact_at(buf, *offset)?;
                Ok(buf)
            }
        }
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        SharedBytes(Backing::Memory(Arc::new(bytes)))
    }
}

/// Equal when both hold the same bytes; a span whose file cannot be read
/// equals nothing.
impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.len() == other.len()
            && matches!((self.read(&mut a), other.read(&mut b)), (Ok(x), Ok(y)) if x == y)
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SharedBytes");
        d.field("len", &self.len());
        if let Backing::File { offset, .. } = &self.0 {
            d.field("file_offset", offset);
        }
        d.finish()
    }
}

/// A binary-form input read from a file through a 64 KiB buffer: its
/// tokens in memory, with every byte string's payload left out and kept
/// as a span of the file instead. Read it with [`Deserializer::sparse`].
#[derive(Debug)]
pub struct SparseInput {
    file: Arc<File>,
    /// The input without its byte strings' payloads.
    tokens: Vec<u8>,
    /// `(offset, len)` of each byte string's payload, in input order.
    spans: Vec<(u64, usize)>,
}

impl SparseInput {
    /// Reads `file` from byte `start` to its end, once, handing every
    /// byte read to `fold` in file order, so a caller can check the bytes
    /// (a checksum) before any value is read from them.
    ///
    /// The scan follows the tokens only as far as it must to find each
    /// byte string: a string's length prefix tells how many payload bytes
    /// to skip. Nothing else is checked until a [`Deserializer::sparse`]
    /// reads the tokens.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if the file cannot be read, or a string or byte
    /// string has a malformed length or runs past the end of the file.
    pub fn read(file: Arc<File>, start: u64, fold: impl FnMut(&[u8])) -> Result<Self, Error> {
        let read_err = |e: io::Error| Error::new(format!("reading the input: {e}"));
        let mut r =
            BufReader::with_capacity(BUFFER_BYTES, Folding { file: &file, offset: start, fold });
        let (mut tokens, mut spans) = (Vec::new(), Vec::new());
        let mut offset = start;
        while let Some(&kind) = r.fill_buf().map_err(read_err)?.first() {
            if kind.is_ascii_whitespace() {
                tokens.push(kind);
                r.consume(1);
                offset += 1;
                continue;
            }
            if kind != b's' && kind != b'x' {
                // Any other token runs to the next space.
                offset += r.read_until(b' ', &mut tokens).map_err(read_err)? as u64;
                continue;
            }
            let head = tokens.len();
            offset += r.read_until(b':', &mut tokens).map_err(read_err)? as u64;
            let len = tokens
                .strip_suffix(b":")
                .and_then(|t| std::str::from_utf8(&t[head + 1..]).ok())
                .and_then(|digits| digits.parse::<usize>().ok())
                .ok_or_else(|| Error::new("malformed length prefix"))?;
            let short = || Error::new(format!("payload of {len} bytes runs past the input"));
            if kind == b's' {
                let got = r.by_ref().take(len as u64).read_to_end(&mut tokens).map_err(read_err)?;
                if got != len {
                    return Err(short());
                }
            } else {
                spans.push((offset, len));
                let mut left = len;
                while left > 0 {
                    let n = r.fill_buf().map_err(read_err)?.len().min(left);
                    if n == 0 {
                        return Err(short());
                    }
                    r.consume(n);
                    left -= n;
                }
            }
            offset += len as u64;
        }
        Ok(SparseInput { file, tokens, spans })
    }
}

/// Reads a file from an offset on, handing every byte read to `fold`.
struct Folding<'f, F> {
    file: &'f File,
    offset: u64,
    fold: F,
}

impl<F: FnMut(&[u8])> Read for Folding<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read_at(buf, self.offset)?;
        self.offset += n as u64;
        (self.fold)(&buf[..n]);
        Ok(n)
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

    /// `bytes` in a fresh file under the temp directory, opened for
    /// reading; the path is gone again when this returns.
    fn file_of(name: &str, bytes: &[u8]) -> Arc<File> {
        let path = std::env::temp_dir().join(format!("serde-shim-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let file = File::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        Arc::new(file)
    }

    /// A byte string read back as [`SharedBytes`].
    struct Shared(SharedBytes);

    impl Serialize for Shared {
        fn serialize(&self, s: &mut Serializer) {
            s.write_shared_bytes(&self.0);
        }
    }

    impl<'de> Deserialize<'de> for Shared {
        fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
            Ok(Shared(d.read_shared_bytes()?))
        }
    }

    #[test]
    fn sparse_byte_strings_are_spans_of_the_file() {
        let value = ((Blob(vec![1, 2, 3]), "x9: s1:a".to_owned()), 7u64, Blob(vec![4; 9]));
        let wire = to_bytes(&value);
        let mut file = b"header ".to_vec();
        file.extend_from_slice(&wire);
        let mut folded = Vec::new();
        let input =
            SparseInput::read(file_of("spans", &file), 7, |b| folded.extend_from_slice(b)).unwrap();
        assert_eq!(folded, wire, "every byte after `start` is folded, once, in order");
        assert!(input.tokens.len() < wire.len(), "payloads stay in the file");

        let mut d = Deserializer::sparse(&input);
        let a = d.read_shared_bytes().unwrap();
        assert_eq!(String::deserialize(&mut d).unwrap(), value.0 .1);
        assert_eq!(u64::deserialize(&mut d).unwrap(), 7);
        let b = d.read_bytes().unwrap();
        assert!(d.end().is_ok());
        assert!(a.as_slice().is_none(), "a span of the file, not a copy");
        let mut buf = Vec::new();
        assert_eq!(a.read(&mut buf).unwrap(), [1, 2, 3]);
        assert!(matches!(b, Cow::Owned(ref v) if *v == [4; 9]));
        // Equality is by bytes, whatever holds them.
        assert_eq!(a, SharedBytes::from(vec![1, 2, 3]));
        assert_ne!(a, SharedBytes::from(vec![1, 2, 4]));
        let copied = Deserializer::binary(&wire).read_shared_bytes().unwrap();
        assert_eq!(copied.as_slice(), Some(&[1, 2, 3][..]));
        let text = to_string(&Blob(vec![1, 2, 3]));
        assert_eq!(Deserializer::new(text.as_bytes()).read_shared_bytes().unwrap(), a);
        // A span serializes as the bytes it holds, in both forms.
        assert_eq!(to_bytes(&Shared(a.clone())), to_bytes(&Blob(vec![1, 2, 3])));
        assert_eq!(to_string(&Shared(a)), text);
        // Sparse and in-memory reads of the same input agree.
        let input = SparseInput::read(file_of("again", &wire), 0, |_| ()).unwrap();
        let back: ((Blob, String), u64, Blob) = Deserializer::sparse(&input).read_all().unwrap();
        assert_eq!(to_bytes(&back), wire);
    }

    #[test]
    fn sparse_inputs_reject_every_truncation_and_bad_length() {
        let wire = to_bytes(&(Blob(vec![7; 40]), "ab".to_owned(), 5u64));
        for cut in 0..wire.len() - 1 {
            let loaded = SparseInput::read(file_of("cut", &wire[..cut]), 0, |_| ())
                .and_then(|input| Deserializer::sparse(&input).read_all::<(Blob, String, u64)>());
            assert!(loaded.is_err(), "prefix {cut} parsed");
        }
        for bad in [&b"x9:abc "[..], b"x-1:abc ", b"x3abc", b"s9:ab "] {
            assert!(SparseInput::read(file_of("bad", bad), 0, |_| ()).is_err(), "{bad:?}");
        }
    }

    /// A writer that fails after `left` bytes.
    struct Failing {
        left: usize,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn to_writer_writes_the_bytes_of_to_bytes() {
        // More small tokens than the spill buffer holds, and byte strings
        // both smaller and larger than it.
        let many: Vec<u64> = (0..40_000).map(|i| i * 7919).collect();
        let big: Vec<u8> = (0..3 * BUFFER_BYTES as u32).map(|i| (i % 251) as u8).collect();
        let value = ((many, Blob(big.clone())), "tail".to_owned(), Blob(vec![b' '; 5]));
        let mut out = Vec::new();
        to_writer(&value, &mut out).unwrap();
        assert_eq!(out, to_bytes(&value));

        // A file-backed byte string streams from its file.
        let wire = to_bytes(&Blob(big));
        let input = SparseInput::read(file_of("stream", &wire), 0, |_| ()).unwrap();
        let span = Shared(Deserializer::sparse(&input).read_shared_bytes().unwrap());
        let mut out = Vec::new();
        to_writer(&span, &mut out).unwrap();
        assert_eq!(out, wire);

        // A writer's error comes back; nothing is written past it.
        assert!(to_writer(&value, Failing { left: 100 }).is_err());
        assert!(to_writer(&value, Failing { left: 0 }).is_err());
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
