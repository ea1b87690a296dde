//! The wire vocabulary: request and event messages as JSON payloads, plus
//! tensor and format wire codecs.
//!
//! Every frame body is one JSON object with a `"type"` discriminator.
//! Clients send [`Request`]s; the server answers each request with one or
//! more [`Event`]s (a `submit` streams events and terminates with `done`
//! or `error`). Encoding is hand-rolled against `spdistal_obs::json` (the
//! build is offline — no serde).
//!
//! Every `f64` **array** (`result` and `register` values) crosses the wire
//! as one JSON string field, `"vals_b64"`: the values' `to_bits()` as
//! little-endian bytes, 8 per value, in padded standard-alphabet base64.
//! That is bit-exact for every `f64` — NaN payloads, `±inf`, `-0.0` and
//! subnormals included — so the server's results are bit for bit the
//! single-process results. Scalars (`wall_seconds`, a delta's `val`) stay
//! JSON numbers.
//!
//! The codec has two arms and one text. Where AVX2 is detected, whole
//! blocks of 3 values (24 bytes, 32 characters) go one block per step
//! (`wide`, after Muła & Lemire, "Faster Base64 Encoding and Decoding
//! Using AVX2 Instructions", 2018); the remaining values, the padded last
//! quad and every value on other hosts go a quad per step (3 bytes to 4
//! alphabet bytes, or back). A block holding a byte outside the alphabet
//! is handed to the quad loop, which finds and names the byte, so both
//! arms answer every input with the same values or the same error.
//!
//! Encoding writes into a caller's byte buffer ([`Event::write_json`],
//! [`Request::write_json`]): the server's is the connection's reused frame.
//! Decoding reads the `"vals_b64"` text where it lies in the payload
//! ([`Json::parse_lifting`]) straight into the `Vec<f64>`.

use std::borrow::Cow;
use std::io::Write as _;

use spdistal_ir::Format;
use spdistal_obs::json::{self, Json};
use spdistal_sparse::{CooTensor, CoordDelta, DeltaOp, SpTensor};

/// Why a payload failed to decode.
#[derive(Debug)]
pub enum ProtoError {
    /// The payload is not UTF-8.
    Utf8,
    /// The payload is not JSON.
    Json(String),
    /// The JSON does not have the message shape (missing/mistyped field,
    /// unknown `"type"`).
    Shape(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Utf8 => write!(f, "payload is not utf-8"),
            ProtoError::Json(e) => write!(f, "payload is not json: {e}"),
            ProtoError::Shape(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn shape(msg: impl Into<String>) -> ProtoError {
    ProtoError::Shape(msg.into())
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ProtoError> {
    v.get(key).ok_or_else(|| shape(format!("missing '{key}'")))
}

fn str_field(v: &Json, key: &str) -> Result<String, ProtoError> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| shape(format!("'{key}' must be a string")))?
        .to_string())
}

fn f64_field(v: &Json, key: &str) -> Result<f64, ProtoError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| shape(format!("'{key}' must be a number")))
}

/// The most passes one `submit` may ask for: a job holds its worker (and a
/// `shutdown` drain waits) until every pass ran.
pub const MAX_ITERS: usize = 1024;

/// A wire integer: a whole JSON number in `0..=2^53`, the range an `f64`
/// holds exactly (a larger one would saturate the cast).
fn usize_field(v: &Json, key: &str) -> Result<usize, ProtoError> {
    let n = f64_field(v, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(shape(format!("'{key}' must be an integer in 0..=2^53")));
    }
    Ok(n as usize)
}

fn bool_field(v: &Json, key: &str) -> Result<bool, ProtoError> {
    match field(v, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(shape(format!("'{key}' must be a boolean"))),
    }
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Sextet of each alphabet byte; `0xFF` for every other byte.
const B64_SEXTET: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut i = 0;
    while i < 64 {
        table[B64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Proof that the running CPU has AVX2, made only by [`Avx2::detect`]: the
/// codec runs its block arm ([`wide`]) only under one.
#[derive(Clone, Copy)]
struct Avx2(());

impl Avx2 {
    /// `Some` when AVX2 was detected at run time (never off x86-64, and
    /// never on a test thread that asked for the scalar arm).
    #[inline(always)]
    fn detect() -> Option<Avx2> {
        #[cfg(test)]
        if tests::SCALAR.get() {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }

    /// Run `job`'s block loop; answers how many blocks it converted.
    #[cfg(target_arch = "x86_64")]
    fn blocks(self, job: Blocks<'_>) -> usize {
        // SAFETY: an `Avx2` exists only where AVX2 support was detected.
        // Under AddressSanitizer: `proto::tests::both_arms_write_the_oracles_bytes`.
        unsafe { wide(job) }
    }
}

/// One block loop of the codec: 3 values (24 bytes) are 32 characters.
#[cfg(target_arch = "x86_64")]
enum Blocks<'a> {
    /// Append the text of every whole 3-value block of `vals` to `out`.
    Encode {
        vals: &'a [f64],
        out: &'a mut Vec<u8>,
    },
    /// Append the values of every whole 32-character block of `text` to
    /// `out`, stopping in front of the first block that holds a byte
    /// outside the alphabet.
    Decode {
        text: &'a [u8],
        out: &'a mut Vec<f64>,
    },
}

/// A 16-byte table as the two little-endian words of a 128-bit lane.
#[cfg(target_arch = "x86_64")]
const fn lane(table: [u8; 16]) -> [i64; 2] {
    let mut words = [0i64; 2];
    let mut i = 0;
    while i < 16 {
        words[i / 8] |= (table[i] as i64) << (i % 8 * 8);
        i += 1;
    }
    words
}

/// Encode, per lane: each 3-byte group `a b c` becomes the word `b a c b`,
/// so that one 16-bit multiply per sextet pair moves every sextet to a
/// byte of its own (Muła & Lemire, "Faster Base64 Encoding and Decoding
/// Using AVX2 Instructions", 2018).
#[cfg(target_arch = "x86_64")]
const ENC_RESHUFFLE: [u8; 16] = [1, 0, 2, 1, 4, 3, 5, 4, 7, 6, 8, 7, 10, 9, 11, 10];

/// Encode: what to add to a sextet to get its character, by the sextet's
/// class — 0 for 26..=51, 1..=10 for the digits 52..=61, 11 for 62, 12
/// for 63 and 13 for 0..=25 (byte values wrap).
#[cfg(target_arch = "x86_64")]
const ENC_SHIFT: [u8; 16] = {
    let mut t = [b'0'.wrapping_sub(52); 16];
    t[0] = b'a' - 26;
    t[11] = b'+'.wrapping_sub(62);
    t[12] = b'/'.wrapping_sub(63);
    t[13] = b'A';
    t
};

/// Decode: by a byte's low nibble, the set of high nibbles (bit `h`) that
/// make it an alphabet byte.
#[cfg(target_arch = "x86_64")]
const DEC_VALID_HIGH: [u8; 16] = [
    0xa8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf0, 0x54, 0x50, 0x50, 0x50, 0x54,
];

/// Decode: bit `h` for high nibble `h` (none for `h >= 8`, no ASCII byte).
#[cfg(target_arch = "x86_64")]
const DEC_HIGH_BIT: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 0, 0, 0, 0, 0, 0, 0, 0];

/// Decode: what to add to an alphabet byte to get its sextet, by its high
/// nibble ('/' is the one byte whose nibble class disagrees: it adds 16).
#[cfg(target_arch = "x86_64")]
const DEC_SHIFT: [u8; 16] = {
    let mut t = [0; 16];
    t[2] = 62 - b'+';
    t[3] = 52 - b'0';
    t[4] = 0u8.wrapping_sub(b'A');
    t[5] = t[4];
    t[6] = 26u8.wrapping_sub(b'a');
    t[7] = t[6];
    t
};

/// Decode, per lane: the three bytes of each 24-bit word, most significant
/// first, packed into the lane's low 12 bytes.
#[cfg(target_arch = "x86_64")]
const DEC_PACK: [u8; 16] = [
    2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12, 0x80, 0x80, 0x80, 0x80,
];

/// The codec's block loops, compiled with AVX2; the one `#[target_feature]`
/// function of this crate. Both loops convert 24 bytes and 32 characters
/// per step, three whole values, so a block never splits a value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn wide(job: Blocks<'_>) -> usize {
    use std::arch::x86_64::*;
    let table = |t: [u8; 16]| {
        let [lo, hi] = lane(t);
        _mm256_setr_epi64x(lo, hi, lo, hi)
    };
    match job {
        Blocks::Encode { vals, out } => {
            // Bytes 0..12 stay in the low lane, bytes 12..24 go to the high.
            let split = _mm256_setr_epi32(0, 1, 2, 3, 3, 4, 5, 6);
            let reshuffle = table(ENC_RESHUFFLE);
            let shift = table(ENC_SHIFT);
            let (blocks, _) = vals.as_chunks::<3>();
            for block in blocks {
                let [a, b, c] = block.map(|v| v.to_bits() as i64);
                let v = _mm256_setr_epi64x(a, b, c, 0);
                let v = _mm256_shuffle_epi8(_mm256_permutevar8x32_epi32(v, split), reshuffle);
                // Every sextet to a byte of its own, in text order: the
                // first and third of each word by a high multiply, the
                // second and fourth by a low one.
                let ac = _mm256_mulhi_epu16(
                    _mm256_and_si256(v, _mm256_set1_epi32(0x0fc0_fc00)),
                    _mm256_set1_epi32(0x0400_0040),
                );
                let bd = _mm256_mullo_epi16(
                    _mm256_and_si256(v, _mm256_set1_epi32(0x003f_03f0)),
                    _mm256_set1_epi32(0x0100_0010),
                );
                let sextets = _mm256_or_si256(ac, bd);
                let class = _mm256_or_si256(
                    _mm256_subs_epu8(sextets, _mm256_set1_epi8(51)),
                    _mm256_and_si256(
                        _mm256_cmpgt_epi8(_mm256_set1_epi8(26), sextets),
                        _mm256_set1_epi8(13),
                    ),
                );
                let text = _mm256_add_epi8(sextets, _mm256_shuffle_epi8(shift, class));
                let mut chars = [0u8; 32];
                // SAFETY: `chars` is 32 writable bytes, the width of the
                // unaligned store. Under AddressSanitizer:
                // `proto::tests::both_arms_write_the_oracles_bytes`.
                unsafe { _mm256_storeu_si256(chars.as_mut_ptr().cast(), text) };
                out.extend_from_slice(&chars);
            }
            blocks.len()
        }
        Blocks::Decode { text, out } => {
            let valid_high = table(DEC_VALID_HIGH);
            let high_bit = table(DEC_HIGH_BIT);
            let shift = table(DEC_SHIFT);
            let pack = table(DEC_PACK);
            let nibble = _mm256_set1_epi8(0x0f);
            let (blocks, _) = text.as_chunks::<32>();
            for (n, block) in blocks.iter().enumerate() {
                // SAFETY: `block` is 32 readable bytes, the width of the
                // unaligned load. Under AddressSanitizer:
                // `proto::tests::both_arms_answer_the_oracle_on_every_corruption`.
                let v = unsafe { _mm256_loadu_si256(block.as_ptr().cast()) };
                let high = _mm256_and_si256(_mm256_srli_epi32::<4>(v), nibble);
                let low = _mm256_and_si256(v, nibble);
                let valid = _mm256_and_si256(
                    _mm256_shuffle_epi8(valid_high, low),
                    _mm256_shuffle_epi8(high_bit, high),
                );
                if _mm256_movemask_epi8(_mm256_cmpeq_epi8(valid, _mm256_setzero_si256())) != 0 {
                    return n;
                }
                let slash = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'/' as i8));
                let sextets = _mm256_add_epi8(
                    v,
                    _mm256_blendv_epi8(
                        _mm256_shuffle_epi8(shift, high),
                        _mm256_set1_epi8(16),
                        slash,
                    ),
                );
                // Each 4 sextets to one 24-bit word: pairs by a multiply-add
                // of bytes, then pairs of pairs by one of words.
                let pairs = _mm256_maddubs_epi16(sextets, _mm256_set1_epi32(0x0140_0140));
                let words = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x0001_1000));
                let bytes = _mm256_permutevar8x32_epi32(
                    _mm256_shuffle_epi8(words, pack),
                    _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 7, 7),
                );
                out.extend_from_slice(&[
                    f64::from_bits(_mm256_extract_epi64::<0>(bytes) as u64),
                    f64::from_bits(_mm256_extract_epi64::<1>(bytes) as u64),
                    f64::from_bits(_mm256_extract_epi64::<2>(bytes) as u64),
                ]);
            }
            blocks.len()
        }
    }
}

/// The one encoder of an `f64` array: appends `,"vals_b64":"<base64>"` to
/// `out` (see the module docs for the layout). Whole 3-value blocks go 32
/// characters per step where AVX2 is present; the rest, and every value
/// elsewhere, a quad per step.
fn write_vals_b64(out: &mut Vec<u8>, vals: &[f64]) {
    out.reserve((vals.len() * 8).div_ceil(3) * 4 + 16);
    out.extend_from_slice(b",\"vals_b64\":\"");
    #[cfg(target_arch = "x86_64")]
    let from = Avx2::detect().map_or(0, |avx2| 3 * avx2.blocks(Blocks::Encode { vals, out }));
    #[cfg(not(target_arch = "x86_64"))]
    let from = 0;
    let mut bytes = Vec::with_capacity((vals.len() - from) * 8 + 2);
    for v in &vals[from..] {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    // Zero-fill the last group, write every group as a quad, then write
    // '=' over the sextets that hold nothing but fill.
    let pad = (3 - bytes.len() % 3) % 3;
    bytes.resize(bytes.len() + pad, 0);
    for g in bytes.chunks_exact(3) {
        let n = (g[0] as usize) << 16 | (g[1] as usize) << 8 | g[2] as usize;
        out.extend_from_slice(&[
            B64_ALPHABET[n >> 18],
            B64_ALPHABET[n >> 12 & 63],
            B64_ALPHABET[n >> 6 & 63],
            B64_ALPHABET[n & 63],
        ]);
    }
    let end = out.len();
    out[end - pad..].fill(b'=');
    out.push(b'"');
}

/// The one decoder of an `f64` array, from its base64 text. Anything but
/// canonical padded base64 of a whole number of 8-byte values is a
/// [`ProtoError::Shape`]. Whole 32-character blocks go 3 values per step
/// where AVX2 is present; a block with a bad byte, the rest and the padded
/// last quad go through the scalar loops, which find and name the byte.
fn decode_vals_b64(text: &[u8]) -> Result<Vec<f64>, ProtoError> {
    let pad = text.iter().rev().take_while(|&&b| b == b'=').count();
    if !text.len().is_multiple_of(4) || pad > 2 {
        return Err(shape(format!(
            "'vals_b64' has bad padding ({} characters, {pad} of them '=')",
            text.len()
        )));
    }
    let bad_byte = |at: usize| {
        shape(format!(
            "'vals_b64' has a byte outside the base64 alphabet at {at}"
        ))
    };
    let whole = if pad > 0 { text.len() - 4 } else { text.len() };
    let mut vals = Vec::with_capacity(text.len() / 4 * 3 / 8);
    #[cfg(target_arch = "x86_64")]
    let from = Avx2::detect().map_or(0, |avx2| {
        32 * avx2.blocks(Blocks::Decode {
            text: &text[..whole],
            out: &mut vals,
        })
    });
    #[cfg(not(target_arch = "x86_64"))]
    let from = 0;
    // The remaining whole quads, three bytes each. A sextet is below 64
    // and a byte outside the alphabet maps to 0xFF, so one OR over every
    // sextet says whether any was bad; only then is its position looked
    // for.
    let mut bytes = Vec::with_capacity((text.len() - from) / 4 * 3);
    bytes.resize((whole - from) / 4 * 3, 0);
    let mut bad = 0u8;
    for (q, g) in text[from..whole]
        .chunks_exact(4)
        .zip(bytes.chunks_exact_mut(3))
    {
        let s = [q[0], q[1], q[2], q[3]].map(|c| B64_SEXTET[c as usize]);
        bad |= s[0] | s[1] | s[2] | s[3];
        let n = (s[0] as u32) << 18 | (s[1] as u32) << 12 | (s[2] as u32) << 6 | s[3] as u32;
        g.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    if bad >= 64 {
        let at = text[from..]
            .iter()
            .position(|&c| B64_SEXTET[c as usize] == 0xFF);
        return Err(bad_byte(from + at.expect("a bad sextet has a position")));
    }
    // The padded last quad, a sextet at a time.
    let (mut acc, mut held) = (0u32, 0u32);
    for (at, &c) in text[..text.len() - pad].iter().enumerate().skip(whole) {
        let sextet = B64_SEXTET[c as usize];
        if sextet == 0xFF {
            return Err(bad_byte(at));
        }
        acc = acc << 6 | sextet as u32;
        held += 6;
        if held >= 8 {
            held -= 8;
            bytes.push((acc >> held) as u8);
        }
    }
    if acc & ((1 << held) - 1) != 0 {
        return Err(shape("'vals_b64' has non-zero bits under its padding"));
    }
    if !bytes.len().is_multiple_of(8) {
        return Err(shape(format!(
            "'vals_b64' holds {} bytes, not a multiple of 8",
            vals.len() * 8 + bytes.len()
        )));
    }
    vals.extend(
        bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("chunks of 8")))),
    );
    Ok(vals)
}

/// A payload as its JSON tree, with the `"vals_b64"` text lifted out of it
/// and left where it lies in the payload ([`Json::parse_lifting`]).
fn parse_payload(payload: &[u8]) -> Result<(Json, Option<Cow<'_, str>>), ProtoError> {
    let text = std::str::from_utf8(payload).map_err(|_| ProtoError::Utf8)?;
    Json::parse_lifting(text, "vals_b64").map_err(ProtoError::Json)
}

/// The values of a payload parsed by [`parse_payload`]: its lifted
/// `"vals_b64"` text, or, when nothing was lifted, whatever the tree holds
/// under that name (which is then no string).
fn vals_b64(v: &Json, lifted: Option<&str>) -> Result<Vec<f64>, ProtoError> {
    let text = match lifted {
        Some(text) => text,
        None => field(v, "vals_b64")?
            .as_str()
            .ok_or_else(|| shape("'vals_b64' must be a string"))?,
    };
    decode_vals_b64(text.as_bytes())
}

/// The codec's entry points as the oracle tests call them, on a `String`
/// and on a parsed tree.
#[cfg(test)]
fn push_vals_b64(out: &mut String, vals: &[f64]) {
    let mut bytes = std::mem::take(out).into_bytes();
    write_vals_b64(&mut bytes, vals);
    *out = String::from_utf8(bytes).expect("base64 is ASCII");
}

#[cfg(test)]
fn vals_b64_field(v: &Json) -> Result<Vec<f64>, ProtoError> {
    vals_b64(v, None)
}

/// `write!` onto a payload buffer: a `Vec<u8>` takes every write.
macro_rules! put {
    ($out:expr, $($fmt:tt)*) => {
        $out.write_fmt(format_args!($($fmt)*)).expect("a Vec<u8> takes every write")
    };
}

fn push_stmts(out: &mut Vec<u8>, stmts: &[StmtSpec]) {
    out.push(b'[');
    for (i, s) in stmts.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        put!(
            out,
            "{{\"tin\":\"{}\",\"schedule\":\"{}\"}}",
            json::escape(&s.tin),
            json::escape(&s.schedule)
        );
    }
    out.push(b']');
}

fn parse_stmts(v: &Json) -> Result<Vec<StmtSpec>, ProtoError> {
    let stmts = field(v, "stmts")?
        .as_arr()
        .ok_or_else(|| shape("'stmts' must be an array"))?
        .iter()
        .map(|s| {
            Ok(StmtSpec {
                tin: str_field(s, "tin")?,
                schedule: str_field(s, "schedule")?,
            })
        })
        .collect::<Result<Vec<StmtSpec>, ProtoError>>()?;
    if stmts.is_empty() {
        return Err(shape("'stmts' must not be empty"));
    }
    Ok(stmts)
}

fn push_deltas(out: &mut Vec<u8>, deltas: &[CoordDelta]) {
    out.push(b'[');
    for (i, d) in deltas.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"coord\":[");
        for (j, c) in d.coord.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            put!(out, "{c}");
        }
        put!(
            out,
            "],\"val\":{},\"op\":\"{}\"}}",
            json::number(d.val),
            d.op.name()
        );
    }
    out.push(b']');
}

fn parse_deltas(v: &Json) -> Result<Vec<CoordDelta>, ProtoError> {
    field(v, "deltas")?
        .as_arr()
        .ok_or_else(|| shape("'deltas' must be an array"))?
        .iter()
        .map(|d| {
            let coord = field(d, "coord")?
                .as_arr()
                .ok_or_else(|| shape("'coord' must be an array"))?
                .iter()
                .map(|c| {
                    c.as_f64()
                        .filter(|n| n.fract() == 0.0)
                        .map(|n| n as i64)
                        .ok_or_else(|| shape("'coord' entries must be integers"))
                })
                .collect::<Result<Vec<i64>, _>>()?;
            let op_name = str_field(d, "op")?;
            let op = DeltaOp::from_name(&op_name)
                .ok_or_else(|| shape(format!("unknown delta op '{op_name}'")))?;
            Ok(CoordDelta {
                coord,
                val: f64_field(d, "val")?,
                op,
            })
        })
        .collect()
}

/// One statement of a submission: TIN text plus a schedule name
/// (`"auto"`, `"outer-dim"`, or `"non-zero"`).
#[derive(Clone, Debug, PartialEq)]
pub struct StmtSpec {
    pub tin: String,
    pub schedule: String,
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Name this connection's tenant (defaults to a per-connection label).
    Hello { tenant: String },
    /// Declare a tensor: format preset name, dimensions, and non-zeros
    /// in coordinate form (`coords` as a JSON array, `vals` as the
    /// `vals_b64` block — see the module docs).
    Register {
        name: String,
        format: String,
        dims: Vec<usize>,
        coords: Vec<Vec<i64>>,
        vals: Vec<f64>,
    },
    /// Run a program over the tensors registered so far.
    Submit {
        stmts: Vec<StmtSpec>,
        iters: usize,
        pipelined: bool,
    },
    /// Queue a batch of coordinate deltas against a registered tensor.
    /// Queued batches are consumed, in arrival order, by the next
    /// `run_incremental` submission on this connection; the registered
    /// base tensor itself is not mutated.
    UpdateBatch {
        name: String,
        deltas: Vec<CoordDelta>,
    },
    /// Run a program incrementally: one cold full pass over the registered
    /// tensors, then one `run_incremental` pass per queued delta batch,
    /// streaming an `incremental_report` event per statement per batch.
    RunIncremental { stmts: Vec<StmtSpec> },
    /// Ask for the server's merged run report (one JSON line).
    Report,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
}

impl Request {
    /// This request's JSON payload.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Append this request's JSON payload to `out` (a frame's payload, see
    /// [`FrameBuf`](crate::frame::FrameBuf)).
    pub fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { tenant } => {
                put!(
                    out,
                    "{{\"type\":\"hello\",\"tenant\":\"{}\"}}",
                    json::escape(tenant)
                )
            }
            Request::Register {
                name,
                format,
                dims,
                coords,
                vals,
            } => {
                put!(
                    out,
                    "{{\"type\":\"register\",\"name\":\"{}\",\"format\":\"{}\",\"dims\":[",
                    json::escape(name),
                    json::escape(format)
                );
                for (i, d) in dims.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    put!(out, "{d}");
                }
                out.extend_from_slice(b"],\"coords\":[");
                for (i, coord) in coords.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    out.push(b'[');
                    for (j, c) in coord.iter().enumerate() {
                        if j > 0 {
                            out.push(b',');
                        }
                        put!(out, "{c}");
                    }
                    out.push(b']');
                }
                out.push(b']');
                write_vals_b64(out, vals);
                out.push(b'}');
            }
            Request::Submit {
                stmts,
                iters,
                pipelined,
            } => {
                out.extend_from_slice(b"{\"type\":\"submit\",\"stmts\":");
                push_stmts(out, stmts);
                put!(out, ",\"iters\":{iters},\"pipelined\":{pipelined}}}");
            }
            Request::UpdateBatch { name, deltas } => {
                put!(
                    out,
                    "{{\"type\":\"update_batch\",\"name\":\"{}\",\"deltas\":",
                    json::escape(name)
                );
                push_deltas(out, deltas);
                out.push(b'}');
            }
            Request::RunIncremental { stmts } => {
                out.extend_from_slice(b"{\"type\":\"run_incremental\",\"stmts\":");
                push_stmts(out, stmts);
                out.push(b'}');
            }
            Request::Report => out.extend_from_slice(b"{\"type\":\"report\"}"),
            Request::Shutdown => out.extend_from_slice(b"{\"type\":\"shutdown\"}"),
        }
    }

    pub fn parse(payload: &[u8]) -> Result<Request, ProtoError> {
        let (v, lifted) = parse_payload(payload)?;
        match str_field(&v, "type")?.as_str() {
            "hello" => Ok(Request::Hello {
                tenant: str_field(&v, "tenant")?,
            }),
            "register" => {
                let dims = field(&v, "dims")?
                    .as_arr()
                    .ok_or_else(|| shape("'dims' must be an array"))?
                    .iter()
                    .map(|d| {
                        d.as_f64()
                            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                            .map(|n| n as usize)
                            .ok_or_else(|| shape("'dims' entries must be non-negative integers"))
                    })
                    .collect::<Result<Vec<usize>, _>>()?;
                let coords = field(&v, "coords")?
                    .as_arr()
                    .ok_or_else(|| shape("'coords' must be an array"))?
                    .iter()
                    .map(|coord| {
                        coord
                            .as_arr()
                            .ok_or_else(|| shape("'coords' entries must be arrays"))?
                            .iter()
                            .map(|c| {
                                c.as_f64()
                                    .map(|n| n as i64)
                                    .ok_or_else(|| shape("coordinates must be numbers"))
                            })
                            .collect::<Result<Vec<i64>, _>>()
                    })
                    .collect::<Result<Vec<Vec<i64>>, _>>()?;
                let vals = vals_b64(&v, lifted.as_deref())?;
                if coords.len() != vals.len() {
                    return Err(shape("'coords' and 'vals' lengths differ"));
                }
                Ok(Request::Register {
                    name: str_field(&v, "name")?,
                    format: str_field(&v, "format")?,
                    dims,
                    coords,
                    vals,
                })
            }
            "submit" => {
                let iters = usize_field(&v, "iters")?;
                if iters > MAX_ITERS {
                    return Err(shape(format!("'iters' must be at most {MAX_ITERS}")));
                }
                Ok(Request::Submit {
                    stmts: parse_stmts(&v)?,
                    iters,
                    pipelined: bool_field(&v, "pipelined")?,
                })
            }
            "update_batch" => Ok(Request::UpdateBatch {
                name: str_field(&v, "name")?,
                deltas: parse_deltas(&v)?,
            }),
            "run_incremental" => Ok(Request::RunIncremental {
                stmts: parse_stmts(&v)?,
            }),
            "report" => Ok(Request::Report),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(shape(format!("unknown request type '{other}'"))),
        }
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Answer to `hello`.
    Welcome { tenant: String, server: String },
    /// Generic success answer (registration accepted, shutdown accepted).
    Ok,
    /// An auto-scheduler decision taken while running a submission.
    AutoDecision {
        stmt: usize,
        iteration: usize,
        choice: String,
        reason: String,
    },
    /// One iteration's flush summary (counters cumulative over this
    /// submission, whether or not its program served earlier ones).
    FlushReport {
        iteration: usize,
        batches: usize,
        tasks: usize,
        spans: usize,
        steals: usize,
        wall_seconds: f64,
    },
    /// Server-wide kernel-dispatch counters sampled after an iteration.
    KernelDispatch { specialized: u64, fallback: u64 },
    /// One statement's incremental-recompute summary for one streamed
    /// delta batch of a `run_incremental` submission.
    IncrementalReport {
        iteration: usize,
        stmt: usize,
        rows_dirty: usize,
        spans_reexecuted: usize,
        spans_skipped: usize,
        fallback: bool,
    },
    /// One statement's output values after the last iteration (`vals_b64`
    /// on the wire — see the module docs).
    Result { stmt: usize, vals: Vec<f64> },
    /// Successful end of a submission.
    Done {
        iterations: usize,
        compiles: usize,
        cache_hits: usize,
        wall_seconds: f64,
    },
    /// Answer to `report`: the merged run report, one JSON line.
    Report { json: String },
    /// A typed failure. `code` is machine-readable (`bad_json`,
    /// `bad_format`, `bad_tensor`, `unknown_tensor`, `bad_schedule`,
    /// `queue_full`, `truncated_frame`, `frame_too_large`, `exec` — a job
    /// that failed or panicked —, `server_shutdown`).
    Error { code: String, message: String },
}

impl Event {
    /// This event's JSON payload.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Append this event's JSON payload to `out`: the one event encoder,
    /// which the server runs straight into a connection's reused frame
    /// ([`FrameBuf`](crate::frame::FrameBuf)).
    pub fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Event::Welcome { tenant, server } => put!(
                out,
                "{{\"type\":\"welcome\",\"tenant\":\"{}\",\"server\":\"{}\"}}",
                json::escape(tenant),
                json::escape(server)
            ),
            Event::Ok => out.extend_from_slice(b"{\"type\":\"ok\"}"),
            Event::AutoDecision {
                stmt,
                iteration,
                choice,
                reason,
            } => put!(
                out,
                "{{\"type\":\"auto_decision\",\"stmt\":{stmt},\"iteration\":{iteration},\
                 \"choice\":\"{}\",\"reason\":\"{}\"}}",
                json::escape(choice),
                json::escape(reason)
            ),
            Event::FlushReport {
                iteration,
                batches,
                tasks,
                spans,
                steals,
                wall_seconds,
            } => put!(
                out,
                "{{\"type\":\"flush_report\",\"iteration\":{iteration},\"batches\":{batches},\
                 \"tasks\":{tasks},\"spans\":{spans},\"steals\":{steals},\"wall_seconds\":{}}}",
                json::number(*wall_seconds)
            ),
            Event::KernelDispatch {
                specialized,
                fallback,
            } => put!(
                out,
                "{{\"type\":\"kernel_dispatch\",\"specialized\":{specialized},\
                 \"fallback\":{fallback}}}"
            ),
            Event::IncrementalReport {
                iteration,
                stmt,
                rows_dirty,
                spans_reexecuted,
                spans_skipped,
                fallback,
            } => put!(
                out,
                "{{\"type\":\"incremental_report\",\"iteration\":{iteration},\"stmt\":{stmt},\
                 \"rows_dirty\":{rows_dirty},\"spans_reexecuted\":{spans_reexecuted},\
                 \"spans_skipped\":{spans_skipped},\"fallback\":{fallback}}}"
            ),
            Event::Result { stmt, vals } => {
                put!(out, "{{\"type\":\"result\",\"stmt\":{stmt}");
                write_vals_b64(out, vals);
                out.push(b'}');
            }
            Event::Done {
                iterations,
                compiles,
                cache_hits,
                wall_seconds,
            } => put!(
                out,
                "{{\"type\":\"done\",\"iterations\":{iterations},\"compiles\":{compiles},\
                 \"cache_hits\":{cache_hits},\"wall_seconds\":{}}}",
                json::number(*wall_seconds)
            ),
            Event::Report { json: report } => put!(
                out,
                "{{\"type\":\"report\",\"json\":\"{}\"}}",
                json::escape(report)
            ),
            Event::Error { code, message } => put!(
                out,
                "{{\"type\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
                json::escape(code),
                json::escape(message)
            ),
        }
    }

    /// Parse one event payload; a result's values are decoded from the
    /// payload's own bytes.
    pub fn parse(payload: &[u8]) -> Result<Event, ProtoError> {
        let (v, lifted) = parse_payload(payload)?;
        match str_field(&v, "type")?.as_str() {
            "welcome" => Ok(Event::Welcome {
                tenant: str_field(&v, "tenant")?,
                server: str_field(&v, "server")?,
            }),
            "ok" => Ok(Event::Ok),
            "auto_decision" => Ok(Event::AutoDecision {
                stmt: usize_field(&v, "stmt")?,
                iteration: usize_field(&v, "iteration")?,
                choice: str_field(&v, "choice")?,
                reason: str_field(&v, "reason")?,
            }),
            "flush_report" => Ok(Event::FlushReport {
                iteration: usize_field(&v, "iteration")?,
                batches: usize_field(&v, "batches")?,
                tasks: usize_field(&v, "tasks")?,
                spans: usize_field(&v, "spans")?,
                steals: usize_field(&v, "steals")?,
                wall_seconds: f64_field(&v, "wall_seconds")?,
            }),
            "kernel_dispatch" => Ok(Event::KernelDispatch {
                specialized: usize_field(&v, "specialized")? as u64,
                fallback: usize_field(&v, "fallback")? as u64,
            }),
            "incremental_report" => Ok(Event::IncrementalReport {
                iteration: usize_field(&v, "iteration")?,
                stmt: usize_field(&v, "stmt")?,
                rows_dirty: usize_field(&v, "rows_dirty")?,
                spans_reexecuted: usize_field(&v, "spans_reexecuted")?,
                spans_skipped: usize_field(&v, "spans_skipped")?,
                fallback: bool_field(&v, "fallback")?,
            }),
            "result" => Ok(Event::Result {
                stmt: usize_field(&v, "stmt")?,
                vals: vals_b64(&v, lifted.as_deref())?,
            }),
            "done" => Ok(Event::Done {
                iterations: usize_field(&v, "iterations")?,
                compiles: usize_field(&v, "compiles")?,
                cache_hits: usize_field(&v, "cache_hits")?,
                wall_seconds: f64_field(&v, "wall_seconds")?,
            }),
            "report" => Ok(Event::Report {
                json: str_field(&v, "json")?,
            }),
            "error" => Ok(Event::Error {
                code: str_field(&v, "code")?,
                message: str_field(&v, "message")?,
            }),
            other => Err(shape(format!("unknown event type '{other}'"))),
        }
    }
}

/// Resolve a [`Format`] preset by its constructor name (`"blocked_csr"`,
/// `"replicated_dense_vec"`, ...). The wire protocol names formats rather
/// than serializing them so a registration cannot smuggle an unvalidated
/// format.
pub fn format_by_name(name: &str) -> Option<Format> {
    Some(match name {
        "blocked_dense_vec" => Format::blocked_dense_vec(),
        "replicated_dense_vec" => Format::replicated_dense_vec(),
        "staged_dense_vec" => Format::staged_dense_vec(),
        "blocked_csr" => Format::blocked_csr(),
        "nonzero_csr" => Format::nonzero_csr(),
        "blocked_dcsr" => Format::blocked_dcsr(),
        "blocked_coo" => Format::blocked_coo(),
        "blocked_coo3" => Format::blocked_coo3(),
        "blocked_dense_matrix" => Format::blocked_dense_matrix(),
        "replicated_dense_matrix" => Format::replicated_dense_matrix(),
        "staged_dense_matrix" => Format::staged_dense_matrix(),
        "blocked_csf3" => Format::blocked_csf3(),
        "nonzero_csf3" => Format::nonzero_csf3(),
        _ => return None,
    })
}

/// Encode `t` for a [`Request::Register`]: coordinate form via
/// [`SpTensor::to_coo`].
pub fn tensor_to_wire(t: &SpTensor) -> (Vec<Vec<i64>>, Vec<f64>) {
    t.to_coo().into_iter().unzip()
}

/// Rebuild the registered tensor against `format`'s level formats — the
/// same deterministic [`CooTensor::build`] path every client goes
/// through, so two tenants registering identical data materialize
/// identical tensors (and hence identical plans and results).
pub fn tensor_from_wire(
    dims: Vec<usize>,
    coords: &[Vec<i64>],
    vals: &[f64],
    format: &Format,
) -> SpTensor {
    let mut coo = CooTensor::new(dims);
    for (coord, val) in coords.iter().zip(vals) {
        coo.push(coord, *val);
    }
    coo.build(&format.levels)
}

/// The codec as it was before it went a quad at a time: the oracle the
/// property tests hold the one encoder and the one decoder to.
#[cfg(test)]
mod oracle {
    use super::*;

    /// The sextet-at-a-time encoder the quad encoder replaced.
    pub(super) fn push_vals_b64(out: &mut String, vals: &[f64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8 + 2);
        for v in vals {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        // Zero-fill the last group, then write '=' over the sextets that hold
        // nothing but fill.
        let pad = (3 - bytes.len() % 3) % 3;
        bytes.resize(bytes.len() + pad, 0);
        out.reserve(bytes.len() / 3 * 4 + 16);
        out.push_str(",\"vals_b64\":\"");
        for g in bytes.chunks_exact(3) {
            let n = (g[0] as u32) << 16 | (g[1] as u32) << 8 | g[2] as u32;
            for shift in [18, 12, 6, 0] {
                out.push(B64_ALPHABET[(n >> shift) as usize & 63] as char);
            }
        }
        out.truncate(out.len() - pad);
        out.push_str(&"=="[..pad]);
        out.push('"');
    }

    /// The sextet-at-a-time decoder the quad decoder replaced: every check,
    /// its text and its order are the contract.
    pub(super) fn vals_b64_field(v: &Json) -> Result<Vec<f64>, ProtoError> {
        let text = field(v, "vals_b64")?
            .as_str()
            .ok_or_else(|| shape("'vals_b64' must be a string"))?
            .as_bytes();
        let pad = text.iter().rev().take_while(|&&b| b == b'=').count();
        if text.len() % 4 != 0 || pad > 2 {
            return Err(shape(format!(
                "'vals_b64' has bad padding ({} characters, {pad} of them '=')",
                text.len()
            )));
        }
        let mut bytes = Vec::with_capacity(text.len() / 4 * 3);
        let (mut acc, mut held) = (0u32, 0u32);
        for (at, &c) in text[..text.len() - pad].iter().enumerate() {
            let sextet = B64_SEXTET[c as usize];
            if sextet == 0xFF {
                return Err(shape(format!(
                    "'vals_b64' has a byte outside the base64 alphabet at {at}"
                )));
            }
            acc = acc << 6 | sextet as u32;
            held += 6;
            if held >= 8 {
                held -= 8;
                bytes.push((acc >> held) as u8);
            }
        }
        if acc & ((1 << held) - 1) != 0 {
            return Err(shape("'vals_b64' has non-zero bits under its padding"));
        }
        if bytes.len() % 8 != 0 {
            return Err(shape(format!(
                "'vals_b64' holds {} bytes, not a multiple of 8",
                bytes.len()
            )));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("chunks of 8"))))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use spdistal_sparse::{dense_vector, generate};

    thread_local! {
        /// Set by a test that wants the codec's scalar arm on an AVX2 host:
        /// [`Avx2::detect`] then answers `None` on that thread.
        pub(super) static SCALAR: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                tenant: "t \"1\"".to_string(),
            },
            Request::Register {
                name: "B".to_string(),
                format: "blocked_csr".to_string(),
                dims: vec![4, 4],
                coords: vec![vec![0, 1], vec![3, 2]],
                vals: vec![1.5, -2.25],
            },
            Request::Submit {
                stmts: vec![StmtSpec {
                    tin: "a(i) = B(i,j) * c(j)".to_string(),
                    schedule: "auto".to_string(),
                }],
                iters: 3,
                pipelined: true,
            },
            Request::UpdateBatch {
                name: "B".to_string(),
                deltas: vec![
                    CoordDelta::insert(vec![0, 3], 1.25),
                    CoordDelta::overwrite(vec![2, 1], -0.5),
                    CoordDelta::delete(vec![3, 3]),
                ],
            },
            Request::RunIncremental {
                stmts: vec![StmtSpec {
                    tin: "a(i) = B(i,j) * c(j)".to_string(),
                    schedule: "outer-dim".to_string(),
                }],
            },
            Request::Report,
            Request::Shutdown,
        ];
        for req in reqs {
            let parsed = Request::parse(req.to_json().as_bytes()).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Welcome {
                tenant: "t1".to_string(),
                server: "spd-server".to_string(),
            },
            Event::Ok,
            Event::AutoDecision {
                stmt: 0,
                iteration: 1,
                choice: "non-zero".to_string(),
                reason: "skew 3.00x > 2.00x".to_string(),
            },
            Event::FlushReport {
                iteration: 0,
                batches: 1,
                tasks: 8,
                spans: 12,
                steals: 3,
                wall_seconds: 0.25,
            },
            Event::KernelDispatch {
                specialized: 5,
                fallback: 1,
            },
            Event::IncrementalReport {
                iteration: 2,
                stmt: 0,
                rows_dirty: 17,
                spans_reexecuted: 3,
                spans_skipped: 9,
                fallback: false,
            },
            Event::Result {
                stmt: 0,
                vals: vec![0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1.0e300],
            },
            Event::Done {
                iterations: 2,
                compiles: 1,
                cache_hits: 1,
                wall_seconds: 0.5,
            },
            Event::Report {
                json: "{\"name\":\"spd-server\"}".to_string(),
            },
            Event::Error {
                code: "bad_json".to_string(),
                message: "expected ':' at byte 3".to_string(),
            },
        ];
        for ev in events {
            let parsed = Event::parse(ev.to_json().as_bytes()).unwrap();
            assert_eq!(parsed, ev);
        }
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_f64_crosses_the_wire_bit_exactly() {
        // A NaN with a payload, both infinities, the signed zeros, the
        // smallest normal, a subnormal, a huge value and two ordinary ones;
        // then every prefix, so each base64 remainder (0, 1, 2 bytes) and
        // the empty array are covered.
        let vals = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(3),
            1.0e300,
            0.1,
            -1.0 / 3.0,
        ];
        for n in 0..=vals.len() {
            let vals = &vals[..n];
            let ev = Event::Result {
                stmt: 2,
                vals: vals.to_vec(),
            };
            match Event::parse(ev.to_json().as_bytes()).unwrap() {
                Event::Result {
                    stmt: 2,
                    vals: back,
                } => assert_eq!(bits(&back), bits(vals)),
                other => panic!("wrong event {other:?}"),
            }
            let req = Request::Register {
                name: "v".to_string(),
                format: "blocked_dense_vec".to_string(),
                dims: vec![n],
                coords: (0..n as i64).map(|i| vec![i]).collect(),
                vals: vals.to_vec(),
            };
            match Request::parse(req.to_json().as_bytes()).unwrap() {
                Request::Register { vals: back, .. } => assert_eq!(bits(&back), bits(vals)),
                other => panic!("wrong request {other:?}"),
            }
        }
    }

    #[test]
    fn the_value_block_is_padded_standard_base64_of_le_bits() {
        // docs/server.md's worked example: 1.5 and -2.0.
        let ev = Event::Result {
            stmt: 0,
            vals: vec![1.5, -2.0],
        };
        assert_eq!(
            ev.to_json(),
            r#"{"type":"result","stmt":0,"vals_b64":"AAAAAAAA+D8AAAAAAAAAwA=="}"#
        );
    }

    #[test]
    fn malformed_value_blocks_are_typed() {
        let result = |block: &str| {
            let frame = format!("{{\"type\":\"result\",\"stmt\":0,\"vals_b64\":{block}}}");
            match Event::parse(frame.as_bytes()) {
                Err(ProtoError::Shape(msg)) => msg,
                other => panic!("{block} must be refused, got {other:?}"),
            }
        };
        // 1.5 is "AAAAAAAA+D8=".
        assert!(result(r#""AAAAAAAA-D8=""#).contains("alphabet"));
        assert!(result(r#""AAAA=AAA+D8=""#).contains("alphabet"));
        assert!(result(r#""AAAAAAAA+D8""#).contains("padding"));
        assert!(result(r#""AAAAAAAA+===""#).contains("padding"));
        assert!(result(r#""AAAAAAAA+D9=""#).contains("non-zero bits"));
        assert!(result(r#""AAAAAAAA""#).contains("multiple of 8"));
        assert!(result("[1.5]").contains("must be a string"));
        // The decimal array this field replaced is not accepted beside it.
        let old = br#"{"type":"result","stmt":0,"vals":[1.5]}"#;
        assert!(matches!(Event::parse(old), Err(ProtoError::Shape(_))));
    }

    #[test]
    fn tensors_round_trip_through_the_wire_encoding() {
        // The dcsr case re-levels a banded matrix through the format's own
        // level formats first (wire round-trips preserve the *declared*
        // levels, so the reference must be built with them too).
        let banded = generate::banded(16, 2, 2);
        let dcsr_format = format_by_name("blocked_dcsr").unwrap();
        let (coords, vals) = tensor_to_wire(&banded);
        let dcsr = tensor_from_wire(banded.dims().to_vec(), &coords, &vals, &dcsr_format);
        let cases = [
            (generate::banded(32, 3, 1), "blocked_csr"),
            (generate::rmat_clustered(5, 100, 0.8, 7), "blocked_csr"),
            (
                dense_vector(vec![1.0, 0.0, -2.5, 3.25]),
                "blocked_dense_vec",
            ),
            (dcsr, "blocked_dcsr"),
        ];
        for (t, fmt_name) in cases {
            let format = format_by_name(fmt_name).unwrap();
            let (coords, vals) = tensor_to_wire(&t);
            let back = tensor_from_wire(t.dims().to_vec(), &coords, &vals, &format);
            assert_eq!(back, t, "{fmt_name} round-trip");
        }
    }

    #[test]
    fn malformed_payloads_are_typed() {
        assert!(matches!(Request::parse(b"\xff\xfe"), Err(ProtoError::Utf8)));
        assert!(matches!(
            Request::parse(b"not json"),
            Err(ProtoError::Json(_))
        ));
        assert!(matches!(
            Request::parse(b"{\"type\":\"warp\"}"),
            Err(ProtoError::Shape(_))
        ));
        assert!(matches!(
            Request::parse(b"{\"type\":\"hello\"}"),
            Err(ProtoError::Shape(_))
        ));
        // Mismatched coords/vals counts are rejected at parse time (the
        // block holds 1.5 and -2.0), and so is the old decimal field.
        let req = br#"{"type":"register","name":"B","format":"blocked_csr","dims":[2,2],"coords":[[0,0]],"vals_b64":"AAAAAAAA+D8AAAAAAAAAwA=="}"#;
        match Request::parse(req) {
            Err(ProtoError::Shape(msg)) => assert!(msg.contains("lengths differ"), "{msg}"),
            other => panic!("expected a shape error, got {other:?}"),
        }
        let req = br#"{"type":"register","name":"B","format":"blocked_csr","dims":[2,2],"coords":[[0,0]],"vals":[1.5]}"#;
        assert!(matches!(Request::parse(req), Err(ProtoError::Shape(_))));
        // A wire integer past 2^53 no longer saturates to usize::MAX, and a
        // submit may not ask for more than MAX_ITERS passes.
        for iters in ["1e300", "1025"] {
            let req = format!(
                r#"{{"type":"submit","stmts":[{{"tin":"a(i) = B(i,j) * c(j)","schedule":"outer-dim"}}],"iters":{iters},"pipelined":false}}"#
            );
            match Request::parse(req.as_bytes()) {
                Err(ProtoError::Shape(msg)) => assert!(msg.contains("'iters'"), "{msg}"),
                other => panic!("iters {iters}: expected a shape error, got {other:?}"),
            }
        }
    }

    /// The `result` and `register` frames of every prefix of the values in
    /// `every_f64_crosses_the_wire_bit_exactly`, byte for byte as the
    /// one-sextet-at-a-time encoder wrote them: the wire must not move when
    /// the codec is made faster.
    const GOLDEN_RESULT_FRAMES: [&str; 11] = [
        r#"{"type":"result","stmt":2,"vals_b64":""}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8="}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfw=="}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/"}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIA="}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAA=="}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAA"}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAAA="}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAACcdQCIPOQ3fg=="}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAACcdQCIPOQ3fpqZmZmZmbk/"}"#,
        r#"{"type":"result","stmt":2,"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAACcdQCIPOQ3fpqZmZmZmbk/VVVVVVVV1b8="}"#,
    ];
    const GOLDEN_REGISTER_FRAMES: [&str; 11] = [
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[0],"coords":[],"vals_b64":""}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[1],"coords":[[0]],"vals_b64":"AQDvvq3e+H8="}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[2],"coords":[[0],[1]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfw=="}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[3],"coords":[[0],[1],[2]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/"}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[4],"coords":[[0],[1],[2],[3]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIA="}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[5],"coords":[[0],[1],[2],[3],[4]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAA=="}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[6],"coords":[[0],[1],[2],[3],[4],[5]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAA"}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[7],"coords":[[0],[1],[2],[3],[4],[5],[6]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAAA="}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[8],"coords":[[0],[1],[2],[3],[4],[5],[6],[7]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAACcdQCIPOQ3fg=="}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[9],"coords":[[0],[1],[2],[3],[4],[5],[6],[7],[8]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAACcdQCIPOQ3fpqZmZmZmbk/"}"#,
        r#"{"type":"register","name":"v","format":"blocked_dense_vec","dims":[10],"coords":[[0],[1],[2],[3],[4],[5],[6],[7],[8],[9]],"vals_b64":"AQDvvq3e+H8AAAAAAADwfwAAAAAAAPD/AAAAAAAAAIAAAAAAAAAAAAAAAAAAABAAAwAAAAAAAACcdQCIPOQ3fpqZmZmZmbk/VVVVVVVV1b8="}"#,
    ];

    #[test]
    fn golden_frames_pin_the_wire_bytes() {
        let vals = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(3),
            1.0e300,
            0.1,
            -1.0 / 3.0,
        ];
        for n in 0..=vals.len() {
            let vals = &vals[..n];
            let ev = Event::Result {
                stmt: 2,
                vals: vals.to_vec(),
            };
            assert_eq!(ev.to_json(), GOLDEN_RESULT_FRAMES[n], "result, {n} values");
            match Event::parse(GOLDEN_RESULT_FRAMES[n].as_bytes()).unwrap() {
                Event::Result {
                    stmt: 2,
                    vals: back,
                } => assert_eq!(bits(&back), bits(vals)),
                other => panic!("wrong event {other:?}"),
            }
            let req = Request::Register {
                name: "v".to_string(),
                format: "blocked_dense_vec".to_string(),
                dims: vec![n],
                coords: (0..n as i64).map(|i| vec![i]).collect(),
                vals: vals.to_vec(),
            };
            assert_eq!(
                req.to_json(),
                GOLDEN_REGISTER_FRAMES[n],
                "register, {n} values"
            );
            match Request::parse(GOLDEN_REGISTER_FRAMES[n].as_bytes()).unwrap() {
                Request::Register { vals: back, .. } => assert_eq!(bits(&back), bits(vals)),
                other => panic!("wrong request {other:?}"),
            }
        }
    }

    /// xorshift64: the property tests' inputs, the same on every run.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// The decoded bits, or the error's text.
    fn outcome(r: Result<Vec<f64>, ProtoError>) -> Result<Vec<u64>, String> {
        r.map(|vals| bits(&vals)).map_err(|e| e.to_string())
    }

    fn result_frame(block: &str) -> String {
        format!("{{\"type\":\"result\",\"stmt\":0,\"vals_b64\":\"{block}\"}}")
    }

    #[test]
    fn the_quad_encoder_writes_the_oracles_text() {
        let special = [
            0x7ff8_dead_beef_0001u64,
            0xfff0_0000_0000_0001,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
            0x8000_0000_0000_0000,
            0,
            1,
            0x000f_ffff_ffff_ffff,
            0x8000_0000_0000_0003,
        ];
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for len in 0..=64 {
            for _ in 0..8 {
                let vals: Vec<f64> = (0..len)
                    .map(|_| match rng.next() % 4 {
                        0 => f64::from_bits(special[rng.next() as usize % special.len()]),
                        _ => f64::from_bits(rng.next()),
                    })
                    .collect();
                let (mut ours, mut theirs) = (String::new(), String::new());
                push_vals_b64(&mut ours, &vals);
                oracle::push_vals_b64(&mut theirs, &vals);
                assert_eq!(ours, theirs, "{len} values");
                let v = Json::parse(&format!("{{{}}}", &ours[1..])).unwrap();
                assert_eq!(outcome(vals_b64_field(&v)), Ok(bits(&vals)));
                assert_eq!(
                    outcome(oracle::vals_b64_field(&v)),
                    Ok(bits(&vals)),
                    "{len} values"
                );
            }
        }
    }

    #[test]
    fn the_quad_decoder_answers_as_the_oracle_on_every_damaged_frame() {
        // A real 16-value frame (128 bytes: the last quad holds one '=').
        let vals: Vec<f64> = (0..16).map(|i| (i as f64 - 7.5) / 3.0).collect();
        let mut block = String::new();
        push_vals_b64(&mut block, &vals);
        let block = &block[",\"vals_b64\":\"".len()..block.len() - 1];
        assert!(block.ends_with('=') && !block.ends_with("=="));
        let agree = |frame: &str| {
            let Ok(v) = Json::parse(frame) else {
                return;
            };
            let ours = outcome(vals_b64_field(&v));
            assert_eq!(ours, outcome(oracle::vals_b64_field(&v)), "{frame}");
            if let Ok(Event::Result { vals, .. }) = Event::parse(frame.as_bytes()) {
                assert_eq!(Ok(bits(&vals)), ours, "{frame}");
            }
        };
        // Every truncation of the block, and of the frame itself.
        for end in 0..=block.len() {
            agree(&result_frame(&block[..end]));
        }
        let frame = result_frame(block);
        for end in 0..=frame.len() {
            agree(&frame[..end]);
        }
        // Every single-byte substitution: each alphabet byte, '=', '"',
        // '\\' and U+00E9 (two bytes >= 0x80) at every position.
        let mut subs: Vec<String> = B64_ALPHABET
            .iter()
            .map(|&b| (b as char).to_string())
            .collect();
        subs.extend(["=", "\"", "\\", "\u{e9}"].map(String::from));
        for at in 0..frame.len() {
            for sub in &subs {
                agree(&format!("{}{sub}{}", &frame[..at], &frame[at + 1..]));
            }
            // A lone byte >= 0x80 is no UTF-8: it never reaches the decoder.
            let mut raw = frame.clone().into_bytes();
            raw[at] = 0x80;
            assert!(matches!(Event::parse(&raw), Err(ProtoError::Utf8)));
        }
    }

    #[test]
    fn a_mebibyte_value_block_parses_in_linear_time() {
        // 131 072 values: 1 MiB of values, a 1.33 MiB result frame.
        let vals: Vec<f64> = (0..131_072).map(|i| i as f64 * 0.5 - 1.0e3).collect();
        let frame = Event::Result {
            stmt: 0,
            vals: vals.clone(),
        }
        .to_json();
        let t0 = std::time::Instant::now();
        let ev = Event::parse(frame.as_bytes()).unwrap();
        let took = t0.elapsed();
        match ev {
            Event::Result { vals: back, .. } => assert_eq!(bits(&back), bits(&vals)),
            other => panic!("wrong event {other:?}"),
        }
        // A bound on optimised code: ci runs this suite in --release.
        if !cfg!(debug_assertions) {
            assert!(took.as_millis() < 20, "1 MiB value block took {took:?}");
        }
    }

    /// Run `f` once per arm of the codec: the AVX2 block arm (where this
    /// host has AVX2; the arm being tested is named in every message) and
    /// the scalar arm.
    fn on_both_arms(mut f: impl FnMut(&str)) {
        let wide = Avx2::detect().is_some();
        assert_eq!(
            wide,
            cfg!(target_arch = "x86_64") && std::arch::is_x86_feature_detected!("avx2"),
            "the block arm is taken exactly where AVX2 is"
        );
        if wide {
            f("avx2");
        }
        SCALAR.set(true);
        assert!(Avx2::detect().is_none());
        f("scalar");
        SCALAR.set(false);
    }

    #[test]
    fn both_arms_write_the_oracles_bytes() {
        // Random bit patterns, a quarter of them drawn from the special
        // values: NaN payloads of both signs, the infinities, the signed
        // zeros, the largest subnormal and two small ones.
        let special = [
            0x7ff8_dead_beef_0001u64,
            0xfff8_0000_0000_0001,
            0x7ff0_0000_0000_0001,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
            0x8000_0000_0000_0000,
            0,
            1,
            0x000f_ffff_ffff_ffff,
            0x8000_0000_0000_0003,
        ];
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        on_both_arms(|arm| {
            for len in 0..=70 {
                for _ in 0..8 {
                    let vals: Vec<f64> = (0..len)
                        .map(|_| match rng.next() % 4 {
                            0 => f64::from_bits(special[rng.next() as usize % special.len()]),
                            _ => f64::from_bits(rng.next()),
                        })
                        .collect();
                    let mut ours = b"{\"stmt\":0".to_vec();
                    write_vals_b64(&mut ours, &vals);
                    let mut theirs = "{\"stmt\":0".to_string();
                    oracle::push_vals_b64(&mut theirs, &vals);
                    assert_eq!(ours, theirs.as_bytes(), "{arm}: {len} values");
                    let text = &ours["{\"stmt\":0,\"vals_b64\":\"".len()..ours.len() - 1];
                    assert_eq!(
                        outcome(decode_vals_b64(text)),
                        Ok(bits(&vals)),
                        "{arm}: {len} values"
                    );
                }
            }
        });
    }

    #[test]
    fn both_arms_answer_the_oracle_on_every_corruption() {
        // 40 values: 320 bytes, 428 characters, 13 whole 32-character
        // blocks, then 12 quads and a last quad with one '='.
        let vals: Vec<f64> = (0..40).map(|i| (i as f64 - 19.5) * 1.25e-3).collect();
        let mut block = Vec::new();
        write_vals_b64(&mut block, &vals);
        let text = block[",\"vals_b64\":\"".len()..block.len() - 1].to_vec();
        assert_eq!(text.len(), 428);
        // The oracle's answer depends on a byte only through its sextet
        // (0xFF outside the alphabet) and whether it is '=', so it is asked
        // once per class and offset. It reads a parsed string, so a byte
        // >= 0x80 (no UTF-8 on its own) is put to it as 0x7F: another byte
        // of the same class.
        let mut bad = text.clone();
        for at in 0..text.len() {
            let mut answers = std::collections::BTreeMap::new();
            for byte in 0..=255u8 {
                bad[at] = byte;
                let theirs = answers
                    .entry((B64_SEXTET[byte as usize], byte == b'='))
                    .or_insert_with(|| {
                        let ascii = bad.iter().map(|&b| b.min(0x7f)).collect();
                        let ascii = String::from_utf8(ascii).expect("ASCII");
                        let v = Json::Obj([("vals_b64".to_string(), Json::Str(ascii))].into());
                        outcome(oracle::vals_b64_field(&v))
                    });
                on_both_arms(|arm| {
                    assert_eq!(
                        &outcome(decode_vals_b64(&bad)),
                        theirs,
                        "{arm}: byte {byte:#04x} at {at}"
                    );
                });
            }
            bad[at] = text[at];
        }
    }
}
