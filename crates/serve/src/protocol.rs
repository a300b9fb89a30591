//! Length-prefixed framed request/response protocol.
//!
//! # Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! frame   := length payload
//! length  := u32, little-endian, byte count of payload
//! payload := UTF-8 text, at most MAX_FRAME bytes
//! ```
//!
//! # Request grammar
//!
//! The payload's first line is `<id> <VERB> [args…]`; `id` is an opaque
//! client-chosen u64 echoed back on the response so pipelined clients
//! can correlate replies (responses are not guaranteed to come back in
//! send order — shed and malformed requests are answered inline while
//! accepted ones flow through the batcher).
//!
//! ```text
//! <id> PING
//! <id> QUIT
//! <id> METRICS
//! <id> HEALTH
//! <id> PAIR  <REGION|-> <id,id,…>     # '-' = no region shard (global)
//! <id> ZPROF <REGION>
//! <id> TOPK  <REGION> <k>
//! <id> SCORE <REGION>                 # ingredient text lines follow,
//! <line>…                             # one per payload line
//! ```
//!
//! # Response grammar
//!
//! ```text
//! <id> OK <verb-specific body>
//! <id> ERR <code> <message>           # structured, never a panic
//! <id> BUSY <queue-depth>             # load shed; retry later
//! ```
//!
//! Every `f64` in a response body is rendered as
//! `<to_bits hex, 16 digits>:<decimal>` so bit-exact parity against the
//! offline pipeline can be asserted on the wire text itself.

use std::fmt;
use std::io::{self, Read, Write};

use culinaria_core::CuisineAnalysis;
use culinaria_flavordb::IngredientId;
use culinaria_recipedb::Region;

/// Hard cap on payload size, requests and responses alike (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Largest ingredient-id set a `PAIR` request may carry.
pub const MAX_SET: usize = 256;

/// Largest `k` a `TOPK` request may ask for.
pub const MAX_TOPK: usize = 1000;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The header announced a payload larger than the cap. The stream
    /// is desynchronized past this point — close it after replying.
    Oversized(u32),
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated mid-message"),
            FrameError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

/// Write one frame (header + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (EOF before any
/// header byte); EOF anywhere later is [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len as usize > max_frame {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// A parsed request. The server's response cache keys answers by it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    Ping,
    Quit,
    Metrics,
    /// Operational liveness/pressure summary (generation, uptime,
    /// connection and queue pressure, timeout count, cache hit rate).
    /// Never cached — the body is volatile by construction.
    Health,
    /// Pairing score for an ingredient-id set. `region` selects the
    /// shard fast path (precomputed overlap triangle); `None` walks
    /// the flavor profiles directly. Both produce the same bits.
    /// `ids` must be sorted and distinct, as [`parse_request`] leaves
    /// them: the server answers any other set with `ERR bad-ids`.
    Pair {
        region: Option<Region>,
        ids: Vec<IngredientId>,
    },
    /// Cuisine Z-profile (observed ⟨N_s⟩ vs every null model).
    ZProf {
        region: Region,
    },
    /// Top-k novel pairings for a region.
    TopK {
        region: Region,
        k: usize,
    },
    /// Import free-text ingredient lines and score the resolved set.
    Score {
        region: Region,
        lines: Vec<String>,
    },
}

/// A structured protocol error: a stable machine-readable code plus a
/// human message. Never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub code: &'static str,
    pub message: String,
}

impl ProtoError {
    pub fn new(code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// `ERR bad-k` unless `1 <= k <= MAX_TOPK`: the parser checks a
/// `TOPK` frame with it, and the server a `Request` built in code.
pub(crate) fn check_topk_k(k: usize) -> Result<(), ProtoError> {
    if k == 0 || k > MAX_TOPK {
        return Err(ProtoError::new(
            "bad-k",
            format!("k must be in 1..={MAX_TOPK}"),
        ));
    }
    Ok(())
}

/// `ERR bad-ids` unless `ids` holds 2..=`MAX_SET` strictly increasing
/// ids: the parser checks a `PAIR` set with it after sorting and
/// deduplicating, and the server a `Request` built in code.
pub(crate) fn check_pair_ids(ids: &[IngredientId]) -> Result<(), ProtoError> {
    let message = if ids.len() > MAX_SET {
        format!("{} ids exceeds the {MAX_SET}-id cap", ids.len())
    } else if ids.len() < 2 {
        "a pairing needs at least two distinct ids".to_string()
    } else if ids.windows(2).any(|w| w[0] >= w[1]) {
        "ids must be sorted and distinct".to_string()
    } else {
        return Ok(());
    };
    Err(ProtoError::new("bad-ids", message))
}

/// Parse a request payload. The error side carries the request id when
/// one could be read (0 otherwise) so the reply still correlates.
pub fn parse_request(payload: &[u8]) -> Result<(u64, Request), (u64, ProtoError)> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| (0, ProtoError::new("bad-encoding", "payload is not UTF-8")))?;
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("");
    let mut tokens = first.split_whitespace();
    let id: u64 = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
        (
            0,
            ProtoError::new("bad-id", "first token must be a u64 request id"),
        )
    })?;
    let fail = |code, msg: String| (id, ProtoError::new(code, msg));
    let verb = tokens
        .next()
        .ok_or_else(|| fail("bad-verb", "missing verb".into()))?;
    let parse_region = |tok: Option<&str>| -> Result<Region, (u64, ProtoError)> {
        let tok = tok.ok_or_else(|| fail("bad-region", "missing region".into()))?;
        tok.parse()
            .map_err(|_| fail("bad-region", format!("unknown region {tok:?}")))
    };
    let req = match verb {
        "PING" => Request::Ping,
        "QUIT" => Request::Quit,
        "METRICS" => Request::Metrics,
        "HEALTH" => Request::Health,
        "PAIR" => {
            let region = match tokens.next() {
                Some("-") => None,
                tok => Some(parse_region(tok)?),
            };
            let ids_tok = tokens
                .next()
                .ok_or_else(|| fail("bad-ids", "missing ingredient-id list".into()))?;
            let mut ids = Vec::new();
            for part in ids_tok.split(',') {
                let raw: u32 = part
                    .parse()
                    .map_err(|_| fail("bad-ids", format!("not an ingredient id: {part:?}")))?;
                ids.push(IngredientId(raw));
            }
            if ids.len() > MAX_SET {
                return Err(fail(
                    "bad-ids",
                    format!("{} ids exceeds the {MAX_SET}-id cap", ids.len()),
                ));
            }
            ids.sort_unstable();
            ids.dedup();
            check_pair_ids(&ids).map_err(|e| (id, e))?;
            Request::Pair { region, ids }
        }
        "ZPROF" => Request::ZProf {
            region: parse_region(tokens.next())?,
        },
        "TOPK" => {
            let region = parse_region(tokens.next())?;
            let k_tok = tokens
                .next()
                .ok_or_else(|| fail("bad-k", "missing k".into()))?;
            let k: usize = k_tok
                .parse()
                .map_err(|_| fail("bad-k", format!("not a count: {k_tok:?}")))?;
            check_topk_k(k).map_err(|e| (id, e))?;
            Request::TopK { region, k }
        }
        "SCORE" => {
            let region = parse_region(tokens.next())?;
            let body: Vec<String> = lines.by_ref().map(str::to_string).collect();
            if body.is_empty() {
                return Err(fail("bad-lines", "SCORE needs ingredient lines".into()));
            }
            Request::Score {
                region,
                lines: body,
            }
        }
        other => return Err(fail("bad-verb", format!("unknown verb {other:?}"))),
    };
    if let Some(extra) = tokens.next() {
        return Err(fail("bad-args", format!("unexpected argument {extra:?}")));
    }
    if !matches!(req, Request::Score { .. }) && lines.next().is_some() {
        return Err(fail("bad-args", "unexpected extra payload lines".into()));
    }
    Ok((id, req))
}

/// `<id> OK <body>`.
pub fn encode_ok(id: u64, body: &str) -> String {
    format!("{id} OK {body}")
}

/// `<id> ERR <code> <message>`.
pub fn encode_err(id: u64, e: &ProtoError) -> String {
    format!("{id} ERR {} {}", e.code, e.message)
}

/// `<id> BUSY <depth>` — the bounded queue shed this request.
pub fn encode_busy(id: u64, depth: usize) -> String {
    format!("{id} BUSY {depth}")
}

/// The one-shot `ERR conn-limit` frame a connection over the
/// `--max-conns` cap receives before its stream is closed (id 0: no
/// request was read).
pub fn encode_conn_limit(limit: usize) -> String {
    encode_err(
        0,
        &ProtoError::new(
            "conn-limit",
            format!("server is at its {limit}-connection cap; retry later"),
        ),
    )
}

/// Split a response payload into `(id, rest)`; `rest` starts with the
/// status word (`OK` / `ERR` / `BUSY`).
pub fn split_response(payload: &[u8]) -> Option<(u64, String)> {
    let text = std::str::from_utf8(payload).ok()?;
    let (id, rest) = text.split_once(' ')?;
    Some((id.parse().ok()?, rest.to_string()))
}

/// Render an `f64` as `<to_bits hex>:<decimal>` — the bit-exact wire
/// form every response body uses.
pub fn f64_field(x: f64) -> String {
    format!("{:016x}:{:.6}", x.to_bits(), x)
}

/// `PAIR` body: the N_s pairing score.
pub fn pair_body(score: f64) -> String {
    format!("pair {}", f64_field(score))
}

/// `ZPROF` body: region, sizes, observed mean, then one
/// `<model-short>=<z>` field per comparison (`-` for a degenerate
/// null with no Z).
pub fn zprof_body(a: &CuisineAnalysis) -> String {
    let mut body = format!(
        "zprof {} recipes={} ingredients={} obs={}",
        a.region.code(),
        a.n_recipes,
        a.n_ingredients,
        f64_field(a.observed_mean),
    );
    for c in &a.comparisons {
        body.push(' ');
        body.push_str(c.model.short());
        body.push('=');
        match c.z {
            Some(z) => body.push_str(&f64_field(z)),
            None => body.push('-'),
        }
    }
    body
}

/// One `TOPK` result row.
#[derive(Debug, Clone, PartialEq)]
pub struct TopPairing {
    /// `overlap / (1 + cooccurrence)` — high overlap, rarely co-used.
    pub novelty: f64,
    /// Shared flavor compounds.
    pub overlap: u32,
    /// Times the pair appears together across the store.
    pub cooc: u64,
    /// Ingredient names.
    pub a: String,
    pub b: String,
}

/// `TOPK` body: header then `;novelty,overlap,cooc,nameA|nameB` rows.
/// Separator characters inside names are replaced with `_`.
pub fn topk_body(region: Region, rows: &[TopPairing]) -> String {
    let clean = |s: &str| s.replace([';', ',', '|'], "_");
    let mut body = format!("topk {} {}", region.code(), rows.len());
    for r in rows {
        body.push_str(&format!(
            ";{},{},{},{}|{}",
            f64_field(r.novelty),
            r.overlap,
            r.cooc,
            clean(&r.a),
            clean(&r.b),
        ));
    }
    body
}

/// `SCORE` body: how many input lines resolved to at least one
/// ingredient, the distinct-id count, and the pairing score of the
/// resolved set.
pub fn score_body(resolved_lines: usize, total_lines: usize, n_ids: usize, score: f64) -> String {
    format!(
        "score lines={resolved_lines}/{total_lines} ids={n_ids} {}",
        f64_field(score)
    )
}

/// A minimal blocking client for one frame stream — what the tests
/// and perfbench's load generator drive.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
}

impl<S: Read + Write> Client<S> {
    pub fn new(stream: S) -> Client<S> {
        Client { stream }
    }

    /// Send one request payload.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        self.send_raw(payload.as_bytes())
    }

    /// Send an arbitrary (possibly malformed) payload — test fodder.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)?;
        self.stream.flush()
    }

    /// Receive one response as `(id, rest)`; `None` on clean EOF.
    pub fn recv(&mut self) -> io::Result<Option<(u64, String)>> {
        match read_frame(&mut self.stream, MAX_FRAME) {
            Ok(None) => Ok(None),
            Ok(Some(payload)) => split_response(&payload)
                .map(Some)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response")),
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Send `<id> <line>` and block until the response for `id` comes
    /// back (responses for other in-flight ids are discarded — use
    /// [`Client::recv`] directly for pipelined traffic).
    pub fn call(&mut self, id: u64, line: &str) -> io::Result<String> {
        self.send(&format!("{id} {line}"))?;
        loop {
            match self.recv()? {
                Some((rid, rest)) if rid == id => return Ok(rest),
                Some(_) => continue,
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed before the response arrived",
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"7 PING").unwrap();
        write_frame(&mut buf, b"8 QUIT").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"7 PING");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"8 QUIT");
        assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn truncated_and_oversized_frames_are_structured_errors() {
        // Partial header.
        let mut r: &[u8] = &[1, 0];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Truncated)
        ));
        // Header promises more payload than the stream holds.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Truncated)
        ));
        // Announced length over the cap.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME),
            Err(FrameError::Oversized(_))
        ));
        // Writing over the cap is refused up front.
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn parse_requests() {
        assert_eq!(parse_request(b"3 PING").unwrap(), (3, Request::Ping));
        assert_eq!(parse_request(b"11 HEALTH").unwrap(), (11, Request::Health));
        assert_eq!(
            parse_request(b"4 PAIR ITA 1,2,9").unwrap(),
            (
                4,
                Request::Pair {
                    region: Some(Region::Italy),
                    ids: vec![IngredientId(1), IngredientId(2), IngredientId(9)],
                }
            )
        );
        assert_eq!(
            parse_request(b"5 PAIR - 0,1").unwrap().1,
            Request::Pair {
                region: None,
                ids: vec![IngredientId(0), IngredientId(1)],
            }
        );
        // PAIR id sets come out sorted and deduplicated.
        assert_eq!(
            parse_request(b"4 PAIR ITA 9,1,2,1,9").unwrap(),
            parse_request(b"4 PAIR ITA 1,2,9").unwrap()
        );
        assert_eq!(
            parse_request(b"5 PAIR - 1,0,0").unwrap().1,
            Request::Pair {
                region: None,
                ids: vec![IngredientId(0), IngredientId(1)],
            }
        );
        assert_eq!(
            parse_request(b"6 TOPK JPN 10").unwrap().1,
            Request::TopK {
                region: Region::Japan,
                k: 10
            }
        );
        let (id, req) = parse_request(b"7 SCORE ITA\ngarlic\nbasil").unwrap();
        assert_eq!(id, 7);
        assert_eq!(
            req,
            Request::Score {
                region: Region::Italy,
                lines: vec!["garlic".into(), "basil".into()],
            }
        );
    }

    #[test]
    fn parse_errors_keep_the_id_and_code() {
        let (id, e) = parse_request(b"9 PAIR ITA 1,x").unwrap_err();
        assert_eq!((id, e.code), (9, "bad-ids"));
        let (id, e) = parse_request(b"9 ZPROF ATLANTIS").unwrap_err();
        assert_eq!((id, e.code), (9, "bad-region"));
        let (id, e) = parse_request(b"9 TOPK ITA 0").unwrap_err();
        assert_eq!((id, e.code), (9, "bad-k"));
        let (id, e) = parse_request(b"9 FRY ITA").unwrap_err();
        assert_eq!((id, e.code), (9, "bad-verb"));
        let (id, e) = parse_request(b"x PING").unwrap_err();
        assert_eq!((id, e.code), (0, "bad-id"));
        let (id, e) = parse_request(&[0xff, 0xfe]).unwrap_err();
        assert_eq!((id, e.code), (0, "bad-encoding"));
        let (_, e) = parse_request(b"9 PING\nextra").unwrap_err();
        assert_eq!(e.code, "bad-args");
        let (_, e) = parse_request(b"9 HEALTH\nextra").unwrap_err();
        assert_eq!(e.code, "bad-args");
        // A pairing needs two distinct ids; the cap counts the raw list.
        let (id, e) = parse_request(b"9 PAIR ITA 5,5").unwrap_err();
        assert_eq!((id, e.code), (9, "bad-ids"));
        let flood = vec!["5"; MAX_SET + 1].join(",");
        let (_, e) = parse_request(format!("9 PAIR ITA 5,7,{flood}").as_bytes()).unwrap_err();
        assert_eq!(e.code, "bad-ids");
        assert!(e.message.contains("cap"), "{}", e.message);
        // Tokens after a verb's arguments are rejected, not ignored.
        for extra in [
            "9 PING extra",
            "9 HEALTH extra",
            "9 PAIR ITA 5,7 junk",
            "9 PAIR - 5,7 junk",
            "9 ZPROF ITA extra",
            "9 TOPK ITA 5 extra",
            "9 SCORE ITA extra\ngarlic",
        ] {
            let (id, e) = parse_request(extra.as_bytes()).unwrap_err();
            assert_eq!((id, e.code), (9, "bad-args"), "{extra:?}");
        }
    }

    #[test]
    fn conn_limit_frame_is_a_structured_err() {
        let (id, rest) = split_response(encode_conn_limit(64).as_bytes()).unwrap();
        assert_eq!(id, 0);
        assert!(rest.starts_with("ERR conn-limit "));
        assert!(rest.contains("64-connection cap"));
    }

    #[test]
    fn f64_field_is_bit_exact() {
        let x = 0.123_456_789_f64;
        let field = f64_field(x);
        let hex = field.split(':').next().unwrap();
        assert_eq!(u64::from_str_radix(hex, 16).unwrap(), x.to_bits());
    }

    #[test]
    fn response_encoding_and_split() {
        let payload = encode_ok(12, &pair_body(0.5));
        let (id, rest) = split_response(payload.as_bytes()).unwrap();
        assert_eq!(id, 12);
        assert!(rest.starts_with("OK pair "));
        let busy = encode_busy(3, 256);
        assert_eq!(split_response(busy.as_bytes()).unwrap().1, "BUSY 256");
    }
}
