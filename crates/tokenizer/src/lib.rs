//! Deterministic subword tokenizer for the `llmqo` reproduction.
//!
//! The paper measures everything in *tokens* produced by the Llama tokenizer:
//! prompt lengths (Table 1), the squared-length PHC objective (Eq. 2), prefix
//! hit rates (Table 2), and provider billing (Table 3). For the reproduction
//! we only need two properties of a tokenizer:
//!
//! 1. **Determinism** — the same text always yields the same token sequence,
//!    so equal prompt prefixes yield equal token prefixes (this is what makes
//!    KV-cache prefix reuse sound).
//! 2. **Realistic granularity** — roughly 4 characters per token on English
//!    prose, so token counts (and therefore costs and runtimes) land in the
//!    same regime as the paper's.
//!
//! This crate provides a small greedy segmenter with both properties: text is
//! split into whitespace-prefixed word segments and punctuation runs, and each
//! segment is chopped into pieces of at most [`Tokenizer::piece_bytes`] bytes.
//! Token ids are stable 64-bit FNV-1a hashes of the piece bytes folded to
//! `u32`.
//!
//! # Examples
//!
//! ```
//! use llmqo_tokenizer::Tokenizer;
//!
//! let tok = Tokenizer::new();
//! let ids = tok.tokenize("SELECT review FROM movies");
//! assert_eq!(ids.len(), tok.count("SELECT review FROM movies"));
//! // Determinism: same text, same ids.
//! assert_eq!(ids, tok.tokenize("SELECT review FROM movies"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A token identifier. Stable across runs and processes.
pub type TokenId = u32;

/// Default maximum piece size in bytes (~4 chars/token on English prose).
pub const DEFAULT_PIECE_BYTES: usize = 4;

/// Deterministic subword tokenizer.
///
/// See the [crate-level documentation](crate) for design rationale.
///
/// # Examples
///
/// ```
/// use llmqo_tokenizer::Tokenizer;
/// let tok = Tokenizer::new();
/// assert!(tok.count("hello world") >= 2);
/// assert_eq!(tok.count(""), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tokenizer {
    piece_bytes: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Tokenizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tokenizer(piece_bytes={})", self.piece_bytes)
    }
}

impl Tokenizer {
    /// Creates a tokenizer with the default piece size
    /// ([`DEFAULT_PIECE_BYTES`]).
    pub fn new() -> Self {
        Self {
            piece_bytes: DEFAULT_PIECE_BYTES,
        }
    }

    /// Creates a tokenizer with a custom maximum piece size in bytes.
    ///
    /// Smaller pieces produce more tokens per character; `1` degenerates to
    /// one token per character (per byte for ASCII).
    ///
    /// # Panics
    ///
    /// Panics if `piece_bytes` is zero.
    pub fn with_piece_bytes(piece_bytes: usize) -> Self {
        assert!(piece_bytes > 0, "piece_bytes must be positive");
        Self { piece_bytes }
    }

    /// Maximum piece size in bytes.
    pub fn piece_bytes(&self) -> usize {
        self.piece_bytes
    }

    /// Tokenizes `text` into stable token ids.
    ///
    /// Identical texts always produce identical sequences. An empty string
    /// produces an empty sequence.
    pub fn tokenize(&self, text: &str) -> Vec<TokenId> {
        // Full pieces plus one short tail piece per ~6-byte word: prose
        // rarely outgrows this, so the vector is allocated once.
        let mut out = Vec::with_capacity(text.len() / self.piece_bytes + text.len() / 6 + 1);
        self.for_each_piece(text, |piece| out.push(fold_hash(fnv1a(piece))));
        out
    }

    /// Counts tokens without allocating the id vector.
    ///
    /// Equivalent to `self.tokenize(text).len()` but cheaper; this is the
    /// hot path for dataset calibration and cost accounting.
    pub fn count(&self, text: &str) -> usize {
        let mut n = 0usize;
        self.for_each_piece(text, |_| n += 1);
        n
    }

    /// Drives `f` over the bytes of every token piece of `text` in order.
    ///
    /// The leading ASCII run is classified a byte at a time through
    /// [`ASCII_CLASS`] and chopped by byte offsets; from the first non-ASCII
    /// byte on, the same segmenter is fed decoded `char`s.
    fn for_each_piece<F: FnMut(&[u8])>(&self, text: &str, mut f: F) {
        let bytes = text.as_bytes();
        let ascii_len = if text.is_ascii() {
            bytes.len()
        } else {
            bytes.iter().position(|b| !b.is_ascii()).unwrap_or(0)
        };
        let mut segments = Segmenter::default();
        let ascii = &bytes[..ascii_len];
        let mut idx = 0usize;
        while idx < ascii.len() {
            // `advance` ignores a character of the current class, so it
            // only needs to see the first byte of each same-class run.
            let class = ASCII_CLASS[usize::from(ascii[idx])];
            segments.advance(idx, class, |start, end| {
                self.chop_ascii(&ascii[start..end], &mut f);
            });
            idx += 1;
            while idx < ascii.len() && ASCII_CLASS[usize::from(ascii[idx])] == class {
                idx += 1;
            }
        }
        for (offset, ch) in text[ascii_len..].char_indices() {
            segments.advance(ascii_len + offset, CharClass::of(ch), |start, end| {
                self.chop(&text[start..end], &mut f);
            });
        }
        segments.finish(text.len(), |start, end| {
            if end <= ascii_len {
                self.chop_ascii(&bytes[start..end], &mut f);
            } else {
                self.chop(&text[start..end], &mut f);
            }
        });
    }

    /// [`chop`](Tokenizer::chop) for an all-ASCII segment: every character
    /// is one byte, so pieces are plain `piece_bytes`-sized chunks.
    fn chop_ascii<F: FnMut(&[u8])>(&self, segment: &[u8], f: &mut F) {
        segment.chunks(self.piece_bytes).for_each(f);
    }

    /// Chops a segment into pieces of at most `piece_bytes` bytes, always
    /// keeping at least one (possibly multi-byte) character per piece.
    fn chop<F: FnMut(&[u8])>(&self, segment: &str, f: &mut F) {
        let bytes = segment.as_bytes();
        let mut start = 0usize;
        let mut last_boundary = 0usize;
        for (idx, ch) in segment.char_indices() {
            if idx - start > 0 && idx - start + ch.len_utf8() > self.piece_bytes {
                f(&bytes[start..idx]);
                start = idx;
            }
            last_boundary = idx + ch.len_utf8();
        }
        if start < last_boundary {
            f(&bytes[start..last_boundary]);
        }
    }
}

/// Segmentation state: splits a classified character stream into
/// whitespace-prefixed word segments and punctuation runs, reporting each
/// finished segment's byte range.
#[derive(Debug)]
struct Segmenter {
    segment_start: usize,
    segment_class: CharClass,
    /// Byte range of a whitespace run waiting to attach to the next word.
    pending_ws: Option<(usize, usize)>,
}

impl Default for Segmenter {
    fn default() -> Self {
        Segmenter {
            segment_start: 0,
            segment_class: CharClass::Whitespace,
            pending_ws: None,
        }
    }
}

impl Segmenter {
    /// Feeds the character starting at byte `idx`; `flush` receives the
    /// byte range of every segment this character closes.
    #[inline]
    fn advance(&mut self, idx: usize, class: CharClass, mut flush: impl FnMut(usize, usize)) {
        if idx == 0 {
            self.segment_class = class;
            return;
        }
        if class == self.segment_class {
            return;
        }
        // Segment boundary at `idx`.
        match (self.segment_class, class) {
            (CharClass::Whitespace, CharClass::Word) => {
                // Attach the whitespace run to the following word.
                self.pending_ws = Some((self.segment_start, idx));
            }
            (CharClass::Whitespace, CharClass::Punct) => {
                flush(self.segment_start, idx);
            }
            (prev, _) => {
                let start = match self.pending_ws.take() {
                    Some((ws_start, _)) if prev == CharClass::Word => ws_start,
                    other => {
                        // Whitespace was pending but previous segment was
                        // punctuation: flush the whitespace separately.
                        if let Some((ws_start, ws_end)) = other {
                            flush(ws_start, ws_end);
                        }
                        self.segment_start
                    }
                };
                flush(start, idx);
            }
        }
        self.segment_start = idx;
        self.segment_class = class;
    }

    /// Flushes the final segment (plus any pending whitespace prefix) of a
    /// text of `len` bytes.
    fn finish(mut self, len: usize, mut flush: impl FnMut(usize, usize)) {
        if len == 0 {
            return;
        }
        let start = match self.pending_ws.take() {
            Some((ws_start, _)) if self.segment_class == CharClass::Word => ws_start,
            Some((ws_start, ws_end)) => {
                flush(ws_start, ws_end);
                self.segment_start
            }
            None => self.segment_start,
        };
        flush(start, len);
    }
}

/// Character classes used for segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CharClass {
    Whitespace,
    Word,
    Punct,
}

impl CharClass {
    fn of(ch: char) -> Self {
        if ch.is_whitespace() {
            CharClass::Whitespace
        } else if ch.is_alphanumeric() || ch == '_' {
            CharClass::Word
        } else {
            CharClass::Punct
        }
    }
}

/// [`CharClass::of`] for the 128 ASCII code points, indexed by byte.
const ASCII_CLASS: [CharClass; 128] = {
    let mut table = [CharClass::Punct; 128];
    let mut b = 0usize;
    while b < 128 {
        let byte = b as u8;
        if matches!(byte, b'\t'..=b'\r' | b' ') {
            table[b] = CharClass::Whitespace;
        } else if byte.is_ascii_alphanumeric() || byte == b'_' {
            table[b] = CharClass::Word;
        }
        b += 1;
    }
    table
};

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Folds a 64-bit hash into a token id.
fn fold_hash(h: u64) -> TokenId {
    ((h >> 32) ^ (h & 0xffff_ffff)) as TokenId
}

/// Counts tokens in `text` using the default tokenizer.
///
/// Convenience for call sites that do not need a configured [`Tokenizer`].
///
/// # Examples
///
/// ```
/// assert!(llmqo_tokenizer::token_count("four score and seven years") >= 5);
/// ```
pub fn token_count(text: &str) -> usize {
    Tokenizer::new().count(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_empty() {
        let tok = Tokenizer::new();
        assert!(tok.tokenize("").is_empty());
        assert_eq!(tok.count(""), 0);
    }

    #[test]
    fn deterministic() {
        let tok = Tokenizer::new();
        let text = "The movie was reviewed favorably by 87% of critics.";
        assert_eq!(tok.tokenize(text), tok.tokenize(text));
    }

    #[test]
    fn count_matches_tokenize_len() {
        let tok = Tokenizer::new();
        for text in [
            "",
            "a",
            "hello world",
            "  leading and trailing  ",
            "punct!!! and, commas.",
            "JSON: {\"field\": \"value\"}",
            "unicode: naïve café 東京 🎬",
        ] {
            assert_eq!(tok.count(text), tok.tokenize(text).len(), "text={text:?}");
        }
    }

    #[test]
    fn same_word_same_id() {
        let tok = Tokenizer::new();
        let a = tok.tokenize("the");
        let b = tok.tokenize("the");
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn whitespace_attaches_to_word() {
        let tok = Tokenizer::new();
        // " the" is 4 bytes -> exactly one piece.
        assert_eq!(tok.count(" the"), 1);
        // "a b" -> "a", " b" -> 2 tokens.
        assert_eq!(tok.count("a b"), 2);
    }

    #[test]
    fn long_word_is_chopped() {
        let tok = Tokenizer::new();
        // 12 ASCII bytes / 4 per piece = 3 pieces.
        assert_eq!(tok.count("abcdefghijkl"), 3);
    }

    #[test]
    fn punct_runs_are_separate() {
        let tok = Tokenizer::new();
        // "a" + ", " is punct then whitespace then word...
        let n = tok.count("a, b");
        assert!(n >= 3, "expected at least 3 tokens, got {n}");
    }

    #[test]
    fn prose_ratio_is_roughly_four_chars_per_token() {
        let tok = Tokenizer::new();
        let text = "Given the following fields of a movie description and a user \
                    review, assign a sentiment score for the review out of five. \
                    Answer with only a single integer between one and five.";
        let ratio = text.len() as f64 / tok.count(text) as f64;
        assert!(
            (3.0..=6.0).contains(&ratio),
            "chars/token ratio {ratio} out of expected band"
        );
    }

    #[test]
    fn piece_bytes_one_is_per_char() {
        let tok = Tokenizer::with_piece_bytes(1);
        assert_eq!(tok.count("abc"), 3);
    }

    #[test]
    #[should_panic(expected = "piece_bytes must be positive")]
    fn zero_piece_bytes_panics() {
        let _ = Tokenizer::with_piece_bytes(0);
    }

    #[test]
    fn multibyte_chars_do_not_panic() {
        let tok = Tokenizer::with_piece_bytes(2);
        // Each CJK char is 3 bytes > piece size; must still emit 1 char/piece.
        assert_eq!(tok.count("東京"), 2);
    }

    #[test]
    fn concatenated_fragments_share_token_prefix() {
        // The prompt serializer concatenates *token streams* of fragments, so
        // equal fragment sequences always share token prefixes. Verify the
        // underlying property on raw text ending at segment boundaries.
        let tok = Tokenizer::new();
        let a = tok.tokenize("alpha beta");
        let ab = tok.tokenize("alpha beta gamma");
        assert_eq!(&ab[..a.len()], &a[..]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Tokenizer::new().to_string().is_empty());
        assert!(!format!("{:?}", Tokenizer::new()).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The segmenter as it was before the ASCII fast path: every character
    /// decoded and classified through [`CharClass::of`], every segment
    /// chopped by [`Tokenizer::chop`]. Kept here as the fast path's oracle.
    fn reference_pieces(tok: &Tokenizer, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut f = |piece: &[u8]| out.push(String::from_utf8(piece.to_vec()).unwrap());
        let mut segment_start = 0usize;
        let mut segment_class = CharClass::Whitespace;
        let mut pending_ws: Option<(usize, usize)> = None;
        let flush_segment = |start: usize, end: usize, f: &mut dyn FnMut(&[u8])| {
            if start < end {
                tok.chop(&text[start..end], &mut |p: &[u8]| f(p));
            }
        };
        for (idx, ch) in text.char_indices() {
            let class = CharClass::of(ch);
            if idx == 0 {
                segment_class = class;
                continue;
            }
            if class == segment_class {
                continue;
            }
            match (segment_class, class) {
                (CharClass::Whitespace, CharClass::Word) => {
                    pending_ws = Some((segment_start, idx));
                }
                (CharClass::Whitespace, CharClass::Punct) => {
                    flush_segment(segment_start, idx, &mut f);
                }
                (prev, _) => {
                    let start = match pending_ws.take() {
                        Some((ws_start, _)) if prev == CharClass::Word => ws_start,
                        other => {
                            if let Some((ws_start, ws_end)) = other {
                                flush_segment(ws_start, ws_end, &mut f);
                            }
                            segment_start
                        }
                    };
                    flush_segment(start, idx, &mut f);
                }
            }
            segment_start = idx;
            segment_class = class;
        }
        if !text.is_empty() {
            let start = match pending_ws.take() {
                Some((ws_start, _)) if segment_class == CharClass::Word => ws_start,
                Some((ws_start, ws_end)) => {
                    flush_segment(ws_start, ws_end, &mut f);
                    segment_start
                }
                None => segment_start,
            };
            flush_segment(start, text.len(), &mut f);
        }
        out
    }

    fn pieces(tok: &Tokenizer, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        tok.for_each_piece(text, |p| out.push(String::from_utf8(p.to_vec()).unwrap()));
        out
    }

    #[test]
    fn ascii_table_matches_char_classes() {
        for b in 0u8..128 {
            assert_eq!(
                ASCII_CLASS[usize::from(b)],
                CharClass::of(char::from(b)),
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn fast_path_matches_reference_on_edge_texts() {
        // ASCII whitespace/control bytes the proptest palette lacks, and
        // non-ASCII whitespace right after an ASCII run.
        for text in [
            "a\rb\x0bc\x0cd\x1ce\x7ff",
            "tab\tnew\nline  two   three",
            "\"name\": \"value with, punct!\", ",
            "ascii then\u{a0}nbsp\u{85}nel and café",
            " \u{3000}wide space first",
            "é",
            "trailing ws é  ",
            "....  !!",
        ] {
            for piece_bytes in 1..=8 {
                let tok = Tokenizer::with_piece_bytes(piece_bytes);
                assert_eq!(
                    pieces(&tok, text),
                    reference_pieces(&tok, text),
                    "text={text:?} piece_bytes={piece_bytes}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn fast_path_matches_reference(text in ".*", ascii in prop::collection::vec(0u8..128, 0..64)) {
            // Arbitrary Unicode, arbitrary ASCII bytes, and one spliced
            // into the other so the hand-over happens mid-text.
            let ascii: String = ascii.into_iter().map(char::from).collect();
            let spliced = format!("{ascii}{text}{ascii}");
            for piece_bytes in 1..=8 {
                let tok = Tokenizer::with_piece_bytes(piece_bytes);
                for t in [&text, &ascii, &spliced] {
                    let expected = reference_pieces(&tok, t);
                    prop_assert_eq!(&pieces(&tok, t), &expected);
                    let ids: Vec<TokenId> = expected
                        .iter()
                        .map(|p| fold_hash(fnv1a(p.as_bytes())))
                        .collect();
                    prop_assert_eq!(tok.tokenize(t), ids);
                    prop_assert_eq!(tok.count(t), expected.len());
                }
            }
        }

        #[test]
        fn never_panics(text in ".*") {
            let tok = Tokenizer::new();
            let _ = tok.tokenize(&text);
            let _ = tok.count(&text);
        }

        #[test]
        fn count_equals_len(text in ".*") {
            let tok = Tokenizer::new();
            prop_assert_eq!(tok.count(&text), tok.tokenize(&text).len());
        }

        #[test]
        fn nonempty_text_has_tokens(text in ".+") {
            let tok = Tokenizer::new();
            prop_assert!(tok.count(&text) > 0);
        }

        #[test]
        fn deterministic_ids(text in ".*") {
            let tok = Tokenizer::new();
            prop_assert_eq!(tok.tokenize(&text), tok.tokenize(&text));
        }

        #[test]
        fn token_count_bounded_by_chars(text in ".*") {
            let tok = Tokenizer::new();
            // At most one token per char; at least len/(4*max_utf8) pieces.
            prop_assert!(tok.count(&text) <= text.chars().count());
        }

        #[test]
        fn smaller_pieces_mean_no_fewer_tokens(text in ".*") {
            let fine = Tokenizer::with_piece_bytes(2);
            let coarse = Tokenizer::with_piece_bytes(8);
            prop_assert!(fine.count(&text) >= coarse.count(&text));
        }
    }
}
