//! `ChunkedReader` at corpus scale: every corpus trace, read in 4 KiB
//! pieces and in 7-byte pieces, yields exactly the ops, names and
//! diagnostics `from_text_lenient` reads from the whole text.
//!
//! The pieces cut lines at every offset, so a torn line mishandled at a
//! piece boundary, a CRLF terminator split from its `\n`, or an
//! unterminated last line fails here. The clean corpus has no malformed
//! lines, so one CRLF copy also carries junk lines whose skip diagnostics
//! (line numbers and byte spans) must match too.

use droidracer::apps::corpus;
use droidracer::trace::{from_text_lenient, to_text, ChunkedReader, Diagnostic, Names, Op};

/// Reads `text` through a `ChunkedReader`, `piece` bytes (rounded up to a
/// char boundary) at a time.
fn read_in_pieces(text: &str, piece: usize) -> (Names, Vec<Op>, Vec<Diagnostic>) {
    let mut reader = ChunkedReader::new();
    let mut ops = Vec::new();
    let mut pos = 0;
    while pos < text.len() {
        let mut next = (pos + piece).min(text.len());
        while !text.is_char_boundary(next) {
            next += 1;
        }
        ops.extend(
            reader
                .push_text(&text[pos..next])
                .expect("corpus header is intact"),
        );
        pos = next;
    }
    let (names, rest, diags) = reader.finish().expect("corpus header is intact");
    ops.extend(rest);
    (names, ops, diags)
}

/// Asserts chunked reading of `text` at every piece size equals the
/// whole-text lenient parse.
fn assert_chunked_equals_lenient(text: &str, context: &str) {
    let (trace, diags) = from_text_lenient(text).expect("corpus header is intact");
    for piece in [4096, 7] {
        let (names, ops, chunked_diags) = read_in_pieces(text, piece);
        assert_eq!(
            ops,
            trace.ops(),
            "{context}: ops differ at {piece}-byte pieces"
        );
        assert_eq!(
            &names,
            trace.names(),
            "{context}: names differ at {piece}-byte pieces"
        );
        assert_eq!(
            chunked_diags, diags,
            "{context}: diagnostics differ at {piece}-byte pieces"
        );
    }
}

#[test]
fn every_corpus_trace_reads_the_same_in_pieces() {
    for entry in corpus() {
        let trace = entry
            .generate_trace()
            .unwrap_or_else(|e| panic!("{}: trace generation failed: {e}", entry.name));
        let text = to_text(&trace);
        assert_chunked_equals_lenient(&text, entry.name);
        // An unterminated last line is flushed by `finish`.
        assert_chunked_equals_lenient(text.trim_end_matches('\n'), entry.name);
    }
}

#[test]
fn a_crlf_corpus_trace_with_junk_lines_reads_the_same_in_pieces() {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "Aard Dictionary")
        .expect("Aard Dictionary is in the corpus");
    let text = to_text(&entry.generate_trace().expect("trace generation succeeds"));
    let mut crlf = String::new();
    for (i, line) in text.lines().enumerate() {
        crlf.push_str(line);
        crlf.push_str("\r\n");
        // Syntax junk only: the semantic repair pass sees the same ops.
        match i % 97 {
            13 => crlf.push_str("op frobnicate t0\r\n"),
            41 => crlf.push_str("bogus line \"with a quote\r\n"),
            77 => crlf.push_str("\u{A0}# a comment after a no-break space\r\n"),
            _ => {}
        }
    }
    let (_, diags) = from_text_lenient(&crlf).expect("header is intact");
    assert!(diags.len() > 4, "the junk lines are diagnosed: {diags:?}");
    assert_chunked_equals_lenient(&crlf, "Aard Dictionary (CRLF, junk lines)");
}
