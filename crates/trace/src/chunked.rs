//! Incremental reading of the text format from arbitrarily-split chunks.
//!
//! The streaming analysis ingests traces as they are produced — from a
//! pipe, a socket, or a file that is still being written. Chunks of text
//! arrive at arbitrary boundaries, so a record (one line) may be torn
//! across two or more chunks. [`ChunkedReader`] buffers the torn tail,
//! yields only syntactically complete operations, and reuses the lenient
//! parser's per-line recovery: malformed lines become [`Diagnostic`]s with
//! a [`Repair::SkipOp`] repair instead of hard errors, exactly as
//! [`from_text_lenient`](crate::from_text_lenient) treats them.
//!
//! Semantic repairs (synthesized closes, truncated infeasible tasks) need
//! the whole trace and are *not* applied here; a streaming consumer that
//! needs them falls back to a batch re-analysis, which the core crate's
//! streaming session does automatically for structurally invalid streams.

use crate::format::{parse_line, Cursor, Diagnostic, ParseTraceError, Repair, HEADER};
use crate::names::Names;
use crate::op::Op;

/// Reads the droidracer text format incrementally.
///
/// Push text in any-sized pieces with [`ChunkedReader::push_text`]; each
/// call returns the operations whose lines completed. Call
/// [`ChunkedReader::finish`] at end of input to flush a final unterminated
/// line and collect the accumulated name table and diagnostics.
///
/// ```
/// use droidracer_trace::ChunkedReader;
///
/// let text = "droidracer-trace v1\nthread t0 main initial \"main\"\nop threadinit t0\n";
/// let (a, b) = text.split_at(27); // mid-record split
/// let mut r = ChunkedReader::new();
/// let mut ops = r.push_text(a).unwrap();
/// ops.extend(r.push_text(b).unwrap());
/// let (names, rest, diags) = r.finish().unwrap();
/// ops.extend(rest);
/// assert_eq!(ops.len(), 1);
/// assert_eq!(names.thread_name(droidracer_trace::ThreadId(0)), "main");
/// assert!(diags.is_empty());
/// ```
#[derive(Debug)]
pub struct ChunkedReader {
    /// Unconsumed text after the last newline — at most one torn line.
    tail: String,
    names: Names,
    header_seen: bool,
    /// 1-based number of the last consumed line.
    line: usize,
    /// Absolute byte offset of the start of `tail` in the whole stream.
    offset: usize,
    diags: Vec<Diagnostic>,
}

impl ChunkedReader {
    /// An empty reader, expecting the format header first.
    pub fn new() -> Self {
        ChunkedReader {
            tail: String::new(),
            names: Names::new(),
            header_seen: false,
            line: 0,
            offset: 0,
            diags: Vec::new(),
        }
    }

    /// Feeds the next piece of text and returns the operations from every
    /// line it completed. The trailing partial line (if any) stays
    /// buffered for the next push.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] when the first complete line is not the
    /// format header — the one unrecoverable condition, matching
    /// [`from_text_lenient`](crate::from_text_lenient).
    pub fn push_text(&mut self, text: &str) -> Result<Vec<Op>, ParseTraceError> {
        self.tail.push_str(text);
        // Parse the completed lines where they lie, then drop them with one
        // drain; after an error, only the lines through the failing one.
        let buf = std::mem::take(&mut self.tail);
        let complete = buf.rfind('\n').map_or(0, |nl| nl + 1);
        // Room for one op per 16 bytes, as in `from_text`.
        let mut ops = Vec::with_capacity(complete / 16);
        let start = self.offset;
        let result = self.consume_lines(&buf[..complete], &mut ops);
        self.tail = buf;
        self.tail.drain(..self.offset - start);
        result.map(|()| ops)
    }

    /// Ends the input: parses a final unterminated line if one is
    /// buffered, then returns the accumulated name table, any last
    /// operations, and the diagnostics for every skipped line.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] when the stream never produced the
    /// format header (including the empty stream).
    pub fn finish(mut self) -> Result<(Names, Vec<Op>, Vec<Diagnostic>), ParseTraceError> {
        let mut ops = Vec::new();
        let tail = std::mem::take(&mut self.tail);
        self.consume_lines(&tail, &mut ops)?;
        if !self.header_seen {
            return Err(ParseTraceError {
                line: 1,
                message: format!("missing header `{HEADER}`, got None"),
            });
        }
        Ok((self.names, ops, self.diags))
    }

    /// The name table accumulated from declaration lines so far.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Diagnostics for malformed lines skipped so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of complete lines consumed so far.
    pub fn lines_consumed(&self) -> usize {
        self.line
    }

    /// Consumes every line of `text`, the last one perhaps unterminated,
    /// until one fails, and advances `offset` past the consumed lines, the
    /// failing one included.
    fn consume_lines(&mut self, text: &str, ops: &mut Vec<Op>) -> Result<(), ParseTraceError> {
        let base = self.offset;
        let mut cur = Cursor::new(text);
        while !cur.at_end() {
            self.line += 1;
            if !self.header_seen {
                let (start, end) = cur.next_line();
                let content = &text[start..end];
                if content.trim() != HEADER {
                    self.offset = base + cur.offset();
                    return Err(ParseTraceError {
                        line: self.line,
                        message: format!("missing header `{HEADER}`, got {content:?}"),
                    });
                }
                self.header_seen = true;
                continue;
            }
            let result = parse_line(&mut cur, &mut self.names);
            let (start, end) = cur.next_line();
            match result {
                Ok(Some(op)) => ops.push(op),
                Ok(None) => {}
                Err(message) => self.diags.push(Diagnostic {
                    line: self.line,
                    span: (base + start, base + end),
                    message,
                    repair: Repair::SkipOp,
                }),
            }
        }
        self.offset = base + text.len();
        Ok(())
    }
}

impl Default for ChunkedReader {
    fn default() -> Self {
        ChunkedReader::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::format::{from_text, to_text};
    use crate::ids::ThreadKind;

    fn sample_text() -> String {
        let mut b = TraceBuilder::new();
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg thread", ThreadKind::App, false);
        let t = b.task("work");
        let loc = b.loc("o", "C.f");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.fork(main, bg);
        b.thread_init(bg);
        b.post(bg, t, main);
        b.begin(main, t);
        b.write(main, loc);
        b.end(main, t);
        b.read(bg, loc);
        to_text(&b.finish())
    }

    fn read_chunked(pieces: &[&str]) -> (Names, Vec<Op>, Vec<Diagnostic>) {
        let mut r = ChunkedReader::new();
        let mut ops = Vec::new();
        for p in pieces {
            ops.extend(r.push_text(p).expect("valid header"));
        }
        let (names, rest, diags) = r.finish().expect("valid header");
        ops.extend(rest);
        (names, ops, diags)
    }

    #[test]
    fn every_split_point_yields_the_batch_parse() {
        let text = sample_text();
        let batch = from_text(&text).expect("valid text");
        for k in 0..=text.len() {
            if !text.is_char_boundary(k) {
                continue;
            }
            let (names, ops, diags) = read_chunked(&[&text[..k], &text[k..]]);
            assert_eq!(ops, batch.ops(), "split at byte {k}");
            assert_eq!(&names, batch.names(), "split at byte {k}");
            assert!(diags.is_empty());
        }
    }

    #[test]
    fn one_byte_at_a_time_matches_batch() {
        let text = sample_text();
        let batch = from_text(&text).expect("valid text");
        let mut r = ChunkedReader::new();
        let mut ops = Vec::new();
        for c in text.chars() {
            ops.extend(r.push_text(&c.to_string()).unwrap());
        }
        let (names, rest, diags) = r.finish().unwrap();
        ops.extend(rest);
        assert_eq!(ops, batch.ops());
        assert_eq!(&names, batch.names());
        assert!(diags.is_empty());
    }

    #[test]
    fn unterminated_last_line_is_flushed_at_finish() {
        let text = sample_text();
        let trimmed = text.trim_end_matches('\n');
        let batch = from_text(&text).expect("valid text");
        let (_, ops, diags) = read_chunked(&[trimmed]);
        assert_eq!(ops, batch.ops());
        assert!(diags.is_empty());
    }

    #[test]
    fn malformed_lines_become_skip_diagnostics() {
        let text = "droidracer-trace v1\nthread t0 main initial \"m\"\nop threadinit t0\nop frobnicate t0\nop read t0 bogus\n";
        let (_, ops, diags) = read_chunked(&[text]);
        assert_eq!(ops.len(), 1, "only threadinit parses");
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.repair == Repair::SkipOp));
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn missing_header_is_an_error() {
        let mut r = ChunkedReader::new();
        assert!(r.push_text("garbage\n").is_err());
        let r2 = ChunkedReader::new();
        assert!(r2.finish().is_err(), "empty stream has no header");
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let text = sample_text().replace('\n', "\r\n");
        let batch = from_text(&sample_text()).expect("valid text");
        let (_, ops, diags) = read_chunked(&[&text]);
        assert_eq!(ops, batch.ops());
        assert!(diags.is_empty());
    }
}
